"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays, float32 by default for training and float64 for
gradient checking. Each op computes its forward result with numpy and, when
any input requires gradients, attaches a backward rule to the output.
`backward` replays those rules in reverse topological order.

Broadcasting is deliberately restricted: elementwise ops require identical
shapes, except `add`, which also accepts a rank-1 bias over the last axis.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, ShapeError

_DEBUG_CHECKS = False

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_debug_checks(enabled):
    """Toggle per-op finiteness checks (off by default; slow)."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


class Tensor:
    """N-dimensional float array plus the bookkeeping backward needs.

    `_parents` holds the input tensors of the op that produced this value and
    `_backward` maps the output gradient to one gradient per parent. Leaf
    tensors (constants, parameters) have neither.
    """

    __slots__ = ("data", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def detach(self):
        """A view of the same values with no history."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self):
        tag = self.op or ("param" if self.requires_grad else "const")
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, op={tag})"

    # Sugar for the handful of binary ops losses read naturally with.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def _as_tensor(x, like=None):
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(x, dtype=dtype)


def _check_same_dtype(*tensors):
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) > 1:
        raise ContractError(f"mixed dtypes in op: {sorted(str(d) for d in dtypes)}")


def _check_axis(axis, ndim):
    if not -ndim <= axis < ndim:
        raise ContractError(f"axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


def _make(data, parents, backward, op):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out._parents = tuple(parents)
        out._backward = backward
    if _DEBUG_CHECKS and not np.all(np.isfinite(out.data)):
        raise ContractError(f"non-finite values out of op '{op}'")
    return out


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check_same_dtype(a, b)
    if a.shape == b.shape:

        def bwd(g):
            return g, g

    elif b.ndim == 1 and a.ndim > 1 and a.shape[-1] == b.shape[0]:
        # rank-1 bias over rows; the only broadcast add supports
        def bwd(g):
            return g, g.reshape(-1, b.shape[0]).sum(axis=0)

    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data + b.data, (a, b), bwd, "add")


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        return g, -g

    return _make(a.data - b.data, (a, b), bwd, "sub")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        return g * b.data, g * a.data

    return _make(a.data * b.data, (a, b), bwd, "mul")


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _make(a.data * c, (a,), bwd, "scale")


def matmul(a, b):
    """[M, N] @ [N, P] -> [M, P], or batched [B, M, N] @ [B, N, P] -> [B, M, P]."""
    a, b = _as_tensor(a), _as_tensor(b, like=a)
    _check_same_dtype(a, b)
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    return _make(a.data @ b.data, (a, b), bwd, "matmul")


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    _check_same_dtype(*tensors)
    axis = _check_axis(axis, tensors[0].ndim)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd, "concat")


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), bwd, "reshape")


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return _make(np.where(mask, a.data, 0), (a,), bwd, "relu")


def sigmoid(a):
    a = _as_tensor(a)
    # stable in both tails
    s = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-np.abs(a.data))),
                 np.exp(-np.abs(a.data)) / (1.0 + np.exp(-np.abs(a.data))))
    s = s.astype(a.dtype)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _make(s, (a,), bwd, "sigmoid")


def log(a, floor=0.0):
    """Natural log; with floor > 0, inputs are clamped to the floor first
    and clamped entries get zero gradient."""
    a = _as_tensor(a)
    if floor > 0.0:
        clamped = np.maximum(a.data, floor)
        mask = a.data >= floor
    else:
        if np.any(a.data <= 0):
            raise ContractError("log: non-positive input without a floor")
        clamped = a.data
        mask = True

    def bwd(g):
        return (g * mask / clamped,)

    return _make(np.log(clamped), (a,), bwd, "log")


def smooth_l1(a, beta=1.0):
    """Elementwise smooth-L1: quadratic inside |x| < beta, linear outside."""
    a = _as_tensor(a)
    if beta <= 0:
        raise ContractError("smooth_l1: beta must be positive")
    absa = np.abs(a.data)
    inside = absa < beta
    out = np.where(inside, 0.5 * a.data * a.data / beta, absa - 0.5 * beta)

    def bwd(g):
        return (g * np.where(inside, a.data / beta, np.sign(a.data)),)

    return _make(out.astype(a.dtype), (a,), bwd, "smooth_l1")


# ---------------------------------------------------------------------------
# reductions and normalizations


def _sum_grad_shape(g, axis, shape):
    if axis is None:
        return np.broadcast_to(g, shape).astype(g.dtype, copy=True)
    return np.broadcast_to(np.expand_dims(g, axis), shape).astype(g.dtype, copy=True)


def sum(a, axis=None):  # noqa: A001 - mirrors the op set's name
    a = _as_tensor(a)
    if axis is not None:
        axis = _check_axis(axis, a.ndim)
    shape = a.shape

    def bwd(g):
        return (_sum_grad_shape(g, axis, shape),)

    return _make(a.data.sum(axis=axis), (a,), bwd, "sum")


def mean(a, axis=None):
    a = _as_tensor(a)
    if axis is not None:
        axis = _check_axis(axis, a.ndim)
    shape = a.shape
    n = a.size if axis is None else shape[axis]
    if n == 0:
        raise ShapeError(f"mean over empty axis of shape {shape}")

    def bwd(g):
        return (_sum_grad_shape(g, axis, shape) / n,)

    return _make(a.data.mean(axis=axis), (a,), bwd, "mean")


def max(a, axis=None):  # noqa: A001
    """Max reduction; gradient routes to the first (lowest-index) argmax."""
    a = _as_tensor(a)
    if axis is None:
        flat_idx = int(np.argmax(a.data))
        out = a.data.reshape(-1)[flat_idx]

        def bwd(g):
            ga = np.zeros_like(a.data)
            ga.reshape(-1)[flat_idx] = g
            return (ga,)

        return _make(out, (a,), bwd, "max")

    axis = _check_axis(axis, a.ndim)
    idx = np.argmax(a.data, axis=axis)

    def bwd_axis(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return (ga,)

    return _make(a.data.max(axis=axis), (a,), bwd_axis, "max")


def softmax(a, axis=-1):
    a = _as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _make(s.astype(a.dtype), (a,), bwd, "softmax")


def layer_norm(a, gamma, beta, axis=-1, eps=1e-5):
    """Normalize to zero mean / unit variance along one axis, then apply the
    learned affine (gamma, beta), both shaped like that axis."""
    a, gamma, beta = _as_tensor(a), _as_tensor(gamma), _as_tensor(beta)
    _check_same_dtype(a, gamma, beta)
    axis = _check_axis(axis, a.ndim)
    n = a.shape[axis]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(
            f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match axis size {n}")

    x = np.moveaxis(a.data, axis, -1)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = np.moveaxis(xhat * gamma.data + beta.data, -1, axis)

    def bwd(g):
        gm = np.moveaxis(g, axis, -1)
        dxhat = gm * gamma.data
        # standard layer-norm backward, per normalized slice
        dx = inv / n * (n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        dgamma = (gm * xhat).reshape(-1, n).sum(axis=0)
        dbeta = gm.reshape(-1, n).sum(axis=0)
        return np.moveaxis(dx, -1, axis), dgamma, dbeta

    return _make(y.astype(a.dtype), (a, gamma, beta), bwd, "layer_norm")


def l2_norm_rows(a):
    """Euclidean norm of each row of a 2-d tensor; zero rows get zero grad."""
    a = _as_tensor(a)
    if a.ndim != 2:
        raise ShapeError(f"l2_norm_rows: expected 2-d input, got {a.shape}")
    y = np.sqrt((a.data * a.data).sum(axis=1))
    safe = np.where(y > 0, y, 1.0)

    def bwd(g):
        return ((g / safe)[:, None] * a.data,)

    return _make(y, (a,), bwd, "l2_norm_rows")


# ---------------------------------------------------------------------------
# indexed ops


def gather(a, indices, axis=0):
    a = _as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather: indices must be 1-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[axis]):
        raise ContractError(f"gather: index out of range for axis size {a.shape[axis]}")

    def bwd(g):
        ga = np.zeros_like(a.data)
        gm = np.moveaxis(ga, axis, 0)
        np.add.at(gm, idx, np.moveaxis(g, axis, 0))
        return (ga,)

    return _make(np.take(a.data, idx, axis=axis), (a,), bwd, "gather")


def scatter_add(a, indices, size, axis=0):
    """Sum rows of `a` into a zero tensor of `size` slots along `axis`.

    Adjoint of gather: rows sharing an index accumulate.
    """
    a = _as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (a.shape[axis],):
        raise ShapeError(
            f"scatter_add: indices shape {idx.shape} does not match axis size {a.shape[axis]}")
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ContractError(f"scatter_add: index out of range for size {size}")
    out_shape = list(a.shape)
    out_shape[axis] = size
    out = np.zeros(out_shape, dtype=a.dtype)
    np.add.at(np.moveaxis(out, axis, 0), idx, np.moveaxis(a.data, axis, 0))

    def bwd(g):
        return (np.take(g, idx, axis=axis),)

    return _make(out, (a,), bwd, "scatter_add")


# ---------------------------------------------------------------------------
# sequence ops (batched: [batch, channels, length])

_conv_index_cache = {}


def _conv_indices(length, kernel, stride, padding):
    key = (length, kernel, stride, padding)
    hit = _conv_index_cache.get(key)
    if hit is None:
        padded = length + 2 * padding
        n_out = (padded - kernel) // stride + 1
        starts = np.arange(n_out) * stride
        hit = starts[:, None] + np.arange(kernel)[None, :]  # [n_out, kernel]
        _conv_index_cache[key] = hit
    return hit


def conv1d(x, w, b=None, stride=1, padding=0):
    """1-d convolution over the last axis of x: [B, Cin, L] -> [B, Cout, Lout]."""
    x, w = _as_tensor(x), _as_tensor(w)
    parents = [x, w]
    if b is not None:
        b = _as_tensor(b)
        parents.append(b)
        _check_same_dtype(x, w, b)
    else:
        _check_same_dtype(x, w)
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv1d: incompatible shapes {x.shape} and {w.shape}")
    batch, c_in, length = x.shape
    c_out, _, kernel = w.shape
    if b is not None and b.shape != (c_out,):
        raise ShapeError(f"conv1d: bias shape {b.shape} does not match {c_out} channels")
    if kernel > length + 2 * padding:
        raise ShapeError(f"conv1d: kernel {kernel} exceeds padded length {length + 2 * padding}")

    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    win = _conv_indices(length, kernel, stride, padding)  # [Lout, K]
    n_out = win.shape[0]
    # cols: [B, Lout, Cin*K]
    cols = xp[:, :, win].transpose(0, 2, 1, 3).reshape(batch, n_out, c_in * kernel)
    wf = w.data.reshape(c_out, c_in * kernel)
    y = cols @ wf.T  # [B, Lout, Cout]
    if b is not None:
        y = y + b.data
    y = y.transpose(0, 2, 1)

    def bwd(g):
        gt = g.transpose(0, 2, 1)  # [B, Lout, Cout]
        dw = np.einsum("blo,blk->ok", gt, cols).reshape(c_out, c_in, kernel)
        dcols = gt @ wf  # [B, Lout, Cin*K]
        dxp = np.zeros((batch, c_in, length + 2 * padding), dtype=g.dtype)
        dcols4 = dcols.reshape(batch, n_out, c_in, kernel).transpose(0, 2, 1, 3)
        np.add.at(dxp, (slice(None), slice(None), win), dcols4)
        dx = dxp[:, :, padding:padding + length] if padding else dxp
        if b is not None:
            return dx, dw, gt.sum(axis=(0, 1))
        return dx, dw

    return _make(y, parents, bwd, "conv1d")


# ---------------------------------------------------------------------------
# tape and backward


def _topological_order(root):
    """The tensors reaching `root` through gradient-tracking ops, parents
    before children."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss, params):
    """Gradients of a scalar loss for every tensor in `params`.

    `params` maps name -> Tensor. Parameters disconnected from the loss get
    zero gradients.
    """
    loss = _as_tensor(loss)
    if loss.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    items = params.items() if hasattr(params, "items") else list(params)

    grads = {id(loss): np.ones((), dtype=loss.dtype)}
    if loss.requires_grad:
        for node in reversed(_topological_order(loss)):
            g = grads.get(id(node))
            if g is None or node._backward is None:
                continue
            parent_grads = node._backward(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

    out = {}
    for name, t in items:
        g = grads.get(id(t))
        out[name] = np.zeros_like(t.data) if g is None else np.asarray(g, dtype=t.dtype)
    return out
