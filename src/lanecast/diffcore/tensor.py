"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays, float32 by default for training and float64 for
gradient checking. Each op computes its forward result with numpy and hands
`_make` one edge per input: the input tensor and its vector-Jacobian product,
which maps the output gradient to that input's gradient. Edges into inputs
that carry no gradient (constants, an absent optional bias) are dropped there,
so their vjps never run. `backward` replays the edges in reverse topological
order and frees the graph as it goes, so it walks a graph once.

Features sit on the last axis ([N, D] rows, [A, H, D] sequences), the axis
`softmax` and `layer_norm` work over; `sum` and `mean` reduce every axis.
`add`, `sub` and `mul` broadcast one way: the second operand broadcasts to
the first operand's shape under numpy's rules, and that is the result's
shape. Anything else is a ShapeError. `gather` backward and `scatter_add`
sum repeated indices through one flat np.add.at, in index order.

An operand that is not a Tensor is a constant: an op with several operands
casts it to the dtype of its tensor operands (with none, the first operand's
dtype), as NumPy's NEP 50 casts a Python scalar. Tensor operands of two
dtypes are a ContractError. Tensor operands of one dtype, and a float array
result, pass through as they are: the common op pays for no coercion.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from ..errors import ContractError, ShapeError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
LOG_FLOOR, LAYER_NORM_EPS = 1e-12, 1e-5  # `log`'s input clamp, `layer_norm`'s variance offset


class Tensor:
    """N-dimensional float array plus the bookkeeping backward needs.

    `_edges` holds one (input, vjp) pair per gradient-carrying input of the
    op that produced this value. Leaf tensors (constants, parameters) have
    none. A parameter that a ParamStore also reads through a stack lists
    each such read in `_stacked_as`, as (stack leaf, index); unset otherwise.
    """

    __slots__ = ("data", "requires_grad", "op", "_edges", "_stacked_as")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.op = None
        self._edges = ()

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

    def __repr__(self):
        tag = self.op or ("param" if self.requires_grad else "const")
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, op={tag})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _tensors(*operands):
    """The operands of one op as tensors of one dtype: arrays become
    constants in the dtype of the tensor operands, and None (an absent
    bias) stays None. Tensors of one dtype, the common case, come back as
    they are."""
    dtype, consts = None, False
    for x in operands:
        if isinstance(x, Tensor):
            if dtype is None:
                dtype = x.data.dtype
            elif x.data.dtype != dtype:  # one float32 and one float64
                raise ContractError(f"mixed dtypes in op: {sorted([str(dtype), str(x.dtype)])}")
        elif x is not None:
            consts = True
    if not consts:
        return operands
    if dtype is None:
        dtype = Tensor(operands[0]).dtype
    return [x if x is None or isinstance(x, Tensor) else Tensor(x, dtype=dtype)
            for x in operands]


def _check_axis(axis, ndim):
    if not -ndim <= axis < ndim:
        raise ContractError(f"axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


def _make(data, op, *edges):
    """The output tensor of `op`; `edges` are (input, vjp) pairs, and the
    input may be None for an absent optional operand. A float ndarray, the
    common case, becomes the output's data as it is."""
    if type(data) is not np.ndarray or data.dtype not in FLOAT_DTYPES:
        data = Tensor(data).data
    out = Tensor.__new__(Tensor)
    edges = tuple(e for e in edges if e[0] is not None and e[0].requires_grad)
    out.data, out.requires_grad, out._edges = data, bool(edges), edges
    out.op = op if edges else None
    return out


# ---------------------------------------------------------------------------
# elementwise and linear ops


def _operands(a, b, op):
    """Both operands as tensors of one dtype, b broadcastable to a's shape."""
    a, b = _tensors(a, b)
    sa, sb = a.shape, b.shape
    # equal shapes and trailing-axes biases, the common cases, skip the general test
    if sa != sb and sa[len(sa) - len(sb):] != sb and (len(sb) > len(sa) or any(
            m not in (1, n) for m, n in zip(sb[::-1], sa[::-1]))):
        raise ShapeError(f"{op}: cannot broadcast {sb} to {sa}")
    return a, b


def _unbroadcast(g, shape):
    """Sum a gradient of the broadcast shape back to an operand's `shape`."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def _identity(g):
    return g


def add(a, b):
    a, b = _operands(a, b, "add")
    return _make(a.data + b.data, "add",
                 (a, _identity), (b, lambda g: _unbroadcast(g, b.shape)))


def sub(a, b):
    a, b = _operands(a, b, "sub")
    return _make(a.data - b.data, "sub",
                 (a, _identity), (b, lambda g: -_unbroadcast(g, b.shape)))


def mul(a, b):
    a, b = _operands(a, b, "mul")
    return _make(a.data * b.data, "mul",
                 (a, lambda g: g * b.data), (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def scale(a, c):
    a = _as_tensor(a)
    c = float(c)
    return _make(a.data * c, "scale", (a, lambda g: g * c))


def matmul(a, b, bias=None):
    """[M, N] @ [N, P] -> [M, P], or batched [B, M, N] @ [B, N, P] -> [B, M, P],
    plus an optional bias [P]."""
    a, b, bias = _tensors(a, b, bias)
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if bias is not None and bias.shape != b.shape[-1:]:
        raise ShapeError(f"matmul: bias shape {bias.shape} does not match {b.shape[-1]} columns")

    y = a.data @ b.data
    if bias is not None:
        y = y + bias.data
    return _make(y, "matmul",
                 (a, lambda g: g @ b.data.swapaxes(-1, -2)),
                 (b, lambda g: a.data.swapaxes(-1, -2) @ g),
                 (bias, lambda g: _unbroadcast(g, bias.shape)))


def concat(tensors, axis=0):
    if not tensors:
        raise ShapeError("concat: empty input list")
    tensors = _tensors(*tensors)
    axis = _check_axis(axis, tensors[0].ndim)
    bounds = list(accumulate((t.shape[axis] for t in tensors), initial=0))
    lead = (slice(None),) * axis

    def part(lo, hi):
        return lambda g: g[lead + (slice(lo, hi),)]

    return _make(np.concatenate([t.data for t in tensors], axis=axis), "concat",
                 *((t, part(lo, hi)) for t, lo, hi in zip(tensors, bounds, bounds[1:])))


def reshape(a, shape):
    a = _as_tensor(a)
    old = a.shape
    return _make(a.data.reshape(shape), "reshape", (a, lambda g: g.reshape(old)))


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0), "relu", (a, lambda g: g * mask))


def sigmoid(a):
    a = _as_tensor(a)
    # stable in both tails
    e = np.exp(-np.abs(a.data))
    s = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    s = s.astype(a.dtype)
    return _make(s, "sigmoid", (a, lambda g: g * s * (1.0 - s)))


def log(a):
    """Natural log of the inputs clamped to LOG_FLOOR first; clamped entries
    get zero gradient."""
    a = _as_tensor(a)
    clamped = np.maximum(a.data, LOG_FLOOR)
    mask = a.data >= LOG_FLOOR
    return _make(np.log(clamped), "log", (a, lambda g: g * mask / clamped))


def smooth_l1(a):
    """Elementwise smooth-L1 at beta 1: quadratic inside |x| < 1, linear outside."""
    a = _as_tensor(a)
    absa = np.abs(a.data)
    inside = absa < 1.0
    out = np.where(inside, 0.5 * a.data * a.data, absa - 0.5)
    return _make(out.astype(a.dtype), "smooth_l1",
                 (a, lambda g: g * np.where(inside, a.data, np.sign(a.data))))


# ---------------------------------------------------------------------------
# reductions and normalizations


def sum(a, axis=None):  # noqa: A001 - mirrors the op set's name
    """The sum of every element, or along one axis. numpy adds along a
    leading axis one slice after another: a [3, ...] sums as (x0 + x1) + x2."""
    a = _as_tensor(a)
    shape = a.shape
    if axis is None:
        return _make(a.data.sum(), "sum", (a, lambda g: np.full(shape, g)))
    axis = _check_axis(axis, a.ndim)
    return _make(a.data.sum(axis=axis), "sum",
                 (a, lambda g: np.repeat(np.expand_dims(g, axis), shape[axis], axis)))


def mean(a):
    a = _as_tensor(a)
    shape, n = a.shape, a.size
    if n == 0:
        raise ShapeError(f"mean over empty tensor of shape {shape}")
    return _make(a.data.mean(), "mean", (a, lambda g: np.full(shape, g) / n))


def max(a, axis):  # noqa: A001
    """Max reduction over one axis; gradient routes to the first
    (lowest-index) argmax."""
    a = _as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    idx = np.argmax(a.data, axis=axis)

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
        return ga

    return _make(a.data.max(axis=axis), "max", (a, vjp))


def softmax(a):
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return s * (g - dot)

    return _make(s.astype(a.dtype), "softmax", (a, vjp))


def layer_norm(a, gamma, beta, grouped=False):
    """Normalize each slice along the last (feature) axis to zero mean / unit
    variance, then apply the learned affine (gamma, beta), both [D]. A
    `grouped` input [G, ..., D] takes one affine per group, [G, D], applied
    as [G, 1, ..., 1, D]."""
    a, gamma, beta = _tensors(a, gamma, beta)
    n = a.shape[-1]
    want = affine = (n,)
    if grouped:  # [G, D], applied as [G, 1, ..., 1, D]
        want, affine = (a.shape[0], n), (a.shape[0],) + (1,) * (a.ndim - 2) + (n,)
    if (grouped and a.ndim < 3) or gamma.shape != want or beta.shape != want:
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} do not match "
                         f"{'grouped ' * grouped}input {a.shape}")
    g_aff, b_aff = gamma.data.reshape(affine), beta.data.reshape(affine)

    # add.reduce / n gives mean's bits without its Python-level wrapper
    xc = a.data - np.add.reduce(a.data, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat = xc * inv

    def vjp(g):
        dxhat = g * g_aff
        # standard layer-norm backward, per normalized slice
        return inv / n * (n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                          - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))

    return _make((xhat * g_aff + b_aff).astype(a.dtype), "layer_norm", (a, vjp),
                 (gamma, lambda g: _unbroadcast(g * xhat, affine).reshape(gamma.shape)),
                 (beta, lambda g: _unbroadcast(g, affine).reshape(beta.shape)))


def l2_norm_rows(a):
    """Euclidean norm over the last axis: [..., C] -> [...]; zero rows get
    zero grad."""
    a = _as_tensor(a)
    if a.ndim < 1:
        raise ShapeError("l2_norm_rows: expected at least 1-d input, got a scalar")
    y = np.sqrt((a.data * a.data).sum(axis=-1))
    safe = np.where(y > 0, y, 1.0)
    return _make(y, "l2_norm_rows", (a, lambda g: (g / safe)[..., None] * a.data))


# ---------------------------------------------------------------------------
# indexed ops


def _index_add(out, idx, vals, axis=0):
    """out[..., idx[e], ...] += vals[..., e, ...] along `axis`: one np.add.at on
    flat 1-d arrays, numpy's fast indexed loop, summing each element in index
    order as the row form does. `out` must be C-contiguous, or the sum is lost."""
    post = math.prod(out.shape[axis + 1:])
    # int32 halves the transient index wherever every flat position fits in it
    itype = np.int32 if out.size < 2**31 else np.int64
    flat = idx.astype(itype)[:, None] * post + np.arange(post, dtype=itype)
    if axis:  # one block of out.shape[axis] * post elements per leading index
        lead = np.arange(math.prod(out.shape[:axis]), dtype=itype)[:, None, None]
        flat = lead * (out.shape[axis] * post) + flat
    np.add.at(out.reshape(-1), flat.ravel(), vals.reshape(-1))


def gather(a, indices, axis=0):
    """The slices `indices` of `a` along `axis`. Backward sums repeated
    indices through one flat np.add.at, in index order."""
    a = _as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"gather: indices must be 1-d, got shape {idx.shape}")
    if idx.size and (np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= a.shape[axis]):
        raise ContractError(f"gather: index out of range for axis size {a.shape[axis]}")

    def vjp(g):
        ga = np.zeros(a.shape, a.dtype)
        _index_add(ga, idx, g, axis)
        return ga

    return _make(np.take(a.data, idx, axis=axis), "gather", (a, vjp))


def scatter_add(a, indices, size):
    """Sum the rows of `a` into a zero tensor of `size` rows.

    Adjoint of gather along axis 0: rows sharing an index sum through one
    flat np.add.at, in index order.
    """
    a = _as_tensor(a)
    _check_axis(0, a.ndim)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != a.shape[:1]:
        raise ShapeError(
            f"scatter_add: indices shape {idx.shape} does not match axis size {a.shape[0]}")
    if idx.size and (np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= size):
        raise ContractError(f"scatter_add: index out of range for size {size}")
    out = np.zeros((size,) + a.shape[1:], dtype=a.dtype)
    _index_add(out, idx, a.data)
    return _make(out, "scatter_add", (a, lambda g: np.take(g, idx, axis=0)))


# ---------------------------------------------------------------------------
# sequence ops (time-major: [batch, length, channels])


def conv1d(x, w, b=None, stride=1, padding=0):
    """1-d convolution over the time axis: x [B, L, Cin], w [Cout, Cin, K],
    b [Cout] -> [B, Lout, Cout], Lout = (L + 2 * padding - K) // stride + 1.
    With a leading group axis, x [G, B, L, Cin], w [G, Cout, Cin, K] and
    b [G, Cout] run G convolutions as one batched matmul: group g convolves
    x[g] with w[g], through the gemm shapes of its own call.

    Tap k of every window is one strided slice of the padded input; the K
    taps side by side are the im2col columns, and backward adds each tap's
    column gradient back through the same slice."""
    x, w, b = _tensors(x, w, b)
    groups = x.shape[:-3]
    if x.ndim not in (3, 4) or w.shape[:-3] != groups or w.ndim != x.ndim \
            or x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"conv1d: incompatible shapes {x.shape} and {w.shape}")
    batch, length, c_in = x.shape[-3:]
    c_out, _, kernel = w.shape[-3:]
    if b is not None and b.shape != groups + (c_out,):
        raise ShapeError(f"conv1d: bias shape {b.shape} does not match {c_out} channels")
    if kernel > length + 2 * padding:
        raise ShapeError(f"conv1d: kernel {kernel} exceeds padded length {length + 2 * padding}")

    xp = x.data
    if padding:
        xp = np.zeros(groups + (batch, length + 2 * padding, c_in), dtype=x.dtype)
        xp[..., padding:padding + length, :] = x.data
    n_out = (length + 2 * padding - kernel) // stride + 1
    taps = [slice(k, k + stride * (n_out - 1) + 1, stride) for k in range(kernel)]
    # cols [..., B, Lout, Cin*K], column c*K + k, matching w's flat layout
    cols = np.empty(groups + (batch, n_out, c_in, kernel), dtype=x.dtype)
    for k, tap in enumerate(taps):
        cols[..., k] = xp[..., tap, :]
    cols = cols.reshape(groups + (batch, n_out, c_in * kernel))
    # per group [1, Cout, Cin*K]: one weight for all B windows of the group
    wf = w.data.reshape(groups + (1, c_out, c_in * kernel))
    y = cols @ wf.swapaxes(-1, -2)
    if b is not None:
        y = y + b.data.reshape(groups + (1, 1, c_out))

    def dx(g):
        dcols = (g @ wf).reshape(g.shape[:-1] + (c_in, kernel))
        dxp = np.zeros(xp.shape, dtype=g.dtype)
        for k, tap in enumerate(taps):
            dxp[..., tap, :] += dcols[..., k]
        return dxp[..., padding:padding + length, :] if padding else dxp

    def dw(g):
        rows = groups + (-1,)
        return (g.reshape(rows + (c_out,)).swapaxes(-1, -2)
                @ cols.reshape(rows + (c_in * kernel,))).reshape(w.shape)

    return _make(y, "conv1d", (x, dx), (w, dw), (b, lambda g: g.sum(axis=(-3, -2))))


# ---------------------------------------------------------------------------
# tape and backward


def _topological_order(root):
    """The op nodes reaching `root` through tape edges, inputs before the ops
    that use them. Leaves are left out: they have no vjp to run, and the ops
    that use them sum their gradients."""
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
        if node.op is not None and not node._edges:
            raise ContractError(f"backward: the graph through {node.op!r} was already walked")
        seen.add(id(node))
        if node._edges:
            stack.append((node, True))
            stack.extend((p, False) for p, _ in node._edges if id(p) not in seen)
    return order


def backward(loss, params, into=None):
    """Gradients of a scalar loss for every tensor in `params`.

    `params` maps name -> Tensor. Parameters disconnected from the loss get
    zero gradients. Once a node's vjps have run, the node drops its edges (the
    vjps and the arrays they hold) and, unless it is in `params`, its gradient.
    It keeps its op, and a second walk through it raises ContractError. A
    parameter read through a stack (`_stacked_as`) also gets its slice of the
    stack's gradient, added after its own.

    `into`, a dict of per-parameter sums, carries gradients across walks:
    walking l0, l1, ... in turn adds onto the sums the walks before left, in
    the order one walk over `add(add(l0, l1), ...)` would, bit for bit, as
    long as a walk reads each stack at most once.
    """
    loss = _as_tensor(loss)
    if loss.shape != ():
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    items = params.items() if hasattr(params, "items") else list(params)
    keep = {id(t) for _, t in items}

    order = _topological_order(loss)
    grads = {id(loss): np.ones((), dtype=loss.dtype)}
    if into:
        grads.update((id(t), into[name]) for name, t in items if name in into)
    # every node in the order is reached from the loss, so its gradient is
    # complete before the walk gets to it
    while order:
        node = order.pop()
        g = grads[id(node)] if id(node) in keep else grads.pop(id(node))
        for inp, vjp in node._edges:
            gi = vjp(g)
            acc = grads.get(id(inp))
            grads[id(inp)] = gi if acc is None else acc + gi
        node._edges = ()

    out = {}
    for name, t in items:
        g = grads.get(id(t))
        for leaf, i in getattr(t, "_stacked_as", ()):
            part = grads.get(id(leaf))
            if part is not None:
                g = part[i] if g is None else g + part[i]
        if into is not None and g is not None:
            into[name] = g
        out[name] = np.zeros_like(t.data) if g is None else np.asarray(g, dtype=t.dtype)
    return out
