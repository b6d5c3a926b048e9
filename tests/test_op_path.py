"""The lean op path keeps every byte: layer_norm's means, conv1d's im2col,
operand coercion and output construction give what the forms they replaced
gave."""

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast.diffcore import tensor
from lanecast.errors import ContractError


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 6, 8), (2, 4, 32), (16, 8), (300, 64), (8, 20, 64),
                                   (5, 3, 12)])
def test_add_reduce_over_n_has_the_bits_of_mean(shape, dtype):
    rng = np.random.default_rng(sum(shape))
    for scale in (1e-3, 1.0, 1e4):
        x = (rng.normal(size=shape) * scale).astype(dtype)
        n = shape[-1]
        got = np.add.reduce(x, axis=-1, keepdims=True) / n
        want = x.mean(axis=-1, keepdims=True)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        xc = x - want
        got = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
        assert got.tobytes() == (xc * xc).mean(axis=-1, keepdims=True).tobytes()


def _stack_conv(x, w, b, stride, padding):
    """conv1d's forward and weight gradient with im2col built by np.stack."""
    batch, length, c_in = x.shape
    c_out, _, kernel = w.shape
    xp = np.zeros((batch, length + 2 * padding, c_in), dtype=x.dtype)
    xp[:, padding:padding + length] = x
    n_out = (length + 2 * padding - kernel) // stride + 1
    taps = [slice(k, k + stride * (n_out - 1) + 1, stride) for k in range(kernel)]
    cols = np.stack([xp[:, tap] for tap in taps], axis=-1).reshape(batch, n_out, c_in * kernel)
    y = cols @ w.reshape(c_out, c_in * kernel).T + b
    g = np.ones_like(y)
    dw = (g.reshape(-1, c_out).T @ cols.reshape(-1, c_in * kernel)).reshape(w.shape)
    return y, dw


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("kernel, c_in", [(3, 2), (3, 8), (1, 8)])
def test_conv1d_im2col_has_the_bytes_of_the_stack_form(kernel, c_in, padding, stride, dtype):
    rng = np.random.default_rng(kernel * 10 + c_in)
    x = rng.normal(size=(3, 7, c_in)).astype(dtype)
    w = dc.Tensor(rng.normal(size=(5, c_in, kernel)).astype(dtype), requires_grad=True)
    b = rng.normal(size=5).astype(dtype)
    y = dc.conv1d(x, w, b, stride=stride, padding=padding)
    want_y, want_dw = _stack_conv(x, w.data, b, stride, padding)
    assert y.data.tobytes() == want_y.tobytes()
    grads = dc.backward(dc.sum(y), {"w": w})
    assert grads["w"].tobytes() == want_dw.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_whole_tensor_sum_is_a_0d_array_of_the_tensors_dtype(dtype):
    out = dc.sum(dc.Tensor(np.arange(6.0, dtype=dtype).reshape(2, 3)))
    assert type(out.data) is np.ndarray and out.shape == () and out.dtype == dtype
    assert float(out.data) == 15.0


@pytest.mark.parametrize("op", [dc.add, dc.sub, dc.mul, dc.matmul,
                                lambda a, b: dc.concat([a, b], axis=0)])
def test_a_mixed_dtype_op_keeps_its_message(op):
    a = dc.Tensor(np.ones((2, 2), dtype=np.float32))
    b = dc.Tensor(np.ones((2, 2)))
    with pytest.raises(ContractError, match=r"mixed dtypes in op: \['float32', 'float64'\]"):
        op(a, b)
    with pytest.raises(ContractError, match=r"mixed dtypes in op: \['float32', 'float64'\]"):
        dc.matmul(a, a, dc.Tensor(np.ones(2)))


def test_tensors_of_one_dtype_come_back_as_they_are():
    a, b = dc.Tensor(np.ones(2)), dc.Tensor(np.zeros(2))
    got = tensor._tensors(a, b, None)
    assert got[0] is a and got[1] is b and got[2] is None
    got = tensor._tensors(dc.Tensor(np.ones(2, dtype=np.float32)), np.arange(2), None, 3.0)
    assert [t.dtype for t in got[:2]] + [got[3].dtype] == [np.float32] * 3 and got[2] is None
    assert tensor._tensors(np.arange(2), 1.5)[1].dtype == np.float64


def test_make_keeps_a_float_array_and_casts_the_rest():
    arr = np.ones(3, dtype=np.float32)
    assert tensor._make(arr, "x").data is arr
    for data, dtype in ((np.arange(3), np.float64), (np.float32(2.0), np.float32),
                        (np.ones(2, dtype=np.float16), np.float64), (1.0, np.float64)):
        out = tensor._make(data, "x")
        assert type(out.data) is np.ndarray and out.dtype == dtype
        assert not out.requires_grad and out.op is None and out._edges == ()
