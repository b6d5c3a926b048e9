"""The flat index-add under `gather` backward and `scatter_add` against the
row form of `np.add.at` it replaced: the same bytes for every dtype, axis,
index multiplicity and memory layout, and a bounded transient index."""

import gc
import tracemalloc

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast.diffcore.tensor import _index_add


def _row_form(shape, idx, vals, axis=0):
    """The reference: numpy's row-by-row indexed add."""
    out = np.zeros(shape, vals.dtype)
    np.add.at(out, (slice(None),) * axis + (idx,), vals)
    return out


def _flat_form(shape, idx, vals, axis=0):
    out = np.zeros(shape, vals.dtype)
    _index_add(out, idx, vals, axis)
    return out


def _same_bytes(shape, idx, vals, axis=0):
    ref = _row_form(shape, idx, vals, axis)
    got = _flat_form(shape, idx, vals, axis)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_nd_trailing_shapes_along_every_axis(dtype, axis):
    rng = np.random.default_rng(axis)
    shape = (8, 6, 15, 2)
    n_idx = 3 * shape[axis]  # every slot hit about three times
    idx = rng.integers(0, shape[axis], n_idx)
    vals_shape = shape[:axis] + (n_idx,) + shape[axis + 1:]
    _same_bytes(shape, idx, rng.standard_normal(vals_shape).astype(dtype), axis)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_empty_index_leaves_zeros(dtype, axis):
    shape = (4, 5, 3)
    vals = np.zeros(shape[:axis] + (0,) + shape[axis + 1:], dtype)
    idx = np.zeros(0, np.int64)
    _same_bytes(shape, idx, vals, axis)
    assert not _flat_form(shape, idx, vals, axis).any()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("multiplicity", [1, 2, 9, 72])
def test_every_slot_summed_many_times(dtype, multiplicity):
    rng = np.random.default_rng(multiplicity)
    idx = rng.permutation(np.repeat(np.arange(8), multiplicity))
    vals = (rng.standard_normal((idx.size, 64)) * 1e3).astype(dtype)
    _same_bytes((8, 64), idx, vals)


@pytest.mark.parametrize("dtype", DTYPES)
def test_pairs_into_actors_shape(dtype):
    # the lane- and boundary-to-actor attention shape: 512 pairs into 8 actors
    rng = np.random.default_rng(5)
    idx = np.sort(rng.integers(0, 8, 512))
    assert np.bincount(idx, minlength=8).max() <= 80
    _same_bytes((8, 64), idx, rng.standard_normal((512, 64)).astype(dtype))


@pytest.mark.parametrize("dtype", DTYPES)
def test_negative_zeros(dtype):
    vals = np.full((6, 4), -0.0, dtype)
    vals[1, 2] = 1.5
    vals[4, 2] = -1.5
    idx = np.array([0, 1, 0, 2, 1, 2])
    _same_bytes((3, 4), idx, vals)
    # one -0.0 alone onto a +0.0 slot gives +0.0, as in the row form
    assert not np.signbit(_flat_form((3, 4), idx, vals)).any()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("layout", ["transposed", "strided"])
def test_non_contiguous_values(dtype, layout):
    rng = np.random.default_rng(11)
    base = rng.standard_normal((64, 90)).astype(dtype)
    vals = base.T if layout == "transposed" else base[:, ::2][:30]
    assert not vals.flags.c_contiguous
    idx = rng.integers(0, 20, vals.shape[0])
    _same_bytes((20,) + vals.shape[1:], idx, vals)


@pytest.mark.parametrize("dtype", DTYPES)
def test_scatter_add_and_gather_backward_match_the_row_form(dtype):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1042, 64)).astype(dtype)
    idx = rng.integers(0, 300, 1042)
    assert dc.scatter_add(x, idx, 300).data.tobytes() == _row_form((300, 64), idx, x).tobytes()

    a = dc.Tensor(rng.standard_normal((300, 64)).astype(dtype), requires_grad=True)
    up = rng.standard_normal((1042, 64)).astype(dtype)
    grad = dc.backward(dc.sum(dc.mul(dc.gather(a, idx), up)), [("a", a)])["a"]
    assert grad.tobytes() == _row_form((300, 64), idx, up).tobytes()


@pytest.mark.parametrize("axis", [0, 1])
def test_gather_backward_of_a_transposed_tensor(axis):
    """A tensor whose array is not C-contiguous still gets its gradient: a
    gradient buffer laid out like the input would make the flat add land in
    a copy and leave zeros."""
    rng = np.random.default_rng(axis)
    data = rng.standard_normal((7, 5)).T  # [5, 7], Fortran order
    assert not data.flags.c_contiguous
    a = dc.Tensor(data, requires_grad=True)
    n = a.shape[axis]
    idx = rng.integers(0, n, 12)
    # integer weights keep every sum exact, so the dense reference is exact too
    out_shape = (12, 7) if axis == 0 else (5, 12)
    up = rng.integers(-4, 5, out_shape).astype(np.float64)
    grad = dc.backward(dc.sum(dc.mul(dc.gather(a, idx, axis=axis), up)), [("a", a)])["a"]

    onehot = np.zeros((idx.size, n))
    onehot[np.arange(idx.size), idx] = 1.0
    expected = onehot.T @ up if axis == 0 else up @ onehot
    assert grad.any()
    np.testing.assert_array_equal(grad, expected)


def test_scatter_add_transient_memory_is_bounded():
    """The flat index is E * post int32 (int64 only past 2**31 elements),
    the bytes of the float32 values, and lives only for the call."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1042, 64)).astype(np.float32)
    idx = rng.integers(0, 300, 1042)
    dc.scatter_add(x, idx, 300)  # warm numpy's caches outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = dc.scatter_add(x, idx, 300)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (300, 64)
    assert peak <= 4 * x.nbytes, (peak, x.nbytes)

