"""Tape-based autodiff engine: values against closed forms, gradients
against central finite differences, and the bookkeeping contracts
(accumulation, disconnected params, save/load)."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanecast import diffcore as dc
from lanecast.diffcore import tensor
from lanecast.errors import ContractError, ParseError, ShapeError

EPS = 1e-5


def numeric_grad(fn, x, eps=EPS):
    """Central differences of a scalar-valued fn at x, float64."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def analytic_grad(build, x):
    t = dc.Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)
    loss = build(t)
    return dc.backward(loss, [("x", t)])["x"]


# every op with more than one operand, with operand shapes it accepts
MULTI_OPERAND_OPS = {
    "add": (dc.add, [(3, 4), (4,)]),
    "sub": (dc.sub, [(3, 4), (3, 1)]),
    "mul": (dc.mul, [(2, 3, 4), (3, 4)]),
    "matmul": (dc.matmul, [(3, 4), (4, 2), (2,)]),
    "concat": (lambda *ts: dc.concat(list(ts), axis=0), [(2, 3), (4, 3), (1, 3)]),
    "layer_norm": (dc.layer_norm, [(3, 4), (4,), (4,)]),
    "conv1d": (lambda x, w, b: dc.conv1d(x, w, b, padding=1), [(2, 6, 3), (4, 3, 3), (4,)]),
}


def check_op(build, x, atol=1e-7):
    a = analytic_grad(build, x)
    n = numeric_grad(lambda v: float(build(dc.Tensor(v)).data), np.asarray(x, dtype=np.float64))
    np.testing.assert_allclose(a, n, atol=atol)


class TestElementwise:
    def test_relu_grad(self):
        rng = np.random.default_rng(0)
        # keep points away from the kink
        x = rng.normal(size=(4, 5))
        x[np.abs(x) < 0.05] += 0.1
        check_op(lambda t: dc.sum(dc.relu(t)), x)

    def test_sigmoid_grad(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 7))
        check_op(lambda t: dc.sum(dc.sigmoid(t)), x)

    def test_sigmoid_stable_at_large_negative(self):
        y = dc.sigmoid(dc.Tensor(np.array([-800.0, 800.0])))
        assert np.all(np.isfinite(y.data))
        assert y.data[0] == 0.0 and y.data[1] == 1.0

    def test_mul_sub_grads(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        bt = dc.Tensor(b)
        check_op(lambda t: dc.sum(dc.mul(t, bt)), a)
        check_op(lambda t: dc.sum(dc.smooth_l1(dc.sub(t, bt))), a + 3.0)

    def test_log_floor_clamps_value_and_grad(self):
        x = dc.Tensor(np.array([1e-20, 0.5]), requires_grad=True)
        y = dc.log(x, floor=1e-12)
        assert y.data[0] == math.log(1e-12)
        g = dc.backward(dc.sum(y), [("x", x)])["x"]
        # clamped entry contributes no gradient; the live one is 1/x
        assert g[0] == 0.0
        np.testing.assert_allclose(g[1], 2.0)

    @pytest.mark.parametrize("floor", [0.0, -1.0])
    def test_log_nonpositive_floor_rejected(self, floor):
        with pytest.raises(ContractError):
            dc.log(dc.Tensor(np.array([0.5])), floor=floor)

    def test_smooth_l1_values(self):
        y = dc.smooth_l1(dc.Tensor(np.array([0.5, -2.0, 1.0])), beta=1.0)
        np.testing.assert_allclose(y.data, [0.125, 1.5, 0.5], atol=1e-15)

    def test_add_bias_broadcast(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=4)
        bt = dc.Tensor(b, requires_grad=True)
        t = dc.Tensor(a, requires_grad=True)
        loss = dc.sum(dc.mul(dc.add(t, bt), dc.add(t, bt)))
        g = dc.backward(loss, [("b", bt)])["b"]
        np.testing.assert_allclose(g, (2 * (a + b)).sum(axis=0), atol=1e-12)

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            dc.add(dc.Tensor(np.zeros((2, 3))), dc.Tensor(np.zeros((3, 2))))

    # every pattern the network uses: bias rows, per-row scales, the stacked
    # head bias and the per-step observation mask
    @pytest.mark.parametrize("shape_a, shape_b", [
        ((5, 4), (4,)), ((5, 4), (5, 1)), ((3, 6, 2), (6, 2)), ((3, 5, 4), (3, 5, 1))],
        ids=["D-to-ND", "N1-to-ND", "K2-to-AK2", "AH1-to-AHD"])
    @pytest.mark.parametrize("op", [dc.add, dc.sub, dc.mul], ids=["add", "sub", "mul"])
    def test_broadcast_grads(self, op, shape_a, shape_b):
        rng = np.random.default_rng(17)
        a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
        w = dc.Tensor(rng.normal(size=shape_a))
        at, bt = dc.Tensor(a), dc.Tensor(b)
        assert op(at, bt).shape == shape_a
        check_op(lambda t: dc.sum(dc.mul(op(t, bt), w)), a)
        check_op(lambda t: dc.sum(dc.mul(op(at, t), w)), b)

    @pytest.mark.parametrize("shape_a, shape_b", [((3,), (3, 1)), ((2, 3), (3, 2)),
                                                  ((4, 1), (4, 3))],
                             ids=["outgrows-first", "incompatible", "first-would-grow"])
    @pytest.mark.parametrize("op", [dc.add, dc.sub, dc.mul], ids=["add", "sub", "mul"])
    def test_broadcast_beyond_first_operand_raises(self, op, shape_a, shape_b):
        with pytest.raises(ShapeError) as e:
            op(dc.Tensor(np.zeros(shape_a)), dc.Tensor(np.zeros(shape_b)))
        assert str(shape_a) in str(e.value) and str(shape_b) in str(e.value)

    def test_mixed_dtype_rejected(self):
        a = dc.Tensor(np.zeros(3, dtype=np.float32))
        b = dc.Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises((ContractError, ShapeError)):
            dc.add(a, b)
        for op, shapes in MULTI_OPERAND_OPS.values():
            for at in range(len(shapes)):
                with pytest.raises(ContractError):
                    op(*(dc.Tensor(np.zeros(s, dtype=np.float64 if i == at else np.float32))
                         for i, s in enumerate(shapes)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", list(MULTI_OPERAND_OPS))
    def test_array_operand_is_a_constant_of_the_tensor_dtype(self, name, dtype):
        """An array in any operand position: the bytes of wrapping it in the
        op's dtype first, the tensors' dtype out, and no tape edge."""
        op, shapes = MULTI_OPERAND_OPS[name]
        rng = np.random.default_rng(18)
        arrays = [rng.normal(size=s) for s in shapes]
        for at, arr in enumerate(arrays):
            params = [dc.Tensor(v.astype(dtype), requires_grad=True) for v in arrays]
            y = op(*params[:at], arr, *params[at + 1:])
            want = op(*params[:at], dc.Tensor(np.asarray(arr, dtype=dtype)), *params[at + 1:])
            assert y.dtype == want.dtype == dtype
            assert y.data.tobytes() == want.data.tobytes()
            assert [inp for inp, _ in y._edges] == params[:at] + params[at + 1:]


class TestReductionsAndShape:
    def test_matmul_grad(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4))
        b = dc.Tensor(rng.normal(size=(4, 2)))
        check_op(lambda t: dc.sum(dc.matmul(t, b)), a)

    def test_batched_matmul_matches_per_batch_and_grads(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        y = dc.matmul(dc.Tensor(a), dc.Tensor(b)).data
        for i in range(3):
            np.testing.assert_allclose(y[i], a[i] @ b[i], atol=1e-12)
        w = dc.Tensor(rng.normal(size=(3, 2, 5)))
        check_op(lambda t: dc.sum(dc.mul(dc.matmul(t, dc.Tensor(b)), w)), a)
        check_op(lambda t: dc.sum(dc.mul(dc.matmul(dc.Tensor(a), t), w)), b)

    @pytest.mark.parametrize("sa, sw", [((5, 4), (4, 3)), ((2, 5, 4), (2, 4, 3))])
    def test_matmul_bias_equals_matmul_then_add_bit_for_bit(self, sa, sw):
        rng = np.random.default_rng(15)
        arrays = rng.normal(size=sa), rng.normal(size=sw), rng.normal(size=sw[-1:])
        up = rng.normal(size=sa[:-1] + sw[-1:])

        def run(fused):
            a, w, b = (dc.Tensor(v, requires_grad=True) for v in arrays)
            y = dc.matmul(a, w, b) if fused else dc.add(dc.matmul(a, w), b)
            g = dc.backward(dc.sum(dc.mul(y, dc.Tensor(up))), [("a", a), ("w", w), ("b", b)])
            return [y.data] + list(g.values())

        for got, want in zip(run(True), run(False)):
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(4,), (1, 3), (3, 1), (2,), ()])
    def test_matmul_bias_of_wrong_shape_raises(self, shape):
        with pytest.raises(ShapeError):
            dc.matmul(dc.Tensor(np.zeros((5, 4))), dc.Tensor(np.zeros((4, 3))),
                      dc.Tensor(np.zeros(shape)))

    def test_batched_matmul_shape_mismatch_raises(self):
        for sa, sb in (((3, 2, 4), (2, 4, 5)), ((3, 2, 4), (4, 5)), ((3, 2, 4), (3, 3, 5))):
            with pytest.raises(ShapeError):
                dc.matmul(dc.Tensor(np.zeros(sa)), dc.Tensor(np.zeros(sb)))

    def test_concat_reshape_grads(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 3))
        b = dc.Tensor(rng.normal(size=(2, 3)))

        def build(t):
            c = dc.concat([t, b], axis=1)
            return dc.sum(dc.mul(dc.reshape(c, (12,)), dc.reshape(c, (12,))))

        check_op(build, a)

    def test_mean_axis_grad(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 5))
        check_op(lambda t: dc.sum(dc.mul(dc.mean(t, axis=1), dc.mean(t, axis=1))), x)

    def test_max_routes_to_lowest_index_on_ties(self):
        x = dc.Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
        y = dc.max(x, axis=1)
        g = dc.backward(dc.sum(y), [("x", x)])["x"]
        np.testing.assert_array_equal(g, [[0.0, 1.0, 0.0]])

    def test_gather_scatter_roundtrip_grad(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3))
        idx = np.array([0, 2, 2, 5])

        def build(t):
            rows = dc.gather(t, idx, axis=0)
            back = dc.scatter_add(rows, idx, 6)
            return dc.sum(dc.mul(back, back))

        check_op(build, x)

    def test_l2_norm_rows_grad(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 2)) + 2.0
        check_op(lambda t: dc.sum(dc.l2_norm_rows(t)), x)

    def test_l2_norm_rows_takes_the_last_axis_of_any_rank(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 3, 4, 2)) + 2.0
        y = dc.l2_norm_rows(dc.Tensor(x)).data
        np.testing.assert_allclose(y, np.hypot(x[..., 0], x[..., 1]), atol=1e-14)
        w = dc.Tensor(rng.normal(size=(2, 3, 4)))
        check_op(lambda t: dc.sum(dc.mul(dc.l2_norm_rows(t), w)), x)


class TestSoftmaxAndNorm:
    def test_softmax_rows_simplex(self):
        rng = np.random.default_rng(9)
        s = dc.softmax(dc.Tensor(rng.normal(size=(10, 6)) * 30)).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s >= 0)

    @given(st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_softmax_shift_invariance(self, c):
        z = np.array([0.3, -1.2, 2.0])
        a = dc.softmax(dc.Tensor(z)).data
        b = dc.softmax(dc.Tensor(z + c)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_grad(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 6))
        w = dc.Tensor(rng.normal(size=(4, 6)))
        check_op(lambda t: dc.sum(dc.mul(dc.softmax(t, axis=1), w)), x)

    def test_layer_norm_value_and_grad(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 8))
        gamma = dc.Tensor(rng.normal(size=8))
        beta = dc.Tensor(rng.normal(size=8))

        y = dc.layer_norm(dc.Tensor(x), gamma, beta).data
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        ref = (x - mu) / np.sqrt(var + 1e-5) * gamma.data + beta.data
        np.testing.assert_allclose(y, ref, atol=1e-12)

        w = dc.Tensor(rng.normal(size=(4, 8)))
        check_op(lambda t: dc.sum(dc.mul(dc.layer_norm(t, gamma, beta), w)), x)

    def test_layer_norm_normalizes_the_last_axis_of_a_sequence(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(2, 5, 8))  # [A, H, D]
        gamma = rng.normal(size=8)
        beta = rng.normal(size=8)
        y = dc.layer_norm(dc.Tensor(x), dc.Tensor(gamma), dc.Tensor(beta)).data
        for step in range(5):
            want = dc.layer_norm(dc.Tensor(x[:, step]), dc.Tensor(gamma), dc.Tensor(beta)).data
            np.testing.assert_allclose(y[:, step], want, atol=1e-14)
        w = dc.Tensor(rng.normal(size=(2, 5, 8)))
        check_op(lambda t: dc.sum(dc.mul(dc.layer_norm(dc.Tensor(x), t, dc.Tensor(beta)), w)),
                 gamma)
        check_op(lambda t: dc.sum(dc.mul(dc.layer_norm(t, dc.Tensor(gamma), dc.Tensor(beta)),
                                         w)), x)


class TestConvAndPool:
    def test_conv1d_matches_naive(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 9, 3))  # [B, L, Cin]
        w = rng.normal(size=(4, 3, 3))  # [Cout, Cin, K]
        b = rng.normal(size=4)
        for stride, pad in ((1, 1), (2, 1), (1, 0), (2, 0)):
            y = dc.conv1d(dc.Tensor(x), dc.Tensor(w), dc.Tensor(b),
                          stride=stride, padding=pad).data
            xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
            lout = (xp.shape[1] - 3) // stride + 1
            assert y.shape == (2, lout, 4)
            ref = np.zeros((2, lout, 4))
            for bi in range(2):
                for co in range(4):
                    for l in range(lout):
                        s = l * stride
                        ref[bi, l, co] = (xp[bi, s:s + 3, :].T * w[co]).sum() + b[co]
            np.testing.assert_allclose(y, ref, atol=1e-12)

    def test_conv1d_grad(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 7, 2))  # [B, L, Cin]
        w = dc.Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        b = dc.Tensor(rng.normal(size=3), requires_grad=True)
        xt = dc.Tensor(x)
        for stride, pad in ((2, 1), (2, 0), (1, 1)):
            def sq(t, wt=w, bt=b):
                y = dc.conv1d(t, wt, bt, stride=stride, padding=pad)
                return dc.sum(dc.mul(y, y))

            check_op(sq, x)
            check_op(lambda v: sq(xt, bt=v), b.data)
            # weight grads too
            nw = numeric_grad(lambda v: float(sq(xt, wt=dc.Tensor(v)).data), w.data)
            np.testing.assert_allclose(dc.backward(sq(xt), [("w", w)])["w"], nw, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_conv1d_padding_equals_np_pad_bit_for_bit(self, pad, stride, dtype):
        """The reference pads with np.pad and convolves with padding 0; its
        input gradient is the padded input's, sliced back to the input."""
        rng = np.random.default_rng([15, pad, stride])
        x, w, b = (dc.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                   for s in ((3, 8, 5), (4, 5, 3), (4,)))
        xp = dc.Tensor(np.pad(x.data, ((0, 0), (pad, pad), (0, 0))), requires_grad=True)

        def run(inp, padding):
            y = dc.conv1d(inp, w, b, stride=stride, padding=padding)
            up = dc.Tensor(np.random.default_rng(16).normal(size=y.shape).astype(dtype))
            return y.data, dc.backward(dc.sum(dc.mul(y, up)), {"x": inp, "w": w, "b": b})

        y, got = run(x, pad)
        y_ref, want = run(xp, 0)
        assert y.dtype == dtype
        np.testing.assert_array_equal(y, y_ref)
        np.testing.assert_array_equal(got["x"], want["x"][:, pad:pad + 8])
        np.testing.assert_array_equal(got["w"], want["w"])
        np.testing.assert_array_equal(got["b"], want["b"])

    def test_conv1d_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            dc.conv1d(dc.Tensor(np.zeros((1, 6, 3))), dc.Tensor(np.zeros((4, 2, 3))))


class TestTapeAndBackward:
    def test_diamond_reuse_accumulates(self):
        x = dc.Tensor(np.array(3.0), requires_grad=True)
        y = dc.mul(x, x)          # x used twice
        z = dc.add(y, x)          # and once more
        g = dc.backward(z, [("x", x)])["x"]
        np.testing.assert_allclose(g, 7.0)

    def test_disconnected_param_gets_zeros(self):
        x = dc.Tensor(np.ones(3), requires_grad=True)
        other = dc.Tensor(np.ones((2, 2)), requires_grad=True)
        g = dc.backward(dc.sum(x), [("x", x), ("other", other)])
        np.testing.assert_array_equal(g["other"], np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        x = dc.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError):
            dc.backward(x, [("x", x)])

    @pytest.mark.parametrize("op, shapes", [
        (dc.matmul, [(3, 4), (4, 2)]),
        (dc.matmul, [(3, 4), (4, 2), (2,)]),
        (dc.conv1d, [(2, 6, 3), (4, 3, 3), (4,)]),
        (dc.mul, [(3, 4), (3, 4)]),
        (dc.sub, [(3, 4), (4,)]),
        (dc.add, [(3, 4), (1, 4)]),
        (dc.layer_norm, [(3, 4), (4,), (4,)]),
    ])
    def test_constant_inputs_get_no_edge_and_no_vjp_call(self, op, shapes, monkeypatch):
        """Every input in turn is a constant, the others parameters."""
        rng = np.random.default_rng(16)
        arrays = [rng.normal(size=s) for s in shapes]
        make = tensor._make
        for const_at in range(len(shapes)):
            calls = {}

            def counting_make(data, name, *edges):
                def counted(inp, vjp):
                    def f(g):
                        calls[id(inp)] = calls.get(id(inp), 0) + 1
                        return vjp(g)
                    return inp, f
                return make(data, name, *(counted(*e) for e in edges))

            inputs = [dc.Tensor(v, requires_grad=i != const_at) for i, v in enumerate(arrays)]
            monkeypatch.setattr(tensor, "_make", counting_make)
            y = op(*inputs)
            monkeypatch.undo()
            assert [inp for inp, _ in y._edges] == [t for t in inputs if t.requires_grad]
            grads = dc.backward(dc.sum(y), [(str(i), t) for i, t in enumerate(inputs)])
            assert id(inputs[const_at]) not in calls
            assert all(calls[id(t)] == 1 for t in inputs if t.requires_grad)
            assert not grads[str(const_at)].any()

    def test_deep_chain_no_recursion_limit(self):
        x = dc.Tensor(np.array(1.0), requires_grad=True)
        y = x
        for _ in range(5000):
            y = dc.add(y, x)
        g = dc.backward(y, [("x", x)])["x"]
        np.testing.assert_allclose(g, 5001.0)


class TestParamStore:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        store = dc.ParamStore(np.float32)
        store.add("layer.w", rng.normal(size=(4, 3)))
        store.add("layer.b", rng.normal(size=3))
        path = tmp_path / "params.bin"
        store.save(path, meta={"epoch": 12})
        loaded = dc.ParamStore.load(path)
        assert loaded.meta["epoch"] == 12
        assert loaded["layer.w"].dtype == np.float32
        np.testing.assert_array_equal(loaded["layer.w"].data, store["layer.w"].data)
        np.testing.assert_array_equal(loaded["layer.b"].data, store["layer.b"].data)

    def test_truncated_file_rejected(self, tmp_path):
        store = dc.ParamStore(np.float64)
        store.add("w", np.ones((8, 8)))
        path = tmp_path / "p.bin"
        store.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ParseError):
            dc.ParamStore.load(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 4)
        with pytest.raises(ParseError):
            dc.ParamStore.load(path)

    @pytest.mark.parametrize("dtype", [None, "int32", 3])
    def test_bad_manifest_dtype_rejected(self, tmp_path, dtype):
        entry = {"name": "w", "shape": [2]}
        if dtype is not None:
            entry["dtype"] = dtype
        blob = json.dumps({"format": "lanecast-params-v1", "params": [entry]}).encode()
        path = tmp_path / "p.bin"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + bytes(8))
        with pytest.raises(ParseError) as info:
            dc.ParamStore.load(path)
        assert info.value.field == "dtype"

    @pytest.mark.parametrize("shape", [["a"], [1.5], [[1]], [None], [True], [-1], [-1, -1],
                                       [2**70], [2**36], [0, 2**70], [1] * 65])
    def test_bad_manifest_shape_rejected(self, tmp_path, shape):
        blob = json.dumps({"format": "lanecast-params-v1",
                           "params": [{"name": "w", "shape": shape, "dtype": "float32"}]})
        path = tmp_path / "p.bin"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob.encode() + bytes(8))
        with pytest.raises(ParseError) as info:
            dc.ParamStore.load(path)
        assert info.value.field == "w"

    def test_manifest_length_beyond_file_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(struct.pack("<Q", 2**36) + b"{}")
        with pytest.raises(ParseError) as info:
            dc.ParamStore.load(path)
        assert info.value.field == "manifest"

    @pytest.mark.parametrize("manifest, field", [
        ([], "format"),
        ({"format": "lanecast-params-v1", "params": [], "meta": [1]}, "meta"),
        ({"format": "lanecast-params-v1", "params": [
            {"name": "w", "shape": [1], "dtype": "float64"}] * 2}, "w"),
    ], ids=["list", "meta-list", "duplicate"])
    def test_bad_manifest_structure_rejected(self, tmp_path, manifest, field):
        blob = json.dumps(manifest).encode()
        path = tmp_path / "p.bin"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + bytes(16))
        with pytest.raises(ParseError) as info:
            dc.ParamStore.load(path)
        assert info.value.field == field

    def test_duplicate_name_rejected(self):
        store = dc.ParamStore(np.float64)
        store.add("w", np.ones(2))
        with pytest.raises(ContractError):
            store.add("w", np.ones(2))


class TestGradCheckHarness:
    def test_small_mlp_passes(self):
        rng = np.random.default_rng(16)
        store = dc.ParamStore(np.float64)
        store.add("w1", rng.normal(size=(3, 4)) * 0.5)
        store.add("b1", rng.normal(size=4) * 0.1)
        store.add("w2", rng.normal(size=(4, 1)) * 0.5)
        x = dc.Tensor(rng.normal(size=(5, 3)))

        def fn(s):
            h = dc.relu(dc.add(dc.matmul(x, s["w1"]), s["b1"]))
            return dc.sum(dc.smooth_l1(dc.matmul(h, s["w2"])))

        worst, report = dc.grad_check(fn, store, seed=0)
        assert worst < 1e-7
        assert set(report) == {"w1", "b1", "w2"}

    def test_nan_loss_fails(self):
        store = dc.ParamStore(np.float64)
        store.add("w", np.array([1.0, 2.0]))

        def fn(s):
            return dc.sum(dc.mul(s["w"], dc.Tensor(np.full(2, np.nan))))

        worst, report = dc.grad_check(fn, store, seed=0)
        assert worst == np.inf
        assert report["w"][3] == np.inf

    def test_nan_gradient_of_a_finite_loss_fails(self):
        store = dc.ParamStore(np.float64)
        store.add("w", np.array([1.0, 2.0]))

        def fn(s):  # sigmoid(inf) = 1 forward; backward is 0 * inf = NaN
            return dc.sum(dc.sigmoid(dc.mul(s["w"], dc.Tensor(np.full(2, np.inf)))))

        with np.errstate(invalid="ignore"):
            assert float(fn(store).data) == 2.0
            worst, report = dc.grad_check(fn, store, seed=0)
        assert np.isnan(report["w"][1]) and report["w"][2] == 0.0
        assert worst == np.inf

    def test_float32_store_rejected(self):
        store = dc.ParamStore(np.float32)
        store.add("w", np.ones(2))
        with pytest.raises(ContractError):
            dc.grad_check(lambda s: dc.sum(s["w"]), store)
