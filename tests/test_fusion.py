"""Fusion blocks: radius-gated attention against a dense oracle, the
strict-radius and empty-neighborhood contracts, and boundary scatter-mean."""

import numpy as np
import pytest

from lanecast import decoder, fusion
from lanecast import diffcore as dc
from lanecast import scene as sc
from lanecast.diffcore import tensor
from lanecast._layers import layer_norm, linear
from lanecast.config import ModelConfig
from lanecast.errors import ContractError, ShapeError


def tiny_cfg(d=8):
    return ModelConfig(d=d, l_graph=1)


def attn_store(name="att", d=8, seed=0):
    store = dc.ParamStore(np.float64)
    fusion.init_distance_attention(store, name, tiny_cfg(d), np.random.default_rng(seed))
    return store


def dense_attention_oracle(query_f, q_pos, ctx_f, c_pos, store, name, tau,
                           exclude_self=False):
    """Reference with explicit per-query loops and dense masks."""
    w_rel = store[f"{name}.rel.w"].data
    w_ctx = store[f"{name}.ctx.w"].data
    w_q = store[f"{name}.query.w"].data
    w_out = store[f"{name}.out.w"].data
    g = store[f"{name}.ln.g"].data
    b = store[f"{name}.ln.b"].data

    def ln(x):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    nq = q_pos.shape[0]
    out = np.empty_like(query_f)
    qp = query_f @ w_q
    for i in range(nq):
        d = np.hypot(*(c_pos - q_pos[i]).T)
        keep = d < tau
        if exclude_self:
            keep[i] = False
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            out[i] = ln(query_f[i])
            continue
        rel = (c_pos[idx] - q_pos[i]) @ w_rel
        msgs = np.concatenate([rel, ctx_f[idx]], axis=1) @ w_ctx
        agg = np.maximum(msgs + qp[i], 0.0).sum(axis=0)
        out[i] = ln(query_f[i] + agg @ w_out)
    return out


class TestDistanceAttention:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        store = attn_store()
        for _ in range(20):
            nq, nc = rng.integers(1, 8), rng.integers(1, 12)
            qf = rng.normal(size=(nq, 8))
            cf = rng.normal(size=(nc, 8))
            qp = rng.uniform(0, 12, size=(nq, 2))
            cp = rng.uniform(0, 12, size=(nc, 2))
            got = fusion.distance_attention(
                dc.Tensor(qf), qp, dc.Tensor(cf), cp, store, "att", tau=6.0).data
            want = dense_attention_oracle(qf, qp, cf, cp, store, "att", 6.0)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_radius_is_strict(self):
        store = attn_store()
        qf = np.ones((1, 8))
        cf = np.full((1, 8), 3.0)
        qp = np.zeros((1, 2))
        cp = np.array([[5.0, 0.0]])  # distance exactly tau
        got = fusion.distance_attention(
            dc.Tensor(qf), qp, dc.Tensor(cf), cp, store, "att", tau=5.0).data
        want = layer_norm(store, "att.ln", dc.Tensor(qf)).data
        np.testing.assert_array_equal(got, want)
        # nudge inside the radius and the context must matter
        got2 = fusion.distance_attention(
            dc.Tensor(qf), qp, dc.Tensor(cf), np.array([[4.999, 0.0]]),
            store, "att", tau=5.0).data
        assert np.abs(got2 - want).max() > 1e-9

    def test_no_neighbors_is_exact_layer_norm(self):
        rng = np.random.default_rng(2)
        store = attn_store()
        qf = rng.normal(size=(3, 8))
        got = fusion.distance_attention(
            dc.Tensor(qf), np.zeros((3, 2)), dc.Tensor(rng.normal(size=(2, 8))),
            np.full((2, 2), 1e6), store, "att", tau=10.0).data
        want = layer_norm(store, "att.ln", dc.Tensor(qf)).data
        np.testing.assert_array_equal(got, want)

    def test_exclude_self_removes_own_point(self):
        store = attn_store()
        f = np.ones((1, 8))
        pos = np.zeros((1, 2))
        got = fusion.distance_attention(
            dc.Tensor(f), pos, dc.Tensor(f), pos, store, "att", tau=10.0,
            exclude_self=True).data
        want = layer_norm(store, "att.ln", dc.Tensor(f)).data
        np.testing.assert_array_equal(got, want)

    def test_exclude_self_requires_aligned_sets(self):
        store = attn_store()
        with pytest.raises(ContractError):
            fusion.distance_attention(
                dc.Tensor(np.ones((2, 8))), np.zeros((2, 2)),
                dc.Tensor(np.ones((3, 8))), np.zeros((3, 2)),
                store, "att", tau=1.0, exclude_self=True)

    def test_nonpositive_tau_rejected(self):
        store = attn_store()
        with pytest.raises(ContractError):
            fusion.distance_attention(
                dc.Tensor(np.ones((1, 8))), np.zeros((1, 2)),
                dc.Tensor(np.ones((1, 8))), np.zeros((1, 2)),
                store, "att", tau=0.0)


class TestBoundaryToLane:
    def _store(self, d=8, seed=3):
        store = dc.ParamStore(np.float64)
        fusion.init_boundary_lane_fusion(store, tiny_cfg(d), np.random.default_rng(seed))
        return store

    def test_scatter_mean_oracle(self):
        rng = np.random.default_rng(4)
        store = self._store()
        n, m, d = 5, 7, 8
        lane_f = rng.normal(size=(n, d))
        bound_f = rng.normal(size=(m, d))
        matched = np.array([0, 0, 1, 3, 3, 3, -1])
        got = fusion.fuse_boundary_to_lane(
            dc.Tensor(lane_f), dc.Tensor(bound_f), matched, store).data

        w1, b1 = store["fuse.b2l.mlp1.w"].data, store["fuse.b2l.mlp1.b"].data
        w2, b2 = store["fuse.b2l.mlp2.w"].data, store["fuse.b2l.mlp2.b"].data
        g, be = store["fuse.b2l.ln.g"].data, store["fuse.b2l.ln.b"].data
        ctx = np.zeros((n, d))
        for i in range(n):
            if np.any(matched == i):
                ctx[i] = bound_f[matched == i].mean(axis=0)
        h = np.maximum(np.concatenate([lane_f, ctx], axis=1) @ w1 + b1, 0.0) @ w2 + b2
        pre = lane_f + h
        mu = pre.mean(axis=1, keepdims=True)
        var = pre.var(axis=1, keepdims=True)
        want = (pre - mu) / np.sqrt(var + 1e-5) * g + be
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_unmatched_nodes_mean_zero_context(self):
        store = self._store()
        lane_f = np.zeros((2, 8))
        bound_f = np.ones((1, 8))
        # node 1 gets the boundary, node 0 gets nothing
        out = fusion.fuse_boundary_to_lane(
            dc.Tensor(lane_f), dc.Tensor(bound_f),
            np.array([1]), store).data
        # identical lane features but different contexts must diverge
        assert np.abs(out[0] - out[1]).max() > 1e-9

    def test_out_of_range_lane_index_is_unmatched(self):
        store = self._store()
        lane_f = np.random.default_rng(5).normal(size=(2, 8))
        bound_f = np.random.default_rng(6).normal(size=(2, 8))
        both = fusion.fuse_boundary_to_lane(
            dc.Tensor(lane_f), dc.Tensor(bound_f), np.array([1, 2]), store).data
        one = fusion.fuse_boundary_to_lane(
            dc.Tensor(lane_f), dc.Tensor(bound_f[:1]), np.array([1]), store).data
        np.testing.assert_array_equal(both, one)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_index_order_pairs_equal_lane_major_pairs_bit_for_bit(self, dtype):
        """The gathered pairs in boundary index order against the lane-major
        (stable argsort) order they replaced: output and every gradient."""
        def lane_major(lane_f, boundary_f, matched, store):
            n = lane_f.shape[0]
            kept = np.flatnonzero((matched >= 0) & (matched < n))
            pairs_bnd = kept[np.argsort(matched[kept], kind="stable")]
            pairs_lane = matched[pairs_bnd]
            sums = dc.scatter_add(dc.gather(boundary_f, pairs_bnd, axis=0), pairs_lane, n)
            counts = np.bincount(pairs_lane, minlength=n).astype(np.float64)
            inv = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
            ctx = dc.mul(sums, dc.Tensor(inv[:, None].astype(dtype)))
            h = dc.concat([lane_f, ctx], axis=1)
            h = dc.relu(linear(store, "fuse.b2l.mlp1", h))
            h = linear(store, "fuse.b2l.mlp2", h)
            return layer_norm(store, "fuse.b2l.ln", dc.add(lane_f, h))

        rng = np.random.default_rng(9)
        store = dc.ParamStore(dtype)
        fusion.init_boundary_lane_fusion(store, tiny_cfg(), rng)
        matched = np.array([3, 0, -1, 1, 0, 3, 7, 3, 1, 0])
        lane = rng.normal(size=(5, 8)).astype(dtype)
        bound = rng.normal(size=(len(matched), 8)).astype(dtype)
        mix = dc.Tensor(rng.normal(size=(5, 8)).astype(dtype))
        results = []
        for block in (fusion.fuse_boundary_to_lane, lane_major):
            lane_f = dc.Tensor(lane, requires_grad=True)
            bound_f = dc.Tensor(bound, requires_grad=True)
            out = block(lane_f, bound_f, matched, store)
            params = {"lane": lane_f, "bound": bound_f, **dict(store.items())}
            results.append((out.data, dc.backward(dc.sum(dc.mul(out, mix)), params)))
        (got, got_g), (want, want_g) = results
        np.testing.assert_array_equal(got, want)
        assert got_g.keys() == want_g.keys()
        for name in want_g:
            np.testing.assert_array_equal(got_g[name], want_g[name], err_msg=name)

    def test_matched_length_must_equal_boundary_nodes(self):
        store = self._store()
        with pytest.raises(ShapeError):
            fusion.fuse_boundary_to_lane(
                dc.Tensor(np.zeros((2, 8))), dc.Tensor(np.ones((3, 8))),
                np.array([0, 1]), store)


class TestEmptyContext:
    """An empty pair set runs the general path; it must equal the early
    returns that served it before, in value and in every gradient."""

    def _grads(self, out, store, inputs, seed=9):
        weights = np.random.default_rng(seed).normal(size=out.shape)
        loss = dc.sum(dc.mul(out, dc.Tensor(weights)))
        return dc.backward(loss, {**dict(store.items()), **inputs})

    def _assert_same(self, got, want, store, inputs):
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
        g_got, g_want = self._grads(got, store, inputs), self._grads(want, store, inputs)
        assert g_got.keys() == g_want.keys()
        for name in g_got:
            np.testing.assert_allclose(g_got[name], g_want[name], rtol=0, atol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("n_ctx", [2, 0], ids=["none-in-range", "no-context"])
    def test_attention_without_pairs_is_layer_norm(self, n_ctx):
        rng = np.random.default_rng(7)
        store = attn_store()
        qf = dc.Tensor(rng.normal(size=(3, 8)), requires_grad=True)
        cf = dc.Tensor(rng.normal(size=(n_ctx, 8)), requires_grad=True)
        got = fusion.distance_attention(qf, rng.normal(size=(3, 2)), cf,
                                        np.full((n_ctx, 2), 1e3), store, "att", tau=1.0)
        want = layer_norm(store, "att.ln", qf)  # the early return that served this
        self._assert_same(got, want, store, {"query": qf, "ctx": cf})

    @pytest.mark.parametrize("matched", [np.zeros(0, dtype=np.int64), np.array([-1, -1, 5])],
                             ids=["no-boundary-nodes", "all-unmatched"])
    def test_boundary_to_lane_without_pairs_sees_zero_context(self, matched):
        rng = np.random.default_rng(8)
        store = TestBoundaryToLane()._store()
        lane_f = dc.Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        bound_f = dc.Tensor(rng.normal(size=(len(matched), 8)), requires_grad=True)
        got = fusion.fuse_boundary_to_lane(lane_f, bound_f, matched, store)
        # the zero-context branch that served this
        h = dc.concat([lane_f, dc.Tensor(np.zeros((5, 8)))], axis=1)
        h = dc.relu(dc.add(dc.matmul(h, store["fuse.b2l.mlp1.w"]), store["fuse.b2l.mlp1.b"]))
        h = dc.add(dc.matmul(h, store["fuse.b2l.mlp2.w"]), store["fuse.b2l.mlp2.b"])
        want = layer_norm(store, "fuse.b2l.ln", dc.add(lane_f, h))
        self._assert_same(got, want, store, {"lane": lane_f, "boundary": bound_f})


def _pipeline_ops(tau, monkeypatch):
    cfg = ModelConfig(d=16, l_graph=1, tau_lane=tau, tau_boundary=tau, tau_actor=tau)
    scene = sc.generate_synthetic(sc.SceneGenConfig(n_actors=3), seed=0)
    ns = sc.normalize(scene, scene.focal_actors()[0].id)
    store = dc.ParamStore(np.float64)
    decoder.init_model(store, cfg, ns.horizon[1], np.random.default_rng(0))
    calls = []
    make = tensor._make
    monkeypatch.setattr(tensor, "_make", lambda *a: calls.append(a[1]) or make(*a))
    decoder.run_pipeline(ns, store, cfg, decoder.S2)
    monkeypatch.undo()
    return len(calls)


def test_ops_per_forward_do_not_depend_on_radii(monkeypatch):
    assert _pipeline_ops(1e-3, monkeypatch) == _pipeline_ops(1e3, monkeypatch)
