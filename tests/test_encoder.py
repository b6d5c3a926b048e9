"""Actor, lane and boundary encoders: shapes, masking semantics, and a
dense numpy oracle for the gated graph convolution."""

import json
import math

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import encoder
from lanecast import scene as sc
from lanecast.config import ModelConfig
from lanecast.errors import ContractError


def tiny_cfg(d=8, l_graph=2):
    return ModelConfig(d=d, l_graph=l_graph)


def make_actor(aid, positions, observed=None, h=None, velocities=None, headings=None):
    """(record, track) of an actor without a future, as `make_scene` takes them."""
    positions = np.asarray(positions, dtype=np.float64)
    h = h or positions.shape[0]
    if velocities is None:
        velocities = np.gradient(positions, axis=0) * 10.0
    if headings is None:
        headings = np.arctan2(velocities[:, 1], velocities[:, 0])
    observed = np.ones(h, dtype=bool) if observed is None else np.asarray(observed)
    return (sc.ActorTrack(id=aid, kind="vehicle", focal=(aid == "a0")),
            (positions, headings, np.asarray(velocities, dtype=np.float64), observed, None))


def straight_scene(actors, h=6):
    n = 31
    lane = sc.Lane(id="L0", centerline=np.stack(
        [np.arange(n) * 1.0, np.zeros(n)], axis=1))
    records, tracks = zip(*actors)
    return sc.make_scene((h, 4), list(records), list(tracks), [lane], [])


class TestActorEncoder:
    def test_shapes_and_positions(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_actor_encoder(store, cfg, np.random.default_rng(0))
        store.pack()  # the branches read their parameters as stacks of the buffer
        scene = sc.generate_synthetic(sc.SceneGenConfig(n_actors=3, h=8, t=4), 1)
        feats, pos = encoder.encode_actors(scene, store, cfg)
        assert feats.shape == (3, cfg.d)
        assert pos.shape == (3, 2)
        np.testing.assert_array_equal(pos, scene.positions[:, -1])

    def test_masked_steps_do_not_leak(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_actor_encoder(store, cfg, np.random.default_rng(1))
        store.pack()
        h = 8
        base = np.stack([np.arange(h) * 1.0, np.ones(h)], axis=1)
        observed = np.array([False, False, False, True, True, True, True, True])
        vel = np.tile([10.0, 0.0], (h, 1))
        hdg = np.zeros(h)

        scrambled = base.copy()
        scrambled[:3] += 77.0  # only at masked steps; vel/heading held fixed
        sv, sh = vel.copy(), hdg.copy()
        sv[:3] += 5.0
        sh[:3] += 0.7
        f1, _ = encoder.encode_actors(
            straight_scene([make_actor("a0", base, observed,
                                       velocities=vel, headings=hdg)], h),
            store, cfg)
        f2, _ = encoder.encode_actors(
            straight_scene([make_actor("a0", scrambled, observed,
                                       velocities=sv, headings=sh)], h),
            store, cfg)
        np.testing.assert_array_equal(f1.data, f2.data)

    def test_observed_steps_do_leak(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_actor_encoder(store, cfg, np.random.default_rng(1))
        store.pack()
        h = 8
        base = np.stack([np.arange(h) * 1.0, np.ones(h)], axis=1)
        moved = base.copy()
        moved[-1] += 0.5
        f1, _ = encoder.encode_actors(
            straight_scene([make_actor("a0", base)], h), store, cfg)
        f2, _ = encoder.encode_actors(
            straight_scene([make_actor("a0", moved)], h), store, cfg)
        assert np.abs(f1.data - f2.data).max() > 1e-9

    def test_short_history_rejected(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_actor_encoder(store, cfg, np.random.default_rng(0))
        store.pack()
        pos = np.zeros((3, 2))
        with pytest.raises(ContractError):
            encoder.encode_actors(
                straight_scene([make_actor("a0", pos)], 3), store, cfg)

    def test_actor_without_observed_step_rejected(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_actor_encoder(store, cfg, np.random.default_rng(0))
        store.pack()
        pos = np.stack([np.arange(6.0), np.zeros(6)], axis=1)
        scene = straight_scene([make_actor("a0", pos), make_actor("a1", pos + 1.0)])
        scene.observed[1] = False
        with pytest.raises(ContractError, match="actor a1 has no observed steps"):
            encoder.encode_actors(scene, store, cfg)

    def test_position_is_last_observed_not_last_row(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_actor_encoder(store, cfg, np.random.default_rng(0))
        store.pack()
        h = 6
        base = np.stack([np.arange(h) * 1.0, np.zeros(h)], axis=1)
        observed = np.array([True, True, True, True, True, False])
        _, pos = encoder.encode_actors(
            straight_scene([make_actor("a0", base, observed)], h), store, cfg)
        np.testing.assert_array_equal(pos[0], base[4])


class TestLaneEncoder:
    def test_shapes(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_lane_encoder(store, cfg, np.random.default_rng(2))
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 3)
        x = encoder.encode_lane_nodes(scene.lane_graph, store, cfg)
        assert x.shape == (scene.lane_graph.n_nodes, cfg.d)

    def test_empty_graph_rejected(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_lane_encoder(store, cfg, np.random.default_rng(2))
        graph, _ = sc.build_lane_nodes([])
        with pytest.raises(ContractError):
            encoder.encode_lane_nodes(graph, store, cfg)


def dense_gated_conv_oracle(x, graph, store, prefix):
    """Matrix-form reference: per category, adjacency as a dense matrix."""
    n, d = x.shape
    w0 = store[f"{prefix}.self.w"].data
    y = x @ w0
    for cat in sc.ADJ_CATEGORIES:
        edges = graph.adjacency[cat]
        if edges.shape[0] == 0:
            continue
        adj = np.zeros((n, n))
        for s, t in edges:
            adj[s, t] += 1.0
        wc = store[f"{prefix}.{cat}.w.w"].data
        u = store[f"{prefix}.{cat}.gate.w"].data
        b = store[f"{prefix}.{cat}.gate.b"].data
        gate = 1.0 / (1.0 + np.exp(-(x @ u + b)))  # [N, 1]
        y = y + gate * (adj @ x @ wc)
    r = np.maximum(y, 0.0)
    mu = r.mean(axis=1, keepdims=True)
    var = r.var(axis=1, keepdims=True)
    g = store[f"{prefix}.ln.g"].data
    be = store[f"{prefix}.ln.b"].data
    return (r - mu) / np.sqrt(var + 1e-5) * g + be + x


class TestGatedConvOracle:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(4)
        cfg = tiny_cfg(d=8, l_graph=1)
        store = dc.ParamStore(np.float64)
        encoder.init_lane_encoder(store, cfg, rng)
        for seed in range(10):
            gen = sc.SceneGenConfig(n_lanes=int(rng.integers(1, 4)),
                                    lane_length=float(rng.uniform(10, 40)))
            graph = sc.generate_synthetic(gen, seed).lane_graph
            x = rng.normal(size=(graph.n_nodes, cfg.d))
            got = encoder.gated_lane_graph_conv(
                dc.Tensor(x), graph, store, "lane.gc0").data
            want = dense_gated_conv_oracle(x, graph, store, "lane.gc0")
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestBoundaryEncoder:
    def test_feature_assembly(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(n_lanes=2), 5)
        b = scene.node_centers.shape[0]
        assert scene.node_directions.shape == (b, 2)
        assert scene.node_markings.shape == scene.matched_lane_nodes.shape == (b,)
        # each boundary record's node_centers is its run of rows, in boundary order
        assert np.concatenate([x.node_centers for x in scene.boundaries]).tobytes() == \
               scene.node_centers.tobytes()
        assert set(scene.node_markings.tolist()) <= set(range(len(sc.MARKINGS)))
        assert scene.matched_lane_nodes.min() >= 0

    def test_packed_nodes_equal_the_per_polyline_loop(self):
        """The packed nodes a scene and its view hand the encoder, against
        the per-polyline concatenation they replaced, with one polyline that
        has no matches (its lane has no nodes). Each polyline is resampled
        from its world-frame points, matched to its lane's nodes, then moved
        into the view's frame by `tp` and `tv`."""
        def per_polyline(scene, tp, tv):
            g = scene.lane_graph
            centers, directions = [np.zeros((0, 2))], [np.zeros((0, 2))]
            marks, matched = [np.zeros((0, len(sc.MARKINGS)))], [np.zeros(0, dtype=np.int64)]
            for b in scene.boundaries:
                c, d, _ = sc.resample_polyline(b.points, 2.0)
                centers.append(tp(c))
                directions.append(tv(d))
                one_hot = np.zeros((len(c), len(sc.MARKINGS)))
                one_hot[:, sc.MARKINGS.index(b.marking)] = 1.0
                marks.append(one_hot)
                lo, hi = g.lane_ranges.get(b.lane_id, (0, 0))
                matched.append(lo + sc._nearest(c, g.centers[lo:hi], [0])[1][:, 0] if hi > lo
                               else np.full(len(c), -1, dtype=np.int64))
            return tuple(map(np.concatenate, (centers, directions, marks, matched)))

        def frame_of(scene, actor_id):
            """The points and vectors maps of `normalize(scene, actor_id)`."""
            i = scene.actor_index(actor_id)
            origin, psi = scene.positions[i, -1].copy(), float(scene.headings[i, -1])
            rot = np.array([[math.cos(psi), math.sin(psi)], [-math.sin(psi), math.cos(psi)]])
            return lambda p: (p - origin) @ rot.T, lambda v: v @ rot.T

        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_boundary_encoder(store, cfg, np.random.default_rng(6))
        obj = json.loads(sc.save_scene(sc.generate_synthetic(sc.SceneGenConfig(n_lanes=3), 2)))
        obj["lanes"].append({"id": "stub", "centerline": [[5.0, 9.0], [5.0, 9.0]]})
        obj["boundaries"].insert(1, {"points": [[0.0, 11.0], [20.0, 11.0]],
                                     "marking": "double", "side": "left", "lane_id": "stub"})
        scene = sc.load_scene(json.dumps(obj))
        stub = slice(*np.cumsum([len(b.node_centers) for b in scene.boundaries[:2]]))
        assert stub.stop > stub.start and (scene.matched_lane_nodes[stub] == -1).all()
        aid = scene.actors[0].id
        for view, moves in ((scene, (lambda p: p, lambda v: v)),
                            (sc.normalize(scene, aid), frame_of(scene, aid))):
            centers, directions, marks, matched = per_polyline(scene, *moves)
            for got, want in ((view.node_centers, centers), (view.node_directions, directions),
                              (np.eye(len(sc.MARKINGS))[view.node_markings], marks),
                              (view.matched_lane_nodes, matched)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            x, pos, m = encoder.encode_boundaries(view, store, cfg)
            feats = np.concatenate([centers * cfg.input_scale, directions, marks], axis=1)
            assert x.data.tobytes() == encoder._input_mlp(store, "bound", feats).data.tobytes()
            assert pos.tobytes() == centers.tobytes() and m.tobytes() == matched.tobytes()

    def test_encode_shapes(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_boundary_encoder(store, cfg, np.random.default_rng(6))
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 7)
        x, pos, matched = encoder.encode_boundaries(scene, store, cfg)
        assert x.shape[1] == cfg.d
        assert x.shape[0] == pos.shape[0] == matched.shape[0]

    def test_empty_boundaries(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        encoder.init_boundary_encoder(store, cfg, np.random.default_rng(6))
        pos = np.stack([np.arange(6.0), np.zeros(6)], axis=1)
        scene = straight_scene([make_actor("a0", pos)])
        x, pos, matched = encoder.encode_boundaries(scene, store, cfg)
        assert x.shape == (0, cfg.d)
        assert pos.shape == (0, 2)
