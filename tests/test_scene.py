"""Scene model: angle wrapping, lane graph construction, synthetic
generation, JSON round trips, and agent-centric normalization."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanecast import scene as sc
from lanecast.config import DataConfig, ModelConfig, RunConfig, TrainConfig
from lanecast.decoder import forecast
from lanecast.optim import train
from lanecast.errors import ConfigError, ContractError, ParseError


def straight_lane(lane_id="L0", length=10.0, y=0.0, step=1.0):
    n = int(length / step) + 1
    pts = np.stack([np.arange(n) * step, np.full(n, y)], axis=1)
    return sc.Lane(id=lane_id, centerline=pts)


def remainder_wrap(theta):
    """The scalar wrap `wrap_angles` replaced: IEEE remainder, then -pi to pi."""
    r = math.remainder(float(theta), math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


class TestWrapAngle:
    def test_array_wrap_equals_the_remainder_wrap_bit_for_bit(self):
        edges = [0.0, 5e-324, 1e-300, 1.0, 1e300, np.finfo(np.float64).max]
        for k in range(-8, 9):
            edges += [k * math.pi, k * math.tau, k * math.pi / 2]
        for v in (math.pi, 3 * math.pi, math.tau):
            edges += [np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
        edges = np.array(edges)
        rng = np.random.default_rng(0)
        x = np.concatenate([edges, -edges, rng.uniform(-50, 50, 100_000),
                            rng.normal(0, 1e6, 20_000),
                            np.ldexp(rng.uniform(-1, 1, 20_000), rng.integers(-60, 200, 20_000))])
        want = np.array([remainder_wrap(t) for t in x])
        got = sc.wrap_angles(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert all(float(sc.wrap_angles(t)) == w for t, w in zip(edges, want[:len(edges)]))
        assert sc.wrap_angles(x.reshape(2, -1)).shape == (2, x.size // 2)

    @given(st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_range_and_idempotence(self, a):
        w = float(sc.wrap_angles(a))
        assert -math.pi < w <= math.pi
        assert float(sc.wrap_angles(w)) == w

    def test_pi_maps_to_pi(self):
        assert float(sc.wrap_angles(math.pi)) == math.pi
        assert float(sc.wrap_angles(-math.pi)) == math.pi
        assert float(sc.wrap_angles(3 * math.pi)) == math.pi

    def test_equivalence_mod_2pi(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.uniform(-10, 10)
            k = rng.integers(-3, 4)
            np.testing.assert_allclose(
                float(sc.wrap_angles(a + 2 * math.pi * k)), float(sc.wrap_angles(a)), atol=1e-9)


class TestLaneGraph:
    def test_node_count_and_centers_on_10m_lane(self):
        graph, skipped = sc.build_lane_nodes([straight_lane()], segment_len=2.0)
        assert skipped == 0
        assert graph.n_nodes == 5
        np.testing.assert_allclose(graph.centers[:, 0], [1, 3, 5, 7, 9], atol=1e-9)
        np.testing.assert_allclose(graph.centers[:, 1], 0, atol=1e-12)
        np.testing.assert_allclose(graph.lengths, 2.0, atol=1e-9)
        assert graph.adjacency["successor"].shape == (4, 2)
        assert graph.adjacency["predecessor"].shape == (4, 2)

    def test_succ_pred_are_mirrors(self):
        lanes = [straight_lane("a"), straight_lane("b", y=3.5)]
        graph, _ = sc.build_lane_nodes(lanes)
        succ = {tuple(e) for e in graph.adjacency["successor"]}
        pred = {tuple(e) for e in graph.adjacency["predecessor"]}
        assert pred == {(j, i) for i, j in succ}

    def test_left_right_symmetric_pairs(self):
        lanes = [straight_lane("a", length=40.0), straight_lane("b", length=40.0, y=3.5)]
        graph, _ = sc.build_lane_nodes(lanes, lane_width=3.5)
        left = {tuple(e) for e in graph.adjacency["left"]}
        right = {tuple(e) for e in graph.adjacency["right"]}
        assert left and right == {(j, i) for i, j in left}

    def test_parallel_lanes_too_far_are_not_neighbors(self):
        lanes = [straight_lane("a", length=40.0), straight_lane("b", length=40.0, y=10.0)]
        graph, _ = sc.build_lane_nodes(lanes, lane_width=3.5)
        assert graph.adjacency["left"].size == 0
        assert graph.adjacency["right"].size == 0

    def test_degenerate_lane_skipped_with_count(self):
        flat = sc.Lane(id="z", centerline=np.array([[1.0, 1.0], [1.0, 1.0]]))
        graph, skipped = sc.build_lane_nodes([straight_lane(), flat])
        assert skipped == 1
        assert graph.n_nodes == 5

    def test_short_lane_still_gets_one_node(self):
        tiny = sc.Lane(id="t", centerline=np.array([[0.0, 0.0], [0.4, 0.0]]))
        graph, skipped = sc.build_lane_nodes([tiny])
        assert skipped == 0
        assert graph.n_nodes == 1

    def test_directions_unit_norm(self):
        gen = sc.SceneGenConfig(curvature_range=(0.01, 0.02))
        scene = sc.generate_synthetic(gen, 4)
        norms = np.hypot(*scene.lane_graph.directions.T)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestSyntheticGeneration:
    def test_deterministic_bytes(self):
        gen = sc.SceneGenConfig(noise_sigma=0.2)
        a = sc.save_scene(sc.generate_synthetic(gen, 9))
        b = sc.save_scene(sc.generate_synthetic(gen, 9))
        assert a == b

    def test_zero_noise_future_on_centerline(self):
        gen = sc.SceneGenConfig(n_lanes=1, n_actors=1, noise_sigma=0.0,
                                lane_change_prob=0.0)
        scene = sc.generate_synthetic(gen, 3)
        future = scene.future[0]
        assert scene.has_future[0] and future.shape == (gen.t, 2)
        # single straight lane at y=0: the future must ride the centerline
        np.testing.assert_allclose(future[:, 1], 0.0, atol=1e-9)

    def test_noise_perturbs_history_but_future_stays_on_lane(self):
        gen = sc.SceneGenConfig(noise_sigma=0.5, lane_change_prob=0.0)
        scene = sc.generate_synthetic(gen, 21)
        lane_ys = {lane.centerline[0, 1] for lane in scene.lanes}
        for future, positions in zip(scene.future, scene.positions):
            # future is the clean kinematic rollout: y pinned to a lane center
            assert any(np.allclose(future[:, 1], y, atol=1e-9) for y in lane_ys)
            hist_y = positions[:, 1]
            assert all(np.abs(hist_y - y).max() > 1e-6 for y in lane_ys)

    def test_counts_and_focal(self):
        gen = sc.SceneGenConfig(n_actors=4)
        scene = sc.generate_synthetic(gen, 5)
        assert len(scene.actors) == 4
        assert [a.id for a in scene.focal_actors()] == [scene.actors[0].id]
        assert scene.horizon == (gen.h, gen.t)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            sc.SceneGenConfig(n_lanes=0).validate()
        with pytest.raises(ConfigError):
            sc.SceneGenConfig(h=1).validate()
        with pytest.raises(ConfigError):
            sc.SceneGenConfig(noise_sigma=-0.1).validate()
        with pytest.raises(ConfigError, match="MAX_SCENE_NODES"):
            sc.SceneGenConfig(n_lanes=8, lane_length=200.0).validate()

    def test_generator_bound_holds_on_curved_lanes(self):
        """Generators just inside validate's bound stay within the node budget."""
        rng = np.random.default_rng(3)
        for _ in range(12):
            n_lanes, width, kappa = int(rng.integers(1, 6)), rng.uniform(2, 6), rng.uniform(0, 0.05)
            per_polyline = sc.MAX_SCENE_NODES / (3 * n_lanes) - 1
            length = 0.999 * 2.0 * per_polyline / (1 + kappa * n_lanes * width / 2)
            gen = sc.SceneGenConfig(n_lanes=n_lanes, lane_width=width, lane_length=length,
                                    curvature_range=(-kappa, -kappa), n_actors=1)
            gen.validate()
            with pytest.raises(ConfigError):
                sc.SceneGenConfig(n_lanes=n_lanes, lane_width=width, lane_length=1.01 * length,
                                  curvature_range=(-kappa, -kappa)).validate()
            scene = sc.generate_synthetic(gen, int(rng.integers(100)))
            nodes = scene.lane_graph.n_nodes + sum(len(b.node_centers) for b in scene.boundaries)
            assert 0.4 * sc.MAX_SCENE_NODES < nodes <= sc.MAX_SCENE_NODES


class TestSceneIO:
    def test_roundtrip_identity(self):
        gen = sc.SceneGenConfig(noise_sigma=0.1, n_actors=3)
        scene = sc.generate_synthetic(gen, 11, scene_id="rt")
        blob = sc.save_scene(scene)
        again = sc.save_scene(sc.load_scene(blob, scene_id="rt"))
        assert blob == again

    def test_schema_has_exactly_four_keys(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 0)
        obj = json.loads(sc.save_scene(scene))
        assert set(obj) == {"horizon", "actors", "lanes", "boundaries"}

    def test_scene_id_from_argument_not_file(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 0, scene_id="orig")
        loaded = sc.load_scene(sc.save_scene(scene), scene_id="renamed")
        assert loaded.scene_id == "renamed"

    def test_missing_key_names_the_field(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 0)
        obj = json.loads(sc.save_scene(scene))
        del obj["lanes"]
        with pytest.raises(ParseError) as e:
            sc.load_scene(json.dumps(obj))
        assert "lanes" in str(e.value)

    def test_nan_rejected(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 0)
        obj = json.loads(sc.save_scene(scene))
        obj["actors"][0]["history"][0][0] = float("nan")
        with pytest.raises(ParseError):
            sc.load_scene(json.dumps(obj))

    def test_boolean_horizon_rejected(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 0)
        obj = json.loads(sc.save_scene(scene))
        obj["horizon"]["H"] = True
        with pytest.raises(ParseError):
            sc.load_scene(json.dumps(obj))

    def test_overflowing_coordinate_names_the_field(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 0)
        obj = json.loads(sc.save_scene(scene))
        obj["lanes"][0]["centerline"][1][0] = 10**400
        with pytest.raises(ParseError) as e:
            sc.load_scene(json.dumps(obj))
        assert e.value.field == "lanes[0].centerline"

    def test_far_endpoints_raise_parse_error_without_a_numpy_warning(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 0)
        obj = json.loads(sc.save_scene(scene))
        obj["lanes"][0]["centerline"] = [[-1e308, 0.0], [1e308, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as e:
                sc.load_scene(json.dumps(obj))
        assert e.value.field == "lanes[0].centerline"

    def test_repeated_lane_id_rejected(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(n_lanes=2), 0)
        obj = json.loads(sc.save_scene(scene))
        obj["lanes"][1]["id"] = obj["lanes"][0]["id"]
        with pytest.raises(ParseError) as e:
            sc.load_scene(json.dumps(obj))
        assert e.value.field == "lanes[1].id"

    @pytest.mark.parametrize("first, second", [("a0", "a0"), ("7", 7)], ids=["same", "after-str"])
    def test_repeated_actor_id_rejected(self, first, second):
        scene = sc.generate_synthetic(sc.SceneGenConfig(n_actors=3), 0)
        obj = json.loads(sc.save_scene(scene))
        obj["actors"][0]["id"], obj["actors"][2]["id"] = first, second
        with pytest.raises(ParseError) as e:
            sc.load_scene(json.dumps(obj))
        assert e.value.field == "actors[2].id"

    def test_boundary_with_unknown_lane_rejected(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(), 0)
        obj = json.loads(sc.save_scene(scene))
        obj["boundaries"][0]["lane_id"] = "no-such-lane"
        with pytest.raises(ParseError) as e:
            sc.load_scene(json.dumps(obj))
        assert "lane_id" in str(e.value)

    def test_focal_actor_unobserved_at_the_last_step_rejected(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(n_actors=3), 0)
        obj = json.loads(sc.save_scene(scene))
        obj["actors"][1]["focal"] = True
        obj["actors"][1]["observed"][-1] = False
        with pytest.raises(ParseError) as e:
            sc.load_scene(json.dumps(obj))
        assert e.value.field == "actors[1].observed"
        # a context actor may still drop out at the last step
        obj["actors"][1]["focal"] = False
        assert not sc.load_scene(json.dumps(obj)).observed[1, -1]

    def test_actor_count_capped_at_max_actors(self):
        gen = sc.SceneGenConfig(n_lanes=2, n_actors=sc.MAX_ACTORS, h=4, t=3)
        obj = json.loads(sc.save_scene(sc.generate_synthetic(gen, 0)))
        assert len(sc.load_scene(json.dumps(obj)).actors) == sc.MAX_ACTORS
        obj["actors"].append({**obj["actors"][-1], "id": "one-more"})
        with pytest.raises(ParseError) as e:
            sc.load_scene(json.dumps(obj))
        assert e.value.field == "actors"
        assert f"MAX_ACTORS={sc.MAX_ACTORS}" in str(e.value)


def minimal_scene_json(h, t, n_actors=3):
    """A small scene file of `n_actors` actors without futures, one lane and no boundaries."""
    return json.dumps({
        "horizon": {"H": h, "T": t},
        "actors": [{"id": f"a{i}", "kind": "vehicle", "observed": [True] * h, "future": None,
                    "history": [[float(k), 0.0, 0.0, 1.0, 0.0] for k in range(h)],
                    "focal": i == 0} for i in range(n_actors)],
        "lanes": [{"id": "L0", "centerline": [[0.0, 0.0], [10.0, 0.0]]}],
        "boundaries": []})


class TestHorizonBound:
    """H + T is bounded by MAX_TIME_STEPS at load, as `SceneGenConfig.validate`
    bounds generated scenes: T sizes the [A, T, 2] future rows even when every
    future is null, so an unbounded T let a small file allocate without limit."""

    PEAK_CEILING = 32 * 1024  # bytes; a file at the bound allocates ~100 KB of future rows

    @pytest.mark.parametrize("h, t", [(2, sc.MAX_TIME_STEPS - 1), (10, sc.MAX_TIME_STEPS - 9),
                                      (2, 1_000_000)], ids=["one-past", "one-past-h10", "huge"])
    def test_past_the_bound_rejected_before_any_array(self, h, t):
        data = minimal_scene_json(h, t)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as e:
                sc.load_scene(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e.value.field == "horizon.T"
        assert f"MAX_TIME_STEPS={sc.MAX_TIME_STEPS}" in str(e.value)
        assert peak < self.PEAK_CEILING, peak

    def test_a_file_at_the_bound_loads(self):
        t = sc.MAX_TIME_STEPS - 2
        scene = sc.load_scene(minimal_scene_json(2, t))
        assert scene.horizon == (2, t)
        assert scene.future.shape == (3, t, 2) and not scene.has_future.any()


class TestNormalize:
    def _scene(self, seed=13):
        gen = sc.SceneGenConfig(n_actors=3, noise_sigma=0.1, curvature_range=(0.0, 0.01))
        return sc.generate_synthetic(gen, seed)

    def test_focal_at_origin_heading_zero(self):
        scene = self._scene()
        aid = scene.actors[1].id
        ns = sc.normalize(scene, aid)
        np.testing.assert_allclose(ns.positions[1, -1], [0.0, 0.0], atol=1e-12)
        assert ns.headings[1, -1] == 0.0
        assert ns.frame == f"agent:{aid}"

    def test_idempotent_bit_exact(self):
        scene = self._scene()
        aid = scene.actors[0].id
        once = sc.normalize(scene, aid)
        twice = sc.normalize(once, aid)
        np.testing.assert_array_equal(once.positions[0], twice.positions[0])
        np.testing.assert_array_equal(once.lane_graph.centers,
                                      twice.lane_graph.centers)

    def test_rigid_isometry(self):
        scene = self._scene()
        ns = sc.normalize(scene, scene.actors[2].id)
        for before, after in zip(scene.positions, ns.positions):
            d0 = np.linalg.norm(np.diff(before, axis=0), axis=1)
            d1 = np.linalg.norm(np.diff(after, axis=0), axis=1)
            np.testing.assert_allclose(d0, d1, atol=1e-9)

    def test_to_world_inverts(self):
        scene = self._scene()
        aid = scene.actors[1].id
        ns = sc.normalize(scene, aid)
        back = sc.to_world(ns, ns.positions[1])
        np.testing.assert_allclose(back, scene.positions[1], atol=1e-9)

    def test_unknown_actor_raises(self):
        with pytest.raises(ContractError):
            sc.normalize(self._scene(), "ghost")


def copying_normalize(scene, actor_id):
    """The `normalize` that copied every array of the scene, kept as the
    reference for the view that moves coordinates only."""
    i = scene.actor_index(actor_id)
    origin = scene.positions[i, -1].astype(np.float64)
    psi = float(scene.headings[i, -1])
    c, s = math.cos(psi), math.sin(psi)
    rot = np.array([[c, s], [-s, c]])  # world -> agent

    def tp(pts):  # transform points
        return (np.asarray(pts) - origin) @ rot.T

    def tv(vecs):  # rotate vectors
        return np.asarray(vecs) @ rot.T

    # each actor's rows moved one by one
    rows = [dict(positions=tp(scene.positions[k]),
                 headings=sc.wrap_angles(scene.headings[k] - psi),
                 velocities=tv(scene.velocities[k]), observed=scene.observed[k].copy(),
                 future=tp(scene.future[k]))
            for k in range(len(scene.actors))]

    lanes = [sc.Lane(l.id, tp(l.centerline)) for l in scene.lanes]
    boundaries = [replace(
        b, points=tp(b.points), node_centers=tp(b.node_centers),
        node_directions=tv(b.node_directions),
        matched_lane_nodes=b.matched_lane_nodes.copy(),
    ) for b in scene.boundaries]
    g = scene.lane_graph
    graph = sc.LaneGraph(tp(g.centers), tv(g.directions), g.lengths.copy(),
                         {k: v.copy() for k, v in g.adjacency.items()},
                         dict(g.lane_ranges))
    # the packed arrays, stacked from the rows and records moved one by one
    packed = {n: np.stack([r[n] for r in rows])
              for n in ("positions", "headings", "velocities", "observed", "future")}
    packed.update({n: np.concatenate([np.zeros((0, 2))] + [getattr(b, n) for b in boundaries])
                   for n in ("node_centers", "node_directions")})
    packed.update({n: getattr(scene, n).copy() for n in FRAME_FREE[1:]})

    world_rot = scene.world_rot @ rot.T
    world_trans = scene.world_rot @ origin + scene.world_trans
    return sc.Scene(horizon=scene.horizon, actors=[replace(a) for a in scene.actors],
                    lanes=lanes, boundaries=boundaries, lane_graph=graph, **packed,
                    frame=f"agent:{actor_id}", world_rot=world_rot,
                    world_trans=world_trans, scene_id=scene.scene_id)


COORDINATES = {"lane": ("centerline",), "boundary": ("points", "node_centers", "node_directions"),
               "graph": ("centers", "directions"),
               "scene": ("positions", "headings", "velocities", "future", "node_centers",
                         "node_directions")}
FRAME_FREE = ("observed", "has_future", "node_markings", "matched_lane_nodes", "node_offsets")


def scene_arrays(scene):
    """(name, array) for every array of a scene, coordinates or not."""
    g = scene.lane_graph
    out = [("world_rot", scene.world_rot), ("world_trans", scene.world_trans),
           ("graph.centers", g.centers), ("graph.directions", g.directions),
           ("graph.lengths", g.lengths)]
    out += [(f"graph.adjacency.{k}", v) for k, v in g.adjacency.items()]
    out += [(n, getattr(scene, n)) for n in (*COORDINATES["scene"], *FRAME_FREE)]
    out += [(f"lanes[{i}].centerline", l.centerline) for i, l in enumerate(scene.lanes)]
    for i, b in enumerate(scene.boundaries):
        out += [(f"boundaries[{i}].{n}", getattr(b, n))
                for n in (*COORDINATES["boundary"], "matched_lane_nodes")]
    return out


def coordinate_arrays(scene):
    g = scene.lane_graph
    out = [getattr(g, n) for n in COORDINATES["graph"]]
    out += [getattr(scene, n) for n in COORDINATES["scene"]]
    out += [l.centerline for l in scene.lanes]
    out += [getattr(b, n) for b in scene.boundaries for n in COORDINATES["boundary"]]
    return out


def scene_with_degenerate_lane():
    """A loaded scene with one lane of coincident points: no lane nodes, so
    its boundary's nodes match -1."""
    gen = sc.SceneGenConfig(n_actors=3, noise_sigma=0.1, curvature_range=(0.0, 0.02))
    obj = json.loads(sc.save_scene(sc.generate_synthetic(gen, 4)))
    obj["lanes"].append({"id": "stub", "centerline": [[5.0, 9.0], [5.0, 9.0]]})
    obj["boundaries"].append({"points": [[0.0, 11.0], [20.0, 11.0]], "marking": "solid",
                              "side": "left", "lane_id": "stub"})
    return sc.load_scene(json.dumps(obj), scene_id="degenerate")


def view_scenes():
    yield sc.generate_synthetic(sc.SceneGenConfig(n_lanes=3, n_actors=4), 1)
    yield sc.generate_synthetic(sc.SceneGenConfig(n_actors=3, curvature_range=(0.01, 0.03)), 2)
    yield sc.generate_synthetic(sc.SceneGenConfig(n_actors=3, noise_sigma=0.3), 3)
    yield scene_with_degenerate_lane()


class TestViewSharing:
    def assert_same_view(self, got, want):
        assert (got.frame, got.horizon, got.scene_id) == (want.frame, want.horizon, want.scene_id)
        assert got.lane_graph.lane_ranges == want.lane_graph.lane_ranges
        assert [(a.id, a.kind, a.focal) for a in got.actors] == \
               [(a.id, a.kind, a.focal) for a in want.actors]
        assert [l.id for l in got.lanes] == [l.id for l in want.lanes]
        assert [(b.marking, b.side, b.lane_id) for b in got.boundaries] == \
               [(b.marking, b.side, b.lane_id) for b in want.boundaries]
        got_arrays, want_arrays = scene_arrays(got), scene_arrays(want)
        assert [n for n, _ in got_arrays] == [n for n, _ in want_arrays]
        for (name, g), (_, w) in zip(got_arrays, want_arrays):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name

    def test_view_equals_the_copying_normalize_bit_for_bit(self):
        for scene in view_scenes():
            for a in scene.actors:
                view = sc.normalize(scene, a.id)
                self.assert_same_view(view, copying_normalize(scene, a.id))
                self.assert_same_view(sc.normalize(view, a.id),
                                      copying_normalize(copying_normalize(scene, a.id), a.id))

    def test_view_shares_frame_free_arrays_and_no_coordinates(self):
        for scene in view_scenes():
            view = sc.normalize(scene, scene.actors[-1].id)
            g, vg = scene.lane_graph, view.lane_graph
            assert vg.lengths is g.lengths and vg.lane_ranges is g.lane_ranges
            assert all(vg.adjacency[k] is v for k, v in g.adjacency.items())
            assert all(getattr(view, n) is getattr(scene, n) for n in FRAME_FREE)
            # the view shares the actor records; boundary records are views of the packed arrays
            assert view.actors is scene.actors
            assert all(np.shares_memory(v.node_centers, view.node_centers)
                       for v in view.boundaries if v.node_centers.size)
            assert all(np.shares_memory(v.matched_lane_nodes, scene.matched_lane_nodes)
                       for v in view.boundaries if v.matched_lane_nodes.size)
            originals = coordinate_arrays(scene)
            for moved in coordinate_arrays(view):
                assert not any(np.shares_memory(moved, o) for o in originals)

    def test_train_and_forecast_leave_the_scenes_unchanged(self):
        def digest(scenes):
            h = hashlib.sha256()
            for scene in scenes:
                h.update(repr(sorted(scene.lane_graph.lane_ranges.items())).encode())
                for name, x in scene_arrays(scene):
                    h.update(f"{name} {x.dtype} {x.shape}".encode() + x.tobytes())
            return h.hexdigest()

        gen = sc.SceneGenConfig(n_lanes=2, lane_length=50.0, n_actors=2, h=6, t=4)
        cfg = RunConfig(seed=3, data=DataConfig(n_scenes=3, gen=gen),
                        model=ModelConfig(d=8, l_graph=1),
                        train=TrainConfig(batch_size=2, total_epochs=8))
        scenes = [sc.generate_synthetic(gen, i, scene_id=f"s{i}") for i in range(3)]
        before = digest(scenes)
        store, records, _, _ = train(scenes, cfg)
        assert records[-1]["stage"] == "S2"
        assert digest(scenes) == before
        for scene in scenes:
            forecast(scene, store, cfg.model)
        assert digest(scenes) == before

    def test_matches_are_int64_one_per_node(self):
        scenes = [sc.generate_synthetic(sc.SceneGenConfig(n_lanes=n), n) for n in (1, 2, 3)]
        checked = 0
        for scene in [*scenes, scene_with_degenerate_lane()]:
            ranges = scene.lane_graph.lane_ranges
            for b in scene.boundaries:
                m = b.matched_lane_nodes
                assert m.dtype == np.int64 and m.shape == (len(b.node_centers),)
                assert len(m) > 0
                assert (m == -1).all() == (b.lane_id not in ranges)
                checked += b.lane_id not in ranges
        assert checked == 1  # the degenerate lane's boundary


class TestPackedArrays:
    def _scene(self):
        """A loaded scene whose third actor has no future."""
        obj = json.loads(sc.save_scene(sc.generate_synthetic(sc.SceneGenConfig(n_actors=3), 5)))
        obj["actors"][2]["future"] = None
        return sc.load_scene(json.dumps(obj))

    def test_actor_records_hold_identity_only(self):
        assert [f.name for f in fields(sc.ActorTrack)] == ["id", "kind", "focal"]

    def test_a_view_shares_the_scene_actor_records(self, monkeypatch):
        scene = self._scene()
        built = []
        init = sc.ActorTrack.__init__
        monkeypatch.setattr(sc.ActorTrack, "__init__",
                            lambda self, *a, **k: built.append(a) or init(self, *a, **k))
        for a in scene.actors:
            view = sc.normalize(scene, a.id)
            assert all(v is w for v, w in zip(view.actors, scene.actors, strict=True))
        assert built == []

    def test_boundary_records_are_views_of_the_node_rows(self):
        scene = self._scene()
        o = scene.node_offsets
        for k, b in enumerate(scene.boundaries):
            for n in ("node_centers", "node_directions", "matched_lane_nodes"):
                assert np.shares_memory(getattr(b, n), getattr(scene, n))
                assert getattr(b, n).tobytes() == getattr(scene, n)[o[k]:o[k + 1]].tobytes()

    def test_save_scene_writes_the_packed_arrays(self):
        scene = self._scene()
        assert scene.has_future.tolist() == [True, True, False]
        scene.positions[1, 0] = (123.5, -7.25)  # in-place writes show in the bytes
        scene.headings[1, 0] = 0.5
        scene.velocities[1, 0] = (3.0, 4.0)
        scene.observed[1, 0] = False
        scene.future[0, -1] = (9.0, 10.0)
        obj = json.loads(sc.save_scene(scene))
        assert obj["actors"][1]["history"][0] == [123.5, -7.25, 0.5, 3.0, 4.0]
        assert obj["actors"][1]["observed"][0] is False
        assert obj["actors"][0]["future"][-1] == [9.0, 10.0]
        assert obj["actors"][2]["future"] is None
        for i, a in enumerate(obj["actors"]):
            hist = np.array(a["history"])
            assert hist.tobytes() == np.concatenate(
                [scene.positions[i], scene.headings[i, :, None], scene.velocities[i]], 1).tobytes()
            assert a["observed"] == scene.observed[i].tolist()


class TestBoundaries:
    def test_every_boundary_node_matched_to_parent_lane(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(n_lanes=3), 2)
        graph = scene.lane_graph
        for b in scene.boundaries:
            lo, hi = graph.lane_ranges[b.lane_id]
            assert min(b.matched_lane_nodes) >= lo
            assert max(b.matched_lane_nodes) < hi

    def test_boundaries_offset_half_lane_width(self):
        gen = sc.SceneGenConfig(n_lanes=2, lane_width=3.5, curvature_range=(0.0, 0.0))
        scene = sc.generate_synthetic(gen, 6)
        lane_y = {l.id: l.centerline[0, 1] for l in scene.lanes}
        for b in scene.boundaries:
            off = np.abs(b.points[:, 1] - lane_y[b.lane_id])
            np.testing.assert_allclose(off, 1.75, atol=1e-9)

    def test_marking_kinds(self):
        scene = sc.generate_synthetic(sc.SceneGenConfig(n_lanes=2), 2)
        marks = {b.marking for b in scene.boundaries}
        assert marks <= {"solid", "dashed"}
        assert "solid" in marks  # outer edges

    def test_nearest_node_near_ties_go_to_the_lower_index(self):
        centers = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
        # points 0 and 2 are 2e-13 nearer to nodes 1 and 3 (near-ties: the lower index
        # wins); point 1 is 1e-6 nearer to node 1, which wins
        points = np.array([[1.0 + 1e-13, 0.0], [1.0 + 5e-7, 0.0], [5.0 + 1e-13, 0.0]])
        dist, near = sc._nearest(points, centers, [0, 2])
        assert near.tolist() == [[0, 2], [1, 2], [1, 2]]
        gap = np.abs(points[:, None, 0] - centers[None, :, 0])
        np.testing.assert_array_equal(dist, np.stack([gap[:, :2].min(1), gap[:, 2:].min(1)], 1))


class TestActorSeeds:
    def test_stable_and_distinct(self):
        a = sc.actor_rng_seed("s01", "a0", 7)
        assert a == sc.actor_rng_seed("s01", "a0", 7)
        assert a != sc.actor_rng_seed("s01", "a1", 7)
        assert a != sc.actor_rng_seed("s02", "a0", 7)
        assert 0 <= a < 2 ** 32
