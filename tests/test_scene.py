"""Scene model: angle wrapping, lane graph construction, synthetic
generation, JSON round trips, and agent-centric normalization."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanecast import scene as sc
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
        future = scene.actors[0].future
        assert future is not None and future.shape == (gen.t, 2)
        # single straight lane at y=0: the future must ride the centerline
        np.testing.assert_allclose(future[:, 1], 0.0, atol=1e-9)

    def test_noise_perturbs_history_but_future_stays_on_lane(self):
        gen = sc.SceneGenConfig(noise_sigma=0.5, lane_change_prob=0.0)
        scene = sc.generate_synthetic(gen, 21)
        lane_ys = {lane.centerline[0, 1] for lane in scene.lanes}
        for actor in scene.actors:
            # future is the clean kinematic rollout: y pinned to a lane center
            assert any(np.allclose(actor.future[:, 1], y, atol=1e-9) for y in lane_ys)
            hist_y = actor.positions[:, 1]
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


class TestNormalize:
    def _scene(self, seed=13):
        gen = sc.SceneGenConfig(n_actors=3, noise_sigma=0.1, curvature_range=(0.0, 0.01))
        return sc.generate_synthetic(gen, seed)

    def test_focal_at_origin_heading_zero(self):
        scene = self._scene()
        aid = scene.actors[1].id
        ns = sc.normalize(scene, aid)
        actor = ns.actor(aid)
        np.testing.assert_allclose(actor.positions[-1], [0.0, 0.0], atol=1e-12)
        assert actor.headings[-1] == 0.0
        assert ns.frame == f"agent:{aid}"

    def test_idempotent_bit_exact(self):
        scene = self._scene()
        aid = scene.actors[0].id
        once = sc.normalize(scene, aid)
        twice = sc.normalize(once, aid)
        np.testing.assert_array_equal(once.actor(aid).positions,
                                      twice.actor(aid).positions)
        np.testing.assert_array_equal(once.lane_graph.centers,
                                      twice.lane_graph.centers)

    def test_rigid_isometry(self):
        scene = self._scene()
        ns = sc.normalize(scene, scene.actors[2].id)
        for before, after in zip(scene.actors, ns.actors):
            d0 = np.linalg.norm(np.diff(before.positions, axis=0), axis=1)
            d1 = np.linalg.norm(np.diff(after.positions, axis=0), axis=1)
            np.testing.assert_allclose(d0, d1, atol=1e-9)

    def test_to_world_inverts(self):
        scene = self._scene()
        aid = scene.actors[1].id
        ns = sc.normalize(scene, aid)
        back = sc.to_world(ns, ns.actor(aid).positions)
        np.testing.assert_allclose(back, scene.actor(aid).positions, atol=1e-9)

    def test_unknown_actor_raises(self):
        with pytest.raises(ContractError):
            sc.normalize(self._scene(), "ghost")


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
