"""Two-stage decoder: shape and splice contracts, confidence simplex,
world-frame de-normalization, and prediction file round trips."""

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from lanecast import decoder, diffcore as dc
from lanecast import scene as sc
from lanecast.config import ModelConfig
from lanecast.errors import ContractError, ParseError


def tiny_cfg():
    return ModelConfig(d=8, l_graph=1)


def pipeline_store(cfg, t=4, seed=0):
    store = dc.ParamStore(np.float64)
    decoder.init_model(store, cfg, t, np.random.default_rng(seed))
    return store


def small_scene(seed=0, n_actors=2):
    gen = sc.SceneGenConfig(n_lanes=2, lane_length=40.0, n_actors=n_actors,
                            h=6, t=4, noise_sigma=0.05)
    return sc.generate_synthetic(gen, seed)


def in_frame(obj, view):
    """The scene file `obj` with every coordinate moved into `view`'s frame,
    the way `tests/test_symmetries.py` moves a file: points by
    x_frame = world_rot^T (x_world - world_trans), velocities rotated and
    headings turned by the frame's angle."""
    rot, trans = view.world_rot, view.world_trans

    def place(points):
        return ((np.asarray(points) - trans) @ rot).tolist()

    for actor in obj["actors"]:
        hist = np.asarray(actor["history"])
        hist[:, 0:2] = (hist[:, 0:2] - trans) @ rot
        hist[:, 2] -= math.atan2(rot[1, 0], rot[0, 0])
        hist[:, 3:5] = hist[:, 3:5] @ rot
        actor["history"] = hist.tolist()
        if actor["future"] is not None:
            actor["future"] = place(actor["future"])
    for lane in obj["lanes"]:
        lane["centerline"] = place(lane["centerline"])
    for bound in obj["boundaries"]:
        bound["points"] = place(bound["points"])
    return obj


class TestHeads:
    def test_target_and_logit_shapes(self):
        cfg = tiny_cfg()
        store = dc.ParamStore(np.float64)
        decoder.init_decoder(store, cfg, np.random.default_rng(1))
        af = dc.Tensor(np.random.default_rng(2).normal(size=(3, cfg.d)))
        targets, logits, pairs = decoder.predict_targets(af, store, cfg)
        assert targets.shape == (3, 6, 2)
        assert logits.shape == (3, 6)
        assert pairs.shape == (3 * 6, 2 * cfg.d)
        conf = dc.softmax(logits, axis=1).data
        np.testing.assert_allclose(conf.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(conf >= 0)

    def test_final_step_is_target_bit_exact(self):
        cfg = tiny_cfg()
        store = pipeline_store(cfg, t=5)
        af = dc.Tensor(np.random.default_rng(3).normal(size=(2, cfg.d)))
        targets, _, pairs = decoder.predict_targets(af, store, cfg)
        traj = decoder.complete_trajectories(pairs, targets, store, cfg, t=5)
        assert traj.shape == (2, 6, 5, 2)
        np.testing.assert_array_equal(traj.data[:, :, -1, :], targets.data)

    def test_completion_needs_two_steps(self):
        cfg = tiny_cfg()
        store = pipeline_store(cfg)
        af = dc.Tensor(np.zeros((1, cfg.d)))
        targets, _, pairs = decoder.predict_targets(af, store, cfg)
        with pytest.raises(ContractError):
            decoder.complete_trajectories(pairs, targets, store, cfg, t=1)

    def test_stage1_pipeline_returns_one_step_trajectories(self):
        cfg = tiny_cfg()
        scene = small_scene()
        store = pipeline_store(cfg, t=scene.horizon[1])
        ns = sc.normalize(scene, scene.actors[0].id)
        targets, traj, logits = decoder.run_pipeline(ns, store, cfg, decoder.S1)
        assert targets.shape == (len(ns.actors), 6, 2)
        assert traj.shape == (len(ns.actors), 6, 1, 2)
        np.testing.assert_array_equal(traj.data[:, :, 0, :], targets.data)

    def test_unknown_stage_rejected(self):
        cfg = tiny_cfg()
        scene = small_scene()
        store = pipeline_store(cfg, t=scene.horizon[1])
        with pytest.raises(ContractError):
            decoder.run_pipeline(sc.normalize(scene, scene.actors[0].id),
                                 store, cfg, "S3")


class TestForecast:
    def test_world_frame_transform_oracle(self):
        cfg = tiny_cfg()
        scene = small_scene(seed=5)
        store = pipeline_store(cfg, t=scene.horizon[1], seed=5)
        focal = scene.focal_actors()[0]

        fc = decoder.forecast(scene, store, cfg)[0]
        ns = sc.normalize(scene, focal.id)
        idx = next(i for i, a in enumerate(ns.actors) if a.id == focal.id)
        targets, traj, logits = decoder.run_pipeline(ns, store, cfg)
        want_targets = targets.data[idx] @ ns.world_rot.T + ns.world_trans
        np.testing.assert_allclose(fc.targets, want_targets, atol=1e-9)
        want_traj = traj.data[idx] @ ns.world_rot.T + ns.world_trans
        np.testing.assert_allclose(fc.trajectories, want_traj, atol=1e-9)

    def test_agent_centric_scene_roundtrips_identically(self):
        cfg = tiny_cfg()
        scene = small_scene(seed=6)
        store = pipeline_store(cfg, t=scene.horizon[1], seed=6)
        focal = scene.focal_actors()[0]
        # rebuild the normalized scene as its own world, from the file moved into its frame
        obj = in_frame(json.loads(sc.save_scene(scene)), sc.normalize(scene, focal.id))
        rebuilt = sc.load_scene(json.dumps(obj), scene_id=scene.scene_id)
        fc = decoder.forecast(rebuilt, store, cfg)[0]
        ns = sc.normalize(rebuilt, focal.id)
        idx = next(i for i, a in enumerate(ns.actors) if a.id == focal.id)
        targets, _, _ = decoder.run_pipeline(ns, store, cfg)
        np.testing.assert_allclose(fc.targets, targets.data[idx], atol=1e-12)

    def test_forecast_independent_of_ground_truth(self):
        cfg = tiny_cfg()
        scene = small_scene(seed=7, n_actors=3)
        store = pipeline_store(cfg, t=scene.horizon[1], seed=7)
        a = decoder.forecast(scene, store, cfg)[0]
        scene.future[:] = np.nan  # every actor's ground truth, the focal one's too
        scene.has_future[:] = False
        b = decoder.forecast(scene, store, cfg)[0]
        np.testing.assert_array_equal(a.trajectories, b.trajectories)
        np.testing.assert_array_equal(a.confidences, b.confidences)

    def test_stage1_trajectories_are_targets(self):
        cfg = tiny_cfg()
        scene = small_scene(seed=8)
        store = pipeline_store(cfg, t=scene.horizon[1], seed=8)
        fc = decoder.forecast(scene, store, cfg, stage=decoder.S1)[0]
        assert fc.trajectories.shape == (6, 1, 2)
        np.testing.assert_array_equal(fc.trajectories[:, 0, :], fc.targets)


class TestPredictionFiles:
    def _forecasts(self):
        rng = np.random.default_rng(9)
        return [decoder.Forecast(
            scene_id=f"s{i}", actor_id="a0",
            targets=rng.normal(size=(6, 2)),
            trajectories=rng.normal(size=(6, 4, 2)),
            confidences=np.full(6, 1 / 6)) for i in range(3)]

    def test_roundtrip(self):
        fcs = self._forecasts()
        loaded = decoder.load_predictions(decoder.save_predictions(fcs))
        assert len(loaded) == 3
        for a, b in zip(fcs, loaded):
            assert (a.scene_id, a.actor_id) == (b.scene_id, b.actor_id)
            np.testing.assert_allclose(a.trajectories, b.trajectories, atol=1e-12)
            np.testing.assert_allclose(a.confidences, b.confidences, atol=1e-12)

    def test_missing_field_rejected(self):
        import json
        recs = json.loads(decoder.save_predictions(self._forecasts()))
        del recs[1]["confidences"]
        with pytest.raises(ParseError):
            decoder.load_predictions(json.dumps(recs))

    def test_non_finite_rejected(self):
        import json
        recs = json.loads(decoder.save_predictions(self._forecasts()))
        recs[0]["trajectories"][0][0][0] = None
        with pytest.raises(ParseError):
            decoder.load_predictions(json.dumps(recs))

    def test_not_json_rejected(self):
        with pytest.raises(ParseError):
            decoder.load_predictions(b"[truncated")

    @pytest.mark.parametrize("first", [0, 1])
    def test_repeated_key_rejected_in_either_order(self, first):
        """Two records for one actor used to load, and the one that won in
        eval and ensemble depended on their order in the file."""
        recs = json.loads(decoder.save_predictions(self._forecasts()))
        recs[1 - first]["scene_id"] = recs[first]["scene_id"]
        with pytest.raises(ParseError) as e:
            decoder.load_predictions(json.dumps(recs))
        assert e.value.field == "predictions[1].actor_id"
        assert "repeats predictions[0]" in str(e.value)


def reference_save_predictions(forecasts):
    """The whole-list writer `save_predictions` replaced. Kept as the
    reference."""
    return json.dumps([{
        "scene_id": f.scene_id,
        "actor_id": f.actor_id,
        "trajectories": f.trajectories.tolist(),
        "confidences": f.confidences.tolist(),
        "targets": f.targets.tolist(),
    } for f in forecasts]).encode("utf-8")


# the boundaries of float64 printing: signed zero, the smallest subnormal, a
# near-max finite value, and float32 values widened to float64 (as a float32
# model's forecasts are), whose shortest repr is long
ODD_VALUES = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3] + list(
    np.float32([0.1, 1 / 3, 3.4e38, 1.17549435e-38, 1e-45]).astype(np.float64)))


def odd_forecasts(n, k=6, t=15):
    rng = np.random.default_rng(n)
    out = []
    for i in range(n):
        traj = rng.choice(ODD_VALUES, size=(k, t, 2))
        conf = np.float32(rng.dirichlet(np.ones(k))).astype(np.float64)
        out.append(decoder.Forecast(f"s{i}", f"a{i % 3}", traj[:, -1, :], traj,
                                    conf / conf.sum()))
    return out


def _traced_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStreamedPredictionFiles:
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_bytes_equal_the_whole_list_dump(self, n):
        fcs = odd_forecasts(n)
        blob = decoder.save_predictions(fcs)
        assert blob == reference_save_predictions(fcs)
        assert n or blob == b"[]"

    def test_round_trip_is_bit_identical(self):
        fcs = odd_forecasts(50)
        loaded = decoder.load_predictions(decoder.save_predictions(fcs))
        assert [(f.scene_id, f.actor_id) for f in loaded] == \
            [(f.scene_id, f.actor_id) for f in fcs]
        for a, b in zip(fcs, loaded):
            for name in ("targets", "trajectories", "confidences"):
                got = getattr(b, name)
                assert got.dtype == np.float64
                assert got.tobytes() == getattr(a, name).tobytes()

    def test_peak_memory_is_a_small_multiple_of_the_file(self):
        """The whole-tree writer peaked at ~5x the file and the whole-tree
        loader at ~4.4x, for these 1000 records of [6, 15, 2]."""
        rng = np.random.default_rng(4)
        fcs = [decoder.Forecast(f"s{i}", "a0", rng.normal(size=(6, 2)),
                                rng.normal(size=(6, 15, 2)), np.full(6, 1 / 6))
               for i in range(1000)]
        blob = decoder.save_predictions(fcs)
        save_peak = _traced_peak(lambda: decoder.save_predictions(fcs))
        load_peak = _traced_peak(lambda: decoder.load_predictions(blob))
        assert save_peak <= 2.5 * len(blob), save_peak / len(blob)
        assert load_peak <= 2.0 * len(blob), load_peak / len(blob)
