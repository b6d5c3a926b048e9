"""Two-stage decoder: shape and splice contracts, confidence simplex,
world-frame de-normalization, and prediction file round trips."""

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
        # rebuild the normalized scene as its own world
        rebuilt = sc.load_scene(sc.save_scene(sc.normalize(scene, focal.id)),
                                scene_id=scene.scene_id)
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
        for actor in scene.actors[1:]:
            actor.future = None
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
