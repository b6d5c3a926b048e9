"""Weighted k-means fusion of sub-model forecasts."""

import json
import warnings

import numpy as np
import pytest

from lanecast import ensemble
from lanecast.decoder import Forecast, save_predictions
from lanecast.ensemble import (SubmodelPrediction, ensemble_weights,
                               fuse, fuse_actor, load_manifest,
                               model_factors, weighted_kmeans)
from lanecast.errors import ContractError, EnsembleError, ParseError


class TestModelFactors:
    def test_equal_alphas_give_uniform(self):
        f = model_factors([0.8] * 7)
        np.testing.assert_allclose(f, np.full(7, 1 / 7), atol=1e-12)

    def test_lower_alpha_gets_more_weight(self):
        f = model_factors([0.5, 1.0, 2.0])
        assert f[0] > f[1] > f[2]
        np.testing.assert_allclose(f.sum(), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        a = np.array([0.3, 0.9, 1.4])
        np.testing.assert_allclose(model_factors(a), model_factors(a + 10),
                                   atol=1e-12)

    def test_weights_layout(self):
        confs = [np.array([0.9, 0.1]), np.array([0.5, 0.5])]
        w = ensemble_weights([1.0, 1.0], confs)
        np.testing.assert_allclose(w, [0.45, 0.05, 0.25, 0.25], atol=1e-12)


class TestWeightedKmeans:
    def test_pool_of_42_is_fully_assigned(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(42, 2)) * 10
        w = np.full(42, 1 / 42)
        assign, centers, obj, empty = weighted_kmeans(pts, w, k=6, seed=1)
        assert assign.shape == (42,)
        assert centers.shape == (6, 2)
        assert set(assign) <= set(range(6))
        assert not empty[np.unique(assign)].any()

    def test_planted_blobs_recovered(self):
        # 6 well-separated blobs; the partition must match blob membership
        blob_centers = np.array([[0, 0], [100, 0], [0, 100],
                                 [100, 100], [-100, 50], [200, 50]], dtype=float)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            pts, labels = [], []
            for b, c in enumerate(blob_centers):
                n = rng.integers(4, 9)
                pts.append(c + rng.normal(size=(n, 2)))
                labels += [b] * n
            pts = np.concatenate(pts)
            labels = np.asarray(labels)
            w = rng.uniform(0.2, 1.0, size=len(pts))
            assign, _, _, _ = weighted_kmeans(pts, w, k=6, seed=seed)
            # same blob -> same cluster, and six clusters used
            for b in range(6):
                assert len(set(assign[labels == b])) == 1
            assert len(set(assign)) == 6

    def test_objective_monotone(self):
        rng = np.random.default_rng(7)
        for seed in range(20):
            pts = rng.normal(size=(30, 2)) * 5
            w = rng.uniform(0.1, 1.0, size=30)
            _, _, obj, _ = weighted_kmeans(pts, w, k=6, seed=seed)
            for a, b in zip(obj, obj[1:]):
                assert b <= a + 1e-12

    def test_fewer_points_than_clusters(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        assign, centers, obj, empty = weighted_kmeans(pts, np.ones(2), k=6)
        np.testing.assert_array_equal(assign, [0, 1])
        np.testing.assert_array_equal(centers[:2], pts)
        np.testing.assert_array_equal(empty, [False, False, True, True, True, True])

    def test_weight_validation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ContractError):
            weighted_kmeans(pts, np.array([1.0, -0.5, 1.0]))
        with pytest.raises(ContractError):
            weighted_kmeans(pts, np.zeros(3))
        with pytest.raises(ContractError):
            weighted_kmeans(pts, np.ones(2))
        with pytest.raises(ContractError):
            weighted_kmeans(np.zeros((0, 2)), np.zeros(0))

    def test_duplicate_points_still_terminate(self):
        pts = np.zeros((10, 2))
        pts[5:] = [3.0, 4.0]
        assign, _, _, _ = weighted_kmeans(pts, np.ones(10), k=6, seed=3)
        assert len(set(assign[:5])) == 1
        assert len(set(assign[5:])) == 1


def make_forecast(rng, scene_id="s0", actor_id="a0", k=6, t=5, spread=8.0):
    traj = rng.normal(size=(k, t, 2)) * spread
    conf = rng.random(k) + 0.05
    conf = conf / conf.sum()
    return Forecast(scene_id=scene_id, actor_id=actor_id,
                    targets=traj[:, -1, :].copy(), trajectories=traj,
                    confidences=conf)


class TestFuseActor:
    def test_single_model_is_identity(self):
        rng = np.random.default_rng(1)
        fc = make_forecast(rng)
        trajs, confs, assign = fuse_actor([fc.trajectories],
                                          [fc.confidences], [1.0], seed=4)
        order = np.argsort(-fc.confidences, kind="stable")
        assert len(trajs) == 6
        for i, m in enumerate(order):
            np.testing.assert_allclose(trajs[i], fc.trajectories[m], atol=1e-9)
        np.testing.assert_allclose(confs, fc.confidences[order], atol=1e-9)

    def test_confidences_descending_and_normalized(self):
        rng = np.random.default_rng(2)
        trajs = [make_forecast(rng).trajectories for _ in range(7)]
        confs = [make_forecast(rng).confidences for _ in range(7)]
        _, fused_conf, assign = fuse_actor(trajs, confs, [1.0] * 7, seed=0)
        assert assign.shape == (42,)
        assert all(a >= b for a, b in zip(fused_conf, fused_conf[1:]))
        np.testing.assert_allclose(fused_conf.sum(), 1.0, atol=1e-12)

    def test_cluster_traj_is_weighted_average(self):
        rng = np.random.default_rng(3)
        fc_a = make_forecast(rng)
        fc_b = make_forecast(rng)
        alphas = [0.4, 0.9]
        trajs, confs, assign = fuse_actor(
            [fc_a.trajectories, fc_b.trajectories],
            [fc_a.confidences, fc_b.confidences], alphas, seed=5)
        pool = np.concatenate([fc_a.trajectories, fc_b.trajectories])
        w = ensemble_weights(alphas, [fc_a.confidences, fc_b.confidences])
        # rebuild each cluster and find its match among the outputs
        for c in set(assign):
            members = np.flatnonzero(assign == c)
            mw = w[members]
            want = (mw[:, None, None] * pool[members]).sum(axis=0) / mw.sum()
            hit = min(np.abs(t - want).max() for t in trajs)
            assert hit < 1e-9

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        a = make_forecast(rng, t=5)
        b = make_forecast(rng, t=7)
        with pytest.raises(EnsembleError):
            fuse_actor([a.trajectories, b.trajectories],
                       [a.confidences, b.confidences], [1.0, 1.0])

    def test_empty_pool_rejected(self):
        with pytest.raises(EnsembleError):
            fuse_actor([], [], [])


class TestFuse:
    def _submodels(self, rng, n_models=3, n_actors=4):
        subs = []
        keys = [(f"s{i}", f"a{i}") for i in range(n_actors)]
        for j in range(n_models):
            fcs = {k: make_forecast(rng, *k) for k in keys}
            subs.append(SubmodelPrediction(model_id=f"m{j}",
                                           alpha=0.5 + 0.1 * j,
                                           forecasts=fcs))
        return subs, keys

    def test_covers_all_actors(self):
        rng = np.random.default_rng(5)
        subs, keys = self._submodels(rng)
        out = fuse(subs, seed=0)
        assert {(f.scene_id, f.actor_id) for f in out} == set(keys)
        for f in out:
            np.testing.assert_array_equal(f.targets, f.trajectories[:, -1, :])
            assert f.confidences.shape[0] == f.trajectories.shape[0] == 6

    def test_missing_actor_named(self):
        rng = np.random.default_rng(6)
        subs, keys = self._submodels(rng)
        del subs[1].forecasts[keys[2]]
        with pytest.raises(EnsembleError) as e:
            fuse(subs)
        assert "m1" in str(e.value)

    def test_a_thousand_actor_gap_is_one_short_line(self):
        rng = np.random.default_rng(6)
        subs, keys = self._submodels(rng, n_models=3, n_actors=1001)
        for key in keys[1:]:
            del subs[2].forecasts[key]
        del subs[1].forecasts[keys[7]]
        with pytest.raises(EnsembleError) as e:
            fuse(subs)
        msg = str(e.value)
        assert len(msg) < 200 and "\n" not in msg
        # the first gap is the first model's lowest missing key
        assert "'m1'" in msg and "'s7'" in msg and "'a7'" in msg and "1001 missing" in msg

    def test_insertion_order_irrelevant(self):
        rng = np.random.default_rng(7)
        subs, keys = self._submodels(rng)
        shuffled = []
        for sm in subs:
            items = list(sm.forecasts.items())[::-1]
            shuffled.append(SubmodelPrediction(sm.model_id, sm.alpha,
                                               dict(items)))
        a = fuse(subs, seed=2)
        b = fuse(shuffled, seed=2)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.trajectories, fb.trajectories)
            np.testing.assert_array_equal(fa.confidences, fb.confidences)

    def test_empty_list_rejected(self):
        with pytest.raises(EnsembleError):
            fuse([])

    def test_extreme_finite_input_is_quiet(self):
        """Modes near +-1e300 overflow k-means' squared distances; fuse still
        covers every actor and warns of nothing."""
        rng = np.random.default_rng(8)
        subs, keys = self._submodels(rng, n_models=2, n_actors=2)
        for fc in (fc for sm in subs for fc in sm.forecasts.values()):
            fc.trajectories = fc.trajectories * 1e299
            fc.targets = fc.trajectories[:, -1].copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fuse(subs, seed=0)
        assert {(f.scene_id, f.actor_id) for f in out} == set(keys)
        assert all(np.isfinite(f.trajectories).all() for f in out)


class TestManifest:
    def _write_predictions(self, tmp_path, rng, name):
        fcs = [make_forecast(rng, "s0", "a0"), make_forecast(rng, "s1", "a0")]
        p = tmp_path / name
        p.write_bytes(save_predictions(fcs))
        return name

    def test_roundtrip_with_base_dir(self, tmp_path):
        rng = np.random.default_rng(8)
        names = [self._write_predictions(tmp_path, rng, f"m{i}.json")
                 for i in range(2)]
        manifest = json.dumps([
            {"model_id": f"m{i}", "alpha": 0.6 + i * 0.1,
             "prediction_file": names[i]} for i in range(2)])
        subs = load_manifest(manifest, base_dir=str(tmp_path))
        assert [s.model_id for s in subs] == ["m0", "m1"]
        assert subs[0].alpha == 0.6
        assert set(subs[0].forecasts) == {("s0", "a0"), ("s1", "a0")}
        out = fuse(subs)
        assert len(out) == 2

    def test_bad_documents(self, tmp_path):
        for doc in ("not json", "{}", "[]", "[1]",
                    json.dumps([{"model_id": "m", "alpha": 1.0}])):
            with pytest.raises(ParseError):
                load_manifest(doc, base_dir=str(tmp_path))

    def test_bad_alpha(self, tmp_path):
        rng = np.random.default_rng(9)
        name = self._write_predictions(tmp_path, rng, "m.json")
        for alpha in (0, -1.0, True, "0.5"):
            doc = json.dumps([{"model_id": "m", "alpha": alpha,
                               "prediction_file": name}])
            with pytest.raises(ParseError):
                load_manifest(doc, base_dir=str(tmp_path))

    def test_missing_file(self, tmp_path):
        doc = json.dumps([{"model_id": "m", "alpha": 1.0,
                           "prediction_file": "nope.json"}])
        with pytest.raises(ParseError):
            load_manifest(doc, base_dir=str(tmp_path))
