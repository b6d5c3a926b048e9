"""Forecast metrics against a brute-force reference, hand cases, mode
selection rules, and report aggregation."""

import math
import warnings

import numpy as np
import pytest

from lanecast import metrics
from lanecast.decoder import Forecast
from lanecast.errors import EvaluationError


def brute_force_actor(traj, conf, gt):
    """Independent reference: same math, organized around per-mode tables."""
    k = len(traj)
    t = len(gt)
    fde = [math.hypot(traj[m][t - 1][0] - gt[t - 1][0],
                      traj[m][t - 1][1] - gt[t - 1][1]) for m in range(k)]
    ade = []
    for m in range(k):
        acc = 0.0
        for step in range(t):
            acc += math.hypot(traj[m][step][0] - gt[step][0],
                              traj[m][step][1] - gt[step][1])
        ade.append(acc / t)
    top = max(range(k), key=lambda m: (conf[m], -m))
    best_fde = min(range(k), key=lambda m: (fde[m], m))
    best_ade = min(range(k), key=lambda m: (ade[m], m))
    return {
        "brier-minFDE(6)": fde[best_fde] + (1.0 - conf[best_fde]) ** 2,
        "minFDE(6)": fde[best_fde],
        "minFDE(1)": fde[top],
        "brier-minADE(6)": ade[best_ade] + (1.0 - conf[best_ade]) ** 2,
        "minADE(6)": ade[best_ade],
        "minADE(1)": ade[top],
        "MR(6)": 1.0 if fde[best_fde] > 2.0 else 0.0,
        "MR(1)": 1.0 if fde[top] > 2.0 else 0.0,
    }


def random_case(rng, k=6, t=8):
    traj = (rng.normal(size=(k, t, 2)) * rng.uniform(0.3, 4)).tolist()
    conf = rng.random(k)
    conf = (conf / conf.sum()).tolist()
    gt = rng.normal(size=(t, 2)).tolist()
    return traj, conf, gt


class TestAgainstBruteForce:
    def test_exact_equality_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            traj, conf, gt = random_case(rng)
            got = metrics.actor_metrics(traj, conf, gt)
            want = brute_force_actor(traj, conf, gt)
            for c in metrics.COLUMNS:
                assert got[c] == want[c], c

    def test_invariants_on_random_cases(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            traj, conf, gt = random_case(rng)
            v = metrics.actor_metrics(traj, conf, gt)
            assert v["minFDE(6)"] <= v["minFDE(1)"]
            assert v["minADE(6)"] <= v["minADE(1)"]
            assert v["MR(6)"] <= v["MR(1)"]
            assert v["brier-minFDE(6)"] >= v["minFDE(6)"]
            assert v["brier-minADE(6)"] >= v["minADE(6)"]
            for c in ("MR(6)", "MR(1)"):
                assert v[c] in (0.0, 1.0)


class TestHandCases:
    def test_perfect_prediction(self):
        gt = [[float(i), 0.0] for i in range(5)]
        traj = [gt] + [[[50.0, 50.0]] * 5] * 5
        conf = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]
        v = metrics.actor_metrics(traj, conf, gt)
        assert v["minFDE(6)"] == 0.0
        assert v["minADE(6)"] == 0.0
        assert v["MR(6)"] == 0.0
        np.testing.assert_allclose(v["brier-minFDE(6)"], 0.25, atol=1e-12)

    def test_three_four_five_endpoint(self):
        gt = [[0.0, 0.0], [0.0, 0.0]]
        traj = [[[0.0, 0.0], [3.0, 4.0]]] * 6
        v = metrics.actor_metrics(traj, [1 / 6] * 6, gt)
        assert v["minFDE(6)"] == 5.0 and v["minFDE(1)"] == 5.0

    def test_one_step_modes_score_against_the_last_truth_step(self):
        # train-time minFDE in stage one: targets only, no confidences read
        gt = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 5.0]])
        traj = np.array([[[1.0, 1.0]], [[4.0, 1.0]]])
        fde = metrics.distances(traj[:, -1], gt[-1])
        assert fde.tolist() == [5.0, 4.0] and fde.dtype == np.float64

    def test_top_confidence_tie_takes_lowest(self):
        gt = [[0.0, 0.0]]
        traj = [[[1.0, 0.0]], [[9.0, 0.0]], [[0.0, 0.0]]]
        conf = [0.4, 0.4, 0.2]  # modes 0 and 1 tie on confidence
        assert metrics.actor_metrics(traj, conf, gt)["minFDE(1)"] == 1.0

    def test_fde_tie_takes_lowest_mode(self):
        gt = [[0.0, 0.0]]
        traj = [[[2.0, 0.0]], [[0.0, 2.0]], [[5.0, 5.0]]]
        # modes 0 and 1 tie on error; the brier term reads mode 0's confidence
        v = metrics.actor_metrics(traj, [0.5, 0.3, 0.2], gt)
        assert v["minFDE(6)"] == 2.0 and v["brier-minFDE(6)"] == 2.0 + 0.5 ** 2

    def test_miss_rate_threshold_strict(self):
        gt = [[0.0, 0.0]]
        assert metrics.actor_metrics([[[2.0, 0.0]]], [1.0], gt)["MR(1)"] == 0.0
        assert metrics.actor_metrics([[[2.0 + 1e-9, 0.0]]], [1.0], gt)["MR(1)"] == 1.0


def forecast_for(scene_id, actor_id, traj, conf):
    traj = np.asarray(traj, dtype=np.float64)
    return Forecast(scene_id=scene_id, actor_id=actor_id,
                    targets=traj[:, -1, :].copy(), trajectories=traj,
                    confidences=np.asarray(conf, dtype=np.float64))


class TestEvaluate:
    def _setup(self, rng, n=4, t=5):
        fcs, gts = [], {}
        for i in range(n):
            traj, conf, gt = random_case(rng, t=t)
            fcs.append(forecast_for(f"s{i}", "a0", traj, conf))
            gts[(f"s{i}", "a0")] = np.asarray(gt)
        return fcs, gts

    def test_average_of_actor_metrics(self):
        rng = np.random.default_rng(2)
        fcs, gts = self._setup(rng)
        report = metrics.evaluate(fcs, gts)
        want = {c: 0.0 for c in metrics.COLUMNS}
        for key in sorted(gts):
            f = next(x for x in fcs if (x.scene_id, x.actor_id) == key)
            vals = metrics.actor_metrics(f.trajectories.tolist(),
                                         f.confidences.tolist(),
                                         gts[key].tolist())
            for c in metrics.COLUMNS:
                want[c] += vals[c]
        for c in metrics.COLUMNS:
            assert report.values[c] == want[c] / len(gts)
        assert report.n_actors == 4 and report.n_scenes == 4

    def test_missing_prediction_rejected(self):
        rng = np.random.default_rng(3)
        fcs, gts = self._setup(rng)
        gts[("ghost", "a0")] = np.zeros((5, 2))
        with pytest.raises(EvaluationError) as e:
            metrics.evaluate(fcs, gts)
        assert "ghost" in str(e.value)

    def test_extra_predictions_ignored(self):
        rng = np.random.default_rng(4)
        fcs, gts = self._setup(rng)
        extra_traj, extra_conf, _ = random_case(rng, t=5)
        fcs.append(forecast_for("extra", "a9", extra_traj, extra_conf))
        report = metrics.evaluate(fcs, gts)
        assert report.n_actors == 4

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        fcs, gts = self._setup(rng, t=5)
        gts[("s0", "a0")] = np.zeros((9, 2))
        with pytest.raises(EvaluationError):
            metrics.evaluate(fcs, gts)

    def test_empty_gt_rejected(self):
        with pytest.raises(EvaluationError):
            metrics.evaluate([], {})

    def test_extreme_finite_input_is_quiet(self):
        """Offsets past the float range overflow to inf; evaluate scores them
        as inf and warns of nothing."""
        fc = forecast_for("s0", "a0", np.full((6, 5, 2), 1e308), [1 / 6] * 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = metrics.evaluate([fc], {("s0", "a0"): np.full((5, 2), -1e308)})
        assert report.values["minFDE(6)"] == np.inf and report.values["MR(6)"] == 1.0

    def test_report_json_and_table(self):
        rng = np.random.default_rng(6)
        fcs, gts = self._setup(rng)
        report = metrics.evaluate(fcs, gts)
        import json
        obj = json.loads(report.to_json())
        assert list(obj["metrics"]) == list(metrics.COLUMNS)
        table = report.to_table()
        assert table.count("\n") == 1
        for c in metrics.COLUMNS:
            assert c in table.split("\n")[0]


class TestGtMap:
    def test_focal_only(self):
        from lanecast.scene import SceneGenConfig, generate_synthetic
        scenes = [generate_synthetic(SceneGenConfig(n_actors=3), s,
                                     scene_id=f"s{s}") for s in range(2)]
        full = metrics.gt_map(scenes)
        assert set(full) == {(f"s{s}", scenes[s].focal_actors()[0].id)
                             for s in range(2)}
