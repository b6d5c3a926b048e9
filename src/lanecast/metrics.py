"""Forecast quality metrics: minADE / minFDE at K in {1, 6}, their brier
variants, and miss rate, plus dataset-level aggregation.

Distances are computed with scalar math in explicit loops and reduced in a
fixed order, so results are reproducible to the bit across runs and easy to
cross-check against an independent implementation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, EvaluationError

MISS_METERS = 2.0

COLUMNS = ("brier-minFDE(6)", "minFDE(6)", "minFDE(1)", "brier-minADE(6)",
           "minADE(6)", "minADE(1)", "MR(6)", "MR(1)")


def _mode_set(conf, k_eval, k):
    if k_eval == k:
        return list(range(k))
    if k_eval == 1:
        best, best_c = 0, conf[0]
        for i in range(1, k):
            if conf[i] > best_c:
                best, best_c = i, conf[i]
        return [best]
    raise ContractError(f"k_eval must be 1 or {k}, got {k_eval}")


def _fde(mode, gt):
    dx = mode[-1][0] - gt[-1][0]
    dy = mode[-1][1] - gt[-1][1]
    return math.hypot(dx, dy)


def _ade(mode, gt):
    total = 0.0
    for t in range(len(gt)):
        total += math.hypot(mode[t][0] - gt[t][0], mode[t][1] - gt[t][1])
    return total / len(gt)


def _min_over_modes(err, traj, conf, gt, k_eval):
    k = len(traj)
    if k < k_eval:
        raise ContractError(f"k_eval {k_eval} exceeds mode count {k}")
    best_val, best_mode = math.inf, -1
    for m in _mode_set(conf, k_eval, k):
        v = err(traj[m], gt)
        if v < best_val:
            best_val, best_mode = v, m
    return best_val, best_mode


def min_fde(traj, conf, gt, k_eval):
    """Min final-point error over the evaluated modes -> (value, mode index).

    k_eval=1 evaluates only the highest-confidence mode (ties: lowest index).
    Ties on the error also resolve to the lowest index.
    """
    return _min_over_modes(_fde, traj, conf, gt, k_eval)


def min_ade(traj, conf, gt, k_eval):
    """Min average displacement over the evaluated modes -> (value, mode)."""
    return _min_over_modes(_ade, traj, conf, gt, k_eval)


def brier(metric_value, p_best):
    """Benchmark-style penalty: metric + (1 - p)^2."""
    return metric_value + (1.0 - p_best) ** 2


def actor_metrics(traj, conf, gt):
    """All eight Table-style metrics for one actor."""
    k = len(traj)
    fde6, m_fde6 = min_fde(traj, conf, gt, k)
    fde1, _ = min_fde(traj, conf, gt, 1)
    ade6, m_ade6 = min_ade(traj, conf, gt, k)
    ade1, _ = min_ade(traj, conf, gt, 1)
    return {
        "brier-minFDE(6)": brier(fde6, conf[m_fde6]),
        "minFDE(6)": fde6,
        "minFDE(1)": fde1,
        "brier-minADE(6)": brier(ade6, conf[m_ade6]),
        "minADE(6)": ade6,
        "minADE(1)": ade1,
        "MR(6)": 1.0 if fde6 > MISS_METERS else 0.0,
        "MR(1)": 1.0 if fde1 > MISS_METERS else 0.0,
    }


@dataclass
class MetricReport:
    values: dict[str, float]
    n_scenes: int = 0
    n_actors: int = 0
    meta: dict = field(default_factory=dict)

    def to_json(self):
        return json.dumps({"metrics": {c: self.values[c] for c in COLUMNS},
                           "scenes": self.n_scenes, "actors": self.n_actors,
                           "meta": self.meta})

    def to_table(self):
        widths = [max(len(c), 10) for c in COLUMNS]
        head = "  ".join(c.rjust(w) for c, w in zip(COLUMNS, widths))
        row = "  ".join(f"{self.values[c]:.4f}".rjust(w)
                        for c, w in zip(COLUMNS, widths))
        return head + "\n" + row


def evaluate(forecasts, gt_by_key):
    """Average per-actor metrics over every ground-truth actor.

    forecasts: iterable of decoder.Forecast; gt_by_key: mapping
    (scene_id, actor_id) -> [T, 2] ground truth. Every GT key must have a
    prediction; extras on the prediction side are ignored.
    """
    pred = {(f.scene_id, f.actor_id): f for f in forecasts}
    missing = sorted(k for k in gt_by_key if k not in pred)
    if missing:
        raise EvaluationError(f"no prediction for: {missing}")
    if not gt_by_key:
        raise EvaluationError("no ground-truth actors to evaluate")

    keys = sorted(gt_by_key)
    sums = {c: 0.0 for c in COLUMNS}
    for key in keys:
        f = pred[key]
        gt = np.asarray(gt_by_key[key], dtype=np.float64)
        if f.trajectories.shape[1] != gt.shape[0]:
            raise EvaluationError(f"{key}: prediction has {f.trajectories.shape[1]} steps, "
                                  f"ground truth {gt.shape[0]}")
        vals = actor_metrics(f.trajectories.tolist(), f.confidences.tolist(), gt.tolist())
        for c in COLUMNS:
            sums[c] += vals[c]
    n = len(keys)
    return MetricReport(values={c: sums[c] / n for c in COLUMNS},
                        n_scenes=len({k[0] for k in keys}), n_actors=n)


def gt_map(scenes):
    """(scene_id, actor_id) -> future for every labeled focal actor."""
    out = {}
    for s in scenes:
        for a in s.focal_actors():
            if a.future is not None:
                out[(s.scene_id, a.id)] = np.asarray(a.future, dtype=np.float64)
    return out
