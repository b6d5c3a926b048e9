"""Forecast quality metrics: minADE / minFDE at K in {1, 6}, their brier
variants, and miss rate, plus dataset-level aggregation.

Each actor's point distances form one [K, T] table. Every distance is
`math.hypot` of the offset, applied per element: `np.hypot` rounds
differently on some pairs, and the acceptance oracle pins `math.hypot`'s
bits. ADE sums each mode's steps in order, so results are reproducible to
the bit and equal a scalar loop's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError

MISS_METERS = 2.0

COLUMNS = ("brier-minFDE(6)", "minFDE(6)", "minFDE(1)", "brier-minADE(6)",
           "minADE(6)", "minADE(1)", "MR(6)", "MR(1)")

_hypot = np.frompyfunc(math.hypot, 2, 1)


def distances(points, gt):
    """math.hypot of each point's offset from its ground-truth point, as float64."""
    d = np.asarray(points, dtype=np.float64) - np.asarray(gt, dtype=np.float64)
    return _hypot(d[..., 0], d[..., 1]).astype(np.float64)


def actor_metrics(traj, conf, gt):
    """All eight Table-style metrics for one actor. Ties on confidence and
    on error take the lowest mode index."""
    table = distances(traj, gt)  # [K, T]
    fde, ade = table[:, -1], np.cumsum(table, axis=1)[:, -1] / table.shape[1]
    top, m_fde, m_ade = int(np.argmax(conf)), int(np.argmin(fde)), int(np.argmin(ade))
    fde6, fde1, ade6, ade1 = map(float, (fde[m_fde], fde[top], ade[m_ade], ade[top]))
    return {
        "brier-minFDE(6)": fde6 + (1.0 - float(conf[m_fde])) ** 2,
        "minFDE(6)": fde6,
        "minFDE(1)": fde1,
        "brier-minADE(6)": ade6 + (1.0 - float(conf[m_ade])) ** 2,
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


@np.errstate(all="ignore")
def evaluate(forecasts, gt_by_key):
    """Average per-actor metrics over every ground-truth actor.

    forecasts: iterable of decoder.Forecast; gt_by_key: mapping (scene_id,
    actor_id) -> [T, 2] ground truth. Every GT key must have a prediction;
    extras are ignored. numpy's warnings are off (extreme input stays quiet).
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
        vals = actor_metrics(f.trajectories, f.confidences, gt)
        for c in COLUMNS:
            sums[c] += vals[c]
    n = len(keys)
    return MetricReport(values={c: sums[c] / n for c in COLUMNS},
                        n_scenes=len({k[0] for k in keys}), n_actors=n)


def gt_map(scenes):
    """(scene_id, actor_id) -> future for every labeled focal actor."""
    return {(s.scene_id, a.id): s.future[i]
            for s in scenes for i, a in enumerate(s.actors) if a.focal and s.has_future[i]}
