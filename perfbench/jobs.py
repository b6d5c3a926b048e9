"""One pass of each workload's job: the commands a user runs, in order, with
their outputs checked.

A pass returns its timings; every operation it attempts (a train step, a
forecast, an evaluated actor, a fused actor, a grad-check block) is tallied,
and counted failed when it raised or its output failed a check.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
import traceback

import numpy as np

from lanecast.decoder import forecast, load_predictions, save_predictions
from lanecast.diffcore import ParamStore
from lanecast.ensemble import fuse, load_manifest
from lanecast.metrics import evaluate
from lanecast.optim import train
from lanecast.verify import ALL_CHECKS, TOLERANCE, run_all

from inputs import WORKLOADS

# the measured durations in a pass's result
TIME_KEYS = ("wall_s", "job_s", "train_s", "step_s", "first_predict_s", "predict_s",
             "scene_s", "ensemble_s", "eval_s")
CONF_SUM_TOL = 1e-6   # float32 softmax, read back as float64
EVAL_REL_TOL = 1e-9   # minFDE(6) against an independent numpy reference


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = dataclasses.field(default_factory=list)

    def record(self, n, ok, what):
        self.attempted += n
        if not ok:
            self.failed += n
            self.notes.append(what)

    def crashed(self, n, what):
        """`n` planned operations did not complete because the program raised."""
        traceback.print_exc(file=sys.stderr)
        self.record(n, False, f"{what}: raised {sys.exc_info()[1]!r}")


def run_pass(name, inputs, work_dir, probe, tally):
    """Run one pass of workload `name`; returns a dict of timings."""
    kind = WORKLOADS[name]["kind"]
    m0, t0 = time.monotonic(), time.perf_counter()
    with probe.span("job"):
        if kind == "train":
            out = _train_pass(inputs, work_dir, probe, tally)
        elif kind == "score":
            out = _score_pass(inputs, work_dir, probe, tally)
        else:
            out = _gradcheck_pass(WORKLOADS[name]["grad_check_seed"], probe, tally)
    out["wall_s"] = time.perf_counter() - t0
    out["t_start"], out["t_end"] = m0, time.monotonic()
    return out


# ---------------------------------------------------------------------------
# train -> checkpoint -> predict


def _check_forecast(f, k, t):
    if f.trajectories.shape != (k, t, 2) or f.targets.shape != (k, 2):
        return f"{f.scene_id}/{f.actor_id}: shape {f.trajectories.shape}"
    c = f.confidences
    if not (np.all(np.isfinite(c)) and np.all(c >= 0) and abs(c.sum() - 1.0) <= CONF_SUM_TOL):
        return f"{f.scene_id}/{f.actor_id}: confidences are not a finite simplex"
    if not np.all(np.isfinite(f.trajectories)):
        return f"{f.scene_id}/{f.actor_id}: non-finite trajectory"
    if not np.array_equal(f.trajectories[:, -1, :], f.targets):
        return f"{f.scene_id}/{f.actor_id}: last step differs from target"
    return None


def _check_learning(records):
    """(ok, reason): every loss finite, and training lowered the loss.

    The total changes definition at the stage switch (stage two adds the
    trajectory term), so like is compared with like: the target-point term,
    which both stages share, must end below epoch 0's, and the total must end
    below the first stage-two epoch's.
    """
    terms = [v for r in records for k, v in r.items()
             if k in ("conf", "target", "traj", "total")]
    if not all(math.isfinite(v) for v in terms):
        return False, "train: non-finite loss"
    s2 = [r for r in records if r["stage"] == "S2"]
    first, last = records[0], records[-1]
    ok = last["target"] < first["target"] and (not s2 or s2[-1]["total"] < s2[0]["total"])
    return ok, (f"train: loss did not fall (target {first['target']:.4f} -> "
                f"{last['target']:.4f}, total {records[0]['total']:.4f} -> {last['total']:.4f})")


def _predict(scenes, store, model_cfg, stage, probe):
    """forecast() every scene; one clock read per call."""
    out, scene_s = [], []
    prev = time.perf_counter()
    for scene in scenes:
        with probe.span("decoder.forecast") as sp:
            fc = forecast(scene, store, model_cfg, stage)
        now = time.perf_counter()
        scene_s.append(now - prev)
        prev = now
        sp.update(actors=len(fc))
        out.extend(fc)
    return out, scene_s


def _save(forecasts, probe):
    with probe.span("decoder.save_predictions") as sp:
        blob = save_predictions(forecasts)
    sp.update(actors=len(forecasts))
    return blob


def _train_pass(inputs, work_dir, probe, tally):
    scenes, cfg = inputs.scenes, inputs.run_cfg
    actors = sum(len(s.focal_actors()) for s in scenes)
    steps = cfg.train.total_epochs * math.ceil(actors / cfg.train.batch_size)
    k, t = cfg.model.k_modes, scenes[0].horizon[1]
    marks = getattr(probe, "step_returns", [])
    first_mark = len(marks)
    clock = time.perf_counter

    t0 = clock()
    try:
        with probe.span("optim.train"):
            store, records, _, _ = train(scenes, cfg)
    except Exception:  # noqa: BLE001 - count the failure, keep measuring
        tally.crashed(steps + 2 * actors, "train")
        return {}
    t_train = clock()
    tally.record(steps, *_check_learning(records))

    try:
        path = work_dir / "checkpoint.bin"
        with probe.span("diffcore.params.save"):
            store.save(path, meta={"stage": records[-1]["stage"]})
        with probe.span("diffcore.params.load"):
            loaded = ParamStore.load(path)
        stage = loaded.meta["stage"]
        first, first_scene_s = _predict(scenes, loaded, cfg.model, stage, probe)
        blob = _save(first, probe)
        t_end = clock()
        second, scene_s = _predict(scenes, loaded, cfg.model, stage, probe)
        same = _save(second, probe) == blob
    except Exception:  # noqa: BLE001
        tally.crashed(2 * actors, "predict")
        return {}
    for fc in first:
        bad = _check_forecast(fc, k, t)
        tally.record(1, bad is None, f"predict: {bad}")
    for fc in second:
        bad = _check_forecast(fc, k, t) or (None if same else "rerun not byte-identical")
        tally.record(1, bad is None, f"predict: {bad}")

    return {
        "job_s": t_end - t0,
        "train_s": t_train - t0,
        "views": actors * cfg.train.total_epochs,
        "step_s": list(np.diff(marks[first_mark:])),
        "loss_epoch0": records[0]["total"],
        "loss_final": records[-1]["total"],
        "actors": actors,
        "first_predict_s": sum(first_scene_s),
        "predict_s": sum(scene_s),
        "scene_s": scene_s,
    }


# ---------------------------------------------------------------------------
# ensemble -> eval


def _check_fused(f, t):
    c = f.confidences
    if f.trajectories.ndim != 3 or f.trajectories.shape[1:] != (t, 2):
        return f"{f.scene_id}/{f.actor_id}: shape {f.trajectories.shape}"
    if not (np.all(np.isfinite(c)) and abs(c.sum() - 1.0) <= 1e-9):
        return f"{f.scene_id}/{f.actor_id}: fused confidences do not sum to 1"
    if not np.all(np.isfinite(f.trajectories)):
        return f"{f.scene_id}/{f.actor_id}: non-finite trajectory"
    return None


def _min_fde6(preds, gt):
    """Mean over actors of the best endpoint error, computed independently."""
    by_key = {(f.scene_id, f.actor_id): f for f in preds}
    errs = [np.hypot(*(by_key[key].trajectories[:, -1, :] - fut[-1]).T).min()
            for key, fut in sorted(gt.items())]
    return float(np.mean(errs))


def _score_pass(inputs, work_dir, probe, tally):
    gt, manifest = inputs.gt, inputs.manifest
    n = len(gt)
    t = next(iter(gt.values())).shape[0]
    clock = time.perf_counter
    fused_path = work_dir / "fused.json"

    t0 = clock()
    try:
        with probe.span("ensemble.load_manifest"):
            subs = load_manifest(manifest.read_bytes(), base_dir=str(manifest.parent))
        with probe.span("ensemble.fuse") as sp:
            fused = fuse(subs, seed=0)
        sp.update(actors=len(fused))
        fused_path.write_bytes(_save(fused, probe))
    except Exception:  # noqa: BLE001
        tally.crashed(2 * n, "ensemble")
        return {}
    t1 = clock()
    for f in fused:
        bad = _check_fused(f, t)
        tally.record(1, bad is None, f"ensemble: {bad}")

    try:
        with probe.span("decoder.load_predictions") as sp:
            preds = load_predictions(fused_path.read_bytes())
        sp.update(actors=len(preds))
        with probe.span("metrics.evaluate") as sp:
            report = evaluate(preds, gt)
        sp.update(actors=report.n_actors)
    except Exception:  # noqa: BLE001
        tally.crashed(n, "eval")
        return {}
    t2 = clock()
    ref = _min_fde6(preds, gt)
    got = report.values["minFDE(6)"]
    ok = (report.n_actors == n and all(math.isfinite(v) for v in report.values.values())
          and abs(got - ref) <= EVAL_REL_TOL * max(1.0, abs(ref)))
    tally.record(n, ok, f"eval: minFDE(6) {got!r} vs reference {ref!r}")
    return {"job_s": t2 - t0, "ensemble_s": t1 - t0, "eval_s": t2 - t1, "actors": n}


# ---------------------------------------------------------------------------
# grad-check


def _gradcheck_pass(seed, probe, tally):
    t0 = time.perf_counter()
    try:
        with probe.span("verify.run_all"):
            results = run_all(seed=seed)
    except Exception:  # noqa: BLE001
        tally.crashed(len(ALL_CHECKS), "grad-check")
        return {}
    dt = time.perf_counter() - t0
    for block, err in results:
        tally.record(1, err < TOLERANCE, f"grad-check {block}: {err:.3e} >= {TOLERANCE}")
    return {"job_s": dt}
