"""Turn raw pass timings and spans into named metrics, and record the
environment a run measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import statistics

import numpy as np

from jobs import TIME_KEYS
from spans import self_times

TAILS = ((99.9, "p999"), (99.0, "p99"), (90.0, "p90"))
MIN_BEYOND = 10


def summarize(samples):
    """Median and the highest tail percentile with >= 10 samples beyond it."""
    out = {"n": len(samples)}
    if not samples:
        return out
    out["p50"] = statistics.median(samples)
    for pct, label in TAILS:
        if len(samples) * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            out[label] = float(np.percentile(samples, pct))
            break
    return out


# ---------------------------------------------------------------------------
# environment


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def src_digest(root):
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = root / "src"
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode("utf-8") + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(root, thread_vars):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads_env": {v: os.environ.get(v) for v in thread_vars},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "lanecast_commit": _git_commit(root),
        "lanecast_src_sha256": src_digest(root),
    }


# ---------------------------------------------------------------------------
# end-to-end: per-command metrics, measured untraced


def phase_metrics(kind, first, passes, tally):
    """(name, as measured, at reference speed, unit, samples) rows for the
    phases this workload runs; `first` is the warm-up pass."""
    raw = _phase_rows(kind, first, passes, tally)
    ref = _phase_rows(kind, _at_reference_speed(first),
                      [_at_reference_speed(p) for p in passes], tally)
    return [(name, value, ref_value, unit, n)
            for (name, value, unit, n), (_, ref_value, _, _) in zip(raw, ref)]


def _at_reference_speed(p):
    out = dict(p)
    for key in TIME_KEYS:
        if key in p:
            v = p[key]
            out[key] = [x * p["speed"] for x in v] if isinstance(v, list) else v * p["speed"]
    return out


def _phase_rows(kind, first, passes, tally):
    rows = [("first_job_s", first.get("job_s", first["wall_s"]), "s", 1)]
    ok = [p for p in passes if "job_s" in p]
    if ok:
        rows.append(("job_s", statistics.median(p["job_s"] for p in ok), "s", len(ok)))

    def timing(name, samples, unit, scale):
        s = summarize([x * scale for x in samples])
        for label in ("p50",) + tuple(lbl for _, lbl in TAILS):
            if label in s:
                rows.append((f"{name}.{label}", s[label], unit, s["n"]))

    if kind == "train" and ok:
        rows.append(("train.views_per_s", sum(p["views"] for p in ok) / sum(p["train_s"] for p in ok),
                     "1/s", sum(p["views"] for p in ok)))
        timing("train.step_ms", [x for p in ok for x in p["step_s"]], "ms", 1e3)
        rows.append(("train.loss_epoch0", statistics.median(p["loss_epoch0"] for p in ok), "loss", len(ok)))
        rows.append(("train.loss_final", statistics.median(p["loss_final"] for p in ok), "loss", len(ok)))
        actors = sum(p["actors"] for p in ok)
        rows.append(("predict.actors_per_s", actors / sum(p["predict_s"] for p in ok), "1/s", actors))
        rows.append(("predict.first_pass_actors_per_s",
                     actors / sum(p["first_predict_s"] for p in ok), "1/s", actors))
        timing("predict.scene_ms", [x for p in ok for x in p["scene_s"]], "ms", 1e3)
    if kind == "score" and ok:
        actors = sum(p["actors"] for p in ok)
        rows.append(("eval.actors_per_s", actors / sum(p["eval_s"] for p in ok), "1/s", actors))
        rows.append(("ensemble.actors_per_s", actors / sum(p["ensemble_s"] for p in ok), "1/s", actors))
    if kind == "gradcheck" and ok:
        rows.append(("gradcheck_s", statistics.median(p["job_s"] for p in ok), "s", len(ok)))
    rows.append(("failed_frac", tally.failed / max(1, tally.attempted), "frac", tally.attempted))
    return rows


# ---------------------------------------------------------------------------
# per layer, from a traced run


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, n_passes, declared, overhead_frac):
    """Every declared per-layer metric, 0 where the workload does not reach
    the layer (or the program no longer has the op or grad-check block).

    Per-view figures are over the training phase, whose views are the
    (scene, focal actor) pairs `train` normalizes.
    """
    spans = tracer.spans
    selft = self_times(spans)
    in_train = [any(a.name == "optim.train" for a in (sp, *sp.ancestors())) for sp in spans]
    train_spans = [sp for sp, t in zip(spans, in_train) if t]
    named = {}
    for sp in spans:
        named.setdefault(sp.name, []).append(sp)
    tnamed = {}
    for sp in train_spans:
        tnamed.setdefault(sp.name, []).append(sp)
    views = len(tnamed.get("scene.normalize", ()))
    train_s = sum(sp.dur for sp in named.get("optim.train", ()))

    def mean_dur(name, scale):
        got = named.get(name, ())
        return _ratio(sum(sp.dur for sp in got), len(got)) * scale

    def per_actor(name, scale, unit_from=None):
        actors = sum(sp.extra.get("actors", 0) for sp in named.get(unit_from or name, ()))
        return _ratio(sum(sp.dur for sp in named.get(name, ())), actors) * scale

    def mean_extra(name, key):
        got = named.get(name, ())
        return _ratio(sum(sp.extra.get(key, 0) for sp in got), len(got))

    def train_self_ms(name):
        return _ratio(sum(selft[id(sp)] for sp in tnamed.get(name, ())), views) * 1e3

    def train_ops(name):
        return _ratio(sum(sp.ops for sp in tnamed.get(name, ())), views)

    def share(*names):
        return _ratio(sum(sp.dur for n in names for sp in tnamed.get(n, ())), train_s)

    m = {
        "scene.load_ms": mean_dur("scene.load", 1e3),
        "scene.normalize_ms": mean_dur("scene.normalize", 1e3),
        "scene.lane_nodes": mean_extra("scene.load", "lane_nodes"),
        "scene.boundary_nodes": mean_extra("scene.load", "boundary_nodes"),
    }
    for block in ("actor", "lane", "boundary"):
        m[f"encoder.{block}_ms"] = train_self_ms(f"encoder.{block}")
        m[f"encoder.{block}_ops"] = train_ops(f"encoder.{block}")
    for block in ("b2l", "l2a", "b2a", "a2a"):
        m[f"fusion.{block}_ms"] = train_self_ms(f"fusion.{block}")
    for block in ("l2a", "b2a", "a2a"):
        got = tnamed.get(f"fusion.{block}", ())
        pairs = sum(sp.extra["pairs"] for sp in got)
        m[f"fusion.{block}_pairs"] = _ratio(pairs, views)
        m[f"fusion.{block}_keep"] = _ratio(pairs, sum(sp.extra["distances"] for sp in got))
    for block in ("targets", "completion"):
        m[f"decoder.{block}_ms"] = train_self_ms(f"decoder.{block}")
        m[f"decoder.{block}_ops"] = train_ops(f"decoder.{block}")
    m["decoder.save_predictions_us"] = per_actor("decoder.save_predictions", 1e6)
    m["decoder.load_predictions_us"] = per_actor("decoder.load_predictions", 1e6)
    losses = tnamed.get("losses.total_loss", ())
    m["losses.ms"] = train_self_ms("losses.total_loss")
    m["losses.ops"] = train_ops("losses.total_loss")
    m["losses.conf_kept_ratio"] = _ratio(sum(sp.extra["conf_kept"] for sp in losses),
                                         sum(sp.extra["has_gt"] for sp in losses))

    all_ops = sum(sp.ops for sp in spans)
    m["diffcore.ops_per_view"] = _ratio(sum(sp.ops for sp in train_spans), views)
    m["diffcore.us_per_op"] = _ratio(sum(sp.op_s for sp in spans), all_ops) * 1e6
    m["diffcore.out_bytes_per_view"] = _ratio(sum(sp.out_bytes for sp in train_spans), views)
    backward = named.get("diffcore.backward", ())
    m["diffcore.backward_ms"] = mean_dur("diffcore.backward", 1e3)
    m["diffcore.backward_us_per_node"] = _ratio(sum(sp.dur for sp in backward),
                                                sum(sp.extra["nodes"] for sp in backward)) * 1e6
    for name in declared:
        if name.startswith("diffcore.calls."):
            m[name] = _ratio(tracer.op_calls[name[len("diffcore.calls."):]], n_passes)
    m["diffcore.params.save_ms"] = mean_dur("diffcore.params.save", 1e3)
    m["diffcore.params.load_ms"] = mean_dur("diffcore.params.load", 1e3)

    m["optim.step_ms"] = mean_dur("optim.step", 1e3)
    m["optim.tensors_per_step"] = mean_extra("optim.step", "tensors")
    m["optim.loop_ms"] = train_self_ms("optim.train")
    m["encoder.share"] = share("encoder.actor", "encoder.lane", "encoder.boundary")
    m["fusion.share"] = share("fusion.scene")
    m["decoder.share"] = share("decoder.targets", "decoder.completion")
    m["losses.share"] = share("losses.total_loss")
    m["diffcore.backward_share"] = share("diffcore.backward")
    m["optim.step_share"] = share("optim.step")

    m["metrics.evaluate_us"] = per_actor("metrics.evaluate", 1e6)
    m["ensemble.load_manifest_us"] = per_actor("ensemble.load_manifest", 1e6, "ensemble.fuse")
    m["ensemble.fuse_us"] = per_actor("ensemble.fuse", 1e6)
    m["ensemble.kmeans_us"] = per_actor("ensemble.kmeans", 1e6, "ensemble.fuse")
    m["ensemble.lloyd_iters"] = mean_extra("ensemble.kmeans", "lloyd_iters")

    blocks = {f"verify.{n[len('verify.'):].replace('-', '_')}_s": n
              for n in named if n.startswith("verify.") and n != "verify.run_all"}
    for name in declared:
        if name.startswith("verify.") and name.endswith("_s"):
            m[name] = mean_dur(blocks.get(name, ""), 1.0)
    m["verify.fn_evals"] = _ratio(tracer.fn_evals, n_passes)
    m["verify.ms_per_eval"] = _ratio(tracer.fn_eval_s, tracer.fn_evals) * 1e3
    m["trace.overhead_frac"] = overhead_frac
    return m


def span_table(tracer):
    """Rows (name, calls, total s, self s) per span name, by self time."""
    selft = self_times(tracer.spans)
    acc = {}
    for sp in tracer.spans:
        row = acc.setdefault(sp.name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += sp.dur
        row[2] += selft[id(sp)]
        row[3] += sp.ops
    return sorted(((n, *r) for n, r in acc.items()), key=lambda r: -r[3])
