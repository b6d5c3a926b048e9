"""The lanecast benchmark: one workload per call, measured from outside the
program through its public functions.

    python3 perfbench/run.py --workload small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a lanecast checkout; the program is imported from its
`src/`. A run writes the workload's inputs for `--seed` and loads them (five
times, for `setup_s`), runs one warm-up pass of the workload's job (its time
is reported, not hidden), then timed passes for `--seconds`. Times are given
in seconds at reference speed (see speed.py); the human-readable report also
gives them as measured. With `--trace 0` the result holds the end-to-end
metrics declared in BENCHMARK.json; with `--trace 1` the time is split between
untraced and traced passes and the result holds the per-layer metrics. The
last line of standard output is that result as one JSON object; a
human-readable report precedes it, and a full record (environment, metrics,
spans) goes to perfbench/out/. `--workload all` runs every workload in turn,
each in its own process, and with `--trace 1` checks the trace against the
reasons the workloads were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 900
# one process, one compute thread: set before numpy loads its BLAS
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def import_program():
    """Put the checkout's src/ first on the path; False if it holds no lanecast."""
    src = ROOT / "src"
    if not (src / "lanecast" / "__init__.py").is_file():
        print(f"error: {src / 'lanecast'} not found; run from a lanecast checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import lanecast
    if Path(lanecast.__file__).resolve().parent != (src / "lanecast").resolve():
        print(f"error: imported lanecast from {lanecast.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def cold_import_s():
    """Wall time of a fresh interpreter importing the CLI, as every `lanecast`
    command does; work moved to import time shows here."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import lanecast.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def timed_passes(name, inputs, work_dir, probe, tally, budget_s):
    """Passes until the next one would end past the budget; at least one."""
    from jobs import run_pass
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(name, inputs, work_dir, probe, tally)
        passes.append(p)
        if time.perf_counter() - start + p["wall_s"] > budget_s:
            return passes


def job_seconds(passes):
    """Median job time at reference speed."""
    return statistics.median(p.get("job_s", p["wall_s"]) * p["speed"] for p in passes)


def run_one(args, declared):
    import resource

    import report
    from inputs import (WORKLOADS, digest_files, lanecast_config_hash, load_inputs,
                        workload_hash, write_inputs)
    from jobs import Tally
    from spans import StepClock, Tracer, to_records
    from speed import Sensor

    name = args.workload
    kind = WORKLOADS[name]["kind"]
    work = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    tally = Tally()
    clock = StepClock()
    tracer = Tracer() if args.trace else None
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": report.environment(ROOT, THREAD_VARS)}
    sensor = Sensor(work / "speed.log")
    setups = []  # (seconds, monotonic start, monotonic end)
    traced = []
    try:
        with sensor:
            for i in range(1 if tracer else SETUP_REPEATS):
                t0, m0 = time.perf_counter(), time.monotonic()
                import_s = cold_import_s()
                files = write_inputs(name, args.seed, work / f"inputs{i}")
                inputs = load_inputs(name, files, tracer or clock)
                setups.append((time.perf_counter() - t0, m0, time.monotonic()))
                print(f"setup {i}: {setups[-1][0]:.4f} s as measured, "
                      f"of which {import_s:.4f} s importing")
            record["inputs"] = {"sha256": digest_files(files), "files": len(files),
                                "workload_hash": workload_hash(name),
                                "lanecast_config_hash": lanecast_config_hash(name)}
            budget = args.seconds / 2 if tracer else args.seconds
            with clock.installed():
                (first,) = timed_passes(name, inputs, work, clock, tally, 0)
                passes = timed_passes(name, inputs, work, clock, tally, budget)
            if tracer:
                with tracer.installed():
                    traced = timed_passes(name, inputs, work, tracer, tally, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in (first, *passes, *traced):
        p["speed"] = sensor.factor(p["t_start"], p["t_end"])
    setup_s = [dt * sensor.factor(m0, m1) for dt, m0, m1 in setups]  # at reference speed

    rows = report.phase_metrics(kind, first, passes, tally)
    if tracer:
        overhead = job_seconds(traced) / job_seconds(passes) - 1.0
        wanted = declared["per_layer"]
        values = report.layer_metrics(tracer, len(traced), [m["name"] for m in wanted],
                                      overhead)
        samples = {}
    else:
        values = {"setup_s": statistics.median(setup_s),
                  "job_s": job_seconds(passes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        samples = {"setup_s": len(setup_s), "job_s": len(passes), "peak_rss_mb": 1}
        wanted = declared["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise SystemExit(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"# lanecast benchmark: workload={name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("inputs " + json.dumps(record["inputs"], sort_keys=True))
    ks = sensor.kernel_s
    print(f"speed sensor: {len(ks)} kernel runs, {min(ks):.5f}..{max(ks):.5f} s")
    for label, group in (("warm-up", [first]), ("timed", passes), ("traced", traced)):
        for p in group:
            print(f"{label} pass: job {p.get('job_s', p['wall_s']):.4f} s as measured, "
                  f"speed factor {p['speed']:.3f}")
    print(f"\n{'metric':34s} {'as measured':>14s} {'at ref speed':>14s} unit   samples")
    for row_name, value, ref_value, unit, n in rows:
        print(f"{row_name:34s} {value:14.4f} {ref_value:14.4f} {unit:6s} {n}")
    if tracer:
        print(f"\n{'span':28s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'ops':>9s}")
        for span_name, calls, total, own, ops in report.span_table(tracer):
            print(f"{span_name:28s} {calls:8d} {total:10.4f} {own:10.4f} {ops:9d}")
    print()
    for metric_name, m in metrics.items():
        n = samples.get(metric_name, "")
        print(f"{metric_name:34s} {m['value']:14.6g} {m['unit']:10s} {n}")
    for note in tally.notes[:20]:
        print(f"FAILED {note}", file=sys.stderr)

    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record.update(phase_metrics=[list(r) for r in rows], result=result,
                  notes=tally.notes, spans=to_records(tracer.spans) if tracer else None)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def confirm_reasons(results):
    """The traced shares that justify the workload choice, as (claim, holds)."""
    def value(w, m):
        return results[w]["metrics"][m]["value"]

    return [
        ("NAdam share of training on small >= 5x its share on dense",
         value("small", "optim.step_share") >= 5 * value("dense", "optim.step_share")),
        ("fusion share of training larger on dense than on small",
         value("dense", "fusion.share") > value("small", "fusion.share")),
        ("no diffcore op runs on score-fuse",
         all(v["value"] == 0 for k, v in results["score-fuse"]["metrics"].items()
             if k.startswith("diffcore.calls."))),
    ]


def run_every(args, names):
    results = {}
    for w in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout + "\n")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"error: workload {w} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        results[w] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    if args.trace:
        for claim, holds in confirm_reasons(results):
            print(f"{'holds' if holds else 'FAILS'}: {claim}")
            correct = correct and holds
    summary = {"correct": correct,
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    if not import_program():
        return 2
    if args.workload == "all":
        return run_every(args, names)
    return run_one(args, declared)


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
