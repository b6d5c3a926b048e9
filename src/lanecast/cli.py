"""Command-line entry point.

Subcommands: gen-data, train, predict, eval, ensemble, grad-check, lr-table.
Exit codes: 0 success, 1 user error (a bad or missing argument too), 2 gradient
verification failure, 3 internal error or aborted training. User errors print
one line, never a trace.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import zip_longest
from pathlib import Path

# one BLAS thread, set before numpy loads BLAS: per-thread partial sums change bytes
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402 - after the thread pins

from . import diffcore as dc
from .config import RunConfig, config_hash, load_config
from .decoder import S1, S2, forecast, init_model, load_predictions, save_predictions
from .ensemble import fuse, load_manifest
from .errors import (ConfigError, ContractError, EnsembleError,
                     EvaluationError, ParseError, TrainingError, one_of)
from .metrics import evaluate, gt_map
from .optim import LrSchedule, train
from .scene import generate_synthetic, load_scene, save_scene
from .verify import TOLERANCE, run_all

_USER_ERRORS = (ConfigError, ParseError, EvaluationError, EnsembleError,
                ContractError, OSError)


def _read_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return load_config(p.read_bytes())


def _load_scenes(data_dir, cfg: RunConfig):
    d = Path(data_dir)
    files = sorted(d.glob("*.json"))
    if not files:
        raise ParseError("data", f"no scene files in {data_dir}")
    gen = cfg.data.gen
    return [load_scene(f.read_bytes(), segment_len=gen.segment_len,
                       lane_width=gen.lane_width, scene_id=f.stem)
            for f in files]


def cmd_gen_data(args):
    cfg = _read_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(cfg.data.n_scenes):
        scene = generate_synthetic(cfg.data.gen, seed=cfg.seed + i,
                                   scene_id=f"scene{i:03d}")
        (out / f"scene{i:03d}.json").write_bytes(save_scene(scene))
    print(f"wrote {cfg.data.n_scenes} scenes to {out} "
          f"(config {config_hash(cfg)})")
    return 0


def cmd_train(args):
    cfg = _read_config(args.config)
    scenes = _load_scenes(args.data, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store, records, _, elapsed = train(scenes, cfg,
                                       log_path=out / "train_log.jsonl")
    last = records[-1]
    store.save(out / "checkpoint.bin",
               meta={"config_hash": config_hash(cfg), "stage": last["stage"],
                     "epochs": len(records), "t": scenes[0].horizon[1]})
    # no focal actor with a future leaves minFDE6 undefined; the loss still trains
    fde = "n/a" if last["minFDE6"] is None else f"{last['minFDE6']:.4f}"
    print(f"trained {len(records)} epochs in {elapsed:.1f}s; "
          f"final total={last['total']:.4f} minFDE6={fde} "
          f"(config {config_hash(cfg)})")
    return 0


def _check_checkpoint(store, cfg, t):
    """Reject a checkpoint whose parameters (names, shapes, dtype) differ
    from what the config builds, naming the first mismatch."""
    want = dc.ParamStore(cfg.train.precision)
    init_model(want, cfg.model, t, np.random.default_rng(0))
    expected = [(n, p.shape, str(p.dtype)) for n, p in want.items()]
    found = [(n, p.shape, str(p.dtype)) for n, p in store.items()]
    for e, f in zip_longest(expected, found):
        if e != f:
            name = (f or e)[0]
            raise ParseError(name, f"checkpoint parameter {name} does not fit the config: "
                                   f"expected {e}, found {f}; retrain with this config")


def _out_path(path):
    """An output path, checked before the work: not a directory, and in one."""
    p = Path(path)
    if p.is_dir() or not p.parent.is_dir():
        why = "it is a directory" if p.is_dir() else f"no directory {p.parent}"
        raise OSError(f"cannot write {p}: {why}")
    return p


def cmd_predict(args):
    out = _out_path(args.out)
    cfg = _read_config(args.config)
    store = dc.ParamStore.load(args.checkpoint)
    scenes = _load_scenes(args.data, cfg)
    for t in sorted({scene.horizon[1] for scene in scenes}):
        _check_checkpoint(store, cfg, t)
    stage = one_of(store.meta.get("stage", S2), "stage", (S1, S2))
    forecasts = [f for scene in scenes for f in forecast(scene, store, cfg.model, stage)]
    out.write_bytes(save_predictions(forecasts))
    print(f"wrote {len(forecasts)} forecasts to {args.out}")
    return 0


def cmd_eval(args):
    json_out = args.json_out and _out_path(args.json_out)
    cfg = _read_config(args.config)
    scenes = _load_scenes(args.data, cfg)
    preds = load_predictions(Path(args.predictions).read_bytes())
    report = evaluate(preds, gt_map(scenes))
    report.meta["config_hash"] = config_hash(cfg)
    print(report.to_table())
    if json_out:
        json_out.write_text(report.to_json(), encoding="utf-8")
    return 0


def cmd_ensemble(args):
    out = _out_path(args.out)
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise ParseError("manifest", f"manifest not found: {args.manifest}")
    subs = load_manifest(manifest_path.read_bytes(),
                         base_dir=str(manifest_path.parent))
    fused = fuse(subs, seed=args.seed)
    out.write_bytes(save_predictions(fused))
    print(f"fused {len(subs)} sub-models over {len(fused)} actors "
          f"into {args.out}")
    return 0


def cmd_grad_check(args):
    results = run_all(seed=args.seed)
    worst = 0.0
    for name, err in results:
        flag = "ok" if err < TOLERANCE else "FAIL"
        print(f"{name:24s} {err:.3e}  {flag}")
        worst = max(worst, err)
    if worst >= TOLERANCE:
        print(f"worst relative error {worst:.3e} exceeds {TOLERANCE}")
        return 2
    print(f"all blocks within {TOLERANCE}")
    return 0


def cmd_lr_table(args):
    sched = LrSchedule()
    for epoch in range(sched.total_epochs):
        print(f"{epoch:3d}  {sched.lr_at(epoch):.10e}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error prints one line and exits 1, as other user errors do;
    subparsers inherit the class."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _seed(text):
    """A non-negative int, the seeds numpy's generators take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# subcommand -> (help, function, required options); optional options follow below
_COMMANDS = {
    "gen-data": ("generate synthetic scene files", cmd_gen_data, ("config", "out")),
    "train": ("train on a scene directory", cmd_train, ("config", "data", "out")),
    "predict": ("forecast with a trained checkpoint", cmd_predict,
                ("config", "checkpoint", "data", "out")),
    "eval": ("score predictions against ground truth", cmd_eval,
             ("config", "predictions", "data")),
    "ensemble": ("fuse sub-model predictions", cmd_ensemble, ("manifest", "out")),
    "grad-check": ("verify gradients block by block", cmd_grad_check, ()),
    "lr-table": ("print the learning-rate schedule", cmd_lr_table, ()),
}


def build_parser():
    p = _Parser(prog="lanecast",
                description="Forecast actor trajectories on vectorized lane maps.")
    sub = p.add_subparsers(dest="command", required=True)
    cmds = {}
    for name, (text, func, required) in _COMMANDS.items():
        cmds[name] = sub.add_parser(name, help=text)
        for opt in required:
            cmds[name].add_argument(f"--{opt}", required=True)
        cmds[name].set_defaults(func=func)
    cmds["eval"].add_argument("--json-out", default=None)
    cmds["ensemble"].add_argument("--seed", type=int, default=0)
    cmds["grad-check"].add_argument("--seed", type=_seed, default=0)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except TrainingError as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
