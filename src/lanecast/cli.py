"""Command-line entry point.

Subcommands: gen-data, train, predict, eval, ensemble, grad-check, lr-table.
Exit codes: 0 success, 1 user error, 2 gradient verification failure,
3 internal error. User errors print a one-line message, never a trace.
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .config import RunConfig, config_hash, load_config
from .decoder import S1, S2, forecast, init_model, load_predictions, save_predictions
from .ensemble import fuse, load_manifest
from .errors import (ConfigError, ContractError, EnsembleError,
                     EvaluationError, ParseError, TrainingError)
from .metrics import evaluate, gt_map
from .optim import LrSchedule, train
from .scene import generate_synthetic, load_scene, save_scene
from .verify import TOLERANCE, run_all

_USER_ERRORS = (ConfigError, ParseError, EvaluationError, EnsembleError,
                ContractError, FileNotFoundError, NotADirectoryError)


def _read_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return load_config(p.read_text(encoding="utf-8"))


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
    final_stage = records[-1]["stage"] if records else S1
    store.save(out / "checkpoint.bin",
               meta={"config_hash": config_hash(cfg), "stage": final_stage,
                     "epochs": len(records), "t": scenes[0].horizon[1]})
    last = records[-1]
    print(f"trained {len(records)} epochs in {elapsed:.1f}s; "
          f"final total={last['total']:.4f} minFDE6={last['minFDE6']:.4f} "
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


def cmd_predict(args):
    cfg = _read_config(args.config)
    store = dc.ParamStore.load(args.checkpoint)
    scenes = _load_scenes(args.data, cfg)
    for t in sorted({scene.horizon[1] for scene in scenes}):
        _check_checkpoint(store, cfg, t)
    stage = store.meta.get("stage", S2)
    if stage not in (S1, S2):
        raise ParseError("stage", f"checkpoint has invalid stage {stage!r}")
    forecasts = []
    for scene in scenes:
        forecasts.extend(forecast(scene, store, cfg.model, stage))
    Path(args.out).write_bytes(save_predictions(forecasts))
    print(f"wrote {len(forecasts)} forecasts to {args.out}")
    return 0


def cmd_eval(args):
    cfg = _read_config(args.config)
    scenes = _load_scenes(args.data, cfg)
    preds = load_predictions(Path(args.predictions).read_bytes())
    report = evaluate(preds, gt_map(scenes))
    report.meta["config_hash"] = config_hash(cfg)
    print(report.to_table())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json(), encoding="utf-8")
    return 0


def cmd_ensemble(args):
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise ParseError("manifest", f"manifest not found: {args.manifest}")
    subs = load_manifest(manifest_path.read_bytes(),
                         base_dir=str(manifest_path.parent))
    fused = fuse(subs, seed=args.seed)
    Path(args.out).write_bytes(save_predictions(fused))
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


def build_parser():
    p = argparse.ArgumentParser(prog="lanecast",
                                description="Forecast actor trajectories on "
                                            "vectorized lane maps.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic scene files")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train on a scene directory")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="forecast with a trained checkpoint")
    pr.add_argument("--config", required=True)
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--config", required=True)
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--json-out", default=None)
    ev.set_defaults(func=cmd_eval)

    en = sub.add_parser("ensemble", help="fuse sub-model predictions")
    en.add_argument("--manifest", required=True)
    en.add_argument("--out", required=True)
    en.add_argument("--seed", type=int, default=0)
    en.set_defaults(func=cmd_ensemble)

    gc = sub.add_parser("grad-check", help="verify gradients block by block")
    gc.add_argument("--seed", type=int, default=0)
    gc.set_defaults(func=cmd_grad_check)

    lt = sub.add_parser("lr-table", help="print the learning-rate schedule")
    lt.set_defaults(func=cmd_lr_table)
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
