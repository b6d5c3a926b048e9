"""Workload definitions and the seeded inputs each one runs on.

The benchmark seed enters only here: every scene, prediction file, manifest
and ground-truth map is a pure function of (workload, seed), so one seed gives
byte-identical inputs. The program under test sees only the written files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from lanecast.config import config_hash, load_config
from lanecast.decoder import Forecast, save_predictions
from lanecast.scene import generate_synthetic, load_scene, save_scene

# Two model-training workloads at opposite ends of the op-size range, one
# workload with no autodiff at all, and the grad-check command. BENCHMARK.json
# records why each was chosen and which layer it stresses or bypasses.
WORKLOADS = {
    # c4 shape: ~530 tiny tape ops per view and one NAdam step per view, so
    # dispatch, the tape walk and the per-tensor optimizer dominate.
    "small": {
        "kind": "train",
        "focal_per_scene": 1,
        "run_config": {
            "seed": 7,
            "data": {"n_scenes": 8, "gen": {"n_lanes": 2, "n_actors": 3}},
            "model": {"d": 32, "l_graph": 2},
            "train": {"batch_size": 1, "total_epochs": 8},
        },
    },
    # 3x the lane and boundary nodes, shipped model defaults, 8 views per
    # step: backward, the lane encoder and fusion dominate, NAdam does not.
    "dense": {
        "kind": "train",
        "focal_per_scene": 4,
        "run_config": {
            "seed": 7,
            "data": {"n_scenes": 2,
                     "gen": {"n_lanes": 4, "n_actors": 8, "lane_length": 150.0}},
            "train": {"batch_size": 8, "total_epochs": 10},
        },
    },
    # Prediction files from several sub-models: JSON parsing, the scalar
    # metric loops and per-actor k-means; no autodiff op runs.
    "score-fuse": {
        "kind": "score",
        "n_actors": 1000,
        "n_models": 4,
        "k": 6,
        "t": 15,
        "actors_per_scene": 8,
    },
    # `lanecast grad-check` as shipped: its default seed, 8 blocks, float64.
    # The verify fixtures are built inside the program, so the benchmark seed
    # does not change them.
    "gradcheck": {"kind": "gradcheck", "grad_check_seed": 0},
}


def workload_hash(name):
    """Short digest of a workload's full definition."""
    blob = json.dumps({"name": name, **WORKLOADS[name]}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def run_config(name):
    return load_config(WORKLOADS[name]["run_config"])


def lanecast_config_hash(name):
    spec = WORKLOADS[name]
    return config_hash(run_config(name)) if spec["kind"] == "train" else None


def digest_files(paths):
    """sha256 over the names and bytes of the given files, in name order."""
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: p.name):
        h.update(p.name.encode("utf-8") + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


@dataclasses.dataclass
class Inputs:
    files: list
    scenes: list = None          # train workloads
    run_cfg: object = None       # train workloads
    manifest: Path = None        # score-fuse
    gt: dict = None              # score-fuse: (scene_id, actor_id) -> [T, 2]


def write_inputs(name, seed, out_dir):
    """Generate the workload's input files for `seed` into out_dir."""
    spec = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "train":
        return _write_scenes(spec, seed, out_dir)
    if spec["kind"] == "score":
        return _write_score_inputs(spec, seed, out_dir)
    return []


def load_inputs(name, files, probe):
    """Read the written files back through the program's own parsers."""
    spec = WORKLOADS[name]
    if spec["kind"] == "train":
        cfg = run_config(name)
        gen = cfg.data.gen
        scenes = []
        for f in sorted(files):
            with probe.span("scene.load") as sp:
                scene = load_scene(f.read_bytes(), segment_len=gen.segment_len,
                                   lane_width=gen.lane_width, scene_id=f.stem)
            sp.update(lane_nodes=scene.lane_graph.n_nodes,
                      boundary_nodes=sum(b.node_centers.shape[0]
                                         for b in scene.boundaries))
            scenes.append(scene)
        return Inputs(files=files, scenes=scenes, run_cfg=cfg)
    if spec["kind"] == "score":
        by_name = {f.name: f for f in files}
        raw = json.loads(by_name["gt.json"].read_bytes())
        gt = {(r["scene_id"], r["actor_id"]): np.asarray(r["future"], dtype=np.float64)
              for r in raw}
        return Inputs(files=files, manifest=by_name["manifest.json"], gt=gt)
    return Inputs(files=files)


def _write_scenes(spec, seed, out_dir):
    data = load_config(spec["run_config"]).data
    files = []
    for i in range(data.n_scenes):
        scene_id = f"scene{i:03d}"
        scene = generate_synthetic(data.gen, seed=seed * 1000 + i, scene_id=scene_id)
        for actor in scene.actors[:spec["focal_per_scene"]]:
            actor.focal = True
        path = out_dir / f"{scene_id}.json"
        path.write_bytes(save_scene(scene))
        files.append(path)
    return files


def _ground_truth(rng, n, t, dt=0.1):
    """Smooth constant-turn-rate tracks, [n, t, 2] meters."""
    start = rng.uniform(-100.0, 100.0, (n, 2))
    heading = rng.uniform(-np.pi, np.pi, n)
    speed = rng.uniform(3.0, 15.0, n)
    yaw_rate = rng.normal(0.0, 0.1, n)
    steps = np.arange(1, t + 1) * dt
    theta = heading[:, None] + yaw_rate[:, None] * steps[None, :]
    dx = np.cumsum(speed[:, None] * np.cos(theta) * dt, axis=1)
    dy = np.cumsum(speed[:, None] * np.sin(theta) * dt, axis=1)
    return start[:, None, :] + np.stack([dx, dy], axis=2)


def _write_score_inputs(spec, seed, out_dir):
    rng = np.random.default_rng(seed)
    n, k, t, per_scene = spec["n_actors"], spec["k"], spec["t"], spec["actors_per_scene"]
    keys = [(f"scene{i // per_scene:04d}", f"a{i % per_scene}") for i in range(n)]
    gt = _ground_truth(rng, n, t)
    ramp = np.linspace(1.0 / t, 1.0, t)[None, None, :, None]
    files = []
    manifest = []
    for m in range(spec["n_models"]):
        # each mode drifts away from the truth linearly in time
        drift = rng.normal(0.0, 2.0, (n, k, 1, 2)) * ramp
        traj = gt[:, None, :, :] + drift
        conf = rng.dirichlet(np.ones(k), size=n)
        forecasts = [Forecast(scene_id=s, actor_id=a, targets=traj[i, :, -1, :],
                              trajectories=traj[i], confidences=conf[i])
                     for i, (s, a) in enumerate(keys)]
        path = out_dir / f"model{m}.json"
        path.write_bytes(save_predictions(forecasts))
        files.append(path)
        manifest.append({"model_id": f"m{m}", "alpha": float(rng.uniform(0.5, 2.0)),
                         "prediction_file": path.name})
    for fname, obj in (("manifest.json", manifest),
                       ("gt.json", [{"scene_id": s, "actor_id": a, "future": gt[i].tolist()}
                                    for i, (s, a) in enumerate(keys)])):
        path = out_dir / fname
        path.write_bytes(json.dumps(obj).encode("utf-8"))
        files.append(path)
    return files
