"""The CLI writes the same bytes whatever BLAS thread count the caller asks
for: `lanecast.cli` pins one thread before numpy loads BLAS.

Each run is a fresh `python -m lanecast.cli` process, since numpy (and
BLAS) is loaded in this one already. Importing `lanecast.cli` writes the
thread variables into `os.environ`, so every child's environment is built
here, explicitly. The weight gradients of the d=64 model summed over a few
hundred lane nodes are where a second BLAS thread changes bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lanecast

SRC = str(Path(lanecast.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CONFIG = {  # 300 lane nodes, 600 boundary nodes; one step per epoch
    "seed": 7,
    "data": {"n_scenes": 2, "gen": {"n_lanes": 4, "lane_length": 150.0, "n_actors": 8}},
    "model": {"d": 64, "l_graph": 4},
    "train": {"batch_size": 8, "total_epochs": 10},
}


def _cli(openblas_threads, *argv):
    """`python -m lanecast.cli *argv` with no thread variable set but
    OPENBLAS_NUM_THREADS=openblas_threads (unless None)."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    subprocess.run([sys.executable, "-m", "lanecast.cli", *argv], env=env, check=True,
                   capture_output=True)


def _outputs(root, openblas_threads):
    out = root / f"threads-{openblas_threads}"
    cfg, data = str(root / "run.json"), str(root / "data")
    _cli(openblas_threads, "train", "--config", cfg, "--data", data, "--out", str(out))
    _cli(openblas_threads, "predict", "--config", cfg, "--checkpoint", str(out / "checkpoint.bin"),
         "--data", data, "--out", str(out / "preds.json"))
    return [(out / name).read_bytes()
            for name in ("checkpoint.bin", "train_log.jsonl", "preds.json")]


def test_train_and_predict_bytes_do_not_depend_on_the_thread_count(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(CONFIG))
    _cli(None, "gen-data", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "data"))
    one = _outputs(tmp_path, "1")
    assert _outputs(tmp_path, "2") == one
    assert _outputs(tmp_path, None) == one
