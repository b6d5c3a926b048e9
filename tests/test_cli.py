"""End-to-end command-line flows on tiny configurations."""

import json
from pathlib import Path

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast.cli import main
from lanecast.config import ModelConfig
from lanecast.decoder import init_model, load_predictions

TINY = {
    "seed": 11,
    "data": {"n_scenes": 3,
             "gen": {"n_lanes": 2, "n_actors": 2, "h": 6, "t": 8,
                     "lane_length": 60.0}},
    "model": {"d": 16, "l_graph": 1},
    "train": {"batch_size": 4, "total_epochs": 8, "stage2_start_epoch": 2,
              "periods": [2, 6]},
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(TINY))
    return str(p)


def run(*argv):
    return main(list(argv))


class TestPipeline:
    def test_gen_train_predict_eval(self, tmp_path, cfg_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "run"
        assert run("gen-data", "--config", cfg_path, "--out", str(data)) == 0
        assert len(list(data.glob("*.json"))) == 3

        assert run("train", "--config", cfg_path, "--data", str(data),
                   "--out", str(out)) == 0
        assert (out / "checkpoint.bin").is_file()
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 8
        assert json.loads(log_lines[0])["stage"] == "S1"
        assert json.loads(log_lines[-1])["stage"] == "S2"

        preds = tmp_path / "preds.json"
        assert run("predict", "--config", cfg_path,
                   "--checkpoint", str(out / "checkpoint.bin"),
                   "--data", str(data), "--out", str(preds)) == 0
        forecasts = load_predictions(preds.read_bytes())
        assert len(forecasts) == 3  # one focal actor per scene

        report = tmp_path / "report.json"
        assert run("eval", "--config", cfg_path, "--predictions", str(preds),
                   "--data", str(data), "--json-out", str(report)) == 0
        table = capsys.readouterr().out
        assert "minFDE(6)" in table
        obj = json.loads(report.read_text())
        assert obj["actors"] == 3
        assert all(np.isfinite(v) for v in obj["metrics"].values())

    def test_predict_is_deterministic(self, tmp_path, cfg_path):
        data = tmp_path / "data"
        out = tmp_path / "run"
        run("gen-data", "--config", cfg_path, "--out", str(data))
        run("train", "--config", cfg_path, "--data", str(data),
            "--out", str(out))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run("predict", "--config", cfg_path,
            "--checkpoint", str(out / "checkpoint.bin"),
            "--data", str(data), "--out", str(p1))
        run("predict", "--config", cfg_path,
            "--checkpoint", str(out / "checkpoint.bin"),
            "--data", str(data), "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_ensemble_command(self, tmp_path, cfg_path):
        data = tmp_path / "data"
        run("gen-data", "--config", cfg_path, "--out", str(data))
        run("train", "--config", cfg_path, "--data", str(data),
            "--out", str(tmp_path / "run"))
        preds = tmp_path / "m0.json"
        run("predict", "--config", cfg_path,
            "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
            "--data", str(data), "--out", str(preds))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"model_id": "m0", "alpha": 0.7, "prediction_file": "m0.json"},
            {"model_id": "m1", "alpha": 0.9, "prediction_file": "m0.json"},
        ]))
        fused = tmp_path / "fused.json"
        assert run("ensemble", "--manifest", str(manifest),
                   "--out", str(fused)) == 0
        out = load_predictions(fused.read_bytes())
        assert len(out) == 3
        for f in out:
            assert f.trajectories.shape[0] <= 6
            np.testing.assert_allclose(f.confidences.sum(), 1.0, atol=1e-9)


class TestErrorPaths:
    def test_missing_config_is_user_error(self, tmp_path, capsys):
        assert run("gen-data", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "d")) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_is_user_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"model": {"d": 7}}))
        assert run("gen-data", "--config", str(p),
                   "--out", str(tmp_path / "d")) == 1

    def test_empty_data_dir_is_user_error(self, tmp_path, cfg_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("train", "--config", cfg_path, "--data", str(empty),
                   "--out", str(tmp_path / "run")) == 1

    def test_corrupt_scene_is_user_error(self, tmp_path, cfg_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "scene000.json").write_text("{broken")
        assert run("train", "--config", cfg_path, "--data", str(data),
                   "--out", str(tmp_path / "run")) == 1

    def test_missing_manifest_is_user_error(self, tmp_path):
        assert run("ensemble", "--manifest", str(tmp_path / "no.json"),
                   "--out", str(tmp_path / "f.json")) == 1


class TestCheckpointMismatch:
    """predict rejects a checkpoint that does not fit the config as a user
    error naming the parameter, before running the model."""

    def _predict(self, tmp_path, cfg_path, store):
        data = tmp_path / "data"
        run("gen-data", "--config", cfg_path, "--out", str(data))
        ckpt = tmp_path / "checkpoint.bin"
        store.save(ckpt, meta={"stage": "S2"})
        return run("predict", "--config", cfg_path, "--checkpoint", str(ckpt),
                   "--data", str(data), "--out", str(tmp_path / "p.json"))

    def _store(self, d=16):
        store = dc.ParamStore(np.float32)
        init_model(store, ModelConfig(d=d, l_graph=1), TINY["data"]["gen"]["t"],
                   np.random.default_rng(0))
        return store

    def test_other_width_is_user_error(self, tmp_path, cfg_path, capsys):
        assert self._predict(tmp_path, cfg_path, self._store(d=32)) == 1
        assert "actor.coord.conv1.w" in capsys.readouterr().err

    def test_per_mode_head_layout_is_user_error(self, tmp_path, cfg_path, capsys):
        # the layout with one `dec.head{k}` parameter set per mode
        old = dc.ParamStore(np.float32)
        for name, t in self._store().items():
            if name.startswith("dec.head."):
                continue
            if name == "dec.tenc.l1.w":
                for k in range(6):
                    old.add(f"dec.head{k}.l1.w", np.zeros((16, 16)))
            old.add(name, t.data)
        assert self._predict(tmp_path, cfg_path, old) == 1
        assert "dec.head0.l1.w" in capsys.readouterr().err

    def test_other_precision_is_user_error(self, tmp_path, cfg_path, capsys):
        store = dc.ParamStore(np.float64)
        for name, t in self._store().items():
            store.add(name, t.data)
        assert self._predict(tmp_path, cfg_path, store) == 1
        assert "float64" in capsys.readouterr().err

    def test_manifest_entry_without_dtype_is_user_error(self, tmp_path, cfg_path, capsys):
        data = tmp_path / "data"
        run("gen-data", "--config", cfg_path, "--out", str(data))
        ckpt = tmp_path / "checkpoint.bin"
        self._store().save(ckpt)
        raw = ckpt.read_bytes()
        mlen = int.from_bytes(raw[:8], "little")
        manifest = json.loads(raw[8:8 + mlen])
        del manifest["params"][0]["dtype"]
        blob = json.dumps(manifest).encode()
        ckpt.write_bytes(len(blob).to_bytes(8, "little") + blob + raw[8 + mlen:])
        assert run("predict", "--config", cfg_path, "--checkpoint", str(ckpt),
                   "--data", str(data), "--out", str(tmp_path / "p.json")) == 1
        assert "dtype" in capsys.readouterr().err


class TestDiagnostics:
    def test_lr_table_lists_every_epoch(self, capsys):
        assert run("lr-table") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 100
        assert lines[0].split()[1] == f"{1e-3:.10e}"

    def test_grad_check_smoke(self, capsys):
        assert run("grad-check", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "pipeline-loss" in out and "FAIL" not in out
