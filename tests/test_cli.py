"""End-to-end command-line flows on tiny configurations."""

import json
import re
import warnings
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

    def test_train_without_focal_futures_reports_no_min_fde(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**TINY, "data": {**TINY["data"], "n_scenes": 2},
                                   "train": {**TINY["train"], "total_epochs": 2,
                                             "periods": [2]}}))
        data, out = tmp_path / "data", tmp_path / "run"
        run("gen-data", "--config", str(cfg), "--out", str(data))
        for f in data.glob("*.json"):
            doc = json.loads(f.read_text())
            for actor in doc["actors"]:
                if actor["focal"]:
                    actor["future"] = None
            f.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("train", "--config", str(cfg), "--data", str(data),
                   "--out", str(out)) == 0
        assert (out / "checkpoint.bin").is_file()
        assert "minFDE6=n/a" in capsys.readouterr().out

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


def _record(k=6, t=8):
    return {"scene_id": "scene000", "actor_id": "a0",
            "trajectories": [[[0.5, 1.0]] * t] * k,
            "confidences": [1.0 / k] * k,
            "targets": [[0.5, 1.0]] * k}


def _set(key, value):
    def mutate(rec):
        rec[key] = value
    return mutate


class TestMalformedInputs:
    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("malformed")
        cfg = root / "run.json"
        cfg.write_text(json.dumps(TINY))
        assert run("gen-data", "--config", str(cfg), "--out", str(root / "data")) == 0
        return root

    @pytest.mark.parametrize("field, mutate", [
        ("confidences", _set("confidences", [[1.0 / 6]] * 6)),
        ("confidences", _set("confidences", 1.0)),
        ("targets", _set("targets", [["a", "b"]] * 6)),
        ("trajectories", _set("trajectories", [[["x", 0.0]] * 8] * 6)),
        ("trajectories", _set("trajectories", [[[0.0, 0.0]] * 8] * 5 + [[[0.0, 0.0]] * 7])),
        ("confidences", _set("confidences", [0.5, -0.5, 0.25, 0.25, 0.25, 0.25])),
        ("targets", _set("targets", [[0.5, 1.0, 2.0]] * 6)),
        ("targets", _set("targets", [[0.5, 1.0]] * 5)),
        ("confidences", _set("confidences", [0.2] * 6)),
    ], ids=["conf-k1", "conf-scalar", "targets-text", "traj-text", "traj-ragged",
            "conf-negative", "targets-k3", "targets-short", "conf-sum"])
    def test_bad_prediction_field_is_user_error(self, data_dir, field, mutate, capsys):
        rec = _record()
        mutate(rec)
        preds = data_dir / "preds.json"
        preds.write_text(json.dumps([_record(), rec]))
        assert run("eval", "--config", str(data_dir / "run.json"),
                   "--predictions", str(preds), "--data", str(data_dir / "data")) == 1
        assert f"predictions[1].{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_alpha_is_user_error(self, tmp_path, alpha, capsys):
        (tmp_path / "p.json").write_text(json.dumps([_record()]))
        manifest = tmp_path / "m.json"
        manifest.write_text('[{"model_id": "m", "alpha": %s, '
                            '"prediction_file": "p.json"}]' % alpha)
        assert run("ensemble", "--manifest", str(manifest),
                   "--out", str(tmp_path / "f.json")) == 1
        assert "manifest[0].alpha" in capsys.readouterr().err


    DEEP = b"[" * 100000 + b"]" * 100000
    BIG_INT = b"1" * 5000

    @pytest.mark.parametrize("blob", [b"\x80{}", DEEP, b'{"seed": ' + BIG_INT + b"}"],
                             ids=["utf8", "deep", "big-int"])
    def test_bad_config_document_is_user_error(self, data_dir, tmp_path, blob, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(blob)
        assert run("train", "--config", str(cfg), "--data", str(data_dir / "data"),
                   "--out", str(tmp_path / "run")) == 1
        assert "document" in capsys.readouterr().err

    @pytest.mark.parametrize("blob", [b"\x80{}", DEEP], ids=["utf8", "deep"])
    def test_bad_scene_document_is_user_error(self, data_dir, tmp_path, blob, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "scene000.json").write_bytes(blob)
        assert run("train", "--config", str(data_dir / "run.json"), "--data", str(data),
                   "--out", str(tmp_path / "run")) == 1
        assert "document" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [DEEP, b'{"format": ' + BIG_INT + b"}"],
                             ids=["deep", "big-int"])
    def test_bad_checkpoint_manifest_is_user_error(self, data_dir, tmp_path, manifest, capsys):
        ckpt = tmp_path / "checkpoint.bin"
        ckpt.write_bytes(len(manifest).to_bytes(8, "little") + manifest)
        assert run("predict", "--config", str(data_dir / "run.json"),
                   "--checkpoint", str(ckpt), "--data", str(data_dir / "data"),
                   "--out", str(tmp_path / "p.json")) == 1
        assert "manifest" in capsys.readouterr().err


    @pytest.mark.parametrize("centerline", [[[0.0, 0.0], [1e13, 0.0]],
                                            [[-1e308, 0.0], [1e308, 0.0]]],
                             ids=["far-vertex", "1e308-endpoints"])
    def test_lane_beyond_node_budget_is_user_error(self, data_dir, tmp_path, centerline,
                                                   capsys):
        data = tmp_path / "data"
        data.mkdir()
        scene = json.loads((data_dir / "data" / "scene000.json").read_text())
        scene["lanes"][0]["centerline"] = centerline
        (data / "scene000.json").write_text(json.dumps(scene))
        assert run("train", "--config", str(data_dir / "run.json"), "--data", str(data),
                   "--out", str(tmp_path / "run")) == 1
        assert "lanes[0].centerline" in capsys.readouterr().err

    def test_repeated_actor_id_is_user_error(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        scene = json.loads((data_dir / "data" / "scene000.json").read_text())
        scene["actors"][1]["id"] = scene["actors"][0]["id"]
        (data / "scene000.json").write_text(json.dumps(scene))
        assert run("train", "--config", str(data_dir / "run.json"), "--data", str(data),
                   "--out", str(tmp_path / "run")) == 1
        assert "actors[1].id" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"model": {"d": "x"}}, "model.d"),
        ({"data": {"gen": {"n_lanes": 1e9}}}, "data.gen.n_lanes"),
        ({"train": {"periods": []}}, "train.periods"),
        ({"model": {"tau_lane": "5"}}, "model.tau_lane"),
        ({"seed": 1.5}, "seed"),
        ({"data": {"gen": {"n_lanes": 10**9}}}, "data.gen"),
    ], ids=["d-text", "n-lanes-float", "periods-empty", "tau-text", "seed-float",
            "gen-over-budget"])
    def test_mistyped_config_value_is_user_error(self, tmp_path, doc, field, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("gen, field", [
        ({"sample_step": 1e-12}, "data.gen.sample_step"),
        ({"h": 100000000}, "data.gen.h"),
        ({"n_actors": 100000000}, "data.gen.n_actors"),
    ], ids=["sample-step", "h", "n-actors"])
    def test_generator_beyond_bound_is_user_error(self, tmp_path, gen, field, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"data": {"n_scenes": 1, "gen": gen}}))
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")) == 1
        assert field in capsys.readouterr().err


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


class TestTrainingAborted:
    def test_non_finite_loss_exits_3_naming_epoch_and_view(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"], "lr_max": 1e30}}))
        data = tmp_path / "data"
        assert run("gen-data", "--config", str(cfg), "--out", str(data)) == 0
        with np.errstate(all="ignore"):
            code = run("train", "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "run"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("training aborted: non-finite loss at epoch ")
        assert ", view (" in err

    def test_divergence_prints_one_line_naming_the_scene_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"], "lr_max": 1e30}}))
        data = tmp_path / "data"
        assert run("gen-data", "--config", str(cfg), "--out", str(data)) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("train", "--config", str(cfg), "--data", str(data),
                       "--out", str(tmp_path / "run"))
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.search(r", view \(scene 'scene00\d', actor 'a\d+'\), ", lines[0])


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
