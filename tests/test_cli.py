"""End-to-end command-line flows on tiny configurations."""

import json
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from lanecast import cli
from lanecast import diffcore as dc
from lanecast.cli import main
from lanecast.config import ModelConfig
from lanecast.decoder import init_model, load_predictions
from lanecast.scene import (MAX_ACTORS, MAX_TIME_STEPS, SceneGenConfig, generate_synthetic,
                            save_scene)

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

    def test_train_names_its_blas_setup_in_one_stderr_line(self, tmp_path, cfg_path, capsys):
        """The BLAS library and version numpy was built with, and the one
        thread the CLI pins whatever the caller set."""
        data = tmp_path / "data"
        run("gen-data", "--config", cfg_path, "--out", str(data))
        capsys.readouterr()
        assert run("train", "--config", cfg_path, "--data", str(data),
                   "--out", str(tmp_path / "run")) == 0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert capsys.readouterr().err == \
               f"BLAS: {blas['name']} {blas['version']}, 1 thread (pinned)\n"

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

    def test_mixed_future_horizons_are_user_error(self, tmp_path, cfg_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name, t in (("long", 8), ("short", 6)):
            gen = SceneGenConfig(**{**TINY["data"]["gen"], "t": t})
            (data / f"{name}.json").write_bytes(save_scene(generate_synthetic(gen, 1)))
        assert run("train", "--config", cfg_path, "--data", str(data),
                   "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: horizon.T") and len(err.splitlines()) == 1
        assert "'long'" in err and "T=8" in err and "'short'" in err and "T=6" in err

    def test_future_horizon_past_the_bound_is_user_error(self, tmp_path, cfg_path, capsys):
        """H + T past MAX_TIME_STEPS: train and predict exit 1 naming horizon.T."""
        data = tmp_path / "data"
        data.mkdir()
        obj = json.loads(save_scene(generate_synthetic(SceneGenConfig(**TINY["data"]["gen"]), 1)))
        obj["horizon"]["T"] = MAX_TIME_STEPS - obj["horizon"]["H"] + 1
        for actor in obj["actors"]:
            actor["future"] = None
        (data / "scene000.json").write_text(json.dumps(obj))
        ckpt = tmp_path / "checkpoint.bin"
        store = dc.ParamStore(np.float32)
        init_model(store, ModelConfig(d=16, l_graph=1), TINY["data"]["gen"]["t"],
                   np.random.default_rng(0))
        store.save(ckpt, meta={"stage": "S2"})
        for argv in (["train", "--out", str(tmp_path / "run")],
                     ["predict", "--checkpoint", str(ckpt), "--out", str(tmp_path / "p.json")]):
            assert run(argv[0], "--config", cfg_path, "--data", str(data), *argv[1:]) == 1
            out, err = capsys.readouterr()
            assert err.startswith("error: horizon.T") and len(err.splitlines()) == 1
            assert out == ""


class TestUnusablePaths:
    """A path the CLI cannot read or write is a user error: exit 1 and one
    `error:` line on stderr that names the path, with no traceback. An
    unusable output path fails before the work: nothing is forecast or
    printed."""

    @pytest.mark.parametrize("argv, bad", [
        (["gen-data", "--out", "{file}"], "file"),
        (["train", "--data", "{data}", "--out", "{file}"], "file"),
        (["predict", "--checkpoint", "{ckpt}", "--data", "{data}", "--out", "{dir}"], "dir"),
        (["eval", "--predictions", "{preds}", "--data", "{data}", "--json-out", "{dir}"], "dir"),
        (["predict", "--checkpoint", "{dir}", "--data", "{data}", "--out", "{preds}"], "dir"),
        (["eval", "--predictions", "{dir}", "--data", "{data}"], "dir"),
    ], ids=["gen-data-out-file", "train-out-file", "predict-out-dir", "eval-json-out-dir",
            "predict-checkpoint-dir", "eval-predictions-dir"])
    def test_exits_1_naming_the_path(self, tmp_path, cfg_path, capsys, monkeypatch, argv, bad):
        paths = {"file": tmp_path / "taken", "dir": tmp_path / "a_dir",
                 "data": tmp_path / "data", "ckpt": tmp_path / "checkpoint.bin",
                 "preds": tmp_path / "preds.json"}
        paths["file"].write_text("")
        paths["dir"].mkdir()
        assert run("gen-data", "--config", cfg_path, "--out", str(paths["data"])) == 0
        store = dc.ParamStore(np.float32)
        init_model(store, ModelConfig(d=16, l_graph=1), TINY["data"]["gen"]["t"],
                   np.random.default_rng(0))
        store.save(paths["ckpt"], meta={"stage": "S2"})
        assert run("predict", "--config", cfg_path, "--checkpoint", str(paths["ckpt"]),
                   "--data", str(paths["data"]), "--out", str(paths["preds"])) == 0
        capsys.readouterr()
        forecasts = []
        monkeypatch.setattr(cli, "forecast", lambda *a, **k: forecasts.append(a) or [])
        argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in argv]
        assert run(argv[0], "--config", cfg_path, *argv[1:]) == 1
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert str(paths[bad]) in err and "Traceback" not in err
        assert out == "" and forecasts == []

    @pytest.mark.parametrize("argv", [
        ["predict", "--checkpoint", "{none}", "--data", "{none}", "--out", "{missing}"],
        ["eval", "--predictions", "{none}", "--data", "{none}", "--json-out", "{missing}"],
    ], ids=["predict", "eval"])
    def test_output_in_a_missing_directory_fails_first(self, tmp_path, cfg_path, capsys, argv):
        """The output path is checked before the inputs, which are missing too."""
        paths = {"none": tmp_path / "none", "missing": tmp_path / "none" / "out.json"}
        argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in argv]
        assert run(argv[0], "--config", cfg_path, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and str(paths["missing"]) in err

    @pytest.mark.parametrize("bad", ["dir", "missing"], ids=["out-dir", "out-in-a-missing-dir"])
    def test_ensemble_out_fails_before_the_fuse(self, tmp_path, capsys, monkeypatch, bad):
        paths = {"dir": tmp_path / "a_dir", "missing": tmp_path / "none" / "fused.json"}
        paths["dir"].mkdir()
        (tmp_path / "p.json").write_text(json.dumps([_record()]))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"model_id": "m", "alpha": 1.0,
                                         "prediction_file": "p.json"}]))
        fused = []
        monkeypatch.setattr(cli, "fuse", lambda *a, **k: fused.append(a) or [])
        assert run("ensemble", "--manifest", str(manifest), "--out", str(paths[bad])) == 1
        out, err = capsys.readouterr()
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot write ")
        assert str(paths[bad]) in err and "Traceback" not in err
        assert out == "" and fused == []


class TestUsageErrors:
    """A bad or missing argument is a user error: one line, exit 1. Exit
    code 2 belongs to a failed gradient check."""

    def usage_error(self, capsys, *argv):
        with pytest.raises(SystemExit) as e:
            run(*argv)
        assert e.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        return captured.err

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_grad_check_seed_names_the_flag(self, seed, capsys):
        assert "--seed" in self.usage_error(capsys, "grad-check", "--seed", seed)

    def test_train_without_arguments(self, capsys):
        assert "--config" in self.usage_error(capsys, "train")

    def test_no_subcommand(self, capsys):
        self.usage_error(capsys)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as e:
            run("grad-check", "--help")
        assert e.value.code == 0
        assert "--seed" in capsys.readouterr().out


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
        ("scene_id", _set("scene_id", None)),
        ("actor_id", _set("actor_id", 7)),
        ("actor_id", _set("actor_id", True)),
        ("targets", _set("targets", [[2, True]] * 6)),
    ], ids=["conf-k1", "conf-scalar", "targets-text", "traj-text", "traj-ragged",
            "conf-negative", "targets-k3", "targets-short", "conf-sum", "null-scene-id",
            "numeric-actor-id", "boolean-actor-id", "boolean-target"])
    def test_bad_prediction_field_is_user_error(self, data_dir, field, mutate, capsys):
        rec = _record()
        mutate(rec)
        preds = data_dir / "preds.json"
        preds.write_text(json.dumps([_record(), rec]))
        capsys.readouterr()
        assert run("eval", "--config", str(data_dir / "run.json"),
                   "--predictions", str(preds), "--data", str(data_dir / "data")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"predictions[1].{field}" in err

    def test_repeated_prediction_key_is_user_error(self, data_dir, tmp_path, capsys):
        """Two records for one actor: eval scored whichever came last."""
        far = _record()
        far["trajectories"] = [[[50.5, 51.0]] * 8] * 6
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps([far, _record()]))
        assert run("eval", "--config", str(data_dir / "run.json"),
                   "--predictions", str(preds), "--data", str(data_dir / "data")) == 1
        assert "predictions[1].actor_id" in capsys.readouterr().err
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"model_id": "m", "alpha": 1.0,
                                         "prediction_file": "preds.json"}]))
        assert run("ensemble", "--manifest", str(manifest),
                   "--out", str(tmp_path / "f.json")) == 1
        assert "predictions[1].actor_id" in capsys.readouterr().err

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

    @pytest.mark.parametrize("path, value, field", [
        (("actors", 0, "id"), None, "actors[0].id"),
        (("actors", 1, "id"), 7, "actors[1].id"),
        (("actors", 0, "id"), True, "actors[0].id"),
        (("lanes", 1, "id"), 1, "lanes[1].id"),
        (("actors", 0, "history", 2, 0), True, "actors[0].history"),
        (("lanes", 0, "centerline", 1, 0), "1e3", "lanes[0].centerline"),
    ], ids=["null-id", "numeric-id", "boolean-id", "numeric-lane-id", "boolean-number",
            "string-number"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_mistyped_scene_field_is_user_error(self, data_dir, tmp_path, command, path,
                                                value, field, capsys):
        """Ids are JSON strings and numbers JSON numbers: anything else
        exits 1 with one line naming the field."""
        data = tmp_path / "data"
        data.mkdir()
        scene = json.loads((data_dir / "data" / "scene000.json").read_text())
        node = scene
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        (data / "scene000.json").write_text(json.dumps(scene))
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps([_record()]))
        args = (["--data", str(data), "--out", str(tmp_path / "run")] if command == "train"
                else ["--data", str(data), "--predictions", str(preds)])
        capsys.readouterr()
        assert run(command, "--config", str(data_dir / "run.json"), *args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_unobserved_focal_actor_is_user_error(self, data_dir, tmp_path, command, capsys):
        data = tmp_path / "data"
        data.mkdir()
        scene = json.loads((data_dir / "data" / "scene000.json").read_text())
        assert scene["actors"][0]["focal"]
        scene["actors"][0]["observed"][-1] = False
        (data / "scene000.json").write_text(json.dumps(scene))
        preds = tmp_path / "preds.json"
        preds.write_text(json.dumps([_record()]))
        args = (["--data", str(data), "--out", str(tmp_path / "run")] if command == "train"
                else ["--data", str(data), "--predictions", str(preds)])
        capsys.readouterr()
        assert run(command, "--config", str(data_dir / "run.json"), *args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "actors[0].observed" in err

    @pytest.mark.parametrize("model_id",[None, 7, True, "m0"],
                             ids=["null", "numeric", "boolean", "repeated"])
    def test_mistyped_model_id_is_user_error(self, tmp_path, model_id, capsys):
        (tmp_path / "p.json").write_text(json.dumps([_record()]))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"model_id": "m0", "alpha": 1.0, "prediction_file": "p.json"},
            {"model_id": model_id, "alpha": 2.0, "prediction_file": "p.json"}]))
        assert run("ensemble", "--manifest", str(manifest),
                   "--out", str(tmp_path / "f.json")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "manifest[1].model_id" in err

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


class TestActorCap:
    """A scene file holds at most MAX_ACTORS actors, as a generated scene
    does; one more is a user error naming `actors` in every command that
    reads scenes."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("actor-cap")
        cfg = root / "run.json"
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"], "total_epochs": 2}}))
        assert run("gen-data", "--config", str(cfg), "--out", str(root / "gen")) == 0
        scene = json.loads((root / "gen" / "scene000.json").read_text())
        context = next(a for a in scene["actors"] if not a["focal"])
        for n in (MAX_ACTORS, MAX_ACTORS + 1):
            extra = [{**context, "id": f"c{i}"} for i in range(n - len(scene["actors"]))]
            (root / str(n)).mkdir()
            (root / str(n) / "scene000.json").write_text(
                json.dumps({**scene, "actors": scene["actors"] + extra}))
        store = dc.ParamStore(np.float32)
        init_model(store, ModelConfig(d=16, l_graph=1), TINY["data"]["gen"]["t"],
                   np.random.default_rng(0))
        store.save(root / "checkpoint.bin", meta={"stage": "S2"})
        return root

    def _commands(self, root, data, tmp_path):
        cfg, preds = str(root / "run.json"), str(tmp_path / "p.json")
        return [("train", "--config", cfg, "--data", data, "--out", str(tmp_path / "run")),
                ("predict", "--config", cfg, "--checkpoint", str(root / "checkpoint.bin"),
                 "--data", data, "--out", preds),
                ("eval", "--config", cfg, "--predictions", preds, "--data", data)]

    def test_max_actors_load(self, root, tmp_path, capsys):
        for argv in self._commands(root, str(root / str(MAX_ACTORS)), tmp_path):
            assert run(*argv) == 0, argv[0]
        assert "error" not in capsys.readouterr().err

    def test_one_actor_more_is_user_error(self, root, tmp_path, capsys):
        (tmp_path / "p.json").write_text("[]")
        for argv in self._commands(root, str(root / str(MAX_ACTORS + 1)), tmp_path):
            assert run(*argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: actors") and err.count("\n") == 1, err


class TestExtremeScenes:
    def test_predict_is_quiet_on_a_finite_but_extreme_scene(self, tmp_path, capsys):
        """An acceptance-c4 scene (default generator, seed 0) whose first
        context actor moves at 1e20 times its speed: `predict` exits 0 with
        finite forecasts and prints no numpy warning (tier-1 turns them into
        errors, and `main` would then exit 3)."""
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 0, "model": {"d": 32, "l_graph": 2}}))
        obj = json.loads(save_scene(generate_synthetic(SceneGenConfig(), 0)))
        for row in obj["actors"][1]["history"]:
            row[3:5] = [row[3] * 1e20, row[4] * 1e20]
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "scene000.json").write_text(json.dumps(obj))
        store = dc.ParamStore(np.float32)
        init_model(store, ModelConfig(d=32, l_graph=2), 15, np.random.default_rng(0))
        store.save(tmp_path / "checkpoint.bin", meta={"stage": "S2"})
        preds = tmp_path / "preds.json"
        assert run("predict", "--config", str(cfg), "--checkpoint",
                   str(tmp_path / "checkpoint.bin"), "--data", str(tmp_path / "data"),
                   "--out", str(preds)) == 0
        assert capsys.readouterr().err == ""
        (fc,) = load_predictions(preds.read_bytes())  # rejects non-finite numbers
        assert np.isfinite(fc.trajectories).all() and np.isfinite(fc.confidences).all()


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
