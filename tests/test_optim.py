"""Optimizer and schedule: step-by-step oracle for the Nesterov-momentum
Adam variant, restart schedule values, active-set freezing, and the
two-stage training loop."""

import math

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import optim
from lanecast.config import DataConfig, ModelConfig, RunConfig, TrainConfig
from lanecast.errors import ContractError
from lanecast.scene import SceneGenConfig, generate_synthetic


def nadam_reference(thetas, grads_seq, lr):
    """Independent scalar-loop implementation of the update rule."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    mu = lambda t: b1 * (1 - 0.5 * 0.96 ** (t / 250.0))
    m = [np.zeros_like(p) for p in thetas]
    v = [np.zeros_like(p) for p in thetas]
    out = [p.copy() for p in thetas]
    mu_prod = 1.0
    for t, grads in enumerate(grads_seq, start=1):
        mu_t, mu_n = mu(t), mu(t + 1)
        mu_prod *= mu_t
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat = mu_n * m[i] / (1 - mu_prod * mu_n) + (1 - mu_t) * g / (1 - mu_prod)
            out[i] = out[i] - lr * mhat / (np.sqrt(v[i] / (1 - b2 ** t)) + eps)
    return out


class TestNAdam:
    def test_matches_reference_over_many_steps(self):
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (4,), (2, 2)]
        init = [rng.normal(size=s) for s in shapes]
        store = dc.ParamStore(np.float64)
        for i, p in enumerate(init):
            store.add(f"p{i}", p.copy())
        opt = optim.NAdam(store)
        grads_seq = [[rng.normal(size=s) for s in shapes] for _ in range(25)]
        for grads in grads_seq:
            opt.step({f"p{i}": g for i, g in enumerate(grads)}, lr=1e-2)
        want = nadam_reference(init, grads_seq, lr=1e-2)
        for i in range(3):
            np.testing.assert_allclose(store[f"p{i}"].data, want[i],
                                       rtol=1e-12, atol=1e-12)

    def test_frozen_params_never_move(self):
        rng = np.random.default_rng(1)
        store = dc.ParamStore(np.float64)
        store.add("live", rng.normal(size=(2, 2)))
        store.add("frozen", rng.normal(size=(2, 2)))
        before = store["frozen"].data.copy()
        opt = optim.NAdam(store, active=["live"])
        for _ in range(5):
            opt.step({"live": np.ones((2, 2)), "frozen": np.ones((2, 2))}, lr=1e-2)
        np.testing.assert_array_equal(store["frozen"].data, before)

    def test_set_active_starts_fresh_accumulators(self):
        store = dc.ParamStore(np.float64)
        store.add("a", np.zeros(2))
        store.add("b", np.zeros(2))
        opt = optim.NAdam(store, active=["a"])
        opt.step({"a": np.ones(2)}, lr=1e-3)
        opt.set_active(["a", "b"])
        assert np.all(opt._m["b"] == 0.0)
        opt.step({"a": np.ones(2), "b": np.ones(2)}, lr=1e-3)

    def test_nonpositive_lr_rejected(self):
        store = dc.ParamStore(np.float64)
        store.add("a", np.zeros(2))
        with pytest.raises(ContractError):
            optim.NAdam(store).step({"a": np.zeros(2)}, lr=0.0)

    def test_grad_shape_mismatch_rejected(self):
        store = dc.ParamStore(np.float64)
        store.add("a", np.zeros(2))
        with pytest.raises(ContractError):
            optim.NAdam(store).step({"a": np.zeros(3)}, lr=1e-3)


class TestLrSchedule:
    def test_restart_epochs_hit_lr_max(self):
        sched = optim.LrSchedule()
        for e in (0, 6, 18, 42):
            assert abs(sched.lr_at(e) - 1e-3) < 1e-12

    def test_midpoint_of_first_period(self):
        # cos(pi/2) midpoint: lr_min + (lr_max - lr_min)/2 exactly
        assert abs(optim.LrSchedule().lr_at(3) - 5.05e-4) < 1e-12

    def test_tail_rides_at_lr_min(self):
        sched = optim.LrSchedule()
        for e in range(90, 100):
            assert abs(sched.lr_at(e) - 1e-5) < 1e-12

    def test_periods_span_90_epochs(self):
        assert sum(optim.LrSchedule().periods) == 90

    def test_monotone_decay_within_each_period(self):
        sched = optim.LrSchedule()
        for start, length in zip((0, 6, 18, 42), (6, 12, 24, 48)):
            vals = [sched.lr_at(e) for e in range(start, start + length)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_rejected(self):
        sched = optim.LrSchedule(total_epochs=100)
        with pytest.raises(ContractError):
            sched.lr_at(100)
        with pytest.raises(ContractError):
            sched.lr_at(-1)

    def test_extended_run_keeps_lr_min_tail(self):
        sched = optim.LrSchedule(total_epochs=200)
        assert abs(sched.lr_at(150) - 1e-5) < 1e-12
        assert abs(sched.lr_at(199) - 1e-5) < 1e-12

    def test_make_schedule_uses_train_config(self):
        cfg = TrainConfig(lr_max=2e-3, lr_min=2e-5, total_epochs=120)
        sched = optim.make_schedule(cfg)
        assert abs(sched.lr_at(0) - 2e-3) < 1e-15
        assert abs(sched.lr_at(95) - 2e-5) < 1e-15


def tiny_run_cfg(seed=3, epochs=8):
    gen = SceneGenConfig(n_lanes=2, lane_length=50.0, n_actors=2, h=6, t=4,
                         noise_sigma=0.05)
    return RunConfig(seed=seed,
                     data=DataConfig(n_scenes=3, gen=gen),
                     model=ModelConfig(d=8, l_graph=1),
                     train=TrainConfig(batch_size=2, total_epochs=epochs))


def scenes_for(cfg):
    return [generate_synthetic(cfg.data.gen, cfg.seed + i, scene_id=f"s{i:03d}")
            for i in range(cfg.data.n_scenes)]


class TestTrainLoop:
    def test_stage_switch_and_record_shape(self):
        cfg = tiny_run_cfg()
        store, records, opt, _ = optim.train(scenes_for(cfg), cfg)
        assert len(records) == 8
        for r in records[:6]:
            assert r["stage"] == "S1"
            assert "traj" not in r
        for r in records[6:]:
            assert r["stage"] == "S2"
            assert "traj" in r
        assert list(records[0]) == ["epoch", "lr", "stage", "conf", "target",
                                    "total", "minFDE6"]
        assert list(records[7]) == ["epoch", "lr", "stage", "conf", "target",
                                    "traj", "total", "minFDE6"]

    def test_completion_frozen_in_stage_one(self):
        cfg = tiny_run_cfg(epochs=3)
        scenes = scenes_for(cfg)
        store, _, _, _ = optim.train(scenes, cfg)
        fresh = dc.ParamStore(store.dtype)
        from lanecast.decoder import init_model
        init_model(fresh, cfg.model, scenes[0].horizon[1],
                   np.random.default_rng(cfg.seed))
        for name in fresh.names():
            if name.startswith("dec.comp."):
                np.testing.assert_array_equal(store[name].data, fresh[name].data)
            elif name.startswith("dec.head."):
                assert np.abs(store[name].data - fresh[name].data).max() > 0

    def test_deterministic_repeat(self):
        cfg = tiny_run_cfg()
        s1, r1, _, _ = optim.train(scenes_for(cfg), cfg)
        s2, r2, _, _ = optim.train(scenes_for(cfg), cfg)
        assert r1 == r2
        for name in s1.names():
            np.testing.assert_array_equal(s1[name].data, s2[name].data)

    def test_loss_decreases_on_the_whole(self):
        cfg = tiny_run_cfg(epochs=6)
        _, records, _, _ = optim.train(scenes_for(cfg), cfg)
        assert records[-1]["total"] < records[0]["total"]

    def test_log_file_is_jsonl(self, tmp_path):
        import json
        cfg = tiny_run_cfg(epochs=2)
        path = tmp_path / "log.jsonl"
        optim.train(scenes_for(cfg), cfg, log_path=path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["epoch"] == 0
