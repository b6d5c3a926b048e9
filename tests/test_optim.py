"""Optimizer and schedule: step-by-step oracle for the Nesterov-momentum
Adam variant, bit-identity of the flat update with the per-tensor active-set
update it replaced, the store's flat parameter buffer the optimizer steps,
restart schedule values, and the two-stage training loop."""

import inspect
import math
import warnings

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import metrics, optim
from lanecast.config import DataConfig, ModelConfig, RunConfig, TrainConfig
from lanecast.decoder import S1, S2, init_model, run_pipeline
from lanecast.errors import ContractError, TrainingError
from lanecast.scene import SceneGenConfig, generate_synthetic, normalize


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


class PerTensorNAdam:
    """The per-tensor NAdam with an explicit active set that the flat
    update replaced, kept as the reference for bit-identity."""

    def __init__(self, store, active):
        self.store = store
        self.active = list(active)
        self.t = 0
        self.mu_prod = 1.0
        self._m = {n: np.zeros_like(store[n].data) for n in self.active}
        self._v = {n: np.zeros_like(store[n].data) for n in self.active}

    def set_active(self, names):
        self.active = list(names)
        for n in self.active:
            if n not in self._m:
                self._m[n] = np.zeros_like(self.store[n].data)
                self._v[n] = np.zeros_like(self.store[n].data)

    def step(self, grads, lr):
        self.t += 1
        t = self.t
        mu_t, mu_next = optim._mu(t), optim._mu(t + 1)
        self.mu_prod *= mu_t
        mu_prod_next = self.mu_prod * mu_next
        bias_v = 1.0 - optim.BETA2 ** t
        for name in self.active:
            p = self.store[name]
            g = np.asarray(grads[name], dtype=p.dtype)
            m, v = self._m[name], self._v[name]
            m *= optim.BETA1
            m += (1.0 - optim.BETA1) * g
            v *= optim.BETA2
            v += (1.0 - optim.BETA2) * g * g
            denom = np.sqrt(v / bias_v) + optim.EPS
            step = (mu_next / (1.0 - mu_prod_next)) * m + \
                   ((1.0 - mu_t) / (1.0 - self.mu_prod)) * g
            p.data = p.data - (lr * step / denom).astype(p.dtype)


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_gradients_equal_a_late_joining_parameter(self, dtype):
        # "late" sits outside the reference's active set for k steps and
        # joins with fresh moments; the flat update sees zero gradients
        # for it instead. Odd sizes put every tensor off any SIMD boundary.
        rng = np.random.default_rng(2)
        shapes = {"early": (37, 19), "late": (5, 3, 7), "bias": (11,)}
        init = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
        ref_store, store = dc.ParamStore(dtype), dc.ParamStore(dtype)
        for n, v in init.items():
            ref_store.add(n, v.copy())
            store.add(n, v.copy())
        ref = PerTensorNAdam(ref_store, active=["early", "bias"])
        opt = optim.NAdam(store)
        k = 4
        for step in range(k + 6):
            if step == k:
                ref.set_active(ref_store.names())
            grads = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
            if step < k:
                grads["late"] = np.zeros(shapes["late"], dtype=dtype)
            lr = 1e-2 * (1 + step % 3)
            ref.step(grads, lr)
            opt.step(grads, lr)
            for n in shapes:
                np.testing.assert_array_equal(store[n].data, ref_store[n].data)
                assert store[n].dtype == dtype
        np.testing.assert_array_equal(store["late"].data != init["late"], True)

    def test_missing_gradient_names_the_param(self):
        store = dc.ParamStore(np.float64)
        store.add("a", np.zeros(2))
        store.add("b", np.zeros(2))
        with pytest.raises(ContractError, match="param b"):
            optim.NAdam(store).step({"a": np.zeros(2)}, lr=1e-3)

    def test_nonpositive_lr_rejected(self):
        store = dc.ParamStore(np.float64)
        store.add("a", np.zeros(2))
        with pytest.raises(ContractError):
            optim.NAdam(store).step({"a": np.zeros(2)}, lr=0.0)

    def test_grad_shape_mismatch_rejected(self):
        store = dc.ParamStore(np.float64)
        store.add("a", np.zeros(2))
        with pytest.raises(ContractError, match="param a"):
            optim.NAdam(store).step({"a": np.zeros(3)}, lr=1e-3)


def assert_views_of_the_buffer(store, arrays=None):
    """Every parameter's array is a view of the store's one buffer and, with
    `arrays`, still the very object it was before."""
    for i, name in enumerate(store.names()):
        data = store[name].data
        assert data.base is store.flat and np.shares_memory(data, store.flat), name
        if arrays is not None:
            assert data is arrays[i], name


def small_store(dtype, seed=4):
    rng = np.random.default_rng(seed)
    store = dc.ParamStore(dtype)
    for name, shape in (("w", (5, 3)), ("b", (3,)), ("s", ())):
        store.add(name, rng.normal(size=shape))
    return store


class TestFlatBuffer:
    """NAdam steps the store's one flat buffer: each parameter is a reshaped
    view of it, and a step writes the buffer in place instead of rebinding
    `.data`."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameters_stay_the_same_views_across_steps(self, dtype):
        store = small_store(dtype)
        before = {n: store[n].data.copy() for n in store.names()}
        opt = optim.NAdam(store)
        arrays = [store[n].data for n in store.names()]
        assert_views_of_the_buffer(store, arrays)
        for n in store.names():
            np.testing.assert_array_equal(store[n].data, before[n])
            assert store[n].data.dtype == dtype
        rng = np.random.default_rng(5)
        for _ in range(3):
            opt.step({n: rng.normal(size=store[n].shape).astype(dtype)
                      for n in store.names()}, lr=1e-2)
            assert_views_of_the_buffer(store, arrays)
        assert all((store[n].data != before[n]).all() for n in store.names())

    def test_trained_store_is_a_view_of_its_buffer(self):
        cfg = tiny_run_cfg(epochs=2)
        store, _, opt, _ = optim.train(scenes_for(cfg), cfg)
        assert opt.store is store
        assert_views_of_the_buffer(store)
        np.testing.assert_array_equal(
            np.concatenate([store[n].data.ravel() for n in store.names()]), store.flat)

    def test_empty_store_steps(self):
        store = dc.ParamStore(np.float32)
        opt = optim.NAdam(store)
        opt.step({}, lr=1e-3)
        assert store.flat.shape == (0,) and store.flat.dtype == np.float32
        assert opt.t == 1

    def test_two_optimizers_step_one_buffer(self):
        store = small_store(np.float64)
        first, second = optim.NAdam(store), optim.NAdam(store)
        arrays = [store[n].data for n in store.names()]
        before = store.flat.copy()
        ones = {n: np.ones(store[n].shape) for n in store.names()}
        first.step(ones, lr=1e-2)
        moved = store.flat.copy()
        second.step(ones, lr=1e-2)
        assert (moved != before).all() and (store.flat != moved).all()
        assert_views_of_the_buffer(store, arrays)

    def test_float64_gradients_round_once_on_a_float32_store(self):
        wide, narrow = small_store(np.float32), small_store(np.float32)
        opt_wide, opt_narrow = optim.NAdam(wide), optim.NAdam(narrow)
        arrays = [wide[n].data for n in wide.names()]
        rng = np.random.default_rng(6)
        for step in range(4):
            grads = {n: rng.normal(size=wide[n].shape) for n in wide.names()}
            opt_wide.step(grads, lr=1e-2)
            opt_narrow.step({n: g.astype(np.float32) for n, g in grads.items()}, lr=1e-2)
            assert wide.flat.tobytes() == narrow.flat.tobytes()
            assert_views_of_the_buffer(wide, arrays)
        for n in wide.names():
            assert wide[n].data.dtype == np.float32
            assert wide[n].data.tobytes() == narrow[n].data.tobytes()

    def test_active_names_and_step_signature(self):
        store = small_store(np.float64)
        opt = optim.NAdam(store)
        assert opt.active == store.names()
        assert list(inspect.signature(optim.NAdam.step).parameters) == ["self", "grads", "lr"]
        arrays = [store[n].data for n in store.names()]
        opt.step({n: np.ones(store[n].shape) for n in store.names()}, lr=1e-3)
        assert_views_of_the_buffer(store, arrays)


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
        sched = optim.LrSchedule(TrainConfig(total_epochs=100))
        with pytest.raises(ContractError):
            sched.lr_at(100)
        with pytest.raises(ContractError):
            sched.lr_at(-1)

    def test_extended_run_keeps_lr_min_tail(self):
        sched = optim.LrSchedule(TrainConfig(total_epochs=200))
        assert abs(sched.lr_at(150) - 1e-5) < 1e-12
        assert abs(sched.lr_at(199) - 1e-5) < 1e-12

    def test_schedule_uses_train_config(self):
        cfg = TrainConfig(lr_max=2e-3, lr_min=2e-5, total_epochs=120)
        sched = optim.LrSchedule(cfg)
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


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_train_minfde_reads_the_metric_definition(precision):
    """The minFDE a view's loss reports is the metric's: in stage two,
    `actor_metrics`' minFDE(6) on the same modes and ground truth; in stage
    one, the smallest final-point distance of the one-step modes."""
    cfg = tiny_run_cfg()
    cfg.train.precision = precision
    store = dc.ParamStore(precision)
    init_model(store, cfg.model, cfg.data.gen.t, np.random.default_rng(0))
    checked = 0
    for scene in scenes_for(cfg):
        for actor in scene.focal_actors():
            ns = normalize(scene, actor.id)
            i = ns.actor_index(actor.id)
            assert ns.has_future[i]
            for stage in (S1, S2):
                _, _, fde = optim._view_loss(scene, actor.id, store, cfg, stage)
                _, traj, logits = run_pipeline(ns, store, cfg.model, stage)
                modes, gt = traj.data[i].astype(np.float64), ns.future[i]
                if stage == S2:
                    conf = dc.softmax(logits).data[i].astype(np.float64)
                    want = metrics.actor_metrics(modes, conf, gt)["minFDE(6)"]
                else:
                    want = min(math.hypot(*(mode[-1] - gt[-1])) for mode in modes)
                assert fde == want, (scene.scene_id, actor.id, stage)
                checked += 1
    assert checked >= 6


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

    def test_non_finite_loss_names_epoch_and_view(self):
        cfg = tiny_run_cfg(epochs=4)
        cfg.train.lr_max = 1e30
        with np.errstate(all="ignore"), pytest.raises(
                TrainingError,
                match=r"non-finite loss at epoch \d+, view \(scene 's\d+', actor 'a\d+'\)"):
            optim.train(scenes_for(cfg), cfg)

    def test_divergence_warns_nothing_and_names_the_scene_id(self):
        cfg = tiny_run_cfg(epochs=4)
        cfg.train.lr_max = 1e30
        with warnings.catch_warnings(), pytest.raises(
                TrainingError, match=r"view \(scene 's00\d', actor 'a\d+'\)"):
            warnings.simplefilter("error")
            optim.train(scenes_for(cfg), cfg)

    def test_log_file_is_jsonl(self, tmp_path):
        import json
        cfg = tiny_run_cfg(epochs=2)
        path = tmp_path / "log.jsonl"
        optim.train(scenes_for(cfg), cfg, log_path=path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["epoch"] == 0
