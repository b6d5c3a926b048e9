"""Forward-only passes run on the store's constants: `forecast` and the
finite differences of `grad_check` record no tape, see every in-place write
to a parameter's array, and give the taped passes' bytes."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import verify
from lanecast.config import ModelConfig, RunConfig, TrainConfig
from lanecast.decoder import (S1, S2, Forecast, forecast, init_model, run_pipeline,
                              save_predictions)
from lanecast.diffcore import tensor
from lanecast.losses import total_loss
from lanecast.optim import train
from lanecast.scene import (MAX_ACTORS, SceneGenConfig, generate_synthetic, load_scene,
                            normalize, save_scene, to_world)

GEN = SceneGenConfig(n_lanes=2, n_actors=4, lane_length=60.0, h=6, t=8)


def _model(dtype, cfg=ModelConfig(d=16, l_graph=2), t=GEN.t):
    store = dc.ParamStore(dtype)
    init_model(store, cfg, t, np.random.default_rng(2))
    return cfg, store


def taped_forecast(scene, store, cfg, stage):
    """`forecast` on the parameters themselves: every actor's pass records
    its tape, as it did before forecasts ran on constants."""
    out = []
    for actor in scene.focal_actors():
        ns = normalize(scene, actor.id)
        idx = ns.actor_index(actor.id)
        targets, traj, logits = run_pipeline(ns, store, cfg, stage)
        assert traj._edges
        out.append(Forecast(
            scene_id=scene.scene_id, actor_id=actor.id,
            targets=to_world(ns, targets.data[idx].astype(np.float64)),
            trajectories=to_world(ns, traj.data[idx].astype(np.float64)),
            confidences=dc.softmax(logits).data[idx].astype(np.float64)))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stage", [S1, S2])
def test_forecast_gives_the_taped_passes_bytes(stage, dtype):
    cfg, store = _model(dtype)
    for seed in range(2):
        scene = generate_synthetic(GEN, seed)
        for actor in scene.actors[:3]:
            actor.focal = True
        got = save_predictions(forecast(scene, store, cfg, stage))
        assert got == save_predictions(taped_forecast(scene, store, cfg, stage))


@pytest.mark.parametrize("stage", [S1, S2])
def test_no_output_of_a_forward_only_pass_has_edges(stage, monkeypatch):
    cfg, store = _model(np.float32)
    scene = generate_synthetic(GEN, 0)
    ns = normalize(scene, scene.focal_actors()[0].id)
    made, make = [], tensor._make
    monkeypatch.setattr(tensor, "_make", lambda *a: made.append(make(*a)) or made[-1])

    def pass_on(params):
        made.clear()
        targets, traj, logits = run_pipeline(ns, params, cfg, stage)
        return total_loss(targets, traj, logits, ns.future, ns.has_future,
                          ns.observed[:, -1])[0]

    pass_on(store)
    assert sum(bool(t._edges) for t in made) > 100  # the taped pass records its ops
    pass_on(store.constants())
    assert len(made) > 100
    assert not any(t._edges or t.requires_grad or t.op for t in made)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_write_to_a_store_array_shows_through_the_view(dtype):
    cfg, store = _model(dtype)
    params = store.constants()
    assert list(params) == store.names()
    for name, t in store.items():
        assert params[name].data is t.data and not params[name].requires_grad
    scene = generate_synthetic(GEN, 1)
    ns = normalize(scene, scene.focal_actors()[0].id)
    before = run_pipeline(ns, params, cfg)[1].data.tobytes()
    flat = store["dec.head.l2.b"].data.reshape(-1)
    flat[0] += 1.0
    after = run_pipeline(ns, params, cfg)[1].data.tobytes()
    assert after != before
    assert after == run_pipeline(ns, store, cfg)[1].data.tobytes()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("block, check", verify.ALL_CHECKS, ids=[b for b, _ in verify.ALL_CHECKS])
def test_grad_check_reports_equal_finite_differences_on_the_taped_store(
        block, check, seed, monkeypatch):
    got = check(seed=seed)
    # the reference runs every finite difference on the parameters themselves
    monkeypatch.setattr(dc.ParamStore, "constants", lambda self: self)
    want = check(seed=seed)
    assert repr(got) == repr(want)


def packed_scene(n_actors=MAX_ACTORS):
    """One focal actor and n_actors - 1 others within 20 m x 10 m beside one
    40 m lane, H=4: every actor pair is within the actor attention radius."""
    gen = SceneGenConfig(n_lanes=1, lane_length=40.0, n_actors=2, h=4, t=3)
    obj = json.loads(save_scene(generate_synthetic(gen, 0)))
    rng = np.random.default_rng(0)
    others = []
    for i in range(n_actors - 1):
        x, y = rng.uniform(0.0, 20.0), rng.uniform(-5.0, 5.0)
        others.append({"id": f"c{i}", "kind": "vehicle", "observed": [True] * 4,
                       "history": [[x + 0.5 * s, y, 0.0, 5.0, 0.0] for s in range(4)],
                       "future": None, "focal": False})
    obj["actors"] = obj["actors"][:1] + others
    return load_scene(json.dumps(obj), scene_id="packed")


def test_forecast_peak_at_max_actors_stays_under_a_ceiling():
    scene = packed_scene()
    assert len(scene.actors) == MAX_ACTORS and len(scene.focal_actors()) == 1
    cfg, store = _model(np.float32, ModelConfig(), t=3)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = forecast(scene, store, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(out) == 1
    # 92 MB measured; a taped pass held 197 MB
    assert peak <= 120e6, peak


def test_train_step_peak_at_max_actors_stays_under_a_ceiling():
    # `train` still records one view's tape, so its peak is the taped pass's
    # plus the walk; this holds it while a pair budget at load is open
    scene = packed_scene()
    cfg = RunConfig(model=ModelConfig(), train=TrainConfig(batch_size=1, total_epochs=1))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, records, opt, _ = train([scene], cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(records) == 1 and opt.t == 1
    # 217 MB measured
    assert peak <= 240e6, peak
