"""Training walks each view's tape as soon as its loss is known, and
`forecast` records no tape: the per-view walks give the one walk's
gradients bit for bit, and the peak memory of a train step or a forecast
call does not grow with the views it covers."""

import gc
import tracemalloc

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import optim
from lanecast.config import DataConfig, ModelConfig, RunConfig, TrainConfig
from lanecast.decoder import S1, S2, forecast, init_model, run_pipeline
from lanecast.scene import SceneGenConfig, generate_synthetic, normalize

GEN = SceneGenConfig(n_lanes=4, n_actors=4, lane_length=80.0, h=8, t=10)


def _views(n_views, dtype, d=16, l_graph=2):
    gen = SceneGenConfig(n_lanes=2, n_actors=3, lane_length=60.0, h=8, t=10)
    scenes = [generate_synthetic(gen, 40 + i, scene_id=f"s{i}") for i in range(n_views)]
    cfg = RunConfig(model=ModelConfig(d=d, l_graph=l_graph))
    store = dc.ParamStore(dtype)
    init_model(store, cfg.model, gen.t, np.random.default_rng(5))
    return scenes, optim._scene_views(scenes)[:n_views], cfg, store


def chained_batch_grads(scenes, views, cfg, store, stage):
    """The step `optim.train` took before: every view loss chained with
    `add`, scaled by 1/B and walked once. Kept as the reference."""
    acc = None
    for si, aid in views:
        loss, _, _ = optim._view_loss(scenes[si], aid, store, cfg, stage)
        acc = loss if acc is None else dc.add(acc, loss)
    return dc.backward(dc.scale(acc, 1.0 / len(views)), dict(store.items()))


def per_view_grads(scenes, views, cfg, store, stage):
    """The step `optim.train` takes: one walk per view onto shared sums."""
    sums, grads = {}, None
    for si, aid in views:
        loss, _, _ = optim._view_loss(scenes[si], aid, store, cfg, stage)
        grads = dc.backward(dc.scale(loss, 1.0 / len(views)), dict(store.items()), into=sums)
    return grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stage", [S1, S2])
def test_per_view_walks_give_the_chained_walks_bytes(stage, dtype):
    scenes, views, cfg, store = _views(3, dtype)
    want = chained_batch_grads(scenes, views, cfg, store, stage)
    got = per_view_grads(scenes, views, cfg, store, stage)
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes(), name
    # the completion head is off the tape in stage one and still gets zeros
    assert (stage == S1) == (not np.any(got["dec.comp.l1.w"]))


def test_a_first_contribution_keeps_its_sign_bit():
    """-0.0 added to a zero array would come back +0.0."""
    w = dc.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    sums = {}
    grads = dc.backward(dc.sum(dc.scale(w, -0.0)), {"w": w}, into=sums)
    assert np.signbit(grads["w"]).all() and np.signbit(sums["w"]).all()


def test_into_adds_onto_earlier_sums_and_leaves_unreached_names_out():
    rng = np.random.default_rng(0)
    w = dc.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    u = dc.Tensor(rng.normal(size=2), requires_grad=True)
    x = dc.Tensor(rng.normal(size=(4, 3)))
    sums = {}
    first = dc.backward(dc.sum(dc.matmul(x, w)), {"w": w, "u": u}, into=sums)
    assert set(sums) == {"w"} and not first["u"].any()
    kept = first["w"].copy()
    second = dc.backward(dc.sum(dc.add(dc.matmul(x, w), u)), {"w": w, "u": u}, into=sums)
    np.testing.assert_array_equal(second["w"], kept + kept)
    np.testing.assert_array_equal(second["u"], np.full(2, 4.0))
    np.testing.assert_array_equal(first["w"], kept)  # the walk wrote no earlier array
    assert set(sums) == {"w", "u"}


def _traced_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _one_step_cfg(batch):
    # one epoch over `batch` views: one NAdam step
    return RunConfig(data=DataConfig(n_scenes=batch, gen=GEN),
                     model=ModelConfig(d=32, l_graph=2),
                     train=TrainConfig(batch_size=batch, total_epochs=1, stage2_start_epoch=1,
                                       periods=(1,)))


def test_a_train_steps_peak_does_not_grow_with_the_batch():
    peaks = {}
    for batch in (1, 4):
        scenes = [generate_synthetic(GEN, 70 + i, scene_id=f"s{i}") for i in range(batch)]
        peaks[batch] = _traced_peak(lambda: optim.train(scenes, _one_step_cfg(batch)))
    assert peaks[1] > 1_000_000  # a real tape, not a fixture that holds nothing
    assert peaks[4] <= 1.5 * peaks[1], peaks


def test_a_forecasts_peak_does_not_grow_with_the_focal_actors():
    cfg = ModelConfig(d=32, l_graph=2)
    store = dc.ParamStore(np.float32)
    init_model(store, cfg, GEN.t, np.random.default_rng(3))
    peaks = {}
    for n_focal in (1, 4):
        scene = generate_synthetic(GEN, 9, scene_id="f")
        for i, actor in enumerate(scene.actors):
            actor.focal = i < n_focal
        out = []
        peaks[n_focal] = _traced_peak(lambda: out.extend(forecast(scene, store, cfg)))
        assert len(out) == n_focal
        if n_focal == 1:
            # the same view's forward with its tape kept: what forecast no longer holds
            view = normalize(scene, scene.focal_actors()[0].id)
            kept = []
            taped = _traced_peak(lambda: kept.append(run_pipeline(view, store, cfg)))
            assert kept[0][1]._edges
    assert peaks[1] <= 0.3 * taped, (peaks, taped)
    assert peaks[4] <= 1.3 * peaks[1], peaks
