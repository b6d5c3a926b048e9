"""The shared-pair decoder path against the two-path reference it replaced.

The reference below encodes every target twice (once for the confidence
head, once again for the completion head), returns no trajectories in stage
one and takes the stage as an argument of the loss. The library builds the
(actor ++ encoded target) pair rows once and returns stage one as one-step
trajectories. Forward values must agree to the bit; stage-two gradients
sum the two heads' contributions in another order, so they agree to within
float64 rounding.
"""

import numpy as np
import pytest

from lanecast import decoder, losses
from lanecast import diffcore as dc
from lanecast import scene as sc
from lanecast._layers import linear
from lanecast.config import ModelConfig
from lanecast.encoder import encode_actors, encode_boundaries, encode_lane_nodes
from lanecast.fusion import fuse_scene

T = 5


def reference_complete(actor_f, targets, store, cfg, t):
    """Completion that encodes the targets again, as a separate pair set."""
    a, k = actor_f.shape[0], cfg.k_modes
    g = dc.reshape(targets, (a * k, 2))
    h = dc.relu(linear(store, "dec.tenc.l1", dc.scale(g, cfg.input_scale)))
    enc = linear(store, "dec.tenc.l2", h)
    per_mode = dc.gather(actor_f, np.repeat(np.arange(a), k), axis=0)
    h = dc.relu(linear(store, "dec.comp.l1", dc.concat([per_mode, enc], axis=1)))
    body = dc.reshape(dc.scale(linear(store, "dec.comp.l2", h), cfg.output_scale),
                      (a * k, t - 1, 2))
    full = dc.concat([body, dc.reshape(g, (a * k, 1, 2))], axis=1)
    return dc.reshape(full, (a, k, t, 2))


def reference_pipeline(ns, store, cfg, stage):
    """(targets, trajectories or None in S1, logits)."""
    actor_f, actor_pos = encode_actors(ns, store, cfg)
    lane_f = encode_lane_nodes(ns.lane_graph, store, cfg)
    bound_f, bound_pos, matched = encode_boundaries(ns, store, cfg)
    fused = fuse_scene(actor_f, actor_pos, lane_f, ns.lane_graph.centers,
                       bound_f, bound_pos, matched, store, cfg)
    targets, logits, _ = decoder.predict_targets(fused, store, cfg)
    traj = None
    if stage == decoder.S2:
        traj = reference_complete(fused, targets, store, cfg, ns.horizon[1])
    return targets, traj, logits


def reference_loss(targets, traj, logits, gt_futures, last_observed, stage):
    """The staged loss: endpoints alone in S1, whole futures in S2."""
    a, k = targets.shape[0], targets.shape[1]
    has_gt = np.array([g is not None for g in gt_futures], dtype=bool)
    gt_end = np.zeros((a, 2))
    for i, g in enumerate(gt_futures):
        if g is not None:
            gt_end[i] = np.asarray(g)[-1]
    if stage == decoder.S1:
        gt_ref = gt_end[:, None, :]
        modes = dc.reshape(targets, (a, k, 1, 2))
    else:
        gt_ref = np.stack([np.asarray(g) if g is not None else np.zeros((traj.shape[2], 2))
                           for g in gt_futures])
        modes = traj
    kept = np.flatnonzero(has_gt & losses.conf_filter(targets.data, gt_end))
    c_hat = losses.gt_confidence(dc.gather(modes, kept, axis=0), gt_ref[kept])
    conf = dc.gather(dc.softmax(logits), kept, axis=0)
    total = dc.scale(losses.confidence_loss(conf, c_hat), 1.0 / max(kept.size, 1))
    reg_mask = has_gt & np.asarray(last_observed, dtype=bool)
    target_term, _, winners = losses.target_loss(targets, gt_end, reg_mask)
    total = dc.add(total, target_term)
    if stage == decoder.S2:
        total = dc.add(total, losses.trajectory_loss(traj, gt_ref, reg_mask, winners)[0])
    return total


def packed(gt):
    """A list of [T, 2] futures or None -> the [A, T, 2] futures and the [A]
    mask that total_loss takes."""
    return (np.stack([np.zeros((T, 2)) if g is None else g for g in gt]),
            np.array([g is not None for g in gt]))


def reference_forecast(scene, store, cfg, stage):
    out = []
    for actor in scene.focal_actors():
        ns = sc.normalize(scene, actor.id)
        idx = next(i for i, a in enumerate(ns.actors) if a.id == actor.id)
        targets, traj, logits = reference_pipeline(ns, store, cfg, stage)
        g = targets.data[idx]
        s = traj.data[idx] if traj is not None else g[:, None, :]
        out.append(decoder.Forecast(
            scene_id=scene.scene_id, actor_id=actor.id,
            targets=sc.to_world(ns, g.astype(np.float64)),
            trajectories=sc.to_world(ns, s.astype(np.float64)),
            confidences=dc.softmax(logits).data[idx].astype(np.float64)))
    return out


def _model(k_modes, dtype, seed):
    cfg = ModelConfig(d=16, l_graph=1, k_modes=k_modes)
    store = dc.ParamStore(dtype)
    rng = np.random.default_rng(seed)
    decoder.init_model(store, cfg, T, rng)
    for name, t in store.items():  # biases off zero so every path carries gradient
        if name.endswith(".b"):
            t.data = (t.data + rng.normal(0.0, 0.1, t.shape)).astype(dtype)
    return cfg, store


def _scene(seed):
    gen = sc.SceneGenConfig(n_lanes=2, lane_length=50.0, n_actors=4, h=6, t=T,
                            noise_sigma=0.05, lane_change_prob=0.5)
    scene = sc.generate_synthetic(gen, seed)
    return sc.normalize(scene, scene.focal_actors()[0].id)


def _ground_truth(ns, targets, seed):
    """Futures moved so their endpoints lie within a meter of one predicted
    target, so the 2 m filter keeps those actors; the last actor's future
    stays where it is, and the second has none."""
    rng = np.random.default_rng(seed)
    k = targets.shape[1]
    gt = []
    for i, fut in enumerate(ns.future):
        if i < len(ns.actors) - 1:
            fut = fut - fut[-1] + targets[i, i % k] + rng.uniform(-0.7, 0.7, 2)
        gt.append(None if i == 1 else fut)
    return gt, ns.observed[:, -1].copy()


def _loss_and_grads(stage, k_modes, dtype, seed, reference):
    cfg, store = _model(k_modes, dtype, seed)
    ns = _scene(seed)
    targets, _, _ = decoder.run_pipeline(ns, store, cfg, decoder.S1)
    gt, last_obs = _ground_truth(ns, targets.data.astype(np.float64), seed)
    if reference:
        targets, traj, logits = reference_pipeline(ns, store, cfg, stage)
        loss = reference_loss(targets, traj, logits, gt, last_obs, stage)
    else:
        targets, traj, logits = decoder.run_pipeline(ns, store, cfg, stage)
        loss, bd = losses.total_loss(targets, traj, logits, *packed(gt), last_obs)
        assert bd.stage == stage and bd.n_conf_kept > 0
    return loss.data, dc.backward(loss, dict(store.items()))


@pytest.mark.parametrize("k_modes", [6, 3])
@pytest.mark.parametrize("seed", range(3))
def test_stage_two_matches_reference_within_rounding(k_modes, seed):
    loss, grads = _loss_and_grads(decoder.S2, k_modes, np.float64, seed, reference=False)
    r_loss, r_grads = _loss_and_grads(decoder.S2, k_modes, np.float64, seed, reference=True)
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(loss, r_loss, **close)
    assert set(grads) == set(r_grads)
    for name in grads:
        np.testing.assert_allclose(grads[name], r_grads[name], err_msg=name, **close)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k_modes", [6, 3])
@pytest.mark.parametrize("seed", range(3))
def test_stage_one_matches_reference_bit_for_bit(dtype, k_modes, seed):
    loss, grads = _loss_and_grads(decoder.S1, k_modes, dtype, seed, reference=False)
    r_loss, r_grads = _loss_and_grads(decoder.S1, k_modes, dtype, seed, reference=True)
    np.testing.assert_array_equal(loss, r_loss)
    for name in grads:
        np.testing.assert_array_equal(grads[name], r_grads[name], err_msg=name)


@pytest.mark.parametrize("stage", [decoder.S1, decoder.S2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k_modes", [6, 3])
def test_forecast_bytes_match_reference(stage, dtype, k_modes):
    cfg, store = _model(k_modes, dtype, seed=4)
    gen = sc.SceneGenConfig(n_lanes=2, lane_length=50.0, n_actors=4, h=6, t=T)
    for seed in range(2):
        scene = sc.generate_synthetic(gen, seed)
        scene.actors[1].focal = True
        got = decoder.save_predictions(decoder.forecast(scene, store, cfg, stage))
        want = decoder.save_predictions(reference_forecast(scene, store, cfg, stage))
        assert got == want
