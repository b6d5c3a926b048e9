"""The stacked K-mode decoder and the all-actor confidence loss against a
per-mode, per-actor reference built here from the same parameters, plus
guards, one per stage, that the op count of one forward does not grow with
K and stays within the current count."""

import numpy as np
import pytest

from lanecast import decoder, losses
from lanecast import diffcore as dc
from lanecast import scene as sc
from lanecast.config import ModelConfig
from lanecast.diffcore import tensor

T = 4


def _linear(x, w, b=None):
    y = dc.matmul(x, w)
    return y if b is None else dc.add(y, b)


def _encode_target(store, g, cfg):
    h = dc.relu(_linear(dc.scale(g, cfg.input_scale),
                        store["dec.tenc.l1.w"], store["dec.tenc.l1.b"]))
    return _linear(h, store["dec.tenc.l2.w"], store["dec.tenc.l2.b"])


def reference_targets(af, store, cfg):
    """One head per mode, sliced out of the stacked weights."""
    a, d = af.shape[0], cfg.d
    targets, logits = [], []
    for k in range(cfg.k_modes):
        cols = np.arange(k * d, (k + 1) * d)
        w1 = dc.gather(store["dec.head.l1.w"], cols, axis=1)
        b1 = dc.gather(store["dec.head.l1.b"], cols, axis=0)
        w2 = dc.reshape(dc.gather(store["dec.head.l2.w"], [k], axis=0), (d, 2))
        b2 = dc.reshape(dc.gather(store["dec.head.l2.b"], [k], axis=0), (2,))
        g = dc.scale(_linear(dc.relu(_linear(af, w1, b1)), w2, b2), cfg.output_scale)
        pair = dc.concat([af, _encode_target(store, g, cfg)], axis=1)
        ch = dc.relu(_linear(pair, store["dec.conf.l1.w"], store["dec.conf.l1.b"]))
        logits.append(_linear(ch, store["dec.conf.l2.w"]))
        targets.append(dc.reshape(g, (a, 1, 2)))
    return dc.concat(targets, axis=1), dc.concat(logits, axis=1)


def reference_trajectories(af, targets, store, cfg):
    a, k = af.shape[0], cfg.k_modes
    flat = dc.reshape(targets, (a * k, 2))
    modes = []
    for j in range(k):
        g = dc.gather(flat, np.arange(a) * k + j, axis=0)
        pair = dc.concat([af, _encode_target(store, g, cfg)], axis=1)
        h = dc.relu(_linear(pair, store["dec.comp.l1.w"], store["dec.comp.l1.b"]))
        body = dc.scale(_linear(h, store["dec.comp.l2.w"], store["dec.comp.l2.b"]),
                        cfg.output_scale)
        full = dc.concat([dc.reshape(body, (a, T - 1, 2)), dc.reshape(g, (a, 1, 2))], axis=1)
        modes.append(dc.reshape(full, (a, 1, T, 2)))
    return dc.concat(modes, axis=1)


def reference_loss(targets, traj, logits, gt, last_obs, stage):
    """Confidence KL actor by actor and mode by mode; the regression terms
    come from the library's target_loss and trajectory_loss."""
    a, k = logits.shape
    conf = dc.softmax(logits)
    modes = dc.reshape(targets, (a, k, 1, 2)) if stage == losses.S1 else traj
    steps = modes.shape[2]
    kls = []
    for i in range(a):
        if gt[i] is None:
            continue
        end = np.asarray(gt[i])[-1]
        if np.hypot(*(targets.data[i] - end).T).min() > losses.CONF_FILTER_METERS:
            continue
        ref = end[None, :] if stage == losses.S1 else np.asarray(gt[i])
        actor = dc.reshape(dc.gather(modes, [i], axis=0), (k, steps, 2))
        disp = []
        for j in range(k):
            path = dc.reshape(dc.gather(actor, [j], axis=0), (steps, 2))
            dist = dc.l2_norm_rows(dc.sub(path, dc.Tensor(ref)))
            disp.append(dc.reshape(dc.max(dist, axis=0), (1,)))
        c_hat = dc.softmax(dc.scale(dc.concat(disp, axis=0), -1.0))
        row = dc.reshape(dc.gather(conf, [i], axis=0), (k,))
        kls.append(dc.sum(dc.mul(c_hat, dc.sub(dc.log(c_hat), dc.log(row)))))
    total = dc.Tensor(np.zeros(()))
    for kl in kls:
        total = dc.add(total, dc.scale(kl, 1.0 / len(kls)))
    gt_end = np.stack([np.asarray(g)[-1] if g is not None else np.zeros(2) for g in gt])
    mask = np.array([g is not None for g in gt]) & last_obs
    target_term, _, winners = losses.target_loss(targets, gt_end, mask)
    total = dc.add(total, target_term)
    if stage == losses.S2:
        gt_full = np.stack([g if g is not None else np.zeros((T, 2)) for g in gt])
        total = dc.add(total, losses.trajectory_loss(traj, gt_full, mask, winners)[0])
    return total, len(kls)


def packed(gt):
    """A list of [T, 2] futures or None -> the [A, T, 2] futures and the [A]
    mask that total_loss takes."""
    return (np.stack([np.zeros((T, 2)) if g is None else g for g in gt]),
            np.array([g is not None for g in gt]))


def _fixture(k_modes, seed=3):
    """Five actors: two kept by the 2 m filter, one kept but not observed
    at the last history step, one dropped by the filter, one without
    ground truth."""
    cfg = ModelConfig(d=8, l_graph=1, k_modes=k_modes)
    rng = np.random.default_rng(seed)
    store = dc.ParamStore(np.float64)
    decoder.init_decoder(store, cfg, rng)
    decoder.init_completion(store, cfg, rng, T)
    for name, t in store.items():  # biases off zero so every path carries gradient
        if name.endswith(".b"):
            t.data = t.data + rng.normal(0.0, 0.1, t.shape)
    store.add("actor_f", rng.normal(size=(5, cfg.d)))
    targets = decoder.predict_targets(store["actor_f"], store, cfg)[0].data
    ends = [targets[0, 0] + [0.3, -0.2], [80.0, -80.0], None,
            targets[3, -1] + [0.1, 0.1], targets[4, k_modes // 2] + [-1.0, 1.2]]
    gt = [None if e is None else np.concatenate([rng.normal(size=(T - 1, 2)) * 3, [e]])
          for e in ends]
    last_obs = np.array([True, True, True, False, True])
    return cfg, store, gt, last_obs


@pytest.mark.parametrize("stage", [decoder.S1, decoder.S2])
@pytest.mark.parametrize("k_modes", [6, 3])
def test_stacked_decoder_and_batched_loss_match_reference(stage, k_modes):
    cfg, store, gt, last_obs = _fixture(k_modes)
    params = dict(store.items())

    af = store["actor_f"]
    targets, logits, pairs = decoder.predict_targets(af, store, cfg)
    if stage == decoder.S2:
        traj = decoder.complete_trajectories(pairs, targets, store, cfg, T)
    else:
        traj = dc.reshape(targets, (*targets.shape[:2], 1, 2))
    loss, bd = losses.total_loss(targets, traj, logits, *packed(gt), last_obs)

    r_targets, r_logits = reference_targets(af, store, cfg)
    r_traj = reference_trajectories(af, r_targets, store, cfg) if stage == decoder.S2 else None
    r_loss, r_kept = reference_loss(r_targets, r_traj, r_logits, gt, last_obs, stage)

    assert bd.n_conf_kept == r_kept == 3
    close = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(targets.data, r_targets.data, **close)
    np.testing.assert_allclose(logits.data, r_logits.data, **close)
    if stage == decoder.S2:
        np.testing.assert_allclose(traj.data, r_traj.data, **close)
    np.testing.assert_allclose(float(loss.data), float(r_loss.data), **close)
    grads, r_grads = dc.backward(loss, params), dc.backward(r_loss, params)
    for name in params:
        if stage == decoder.S1 and name.startswith("dec.comp."):
            assert not grads[name].any()
        np.testing.assert_allclose(grads[name], r_grads[name], err_msg=name, **close)


def test_no_actor_kept_gives_zero_confidence_term():
    cfg, store, gt, last_obs = _fixture(6)
    gt = [None if g is None else g + 500.0 for g in gt]
    targets, logits, _ = decoder.predict_targets(store["actor_f"], store, cfg)
    traj = dc.reshape(targets, (*targets.shape[:2], 1, 2))
    loss, bd = losses.total_loss(targets, traj, logits, *packed(gt), last_obs)
    assert bd.n_conf_kept == 0 and bd.conf == 0.0
    assert not dc.backward(loss, {"dec.conf.l2.w": store["dec.conf.l2.w"]})["dec.conf.l2.w"].any()


def test_batched_gt_confidence_matches_unbatched():
    rng = np.random.default_rng(4)
    s = rng.normal(size=(3, 6, 5, 2)) * 4
    gt = rng.normal(size=(3, 5, 2))
    batched = losses.gt_confidence(s, gt)
    for i in range(3):
        np.testing.assert_allclose(batched[i], losses.gt_confidence(s[i], gt[i]), atol=1e-15)


def _ops_per_forward(k_modes, stage, monkeypatch, d=32, l_graph=2):
    cfg = ModelConfig(d=d, l_graph=l_graph, k_modes=k_modes)
    scene = sc.generate_synthetic(sc.SceneGenConfig(), seed=0)
    ns = sc.normalize(scene, scene.focal_actors()[0].id)
    store = dc.ParamStore(np.float32)
    decoder.init_model(store, cfg, ns.horizon[1], np.random.default_rng(0))
    calls = []
    make = tensor._make
    monkeypatch.setattr(tensor, "_make", lambda *a: calls.append(a[1]) or make(*a))
    targets, traj, logits = decoder.run_pipeline(ns, store, cfg, stage)
    losses.total_loss(targets, traj, logits, ns.future, ns.has_future, ns.observed[:, -1])
    monkeypatch.undo()
    return len(calls)


def test_ops_per_forward_do_not_grow_with_modes(monkeypatch):
    ops = _ops_per_forward(6, decoder.S2, monkeypatch)
    assert ops == _ops_per_forward(1, decoder.S2, monkeypatch)
    assert ops <= 196


def test_stage_one_ops_per_forward_do_not_grow_with_modes(monkeypatch):
    ops = _ops_per_forward(6, decoder.S1, monkeypatch)
    assert ops == _ops_per_forward(1, decoder.S1, monkeypatch)
    assert ops <= 184


@pytest.mark.parametrize("stage, most", [(decoder.S2, 230), (decoder.S1, 218)])
def test_ops_per_forward_at_the_dense_shape(stage, most, monkeypatch):
    assert _ops_per_forward(6, stage, monkeypatch, d=64, l_graph=4) <= most
