"""Time-major actor encoder and one-way broadcasting against the code they
replaced, kept here as the reference.

The reference ("parent path") is the channels-first actor encoder ([A, D, H]
sequences, an im2col conv1d whose backward scatters through `np.add.at`,
`layer_norm` over axis 1), elementwise ops that accept equal shapes only
(plus a rank-1 bias in `add`), and the workarounds those rules forced: a
`[1, D]` ones matmul that widens the graph-conv gate, inverse counts
repeated to `[N, D]` in boundary-to-lane fusion, the `[K * 2]` head bias
reshape and the broadcast ground truth in `mode_displacements`. In float64
the library must agree with it within 1e-12: actor features and actor
encoder gradients, and the whole pipeline's loss and every gradient in both
stages.
"""

from dataclasses import replace

import numpy as np
import pytest

from lanecast import decoder, encoder, fusion, losses
from lanecast import diffcore as dc
from lanecast import scene as sc
from lanecast._layers import layer_norm, linear
from lanecast.config import ModelConfig
from lanecast.diffcore import tensor
from lanecast.errors import ShapeError

TOL = 1e-12

# ---------------------------------------------------------------------------
# the parent's ops


def _make(data, parents, bwd, op):
    """The old tape form, one backward returning a gradient per parent, as one
    edge per parent."""
    return tensor._make(data, op, *((p, lambda g, i=i: bwd(g)[i]) for i, p in enumerate(parents)))


def ref_add(a, b):
    a, b = tensor._tensors(a, b)
    if a.shape == b.shape:
        def bwd(g):
            return g, g
    elif b.ndim == 1 and a.ndim > 1 and a.shape[-1] == b.shape[0]:
        def bwd(g):
            return g, g.reshape(-1, b.shape[0]).sum(axis=0)
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data + b.data, (a, b), bwd, "add")


def ref_sub(a, b):
    a, b = tensor._tensors(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def ref_mul(a, b):
    a, b = tensor._tensors(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data), "mul")


def ref_l2_norm_rows(a):
    if a.ndim != 2:
        raise ShapeError(f"l2_norm_rows: expected 2-d input, got {a.shape}")
    y = np.sqrt((a.data * a.data).sum(axis=1))
    safe = np.where(y > 0, y, 1.0)
    return _make(y, (a,), lambda g: ((g / safe)[:, None] * a.data,), "l2_norm_rows")


def ref_layer_norm(a, gamma, beta, axis=-1, eps=1e-5):
    axis = axis % a.ndim
    n = a.shape[axis]
    x = np.moveaxis(a.data, axis, -1)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = np.moveaxis(xhat * gamma.data + beta.data, -1, axis)

    def bwd(g):
        gm = np.moveaxis(g, axis, -1)
        dxhat = gm * gamma.data
        dx = inv / n * (n * dxhat - dxhat.sum(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
        dgamma = (gm * xhat).reshape(-1, n).sum(axis=0)
        dbeta = gm.reshape(-1, n).sum(axis=0)
        return np.moveaxis(dx, -1, axis), dgamma, dbeta

    return _make(y.astype(a.dtype), (a, gamma, beta), bwd, "layer_norm")


def ref_conv1d(x, w, b=None, stride=1, padding=0):
    """Channels first: [B, Cin, L] -> [B, Cout, Lout]."""
    x, w, b = tensor._tensors(x, w, b)
    parents = [x, w] + ([b] if b is not None else [])
    batch, c_in, length = x.shape
    c_out, _, kernel = w.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    n_out = (length + 2 * padding - kernel) // stride + 1
    win = (np.arange(n_out) * stride)[:, None] + np.arange(kernel)[None, :]
    cols = xp[:, :, win].transpose(0, 2, 1, 3).reshape(batch, n_out, c_in * kernel)
    wf = w.data.reshape(c_out, c_in * kernel)
    y = cols @ wf.T
    if b is not None:
        y = y + b.data
    y = y.transpose(0, 2, 1)

    def bwd(g):
        gt = g.transpose(0, 2, 1)
        dw = np.einsum("blo,blk->ok", gt, cols).reshape(c_out, c_in, kernel)
        dcols = gt @ wf
        dxp = np.zeros((batch, c_in, length + 2 * padding), dtype=g.dtype)
        dcols4 = dcols.reshape(batch, n_out, c_in, kernel).transpose(0, 2, 1, 3)
        np.add.at(dxp, (slice(None), slice(None), win), dcols4)
        dx = dxp[:, :, padding:padding + length] if padding else dxp
        return (dx, dw, gt.sum(axis=(0, 1))) if b is not None else (dx, dw)

    return _make(y, parents, bwd, "conv1d")


# ---------------------------------------------------------------------------
# the parent's blocks


def _ref_conv(store, name, x, stride=1, padding=0):
    b = store[f"{name}.b"] if f"{name}.b" in store else None
    return ref_conv1d(x, store[f"{name}.w"], b, stride=stride, padding=padding)


def _ref_ln1(store, name, x):
    return ref_layer_norm(x, store[f"{name}.g"], store[f"{name}.b"], axis=1)


def _ref_res_block(store, name, x, stride=1):
    h = _ref_conv(store, f"{name}.conv1", x, stride=stride, padding=1)
    h = dc.relu(_ref_ln1(store, f"{name}.ln1", h))
    h = _ref_conv(store, f"{name}.conv2", h, stride=1, padding=1)
    h = _ref_ln1(store, f"{name}.ln2", h)
    skip = _ref_conv(store, f"{name}.skip", x, stride=stride, padding=0)
    return dc.relu(ref_add(h, skip))


def _ref_upsample(x, length):
    return dc.gather(x, (np.arange(length) * x.shape[2]) // length, axis=2)


def ref_encode_actors(scene, store, cfg):
    h = scene.horizon[0]
    actors = scene.actors
    obs = np.stack([act.observed for act in actors])
    s = cfg.input_scale
    coord = np.stack([act.positions.T for act in actors]) * s
    heading = np.stack([np.vstack([np.cos(act.headings), np.sin(act.headings)])
                        for act in actors])
    vel = np.stack([act.velocities.T for act in actors]) * s
    keep = obs[:, None, :]
    streams = {"coord": coord * keep, "heading": heading * keep, "vel": vel * keep}

    f0 = None
    for br in ("coord", "heading", "vel"):
        out = _ref_res_block(store, f"actor.{br}", streams[br])
        f0 = out if f0 is None else ref_add(f0, out)
    f1 = _ref_res_block(store, "actor.down1", f0, stride=2)
    f2 = _ref_res_block(store, "actor.down2", f1, stride=2)
    u2 = _ref_conv(store, "actor.lat2", f2)
    u1 = ref_add(_ref_conv(store, "actor.lat1", f1), _ref_upsample(u2, f1.shape[2]))
    u0 = ref_add(_ref_conv(store, "actor.lat0", f0), _ref_upsample(u1, h))
    merged = dc.relu(_ref_conv(store, "actor.merge", u0, padding=1))
    neg = np.where(obs, 0.0, -1e9)[:, None, :] * np.ones((1, cfg.d, 1))
    pooled = dc.max(ref_add(merged, neg), axis=2)
    positions = np.stack([act.positions[act.last_observed_index()] for act in actors])
    return pooled, positions


def ref_gated_lane_graph_conv(x, graph, store, prefix):
    n, d = x.shape
    c = len(sc.ADJ_CATEGORIES)

    def stacked(name, axis):
        return dc.concat([store[f"{prefix}.{cat}.{name}"] for cat in sc.ADJ_CATEGORIES],
                         axis=axis)

    src, msg_rows, gate_rows = encoder._typed_edges(graph)
    rows = dc.reshape(dc.matmul(x, stacked("w.w", 1)), (n * c, d))
    gate = dc.sigmoid(ref_add(dc.matmul(x, stacked("gate.w", 1)), stacked("gate.b", 0)))
    gate = dc.gather(dc.reshape(gate, (n * c, 1)), gate_rows, axis=0)
    msgs = ref_mul(dc.matmul(gate, np.ones((1, d))),
                   dc.gather(rows, msg_rows, axis=0))
    y = ref_add(linear(store, f"{prefix}.self", x), dc.scatter_add(msgs, src, n))
    return ref_add(layer_norm(store, f"{prefix}.ln", dc.relu(y)), x)


def ref_fuse_boundary_to_lane(lane_f, boundary_f, matched, store):
    n = lane_f.shape[0]
    matched = np.asarray(matched, dtype=np.int64)
    kept = np.flatnonzero((matched >= 0) & (matched < n))
    pairs_bnd = kept[np.argsort(matched[kept], kind="stable")]
    pairs_lane = matched[pairs_bnd]
    sums = dc.scatter_add(dc.gather(boundary_f, pairs_bnd, axis=0), pairs_lane, n)
    counts = np.bincount(pairs_lane, minlength=n).astype(np.float64)
    inv = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
    ctx = ref_mul(sums, np.repeat(inv[:, None], lane_f.shape[1], axis=1))
    h = dc.concat([lane_f, ctx], axis=1)
    h = dc.relu(linear(store, "fuse.b2l.mlp1", h))
    h = linear(store, "fuse.b2l.mlp2", h)
    return layer_norm(store, "fuse.b2l.ln", ref_add(lane_f, h))


def ref_encode_target(store, g, input_scale):
    h = dc.relu(linear(store, "dec.tenc.l1", dc.scale(g, input_scale)))
    return linear(store, "dec.tenc.l2", h)


def ref_predict_targets(actor_f, store, cfg):
    a, k, d = actor_f.shape[0], cfg.k_modes, cfg.d
    h = dc.reshape(dc.relu(linear(store, "dec.head.l1", actor_f)), (a * k, 1, d))
    w2 = dc.gather(store["dec.head.l2.w"], np.tile(np.arange(k), a), axis=0)
    g = ref_add(dc.reshape(dc.matmul(h, w2), (a, k * 2)),
                dc.reshape(store["dec.head.l2.b"], (k * 2,)))
    g = dc.reshape(dc.scale(g, cfg.output_scale), (a * k, 2))
    per_mode = dc.gather(actor_f, np.repeat(np.arange(a), k), axis=0)
    pairs = dc.concat([per_mode, ref_encode_target(store, g, cfg.input_scale)], axis=1)
    ch = dc.relu(linear(store, "dec.conf.l1", pairs))
    logits = dc.reshape(linear(store, "dec.conf.l2", ch), (a, k))
    return dc.reshape(g, (a, k, 2)), logits, pairs


def ref_mode_displacements(s, s_hat):
    ref = np.broadcast_to(np.asarray(s_hat)[..., None, :, :], s.shape).reshape(-1, 2)
    diff = ref_sub(dc.reshape(s, (ref.shape[0], 2)), ref)
    return dc.max(dc.reshape(ref_l2_norm_rows(diff), s.shape[:-1]), axis=-1)


@pytest.fixture
def parent_path(monkeypatch):
    """Route the library through the parent's ops and blocks."""
    def install():
        for name, fn in (("add", ref_add), ("sub", ref_sub), ("mul", ref_mul),
                         ("l2_norm_rows", ref_l2_norm_rows), ("layer_norm", ref_layer_norm),
                         ("conv1d", ref_conv1d)):
            monkeypatch.setattr(dc, name, fn)
        monkeypatch.setattr(decoder, "encode_actors", ref_encode_actors)
        monkeypatch.setattr(encoder, "gated_lane_graph_conv", ref_gated_lane_graph_conv)
        monkeypatch.setattr(fusion, "fuse_boundary_to_lane", ref_fuse_boundary_to_lane)
        monkeypatch.setattr(decoder, "predict_targets", ref_predict_targets)
        monkeypatch.setattr(losses, "mode_displacements", ref_mode_displacements)
    return install


# ---------------------------------------------------------------------------
# fixtures


def _scene(seed, h):
    """A generated scene whose non-focal actors miss random history steps
    (the focal actor is seen at the last one, as normalize requires)."""
    gen = sc.SceneGenConfig(n_lanes=3, lane_length=60.0, n_actors=5, h=h, t=6,
                            noise_sigma=0.05, lane_change_prob=0.5,
                            curvature_range=(-0.02, 0.02))
    scene = sc.generate_synthetic(gen, seed)
    rng = np.random.default_rng([seed, 2])
    actors = []
    for i, a in enumerate(scene.actors):
        obs = rng.random(h) < 0.6
        obs[-1] |= i == 0
        obs[rng.integers(h)] = True
        actors.append(replace(a, observed=obs))
    scene = replace(scene, actors=actors)
    return sc.normalize(scene, scene.actors[0].id)


def _store(cfg, seed, t):
    store = dc.ParamStore(np.float64)
    decoder.init_model(store, cfg, t, np.random.default_rng(seed))
    rng = np.random.default_rng([seed, 1])
    for name, p in store.items():  # nonzero biases reach every bias path
        if name.endswith(".b"):
            p.data = p.data + rng.normal(0.0, 0.1, p.shape)
    return store


def _assert_close(got, want):
    assert got.keys() == want.keys()
    for name in got:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=TOL, err_msg=name)


# ---------------------------------------------------------------------------
# tests


def _actor_run(ns, store, cfg):
    feats, pos = decoder.encode_actors(ns, store, cfg)
    mix = dc.Tensor(np.random.default_rng(5).normal(size=feats.shape))
    params = {n: p for n, p in store.items() if n.startswith("actor.")}
    return feats.data, pos, dc.backward(dc.sum(dc.mul(feats, mix)), params)


@pytest.mark.parametrize("h", [7, 8, 12, 13])
@pytest.mark.parametrize("seed", [0, 1])
def test_actor_encoder_matches_channels_first(seed, h, parent_path):
    cfg = ModelConfig(d=16, l_graph=1)
    ns = _scene(seed, h)
    assert not all(a.observed.all() for a in ns.actors)
    store = _store(cfg, seed, ns.horizon[1])
    feats, pos, grads = _actor_run(ns, store, cfg)
    parent_path()
    want_feats, want_pos, want_grads = _actor_run(ns, store, cfg)
    np.testing.assert_allclose(feats, want_feats, rtol=0, atol=TOL)
    np.testing.assert_array_equal(pos, want_pos)
    _assert_close(grads, want_grads)


def _pipeline_run(ns, store, cfg, stage):
    targets, traj, logits = decoder.run_pipeline(ns, store, cfg, stage)
    loss, _ = losses.total_loss(targets, traj, logits, [a.future for a in ns.actors],
                                np.array([bool(a.observed[-1]) for a in ns.actors]))
    return float(loss.data), dc.backward(loss, dict(store.items()))


@pytest.mark.parametrize("stage", [decoder.S1, decoder.S2])
@pytest.mark.parametrize("seed, h", [(0, 9), (1, 10), (2, 11)])
def test_pipeline_loss_and_gradients_match_the_parent_path(seed, h, stage, parent_path):
    cfg = ModelConfig(d=16, l_graph=2, k_modes=3)
    ns = _scene(seed, h)
    store = _store(cfg, seed, ns.horizon[1])
    loss, grads = _pipeline_run(ns, store, cfg, stage)
    parent_path()
    want_loss, want_grads = _pipeline_run(ns, store, cfg, stage)
    assert abs(loss - want_loss) <= TOL
    assert any(g.any() for n, g in grads.items() if n.startswith("actor."))
    _assert_close(grads, want_grads)

