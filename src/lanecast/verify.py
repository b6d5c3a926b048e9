"""Block-level gradient verification.

Each check builds a tiny float64 fixture, wraps one network block (or the
whole pipeline loss) as a scalar function of its parameters, and compares
analytic gradients against central finite differences. The actor encoder,
lane encoder, boundary-lane fusion, stage-two decoder and pipeline checks
run as `staged` graphs of the model's own steps, so a finite difference
reruns only the steps a perturbation reaches. Used by the `grad-check`
command and the test suite.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import diffcore as dc
from .config import ModelConfig
from .decoder import (S2, complete_trajectories, init_completion, init_decoder,
                      init_model, pipeline_steps, predict_targets)
from .diffcore.gradcheck import TOLERANCE, staged  # noqa: F401 - TOLERANCE bounds every check
from .encoder import (actor_steps, encode_boundaries, gated_lane_graph_conv,
                      init_actor_encoder, init_boundary_encoder, init_lane_encoder,
                      lane_steps)
from .fusion import (distance_attention, fusion_steps, init_boundary_lane_fusion,
                     init_distance_attention)
from .losses import total_loss
from .scene import SceneGenConfig, generate_synthetic, normalize


def _tiny_cfg():
    return ModelConfig(d=8, l_graph=2)


def _tiny_scene(n_actors=2):
    gen = SceneGenConfig(n_lanes=2, lane_length=30.0, n_actors=n_actors,
                        h=6, t=4, noise_sigma=0.05, lane_change_prob=0.5)
    scene = generate_synthetic(gen, 11)
    return normalize(scene, scene.actors[0].id)


def _jitter_biases(store, seed):
    """Add seeded N(0, 0.1) noise to every bias. With all-zero biases a head
    whose hidden units are all negative outputs exactly 0, which puts the
    next layer on a ReLU kink, where the one-sided analytic derivative and
    the central difference must disagree."""
    rng = np.random.default_rng([seed, 1])
    for name, t in store.items():
        if name.endswith(".b"):
            t.data = t.data + rng.normal(0.0, 0.1, t.shape)


def _store(seed, *inits):
    """One float64 store: each `init(store, cfg, rng)` on one seeded rng, then jittered."""
    store, rng = dc.ParamStore(np.float64), np.random.default_rng(seed)
    for init in inits:
        init(store, _tiny_cfg(), rng)
    _jitter_biases(store, seed)
    return store


def _reduce(t):
    flat = dc.reshape(t, (t.size,)) if t.ndim != 1 else t
    # mix components so no gradient path cancels by symmetry
    mix = np.arange(1, t.size + 1, dtype=np.float64) / t.size
    return dc.sum(dc.mul(flat, mix))


def _check(steps, store, n_samples, seed, out=_reduce):
    """grad_check of `out` over the last step's output, all run as one `staged` graph."""
    steps = steps + [("check", lambda s, x: out(x), (steps[-1][0],))]
    return dc.grad_check(staged(steps), store, n_samples=n_samples, seed=seed)


def check_actor_encoder(seed=0, n_samples=3):
    store = _store(seed, init_actor_encoder)
    return _check(actor_steps(_tiny_scene(), _tiny_cfg()), store, n_samples, seed,
                  lambda actors: _reduce(actors[0]))


def check_lane_encoder(seed=0, n_samples=3):
    store = _store(seed, init_lane_encoder)
    return _check(lane_steps(_tiny_scene().lane_graph, _tiny_cfg()), store, n_samples, seed)


def check_gated_conv(seed=0, n_samples=4):
    scene = _tiny_scene()
    cfg = _tiny_cfg()
    full = dc.ParamStore(np.float64)
    init_lane_encoder(full, replace(cfg, l_graph=1), np.random.default_rng(seed))
    p = "lane.gc0"
    store = dc.ParamStore(np.float64)
    for name, t in full.items():
        if name.startswith(p + "."):
            store.add(name, t.data)
    _jitter_biases(store, seed)
    n = scene.lane_graph.n_nodes
    x_in = np.random.default_rng(seed + 1).normal(size=(n, cfg.d))

    def fn(s):
        return _reduce(gated_lane_graph_conv(dc.Tensor(x_in), scene.lane_graph, s, p))

    return dc.grad_check(fn, store, n_samples=n_samples, seed=seed)


def check_boundary_lane_fusion(seed=0, n_samples=4):
    scene = _tiny_scene()
    cfg = _tiny_cfg()
    store = _store(seed, init_boundary_encoder, init_boundary_lane_fusion)
    n = scene.lane_graph.n_nodes
    lane_f = dc.Tensor(np.random.default_rng(seed + 1).normal(size=(n, cfg.d)))
    steps = [("lanes", lambda s: lane_f, ()),
             ("boundaries", lambda s: encode_boundaries(scene, s, cfg), ()),
             fusion_steps(scene.lane_graph.centers, cfg)[0]]
    return _check(steps, store, n_samples, seed)


def check_distance_attention(seed=0, n_samples=4):
    cfg = _tiny_cfg()
    store = _store(seed, lambda s, c, rng: init_distance_attention(s, "att", c, rng))
    gen = np.random.default_rng(seed + 1)
    q_pos = gen.uniform(-5, 5, (4, 2))
    c_pos = gen.uniform(-5, 5, (7, 2))
    qf = gen.normal(size=(4, cfg.d))
    cf = gen.normal(size=(7, cfg.d))

    def fn(s):
        out = distance_attention(dc.Tensor(qf), q_pos, dc.Tensor(cf), c_pos,
                                 s, "att", tau=6.0)
        return _reduce(out)

    return dc.grad_check(fn, store, n_samples=n_samples, seed=seed)


# With the K heads stacked into one tensor each, 8 samples per parameter
# compare as many coordinates as 3 per parameter did over K separate heads.
def check_decoder_stage1(seed=0, n_samples=8):
    cfg = _tiny_cfg()
    store = _store(seed, init_decoder)
    af = np.random.default_rng(seed + 1).normal(size=(2, cfg.d))

    def fn(s):
        targets, logits, _ = predict_targets(dc.Tensor(af), s, cfg)
        return dc.add(_reduce(targets), _reduce(dc.softmax(logits)))

    return dc.grad_check(fn, store, n_samples=n_samples, seed=seed)


def check_decoder_stage2(seed=0, n_samples=8):
    cfg = _tiny_cfg()
    store = _store(seed, init_decoder, lambda s, c, rng: init_completion(s, c, rng, t=4))
    af = dc.Tensor(np.random.default_rng(seed + 1).normal(size=(2, cfg.d)))
    steps = [("targets", lambda s: predict_targets(af, s, cfg), ()),
             ("completion", lambda s, out: complete_trajectories(out[2], out[0], s, cfg, t=4),
              ("targets",))]
    return _check(steps, store, n_samples, seed)


def check_full_pipeline(seed=0, n_samples=2):
    scene = _tiny_scene(n_actors=3)
    cfg = _tiny_cfg()
    store = _store(seed, lambda s, c, rng: init_model(s, c, scene.horizon[1], rng))

    def loss(out):
        return total_loss(*out, scene.future, scene.has_future, scene.observed[:, -1])[0]

    # the pipeline with its actor, lane and fusion steps run as their blocks' own steps
    blocks = {"actors": actor_steps(scene, cfg), "lanes": lane_steps(scene.lane_graph, cfg),
              "fused": fusion_steps(scene.lane_graph.centers, cfg)}
    steps = [fine for step in pipeline_steps(scene, cfg, S2) for fine in blocks.get(step[0], [step])]
    return _check(steps, store, n_samples, seed, loss)


ALL_CHECKS = (
    ("actor-encoder", check_actor_encoder),
    ("lane-encoder", check_lane_encoder),
    ("gated-graph-conv", check_gated_conv),
    ("boundary-lane-fusion", check_boundary_lane_fusion),
    ("distance-attention", check_distance_attention),
    ("decoder-stage1", check_decoder_stage1),
    ("decoder-stage2", check_decoder_stage2),
    ("pipeline-loss", check_full_pipeline),
)


def run_all(seed=0):
    """Run every block check; returns list of (name, worst relative error)."""
    return [(name, fn(seed=seed)[0]) for name, fn in ALL_CHECKS]
