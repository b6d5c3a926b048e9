"""Two-stage multimodal decoder and the end-to-end forecasting pipeline.

Stage one: K target heads regress target points (the trajectory endpoints)
straight from the fused actor feature; a confidence head scores each
(actor feature ++ encoded target) pair. Stage two: a completion head turns
the same pair rows into the remaining T-1 steps; the final step is the
target itself, spliced in exactly. The pair rows are built once, by
`predict_targets`, and shared by both heads.

Both stages return trajectories [A, K, T', 2]: stage one the targets as
one-step trajectories (T' = 1), stage two the full T steps.

The K heads are one stacked parameter set: `dec.head.l1` maps [A, D] to
[A, K*D] and `dec.head.l2` holds K [D, 2] weights applied by one batched
matmul. Everything after the heads runs once over the A*K (actor, mode)
rows, in actor-major order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from ._layers import init_linear, linear, run_steps
from .encoder import (check_history, encode_actors, encode_boundaries, encode_lane_nodes,
                      init_encoders)
from .errors import ContractError, ParseError, iter_json_list, numbers, require, string
from .fusion import fuse_scene, init_fusion
from .scene import normalize, to_world

S1, S2 = "S1", "S2"
MIN_T = 2  # the fewest future steps stage two completes


@dataclass
class Forecast:
    scene_id: str
    actor_id: str
    targets: np.ndarray        # [K, 2]
    trajectories: np.ndarray   # [K, T, 2] (T=1 in stage one: the target alone)
    confidences: np.ndarray    # [K], simplex


def init_decoder(store, cfg, rng):
    d, k = cfg.d, cfg.k_modes
    std = 1.0 / math.sqrt(d)
    # drawn mode by mode, so the values equal K separately initialized heads
    w1, w2 = zip(*[(rng.normal(0.0, std, (d, d)), rng.normal(0.0, std, (d, 2)))
                   for _ in range(k)])
    store.add("dec.head.l1.w", np.concatenate(w1, axis=1))
    store.add("dec.head.l1.b", np.zeros(k * d))
    store.add("dec.head.l2.w", np.stack(w2))
    store.add("dec.head.l2.b", np.zeros((k, 2)))
    init_linear(store, "dec.tenc.l1", 2, d, rng)
    init_linear(store, "dec.tenc.l2", d, d, rng)
    init_linear(store, "dec.conf.l1", 2 * d, d, rng)
    # no bias: one shared offset on all K logits cancels in the softmax
    init_linear(store, "dec.conf.l2", d, 1, rng, bias=False)


def init_completion(store, cfg, rng, t):
    init_linear(store, "dec.comp.l1", 2 * cfg.d, cfg.d, rng)
    init_linear(store, "dec.comp.l2", cfg.d, (t - 1) * 2, rng)


def _mlp(store, prefix, x):
    """The two-layer head `{prefix}.l2(relu({prefix}.l1(x)))`."""
    return linear(store, f"{prefix}.l2", dc.relu(linear(store, f"{prefix}.l1", x)))


def predict_targets(actor_f, store, cfg):
    """Fused actor features [A, D] -> (targets [A, K, 2], logits [A, K],
    pair rows [A*K, 2D]).

    Targets are agent-frame offsets from the origin. Confidences are
    softmax(logits), taken downstream so losses can see raw logits. Pair
    row a*K + k is actor a's feature ++ its encoded target k, the input of
    both the confidence and the completion head.
    """
    a, k, d = actor_f.shape[0], cfg.k_modes, cfg.d
    h = dc.reshape(dc.relu(linear(store, "dec.head.l1", actor_f)), (a * k, 1, d))
    w2 = dc.gather(store["dec.head.l2.w"], np.tile(np.arange(k), a), axis=0)  # [A*K, D, 2]
    g = dc.add(dc.reshape(dc.matmul(h, w2), (a, k, 2)), store["dec.head.l2.b"])
    # output_scale maps the O(1) feature range onto meters, mirroring
    # input_scale on the encoder side
    g = dc.scale(g, cfg.output_scale)
    per_mode = dc.gather(actor_f, np.repeat(np.arange(a), k), axis=0)  # [A*K, D]
    enc = _mlp(store, "dec.tenc", dc.scale(dc.reshape(g, (a * k, 2)), cfg.input_scale))
    pairs = dc.concat([per_mode, enc], axis=1)
    return g, dc.reshape(_mlp(store, "dec.conf", pairs), (a, k)), pairs


def complete_trajectories(pairs, targets, store, cfg, t):
    """Pair rows [A*K, 2D] and targets [A, K, 2], both from
    `predict_targets` -> trajectories [A, K, T, 2], last step == target.

    Gradient flows through the targets and the pair rows into the
    first-stage heads and the target encoder.
    """
    if t < MIN_T:
        raise ContractError(f"completion needs T >= {MIN_T}, got {t}")
    a, k = targets.shape[0], targets.shape[1]
    body = dc.scale(_mlp(store, "dec.comp", pairs), cfg.output_scale)  # [A*K, 2(T-1)]
    full = dc.concat([body, dc.reshape(targets, (a * k, 2))], axis=1)  # [A*K, 2T]
    return dc.reshape(full, (a, k, t, 2))


def init_model(store, cfg, t, rng):
    """All pipeline parameters, in a fixed creation order."""
    init_encoders(store, cfg, rng)
    init_fusion(store, cfg, rng)
    init_decoder(store, cfg, rng)
    init_completion(store, cfg, rng, t)


def pipeline_steps(norm_scene, cfg, stage=S2):
    """`run_pipeline` as a graph of steps, each `(name, fn, reads)`:
    "actors", "lanes", "boundaries", "fused", "targets" and "completion".
    Each step calls its block through this module's globals when it runs,
    and each block's own steps end in a step of the same name, so either
    can stand in for the other."""
    if stage not in (S1, S2):
        raise ContractError(f"unknown stage {stage!r}")
    graph = norm_scene.lane_graph

    def completion(store, state):
        targets, logits, pairs = state
        if stage == S1:
            traj = dc.reshape(targets, (*targets.shape[:2], 1, 2))
        else:
            traj = complete_trajectories(pairs, targets, store, cfg, norm_scene.horizon[1])
        return targets, traj, logits

    return [("actors", lambda store: encode_actors(norm_scene, store, cfg), ()),
            ("lanes", lambda store: encode_lane_nodes(graph, store, cfg), ()),
            ("boundaries", lambda store: encode_boundaries(norm_scene, store, cfg), ()),
            ("fused", lambda store, actors, lanes, bounds: fuse_scene(
                *actors, lanes, graph.centers, *bounds, store, cfg),
             ("actors", "lanes", "boundaries")),
            ("targets", lambda store, fused: predict_targets(fused, store, cfg), ("fused",)),
            ("completion", completion, ("targets",))]


def run_pipeline(norm_scene, store, cfg, stage=S2):
    """Encode + fuse + decode one normalized scene: a run of `pipeline_steps`.

    Returns (targets [A,K,2], trajectories [A,K,T',2], logits [A,K]) as
    tensors, ordered like norm_scene.actors; T' is 1 in S1 (the targets as
    one-step trajectories) and T in S2.
    """
    return run_steps(pipeline_steps(norm_scene, cfg, stage), store)


@np.errstate(all="ignore")
def forecast(scene, store, cfg, stage=S2):
    """Per focal actor: normalize to its frame, run the pipeline, map the
    outputs back to the world frame. Returns a list of Forecast.

    The pipeline runs on the store's constants, so it records no tape.
    numpy's warnings are off, as in training (extreme scenes stay quiet). A
    history too short for the actor encoder is ParseError("horizon.H")."""
    check_history(scene)
    params = store.constants()
    out = []
    for actor in scene.focal_actors():
        ns = normalize(scene, actor.id)
        idx = ns.actor_index(actor.id)
        targets, traj, logits = run_pipeline(ns, params, cfg, stage)
        conf = dc.softmax(logits).data[idx]
        out.append(Forecast(
            scene_id=scene.scene_id,
            actor_id=actor.id,
            targets=to_world(ns, targets.data[idx].astype(np.float64)),
            trajectories=to_world(ns, traj.data[idx].astype(np.float64)),
            confidences=conf.astype(np.float64),
        ))
    return out


# ---------------------------------------------------------------------------
# prediction files


def save_predictions(forecasts) -> bytes:
    """Forecasts -> json.dumps of their record list, dumped record by record."""
    recs = (json.dumps({
        "scene_id": f.scene_id,
        "actor_id": f.actor_id,
        "trajectories": f.trajectories.tolist(),
        "confidences": f.confidences.tolist(),
        "targets": f.targets.tolist(),
    }).encode("utf-8") for f in forecasts)
    return b"[" + b", ".join(recs) + b"]"


# a float32 softmax read back as float64 sums to 1 within this
CONF_SUM_TOL = 1e-6


def _forecast(r, i, seen, bools):
    p = f"predictions[{i}]"
    sid, aid, traj, conf, targ = (require(r, key, p) for key in (
        "scene_id", "actor_id", "trajectories", "confidences", "targets"))
    traj = numbers(traj, p + ".trajectories", (None, None, 2), bools)
    k = traj.shape[0]
    conf = numbers(conf, p + ".confidences", (k,), bools)
    if conf.min() < 0 or abs(conf.sum() - 1.0) > CONF_SUM_TOL:
        raise ParseError(p + ".confidences", f"{p}.confidences: must be non-negative "
                         f"and sum to 1, got min {conf.min():g}, sum {conf.sum():.9g}")
    targ = numbers(targ, p + ".targets", (k, 2), bools)
    f = Forecast(string(sid, p + ".scene_id"), string(aid, p + ".actor_id"), targ, traj, conf)
    first = seen.setdefault((sid, aid), i)
    if first != i:
        raise ParseError(p + ".actor_id", f"{p}.actor_id: scene {sid!r}, actor "
                         f"{aid!r} repeats predictions[{first}]")
    return f


def load_predictions(data):
    """Prediction file -> Forecasts, decoded and checked one record at a
    time. Per record: trajectories [K, T, 2], confidences [K] (non-negative,
    summing to 1), targets [K, 2]; string ids, no (scene_id, actor_id) twice.
    Only a document that spells `true` or `false` is searched for booleans."""
    records = iter_json_list(data, "prediction file")
    bools = any(w in data for w in (("true", "false") if isinstance(data, str)
                                     else (b"true", b"false")))
    seen = {}
    try:
        return [_forecast(r, i, seen, bools) for i, r in enumerate(records)]
    except ParseError:
        for _ in records:  # a syntax error further on outranks a bad record
            pass
        raise
