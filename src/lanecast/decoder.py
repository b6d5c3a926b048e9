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
from ._layers import init_linear, linear
from .encoder import encode_actors, encode_boundaries, encode_lane_nodes, init_encoders
from .errors import ContractError, ParseError, parse_json
from .fusion import fuse_scene, init_fusion
from .scene import normalize, to_world

S1, S2 = "S1", "S2"


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
    if t < 2:
        raise ContractError(f"completion needs T >= 2, got {t}")
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


def run_pipeline(norm_scene, store, cfg, stage=S2):
    """Encode + fuse + decode one normalized scene.

    Returns (targets [A,K,2], trajectories [A,K,T',2], logits [A,K]) as
    tensors, ordered like norm_scene.actors; T' is 1 in S1 (the targets as
    one-step trajectories) and T in S2.
    """
    if stage not in (S1, S2):
        raise ContractError(f"unknown stage {stage!r}")
    actor_f, actor_pos = encode_actors(norm_scene, store, cfg)
    lane_f = encode_lane_nodes(norm_scene.lane_graph, store, cfg)
    bound_f, bound_pos, matched = encode_boundaries(norm_scene.boundaries, store, cfg)
    fused = fuse_scene(actor_f, actor_pos, lane_f, norm_scene.lane_graph.centers,
                       bound_f, bound_pos, matched, store, cfg)
    targets, logits, pairs = predict_targets(fused, store, cfg)
    if stage == S1:
        traj = dc.reshape(targets, (*targets.shape[:2], 1, 2))
    else:
        traj = complete_trajectories(pairs, targets, store, cfg, norm_scene.horizon[1])
    return targets, traj, logits


def forecast(scene, store, cfg, stage=S2):
    """Per focal actor: normalize to its frame, run the pipeline, map the
    outputs back to the world frame. Returns a list of Forecast."""
    out = []
    for actor in scene.focal_actors():
        ns = normalize(scene, actor.id)
        idx = next(i for i, a in enumerate(ns.actors) if a.id == actor.id)
        targets, traj, logits = run_pipeline(ns, store, cfg, stage)
        conf = dc.softmax(logits, axis=1).data[idx]
        out.append(Forecast(
            scene_id=scene.scene_id,
            actor_id=actor.id,
            targets=to_world(ns, targets.data[idx].astype(np.float64)),
            trajectories=to_world(ns, traj.data[idx].astype(np.float64)),
            confidences=conf.astype(np.float64),
        ))
        del targets, traj, logits  # this actor's tape goes before the next one's forward
    return out


# ---------------------------------------------------------------------------
# prediction files


def save_predictions(forecasts) -> bytes:
    recs = [{
        "scene_id": f.scene_id,
        "actor_id": f.actor_id,
        "trajectories": f.trajectories.tolist(),
        "confidences": f.confidences.tolist(),
        "targets": f.targets.tolist(),
    } for f in forecasts]
    return json.dumps(recs).encode("utf-8")


# a float32 softmax read back as float64 sums to 1 within this
CONF_SUM_TOL = 1e-6


def _numbers(value, field):
    """A nested JSON list of finite numbers -> float64 array, else
    ParseError(field)."""
    try:
        arr = np.asarray(value)
    except ValueError as e:  # ragged nesting
        raise ParseError(field, f"{field}: not a rectangular array") from e
    if arr.dtype.kind not in "iuf":
        raise ParseError(field, f"{field}: must hold numbers only")
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ParseError(field, f"{field}: non-finite values")
    return arr


def _bad_shape(field, arr, want):
    return ParseError(field, f"{field}: shape {list(arr.shape)}, want {want}")


def load_predictions(data):
    """Prediction file -> Forecasts. Per record: trajectories [K, T, 2],
    confidences [K] (non-negative, summing to 1), targets [K, 2]."""
    recs = parse_json(data, "prediction file")
    if not isinstance(recs, list):
        raise ParseError("document", "prediction file must be a JSON list")
    out = []
    for i, r in enumerate(recs):
        p = f"predictions[{i}]."
        for key in ("scene_id", "actor_id", "trajectories", "confidences", "targets"):
            if not isinstance(r, dict) or key not in r:
                raise ParseError(p + key)
        traj = _numbers(r["trajectories"], p + "trajectories")
        if traj.ndim != 3 or traj.shape[2] != 2:
            raise _bad_shape(p + "trajectories", traj, "[K, T, 2]")
        k = traj.shape[0]
        conf = _numbers(r["confidences"], p + "confidences")
        if conf.shape != (k,):
            raise _bad_shape(p + "confidences", conf, f"[{k}]")
        if conf.min() < 0 or abs(conf.sum() - 1.0) > CONF_SUM_TOL:
            raise ParseError(p + "confidences", f"{p}confidences: must be non-negative "
                             f"and sum to 1, got min {conf.min():g}, sum {conf.sum():.9g}")
        targ = _numbers(r["targets"], p + "targets")
        if targ.shape != (k, 2):
            raise _bad_shape(p + "targets", targ, f"[{k}, 2]")
        out.append(Forecast(str(r["scene_id"]), str(r["actor_id"]), targ, traj, conf))
    return out
