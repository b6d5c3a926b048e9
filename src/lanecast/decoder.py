"""Two-stage multimodal decoder and the end-to-end forecasting pipeline.

Stage one: K target heads regress target points (the trajectory endpoints)
straight from the fused actor feature; a confidence head scores each
(actor feature ++ encoded target) pair. Stage two: a completion head turns
each pair into the remaining T-1 steps; the final step is the target itself,
spliced in exactly.

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
from .encoder import encode_actors, encode_boundaries, encode_lane_nodes
from .errors import ContractError, ParseError
from .fusion import fuse_scene, matching_from_boundaries
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


def completion_param_names(store):
    return [n for n in store.names() if n.startswith("dec.comp.")]


def _encode_target(store, g, input_scale):
    h = dc.relu(linear(store, "dec.tenc.l1", dc.scale(g, input_scale)))
    return linear(store, "dec.tenc.l2", h)


def _per_mode(actor_f, k):
    """[A, D] -> [A*K, D]: each actor's row once per mode."""
    return dc.gather(actor_f, np.repeat(np.arange(actor_f.shape[0]), k), axis=0)


def predict_targets(actor_f, store, cfg):
    """Fused actor features [A, D] -> (targets [A, K, 2], logits [A, K]).

    Targets are agent-frame offsets from the origin. Confidences are
    softmax(logits), taken downstream so losses can see raw logits.
    """
    a, k, d = actor_f.shape[0], cfg.k_modes, cfg.d
    h = dc.reshape(dc.relu(linear(store, "dec.head.l1", actor_f)), (a * k, 1, d))
    w2 = dc.gather(store["dec.head.l2.w"], np.tile(np.arange(k), a), axis=0)  # [A*K, D, 2]
    g = dc.add(dc.reshape(dc.matmul(h, w2), (a, k * 2)),
               dc.reshape(store["dec.head.l2.b"], (k * 2,)))
    # output_scale maps the O(1) feature range onto meters, mirroring
    # input_scale on the encoder side
    g = dc.reshape(dc.scale(g, cfg.output_scale), (a * k, 2))
    enc = _encode_target(store, g, cfg.input_scale)
    ch = dc.relu(linear(store, "dec.conf.l1", dc.concat([_per_mode(actor_f, k), enc], axis=1)))
    logits = dc.reshape(linear(store, "dec.conf.l2", ch), (a, k))
    return dc.reshape(g, (a, k, 2)), logits


def complete_trajectories(actor_f, targets, store, cfg, t):
    """Targets [A, K, 2] -> trajectories [A, K, T, 2], last step == target.

    Gradient flows through the targets into the first-stage heads.
    """
    if t < 2:
        raise ContractError(f"completion needs T >= 2, got {t}")
    a, k = actor_f.shape[0], cfg.k_modes
    g = dc.reshape(targets, (a * k, 2))
    enc = _encode_target(store, g, cfg.input_scale)
    h = dc.relu(linear(store, "dec.comp.l1", dc.concat([_per_mode(actor_f, k), enc], axis=1)))
    body = dc.reshape(dc.scale(linear(store, "dec.comp.l2", h), cfg.output_scale),
                      (a * k, t - 1, 2))
    full = dc.concat([body, dc.reshape(g, (a * k, 1, 2))], axis=1)  # [A*K, T, 2]
    return dc.reshape(full, (a, k, t, 2))


def init_model(store, cfg, t, rng):
    """All pipeline parameters, in a fixed creation order."""
    from .encoder import init_encoders
    from .fusion import init_fusion

    init_encoders(store, cfg, rng)
    init_fusion(store, cfg, rng)
    init_decoder(store, cfg, rng)
    init_completion(store, cfg, rng, t)


def run_pipeline(norm_scene, store, cfg, stage=S2):
    """Encode + fuse + decode one normalized scene.

    Returns (targets [A,K,2], trajectories [A,K,T,2] or None in S1,
    logits [A,K]) as tensors, ordered like norm_scene.actors.
    """
    if stage not in (S1, S2):
        raise ContractError(f"unknown stage {stage!r}")
    actor_f, actor_pos = encode_actors(norm_scene, store, cfg)
    lane_f = encode_lane_nodes(norm_scene.lane_graph, store, cfg)
    bound_f, bound_pos, matched = encode_boundaries(norm_scene.boundaries, store, cfg)
    matching = matching_from_boundaries(matched, norm_scene.lane_graph.n_nodes)
    fused = fuse_scene(actor_f, actor_pos, lane_f, norm_scene.lane_graph.centers,
                       bound_f, bound_pos, matching, store, cfg,
                       frame=norm_scene.frame)
    targets, logits = predict_targets(fused, store, cfg)
    traj = None
    if stage == S2:
        traj = complete_trajectories(fused, targets, store, cfg, norm_scene.horizon[1])
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
        g = targets.data[idx]  # [K, 2]
        s = traj.data[idx] if traj is not None else g[:, None, :]
        out.append(Forecast(
            scene_id=scene.scene_id,
            actor_id=actor.id,
            targets=to_world(ns, g.astype(np.float64)),
            trajectories=to_world(ns, s.astype(np.float64)),
            confidences=conf.astype(np.float64),
        ))
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


def load_predictions(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        recs = json.loads(data)
    except json.JSONDecodeError as e:
        raise ParseError("document", f"prediction file is not valid JSON: {e}") from e
    if not isinstance(recs, list):
        raise ParseError("document", "prediction file must be a JSON list")
    out = []
    for i, r in enumerate(recs):
        p = f"predictions[{i}]."
        for key in ("scene_id", "actor_id", "trajectories", "confidences", "targets"):
            if not isinstance(r, dict) or key not in r:
                raise ParseError(p + key)
        traj = np.asarray(r["trajectories"], dtype=np.float64)
        conf = np.asarray(r["confidences"], dtype=np.float64)
        targ = np.asarray(r["targets"], dtype=np.float64)
        if traj.ndim != 3 or traj.shape[2] != 2 or traj.shape[0] != conf.shape[0]:
            raise ParseError(p + "trajectories", f"bad shape {traj.shape}")
        if not (np.all(np.isfinite(traj)) and np.all(np.isfinite(conf))
                and np.all(np.isfinite(targ))):
            raise ParseError(p + "trajectories", "non-finite values")
        out.append(Forecast(str(r["scene_id"]), str(r["actor_id"]), targ, traj, conf))
    return out
