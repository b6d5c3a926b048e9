"""The four feature-fusion blocks, applied in a fixed order:

1. boundary -> lane, driven by each boundary node's matched lane node;
2. lane -> actor, 3. boundary -> actor, 4. actor -> actor, each via distance
   attention: context nodes within a metric radius of the query send messages
   built from relative position and feature.

Only relative positions enter, so every block is translation invariant.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from ._layers import init_layer_norm, init_linear, layer_norm, linear
from .errors import ContractError, ShapeError


def init_boundary_lane_fusion(store, cfg, rng):
    d = cfg.d
    init_linear(store, "fuse.b2l.mlp1", 2 * d, d, rng)
    init_linear(store, "fuse.b2l.mlp2", d, d, rng)
    init_layer_norm(store, "fuse.b2l.ln", d)


def init_distance_attention(store, name, cfg, rng):
    d = cfg.d
    init_linear(store, f"{name}.rel", 2, d, rng, bias=False)
    init_linear(store, f"{name}.ctx", 2 * d, d, rng, bias=False)
    init_linear(store, f"{name}.query", d, d, rng, bias=False)
    init_linear(store, f"{name}.out", d, d, rng, bias=False)
    init_layer_norm(store, f"{name}.ln", d)


def init_fusion(store, cfg, rng):
    init_boundary_lane_fusion(store, cfg, rng)
    for name in ("fuse.l2a", "fuse.b2a", "fuse.a2a"):
        init_distance_attention(store, name, cfg, rng)


def fuse_boundary_to_lane(lane_f, boundary_f, matched, store):
    """Mean matched boundary features into each lane node.

    matched: the [B] lane node index of each boundary node, from
    encode_boundaries; entries outside [0, n) are unmatched. A lane node
    with no boundary sees a zero context vector. Output keeps lane shape.
    """
    n = lane_f.shape[0]
    matched = np.asarray(matched, dtype=np.int64)
    if matched.shape != (boundary_f.shape[0],):
        raise ShapeError(f"matched shape {matched.shape} != boundary nodes "
                         f"({boundary_f.shape[0]},)")
    # each lane sums its boundary nodes in index order; a lane without any sums to 0
    kept = np.flatnonzero((matched >= 0) & (matched < n))
    sums = dc.scatter_add(dc.gather(boundary_f, kept, axis=0), matched[kept], n)
    counts = np.bincount(matched[kept], minlength=n).astype(np.float64)
    ctx = dc.mul(sums, 1.0 / np.maximum(counts, 1.0)[:, None])

    h = dc.relu(linear(store, "fuse.b2l.mlp1", dc.concat([lane_f, ctx], axis=1)))
    h = linear(store, "fuse.b2l.mlp2", h)
    return layer_norm(store, "fuse.b2l.ln", dc.add(lane_f, h))


def distance_attention(query_f, query_pos, ctx_f, ctx_pos, store, name, tau,
                       exclude_self=False):
    """Radius-gated attention.

    For query i, neighbors are contexts strictly closer than tau. Messages
    are W_ctx (rel-pos encoding ++ context feature); each is offset by the
    projected query, relu'd and summed; the sum is projected and added back
    to the query under a layer norm. Queries with no neighbors pass through
    as layer_norm(query).
    """
    if tau <= 0:
        raise ContractError(f"tau must be positive, got {tau}")
    q_pos = np.asarray(query_pos, dtype=np.float64)
    c_pos = np.asarray(ctx_pos, dtype=np.float64)
    nq, nc = q_pos.shape[0], c_pos.shape[0]

    diff = q_pos[:, None, :] - c_pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])  # [Q, C]
    mask = dist < tau
    if exclude_self:
        if nq != nc:
            raise ContractError("exclude_self requires aligned query/context sets")
        mask &= ~np.eye(nq, dtype=bool)
    qi, cj = np.nonzero(mask)  # row-major, deterministic

    # with no pair in range every message is empty, `.out` (no bias) maps
    # the zero sum to zero, and the result is layer_norm(query)
    rel = (c_pos[cj] - q_pos[qi])
    rel_enc = linear(store, f"{name}.rel", rel)
    msgs = linear(store, f"{name}.ctx",
                  dc.concat([rel_enc, dc.gather(ctx_f, cj, axis=0)], axis=1))
    q_proj = dc.gather(linear(store, f"{name}.query", query_f), qi, axis=0)
    agg = dc.scatter_add(dc.relu(dc.add(msgs, q_proj)), qi, nq)
    out = dc.add(query_f, linear(store, f"{name}.out", agg))
    return layer_norm(store, f"{name}.ln", out)


def fuse_scene(actor_f, actor_pos, lane_f, lane_pos, boundary_f, boundary_pos,
               matched, store, cfg):
    """Run the four blocks in order; returns updated actor features [A, D]."""
    lane_f = fuse_boundary_to_lane(lane_f, boundary_f, matched, store)
    actor_f = distance_attention(actor_f, actor_pos, lane_f, lane_pos, store,
                                 "fuse.l2a", cfg.tau_lane)
    actor_f = distance_attention(actor_f, actor_pos, boundary_f, boundary_pos, store,
                                 "fuse.b2a", cfg.tau_boundary)
    actor_f = distance_attention(actor_f, actor_pos, actor_f, actor_pos, store,
                                 "fuse.a2a", cfg.tau_actor, exclude_self=True)
    return actor_f
