"""Embedding extraction for the three input streams.

Actors: time-major [A, H, C] sequences, like the [N, D] rows of every other
block. Each history channel group (coordinates, heading as cos/sin,
velocity) runs through its own residual 1-d conv block; the three outputs
are added, downsampled twice, merged back to full temporal resolution by a
small feature pyramid, and max-pooled over observed steps.

Lane nodes: geometry MLP followed by L gated graph convolution layers, where
each adjacency category contributes a per-node sigmoid-gated neighbor sum.
The four categories keep their own parameters but run as one stacked pass:
one matmul for every message, then one gather and one scatter_add over all
typed edges.

Boundary nodes: geometry + marking one-hot through an MLP.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from ._layers import conv, init_conv, init_layer_norm, init_linear, layer_norm, linear
from .errors import ContractError
from .scene import ADJ_CATEGORIES, MARKINGS

_BRANCHES = ("coord", "heading", "vel")
_NEG_BIG = -1e9


def init_actor_encoder(store, cfg, rng):
    d = cfg.d
    for br in _BRANCHES:
        _init_res_block(store, f"actor.{br}", 2, d, rng)
    _init_res_block(store, "actor.down1", d, d, rng)
    _init_res_block(store, "actor.down2", d, d, rng)
    for scale in range(3):
        init_conv(store, f"actor.lat{scale}", d, d, 1, rng)
    init_conv(store, "actor.merge", d, d, 3, rng)


def _init_res_block(store, name, c_in, c_out, rng):
    init_conv(store, f"{name}.conv1", c_in, c_out, 3, rng)
    init_layer_norm(store, f"{name}.ln1", c_out)
    init_conv(store, f"{name}.conv2", c_out, c_out, 3, rng)
    init_layer_norm(store, f"{name}.ln2", c_out)
    init_conv(store, f"{name}.skip", c_in, c_out, 1, rng, bias=False)


def _res_block(store, name, x, stride=1):
    h = conv(store, f"{name}.conv1", x, stride=stride, padding=1)
    h = dc.relu(layer_norm(store, f"{name}.ln1", h))
    h = conv(store, f"{name}.conv2", h, stride=1, padding=1)
    h = layer_norm(store, f"{name}.ln2", h)
    skip = conv(store, f"{name}.skip", x, stride=stride, padding=0)
    return dc.relu(dc.add(h, skip))


def _upsample(x, length):
    return dc.gather(x, (np.arange(length) * x.shape[1]) // length, axis=1)


def encode_actors(scene, store, cfg):
    """All actors of a normalized scene -> (features [A, D], positions [A, 2]).

    Unobserved steps are zero-filled on input and excluded from the final
    temporal max-pool. Positions are each actor's last observed point.
    """
    h = scene.horizon[0]
    if h < 4:
        raise ContractError(f"actor encoder needs H >= 4, got {h}")
    actors = scene.actors
    if not actors:
        raise ContractError("scene has no actors")

    obs = np.stack([act.observed for act in actors])  # [A, H]
    s = cfg.input_scale
    headings = np.stack([act.headings for act in actors])
    streams = {"coord": np.stack([act.positions for act in actors]) * s,  # each [A, H, 2]
               "heading": np.stack([np.cos(headings), np.sin(headings)], axis=-1),
               "vel": np.stack([act.velocities for act in actors]) * s}

    f0 = None
    for br in _BRANCHES:
        out = _res_block(store, f"actor.{br}", streams[br] * obs[:, :, None])
        f0 = out if f0 is None else dc.add(f0, out)
    f1 = _res_block(store, "actor.down1", f0, stride=2)
    f2 = _res_block(store, "actor.down2", f1, stride=2)

    u2 = conv(store, "actor.lat2", f2)
    u1 = dc.add(conv(store, "actor.lat1", f1), _upsample(u2, f1.shape[1]))
    u0 = dc.add(conv(store, "actor.lat0", f0), _upsample(u1, h))
    merged = dc.relu(conv(store, "actor.merge", u0, padding=1))  # [A, H, D]

    # mask the unobserved steps out of the max
    neg = np.where(obs, 0.0, _NEG_BIG)[:, :, None]
    pooled = dc.max(dc.add(merged, neg), axis=1)  # [A, D]

    # raises ContractError for an actor with no observed step
    positions = np.stack([act.positions[act.last_observed_index()] for act in actors])
    return pooled, positions


# ---------------------------------------------------------------------------
# lanes and boundaries: both open with the same two-layer input MLP


def _init_input_mlp(store, prefix, n_in, d, rng):
    for i, width in ((1, n_in), (2, d)):
        init_linear(store, f"{prefix}.in{i}", width, d, rng)
        init_layer_norm(store, f"{prefix}.ln{i}", d)


def _input_mlp(store, prefix, x):
    """Node features [N, n_in] -> [N, D] through relu(layer_norm(linear)) twice."""
    for i in (1, 2):
        x = dc.relu(layer_norm(store, f"{prefix}.ln{i}", linear(store, f"{prefix}.in{i}", x)))
    return x


def init_lane_encoder(store, cfg, rng):
    d = cfg.d
    _init_input_mlp(store, "lane", 5, d, rng)
    for layer in range(cfg.l_graph):
        p = f"lane.gc{layer}"
        init_linear(store, f"{p}.self", d, d, rng, bias=False)
        for cat in ADJ_CATEGORIES:
            init_linear(store, f"{p}.{cat}.w", d, d, rng, bias=False)
            init_linear(store, f"{p}.{cat}.gate", d, 1, rng)
        init_layer_norm(store, f"{p}.ln", d)


def _typed_edges(graph):
    """Every edge (i, j) of category c as (i, row j*C+c, row i*C+c): the
    receiving node, the row of its message and the row of its gate."""
    per_cat = [graph.adjacency[cat] for cat in ADJ_CATEGORIES]
    c, edges = len(per_cat), np.concatenate(per_cat).reshape(-1, 2)
    cats = np.repeat(np.arange(c), [e.shape[0] for e in per_cat])
    return edges[:, 0], edges[:, 1] * c + cats, edges[:, 0] * c + cats


def gated_lane_graph_conv(x, graph, store, prefix):
    """One layer: Y_i = X_i W0 + sum_c g_ic * sum_{j in N_c(i)} X_j W_c,
    g_ic = sigmoid(X_i U_c + b_c); returns layer_norm(relu(Y)) + X.

    The C categories run as one stacked pass over their own parameters: row
    i*C+c of X [W_1..W_C] is X_i W_c and of the flattened [N, C] gates is
    g_ic. Every typed edge gathers its message and its gate, and one
    scatter_add sums the gated messages into their nodes, so a category
    without edges adds nothing."""
    n, d = x.shape
    c = len(ADJ_CATEGORIES)

    def stacked(name, axis):
        return dc.concat([store[f"{prefix}.{cat}.{name}"] for cat in ADJ_CATEGORIES], axis=axis)

    src, msg_rows, gate_rows = _typed_edges(graph)
    rows = dc.reshape(dc.matmul(x, stacked("w.w", 1)), (n * c, d))
    gate = dc.sigmoid(dc.matmul(x, stacked("gate.w", 1), stacked("gate.b", 0)))
    gate = dc.gather(dc.reshape(gate, (n * c, 1)), gate_rows, axis=0)  # [E, 1]
    msgs = dc.mul(dc.gather(rows, msg_rows, axis=0), gate)
    y = dc.add(linear(store, f"{prefix}.self", x), dc.scatter_add(msgs, src, n))
    return dc.add(layer_norm(store, f"{prefix}.ln", dc.relu(y)), x)


def encode_lane_nodes(graph, store, cfg):
    """Lane graph -> per-node features [N, D]."""
    if graph.n_nodes == 0:
        raise ContractError("cannot encode an empty lane graph")
    s = cfg.input_scale
    feats = np.concatenate([graph.centers * s, graph.directions,
                            graph.lengths[:, None] * s], axis=1)
    x = _input_mlp(store, "lane", feats)
    for layer in range(cfg.l_graph):
        x = gated_lane_graph_conv(x, graph, store, f"lane.gc{layer}")
    return x


# ---------------------------------------------------------------------------
# boundaries


def init_boundary_encoder(store, cfg, rng):
    _init_input_mlp(store, "bound", 4 + len(MARKINGS), cfg.d, rng)


def boundary_nodes(boundaries):
    """Flatten resampled boundary nodes across polylines.

    Returns (centers [B,2], directions [B,2], marking one-hot [B,4],
    matched lane-node index [B], -1 where unmatched).
    """
    sizes = [b.node_centers.shape[0] for b in boundaries]
    centers = np.concatenate([np.zeros((0, 2))] + [b.node_centers for b in boundaries])
    directions = np.concatenate([np.zeros((0, 2))] + [b.node_directions for b in boundaries])
    kinds = np.repeat([MARKINGS.index(b.marking) for b in boundaries], sizes).astype(np.int64)
    full = [len(b.matched_lane_nodes) == m for b, m in zip(boundaries, sizes)]
    matched = np.full(len(centers), -1, dtype=np.int64)
    matched[np.repeat(full, sizes).astype(bool)] = [
        j for b, f in zip(boundaries, full) if f for j in b.matched_lane_nodes]
    return centers, directions, np.eye(len(MARKINGS))[kinds], matched


def encode_boundaries(boundaries, store, cfg):
    """Boundary polylines -> (features [B, D], positions [B, 2], matched [B]).

    An empty boundary set yields a (0, D) feature matrix; downstream fusion
    treats that as "no context".
    """
    centers, directions, marks, matched = boundary_nodes(boundaries)
    feats = np.concatenate([centers * cfg.input_scale, directions, marks], axis=1)
    return _input_mlp(store, "bound", feats), centers, matched


def init_encoders(store, cfg, rng):
    init_actor_encoder(store, cfg, rng)
    init_lane_encoder(store, cfg, rng)
    init_boundary_encoder(store, cfg, rng)
