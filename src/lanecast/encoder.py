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
from ._layers import (conv, init_conv, init_layer_norm, init_linear, layer_norm, linear,
                      run_steps)
from .errors import ContractError, ParseError
from .scene import ADJ_CATEGORIES, MARKINGS

MIN_H = 4  # the fewest history steps the actor encoder takes
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


def check_history(scene):
    """ParseError("horizon.H") unless the actor encoder can read the scene's history."""
    if scene.horizon[0] < MIN_H:
        raise ParseError("horizon.H", f"horizon.H: scene {scene.scene_id!r} has "
                         f"H={scene.horizon[0]}, the actor encoder needs H >= {MIN_H}")


def actor_steps(scene, cfg):
    """`encode_actors` as a graph of steps, each `(name, fn, reads)` as
    `run_steps` takes them: the three branch res-blocks, each added onto the
    sum of the ones before by a step of its own, then down1, down2, and the
    pyramid and pool, named "actors", whose output is (features, positions).

    Unobserved steps are zero-filled on input and excluded from the final
    temporal max-pool. Positions are each actor's last observed point.
    """
    h = scene.horizon[0]
    if h < MIN_H:
        raise ContractError(f"actor encoder needs H >= {MIN_H}, got {h}")
    obs = scene.observed  # [A, H]
    seen = obs.any(axis=1)
    if not seen.all():
        raise ContractError(f"actor {scene.actors[int(np.argmin(seen))].id} has no observed steps")
    s = cfg.input_scale
    streams = {"coord": scene.positions * s,  # each [A, H, 2]
               "heading": np.stack([np.cos(scene.headings), np.sin(scene.headings)], axis=-1),
               "vel": scene.velocities * s}

    def branch(br):
        return (f"actor.{br}",
                lambda store: _res_block(store, f"actor.{br}", streams[br] * obs[:, :, None]), ())

    def down(name, x):
        return name, lambda store, f: _res_block(store, name, f, stride=2), (x,)

    def pool(store, f0, f1, f2):
        u2 = conv(store, "actor.lat2", f2)
        u1 = dc.add(conv(store, "actor.lat1", f1), _upsample(u2, f1.shape[1]))
        u0 = dc.add(conv(store, "actor.lat0", f0), _upsample(u1, h))
        merged = dc.relu(conv(store, "actor.merge", u0, padding=1))  # [A, H, D]
        # mask the unobserved steps out of the max
        neg = np.where(obs, 0.0, _NEG_BIG)[:, :, None]
        pooled = dc.max(dc.add(merged, neg), axis=1)  # [A, D]
        last = h - 1 - np.argmax(obs[:, ::-1], axis=1)
        return pooled, scene.positions[np.arange(len(obs)), last]

    def add(name, a, b):
        return name, lambda store, x, y: dc.add(x, y), (a, b)

    return [branch("coord"), branch("heading"), add("actor.sum2", "actor.coord", "actor.heading"),
            branch("vel"), add("actor.sum3", "actor.sum2", "actor.vel"),
            down("actor.down1", "actor.sum3"), down("actor.down2", "actor.down1"),
            ("actors", pool, ("actor.sum3", "actor.down1", "actor.down2"))]


def encode_actors(scene, store, cfg):
    """All actors of a normalized scene -> (features [A, D], positions [A, 2]),
    read from the scene's packed actor arrays by one run of `actor_steps`."""
    return run_steps(actor_steps(scene, cfg), store)


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


def lane_steps(graph, cfg):
    """`encode_lane_nodes` as a graph of steps: the input MLP, then one step
    per gated graph conv layer, each reading the one before; the last is
    named "lanes"."""
    if graph.n_nodes == 0:
        raise ContractError("cannot encode an empty lane graph")
    s = cfg.input_scale
    feats = np.concatenate([graph.centers * s, graph.directions,
                            graph.lengths[:, None] * s], axis=1)
    names = ["lane.in"] + [f"lane.gc{layer}" for layer in range(cfg.l_graph - 1)] + ["lanes"]

    def layer(i):
        return lambda store, x: gated_lane_graph_conv(x, graph, store, f"lane.gc{i}")

    return [("lane.in", lambda store: _input_mlp(store, "lane", feats), ())] + [
        (names[i + 1], layer(i), (names[i],)) for i in range(cfg.l_graph)]


def encode_lane_nodes(graph, store, cfg):
    """Lane graph -> per-node features [N, D]: one run of `lane_steps`."""
    return run_steps(lane_steps(graph, cfg), store)


# ---------------------------------------------------------------------------
# boundaries


def init_boundary_encoder(store, cfg, rng):
    _init_input_mlp(store, "bound", 4 + len(MARKINGS), cfg.d, rng)


def encode_boundaries(scene, store, cfg):
    """A scene's packed boundary nodes -> (features [B, D], positions [B, 2],
    matched [B]). Features are center, direction and marking one-hot.

    An empty boundary set yields a (0, D) feature matrix; downstream fusion
    treats that as "no context".
    """
    feats = np.concatenate([scene.node_centers * cfg.input_scale, scene.node_directions,
                            np.eye(len(MARKINGS))[scene.node_markings]], axis=1)
    return _input_mlp(store, "bound", feats), scene.node_centers, scene.matched_lane_nodes


def init_encoders(store, cfg, rng):
    init_actor_encoder(store, cfg, rng)
    init_lane_encoder(store, cfg, rng)
    init_boundary_encoder(store, cfg, rng)
