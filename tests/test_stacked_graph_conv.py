"""The stacked gated graph convolution (all four adjacency categories in one
pass) against the per-category loop it replaced, plus a guard that its op
count does not depend on which categories have edges."""

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import encoder
from lanecast import scene as sc
from lanecast._layers import layer_norm, linear
from lanecast.config import ModelConfig
from lanecast.diffcore import tensor

TOL = 1e-12


def per_category_conv(x, graph, store, prefix):
    """The previous layer: one pass per category, empty categories skipped."""
    n = x.shape[0]
    ones_row = np.ones((1, x.shape[1]))
    y = linear(store, f"{prefix}.self", x)
    for cat in sc.ADJ_CATEGORIES:
        edges = graph.adjacency[cat]
        if edges.shape[0] == 0:
            continue
        src, dst = edges[:, 0], edges[:, 1]
        msgs = linear(store, f"{prefix}.{cat}.w", dc.gather(x, dst, axis=0))
        agg = dc.scatter_add(msgs, src, n)
        gate = dc.sigmoid(linear(store, f"{prefix}.{cat}.gate", x))
        y = dc.add(y, dc.mul(dc.matmul(gate, ones_row), agg))
    return dc.add(layer_norm(store, f"{prefix}.ln", dc.relu(y)), x)


def _layer_store(d, seed):
    store = dc.ParamStore(np.float64)
    encoder.init_lane_encoder(store, ModelConfig(d=d, l_graph=1), np.random.default_rng(seed))
    rng = np.random.default_rng([seed, 1])
    for name, t in store.items():  # nonzero biases exercise the gate bias path
        if name.endswith(".b"):
            t.data = t.data + rng.normal(0.0, 0.3, t.shape)
    return store


def _value_and_grads(conv, x_data, graph, store):
    x = dc.Tensor(x_data, requires_grad=True)
    out = conv(x, graph, store, "lane.gc0")
    mix = np.random.default_rng(7).normal(size=out.shape)
    loss = dc.sum(dc.mul(out, dc.Tensor(mix)))
    grads = dc.backward(loss, {**dict(store.items()), "x": x})
    return out.data, grads


def _assert_equivalent(graph, d, seed):
    store = _layer_store(d, seed)
    x = np.random.default_rng(seed + 100).normal(size=(graph.n_nodes, d))
    got, got_g = _value_and_grads(encoder.gated_lane_graph_conv, x, graph, store)
    want, want_g = _value_and_grads(per_category_conv, x, graph, store)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    assert got_g.keys() == want_g.keys()
    for name in want_g:
        np.testing.assert_allclose(got_g[name], want_g[name], rtol=0, atol=TOL, err_msg=name)


def _one_lane(length):
    lane = sc.Lane("L0", np.array([[0.0, 0.0], [length, 0.0]]))
    graph, _ = sc.build_lane_nodes([lane])
    return graph


@pytest.mark.parametrize("seed", range(12))
def test_random_multi_lane_graphs_match_per_category_loop(seed):
    rng = np.random.default_rng(seed)
    gen = sc.SceneGenConfig(n_lanes=int(rng.integers(2, 5)),
                            lane_length=float(rng.uniform(15, 45)))
    graph = sc.generate_synthetic(gen, seed=seed).lane_graph
    assert all(graph.adjacency[cat].shape[0] for cat in sc.ADJ_CATEGORIES)
    _assert_equivalent(graph, d=int(rng.choice([4, 8, 16])), seed=seed)


def test_one_lane_graph_without_left_or_right():
    graph = _one_lane(20.0)
    assert graph.n_nodes > 1
    assert graph.adjacency["successor"].shape[0] > 0
    assert graph.adjacency["left"].shape[0] == graph.adjacency["right"].shape[0] == 0
    _assert_equivalent(graph, d=8, seed=3)


def test_one_node_graph_with_no_edges():
    graph = _one_lane(2.0)
    assert graph.n_nodes == 1
    assert all(graph.adjacency[cat].shape[0] == 0 for cat in sc.ADJ_CATEGORIES)
    _assert_equivalent(graph, d=8, seed=4)


def _ops(graph, monkeypatch):
    store = _layer_store(8, 0)
    x = dc.Tensor(np.ones((graph.n_nodes, 8)))
    calls = []
    make = tensor._make
    monkeypatch.setattr(tensor, "_make", lambda *a: calls.append(a[1]) or make(*a))
    encoder.gated_lane_graph_conv(x, graph, store, "lane.gc0")
    monkeypatch.undo()
    return len(calls)


def test_op_count_does_not_depend_on_which_categories_have_edges(monkeypatch):
    full = sc.generate_synthetic(sc.SceneGenConfig(n_lanes=3), seed=0).lane_graph
    counts = {_ops(g, monkeypatch) for g in (full, _one_lane(20.0), _one_lane(2.0))}
    assert len(counts) == 1
    assert counts.pop() <= 19
