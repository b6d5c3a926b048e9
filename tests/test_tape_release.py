"""`backward` walks a graph once and frees it as it goes: gradients equal the
retaining walk's bit for bit, the forward arrays go while the caller still
holds the loss, only the gradients in flight stay, a second walk through a
freed node raises, and the memory the walk adds stays small next to the
forward tape."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import optim
from lanecast.config import ModelConfig, RunConfig
from lanecast.decoder import S1, S2, init_model
from lanecast.diffcore import tensor
from lanecast.errors import ContractError
from lanecast.scene import SceneGenConfig, generate_synthetic


def retaining_backward(loss, params):
    """The walk `backward` replaced: every node, vjp and gradient stays alive
    until it returns. Kept as the reference for bit-identity."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p, _ in node._edges:
            if id(p) not in seen:
                stack.append((p, False))
    grads = {id(loss): np.ones((), dtype=loss.dtype)}
    for node in reversed(order):
        g = grads[id(node)]
        for inp, vjp in node._edges:
            gi = vjp(g)
            acc = grads.get(id(inp))
            grads[id(inp)] = gi if acc is None else acc + gi
    return {name: np.zeros_like(t.data) if id(t) not in grads
            else np.asarray(grads[id(t)], dtype=t.dtype) for name, t in params.items()}


def _batch(d, l_graph, n_views, dtype, n_lanes=2):
    gen = SceneGenConfig(n_lanes=n_lanes, n_actors=3, lane_length=60.0, h=8, t=10)
    scenes = [generate_synthetic(gen, 40 + i, scene_id=f"s{i}") for i in range(n_views)]
    cfg = RunConfig(model=ModelConfig(d=d, l_graph=l_graph))
    store = dc.ParamStore(dtype)
    init_model(store, cfg.model, gen.t, np.random.default_rng(5))
    views = optim._scene_views(scenes)[:n_views]
    assert len(views) == n_views
    return scenes, views, cfg, store


def _batch_loss(scenes, views, cfg, store, stage):
    """The loss one `optim.train` step differentiates: the mean of the view losses."""
    acc = None
    for si, aid in views:
        loss, _, _ = optim._view_loss(scenes[si], aid, store, cfg, stage)
        acc = loss if acc is None else dc.add(acc, loss)
    return dc.scale(acc, 1.0 / len(views))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stage", [S1, S2])
def test_pipeline_gradients_equal_the_retaining_walk_bit_for_bit(stage, dtype):
    scenes, views, cfg, store = _batch(16, 2, 3, dtype)
    params = dict(store.items())
    want = retaining_backward(_batch_loss(scenes, views, cfg, store, stage), params)
    got = dc.backward(_batch_loss(scenes, views, cfg, store, stage), params)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)
    # the completion head is off the tape in stage one
    assert (stage == S1) == (not np.any(got["dec.comp.l1.w"]))


def test_the_order_holds_no_leaf_and_a_shared_leaf_sums_as_before():
    """Leaves have no vjp, so the walk leaves them out of its order. A
    parameter that several ops use still gets the bytes of the walk that
    ordered it too (the retaining reference)."""
    rng = np.random.default_rng(0)
    w = dc.Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
    x = rng.normal(size=(3, 4)).astype(np.float32)

    def loss():  # w enters three matmuls
        h = dc.matmul(dc.relu(dc.matmul(x, w)), w)
        return dc.sum(dc.mul(dc.add(h, dc.matmul(h, w)), h))

    order = tensor._topological_order(loss())
    assert [t.op for t in order] == ["matmul", "relu", "matmul", "matmul", "add", "mul", "sum"]
    assert dc.backward(loss(), {"w": w})["w"].tobytes() == \
        retaining_backward(loss(), {"w": w})["w"].tobytes()

    scenes, views, cfg, store = _batch(16, 2, 2, np.float32)
    order = tensor._topological_order(_batch_loss(scenes, views, cfg, store, S2))
    assert order and all(t.op is not None and t._edges for t in order)


def test_the_walk_frees_the_forward_arrays_while_the_caller_holds_the_loss():
    scenes, views, cfg, store = _batch(16, 2, 2, np.float64)
    loss = _batch_loss(scenes, views, cfg, store, S2)
    order = tensor._topological_order(loss)
    arrays = [weakref.ref(t.data) for t in order if t.op is not None and t is not loss]
    del order
    assert len(arrays) > 300
    dc.backward(loss, dict(store.items()))
    assert [r for r in arrays if r() is not None] == []
    assert loss.op == "scale" and loss._edges == ()


def test_the_walk_holds_only_the_gradients_in_flight():
    """With the caller holding every node, nothing of the tape can go; the
    walk then adds a few arrays at a time, not one gradient per node."""
    w = dc.Tensor(np.ones(100_000), requires_grad=True)
    chain = [w]
    for _ in range(20):
        chain.append(dc.scale(chain[-1], 1.0))
    loss = dc.sum(chain[-1])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dc.backward(loss, {"w": w})
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert extra <= 4 * w.data.nbytes, f"{extra} B over {len(chain)} nodes of {w.data.nbytes} B"


def test_a_second_walk_through_a_freed_graph_raises_naming_the_op():
    w = dc.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    h = dc.relu(dc.matmul(dc.Tensor(np.ones((4, 2))), w))
    loss = dc.sum(h)
    dc.backward(loss, {"w": w})
    with pytest.raises(ContractError, match="'sum' was already walked"):
        dc.backward(loss, {"w": w})
    # a new loss over an intermediate of the walked graph reaches a freed node
    with pytest.raises(ContractError, match="'relu' was already walked"):
        dc.backward(dc.mean(h), {"w": w})
    assert h.op == "relu" and h._edges == ()


def test_two_losses_that_share_only_leaves_both_walk():
    rng = np.random.default_rng(0)
    w = dc.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    x = dc.Tensor(rng.normal(size=(5, 3)))
    first = dc.sum(dc.mul(dc.matmul(x, w), dc.matmul(x, w)))
    second = dc.mean(dc.relu(dc.matmul(x, w)))
    g1 = dc.backward(first, {"w": w})["w"]
    g2 = dc.backward(second, {"w": w})["w"]
    y = x.data @ w.data
    np.testing.assert_allclose(g1, 2 * x.data.T @ y, rtol=1e-12)
    np.testing.assert_allclose(g2, x.data.T @ ((y > 0) / y.size), rtol=1e-12)


def test_a_non_leaf_in_params_keeps_its_gradient():
    rng = np.random.default_rng(1)
    w = dc.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    h = dc.matmul(dc.Tensor(rng.normal(size=(2, 3))), w)
    grads = dc.backward(dc.sum(dc.mul(h, h)), {"h": h, "w": w})
    np.testing.assert_array_equal(grads["h"], 2 * h.data)
    assert grads["w"].shape == (3, 4)


def test_backward_peak_stays_within_a_tenth_of_the_forward_tape():
    scenes, views, cfg, store = _batch(32, 2, 4, np.float32, n_lanes=4)
    params = dict(store.items())
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = _batch_loss(scenes, views, cfg, store, S2)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        dc.backward(loss, params)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held > 1_000_000  # a real tape, not a fixture that holds nothing
    assert peak <= 1.1 * held, f"backward peak {peak} B over a {held} B forward tape"
