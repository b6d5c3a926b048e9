"""The three actor branches as one stacked block over views of the store's
buffer, against the per-branch encoder it replaced (kept here as the
reference): forward bytes and every per-name gradient, in float32 and
float64; the grouped conv1d and layer_norm against their per-group calls;
the order of the group sum; and every parameter a view of the store's one
buffer after `init_model`, `load` and each grad-check fixture."""

import inspect

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import encoder, verify
from lanecast._layers import run_steps
from lanecast.config import ModelConfig
from lanecast.decoder import init_model
from lanecast.diffcore import tensor
from lanecast.errors import ContractError, ShapeError
from lanecast.scene import SceneGenConfig, generate_synthetic, normalize

BRANCHES = ("coord", "heading", "vel")


def reference_res_block(store, name, x):
    """One branch's residual block on its own parameters, as the encoder ran it."""
    def conv(part, h, padding):
        b = store[f"{name}.{part}.b"] if f"{name}.{part}.b" in store else None
        return dc.conv1d(h, store[f"{name}.{part}.w"], b, padding=padding)

    def norm(part, h):
        return dc.layer_norm(h, store[f"{name}.{part}.g"], store[f"{name}.{part}.b"])

    h = dc.relu(norm("ln1", conv("conv1", x, 1)))
    h = norm("ln2", conv("conv2", h, 1))
    return dc.relu(dc.add(h, conv("skip", x, 0)))


def reference_encode_actors(scene, store, cfg):
    """The per-branch actor encoder: each branch on its own parameters, the
    outputs added as (coord + heading) + vel, then the library's down1,
    down2 and pool steps on that sum."""
    obs = scene.observed[:, :, None]
    s = cfg.input_scale
    streams = {"coord": scene.positions * s,
               "heading": np.stack([np.cos(scene.headings), np.sin(scene.headings)], axis=-1),
               "vel": scene.velocities * s}
    out = [reference_res_block(store, f"actor.{br}", streams[br] * obs) for br in BRANCHES]
    total = dc.add(dc.add(out[0], out[1]), out[2])
    rest = encoder.actor_steps(scene, cfg)[1:]
    return run_steps(rest, store, given={"actor.branches": total})


def _model(dtype, d=16, seed=0):
    cfg = ModelConfig(d=d, l_graph=1)
    store = dc.ParamStore(dtype)
    init_model(store, cfg, 6, np.random.default_rng(seed))
    rng = np.random.default_rng([seed, 9])
    for name, t in store.items():  # nonzero biases reach every bias path
        if name.endswith(".b"):
            t.data += rng.normal(0.0, 0.1, t.shape)
    return cfg, store


def _scenes():
    gen = SceneGenConfig(n_lanes=2, n_actors=4, lane_length=60.0, h=9, t=6, noise_sigma=0.05)
    for seed in (3, 4):
        scene = generate_synthetic(gen, seed)
        view = normalize(scene, scene.focal_actors()[0].id)
        view.observed[1, :3] = False  # a late start: masked steps in every branch
        yield view


def _actor_names(store):
    return [n for n in store.names() if n.startswith("actor.")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_branches_match_the_per_branch_encoder(dtype):
    cfg, store = _model(dtype)
    for scene in _scenes():
        mix = np.random.default_rng(1).normal(size=(len(scene.actors), cfg.d))
        feats, pos = encoder.encode_actors(scene, store, cfg)
        want, want_pos = reference_encode_actors(scene, store, cfg)
        assert feats.data.dtype == dtype and feats.data.tobytes() == want.data.tobytes()
        np.testing.assert_array_equal(pos, want_pos)
        got = dc.backward(dc.sum(dc.mul(feats, mix)), store)
        ref = dc.backward(dc.sum(dc.mul(want, mix)), store)
        sums = {}
        for _ in range(2):  # a second walk adds onto the first's sums, as the reference's does
            feats, _ = encoder.encode_actors(scene, store, cfg)
            twice = dc.backward(dc.sum(dc.mul(feats, mix)), store, into=sums)
        for name in _actor_names(store):
            assert got[name].dtype == dtype, name
            assert got[name].tobytes() == ref[name].tobytes(), name
            assert twice[name].tobytes() == (ref[name] + ref[name]).tobytes(), name
            assert ref[name].any(), name  # the reference reaches every actor parameter


def test_the_branches_read_their_parameters_only_as_stacks():
    cfg, store = _model(np.float64)
    read = []
    params = store.constants()

    class Reads:
        def __getitem__(self, name):
            read.append(name)
            return params[name]

        def __contains__(self, name):
            return name in params

    encoder.actor_steps(next(_scenes()), cfg)[0][1](Reads())
    assert len(read) == 9 and all(isinstance(n, tuple) and len(n) == 3 for n in read)
    assert {m for names in read for m in names} == {
        n for n in store.names() if n.split(".")[1] in BRANCHES}


def test_the_actor_encoder_runs_36_ops(monkeypatch):
    cfg, store = _model(np.float32)
    ops = []
    make = tensor._make
    monkeypatch.setattr(tensor, "_make", lambda *a: ops.append(a[1]) or make(*a))
    encoder.encode_actors(next(_scenes()), store, cfg)
    assert len(ops) == 36
    assert ops[:9] == ["conv1d", "layer_norm", "relu", "conv1d", "layer_norm", "conv1d",
                       "add", "relu", "sum"]


# ---------------------------------------------------------------------------
# the grouped ops against one call per group


def _buffer_views(rng, dtype, shapes, groups=3):
    """`groups` consecutive blocks of `shapes` in one flat array, and each
    shape's [groups, ...] stack as a strided view of it."""
    sizes = [int(np.prod(s)) for s in shapes]
    block = sum(sizes)
    flat = rng.normal(size=groups * block).astype(dtype)
    stacks = []
    for i, shape in enumerate(shapes):
        at = sum(sizes[:i]) * flat.itemsize
        stacks.append(np.ndarray((groups,) + shape, dtype, flat, at,
                                 (block * flat.itemsize,) + tuple(
                                     np.empty(shape, dtype).strides)))
    return stacks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in, c_out, kernel, stride, padding",
                         [(2, 16, 3, 1, 1), (16, 16, 3, 2, 1), (2, 16, 1, 1, 0), (32, 32, 1, 2, 0)])
def test_grouped_conv1d_matches_one_call_per_group(dtype, c_in, c_out, kernel, stride, padding):
    rng = np.random.default_rng(c_in + kernel + stride)
    w, b = _buffer_views(rng, dtype, [(c_out, c_in, kernel), (c_out,)])
    x = dc.Tensor(rng.normal(size=(3, 5, 9, c_in)).astype(dtype), requires_grad=True)
    wt, bt = dc.Tensor(w, requires_grad=True), dc.Tensor(b, requires_grad=True)
    mix = rng.normal(size=(3, 5, (9 + 2 * padding - kernel) // stride + 1, c_out))
    y = dc.conv1d(x, wt, bt, stride=stride, padding=padding)
    grads = dc.backward(dc.sum(dc.mul(y, mix)), {"x": x, "w": wt, "b": bt})
    for g in range(3):
        xg = dc.Tensor(x.data[g], requires_grad=True)
        wg = dc.Tensor(np.ascontiguousarray(w[g]), requires_grad=True)
        bg = dc.Tensor(b[g].copy(), requires_grad=True)
        yg = dc.conv1d(xg, wg, bg, stride=stride, padding=padding)
        assert yg.data.tobytes() == y.data[g].tobytes()
        want = dc.backward(dc.sum(dc.mul(yg, mix[g])), {"x": xg, "w": wg, "b": bg})
        for name in want:
            assert want[name].tobytes() == grads[name][g].tobytes(), (g, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_layer_norm_matches_one_call_per_group(dtype):
    rng = np.random.default_rng(8)
    gamma, beta = _buffer_views(rng, dtype, [(16,), (16,)])
    x = dc.Tensor(rng.normal(size=(3, 5, 9, 16)).astype(dtype), requires_grad=True)
    gt, bt = dc.Tensor(gamma, requires_grad=True), dc.Tensor(beta, requires_grad=True)
    mix = rng.normal(size=x.shape)
    y = dc.layer_norm(x, gt, bt, grouped=True)
    grads = dc.backward(dc.sum(dc.mul(y, mix)), {"x": x, "g": gt, "b": bt})
    for g in range(3):
        xg = dc.Tensor(x.data[g], requires_grad=True)
        gg = dc.Tensor(gamma[g].copy(), requires_grad=True)
        bg = dc.Tensor(beta[g].copy(), requires_grad=True)
        yg = dc.layer_norm(xg, gg, bg)
        assert yg.data.tobytes() == y.data[g].tobytes()
        want = dc.backward(dc.sum(dc.mul(yg, mix[g])), {"x": xg, "g": gg, "b": bg})
        for name in want:
            assert want[name].tobytes() == grads[name][g].tobytes(), (g, name)


@pytest.mark.parametrize("gamma_shape", [(3, 8), (3, 1, 1, 8), (4,), (2, 8), (8,)])
def test_layer_norm_takes_one_affine_per_group_only_when_grouped(gamma_shape):
    x = np.ones((3, 2, 5, 8))
    if gamma_shape == (3, 8):
        dc.layer_norm(x, np.ones(gamma_shape), np.zeros(gamma_shape), grouped=True)
    else:
        with pytest.raises(ShapeError, match="affine shapes .* grouped input"):
            dc.layer_norm(x, np.ones(gamma_shape), np.zeros(gamma_shape), grouped=True)
    if gamma_shape == (8,):
        dc.layer_norm(x, np.ones(gamma_shape), np.zeros(gamma_shape))
    else:  # an ungrouped input takes one [D] affine, whatever its leading axes
        with pytest.raises(ShapeError, match="affine shapes"):
            dc.layer_norm(x, np.ones(gamma_shape), np.zeros(gamma_shape))
    with pytest.raises(ShapeError, match="affine shapes"):
        dc.layer_norm(np.ones((3, 8)), np.ones((3, 8)), np.zeros((3, 8)), grouped=True)


def test_a_per_actor_affine_on_an_ungrouped_input_is_rejected():
    """down1/down2 run [A, H, D] ungrouped: an [A, D] gamma there is an error,
    not one affine per actor."""
    with pytest.raises(ShapeError, match="affine shapes"):
        dc.layer_norm(np.ones((4, 6, 8)), np.ones((4, 8)), np.zeros((4, 8)))


def test_the_group_sum_adds_coord_and_heading_first():
    """(a + b) + c and a + (b + c) differ in float32 here; the leading-axis
    sum gives the first, as the per-branch adds did, forward and backward."""
    a = np.full((2, 3), 1.0, np.float32)
    b = np.full((2, 3), 2.0 ** -24, np.float32)
    c = np.full((2, 3), 2.0 ** -24, np.float32)
    assert ((a + b) + c).tobytes() != (a + (b + c)).tobytes()
    x = dc.Tensor(np.stack([a, b, c]), requires_grad=True)
    y = dc.sum(x, axis=0)
    assert y.data.tobytes() == dc.add(dc.add(a, b), c).data.tobytes() == ((a + b) + c).tobytes()
    mix = np.arange(6, dtype=np.float32).reshape(2, 3)
    g = dc.backward(dc.sum(dc.mul(y, mix)), {"x": x})["x"]
    np.testing.assert_array_equal(g, np.stack([mix] * 3))


# ---------------------------------------------------------------------------
# one buffer


def assert_all_views(store):
    assert store.flat is not None and store.flat.size == sum(t.size for _, t in store.items())
    at = 0
    for name, t in store.items():
        assert t.data.base is store.flat, name
        assert np.shares_memory(t.data, store.flat[at:at + t.size]), name
        at += t.size


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_parameter_is_a_view_after_init_and_load(dtype, tmp_path):
    cfg, store = _model(dtype)
    assert_all_views(store)
    store.save(tmp_path / "c.bin")
    loaded = dc.ParamStore.load(tmp_path / "c.bin")
    assert_all_views(loaded)
    assert loaded.flat.tobytes() == store.flat.tobytes()
    assert loaded.flat.flags.writeable and loaded.flat.dtype == dtype


@pytest.mark.parametrize("block, check", verify.ALL_CHECKS, ids=[b for b, _ in verify.ALL_CHECKS])
def test_every_parameter_is_a_view_in_each_grad_check_fixture(block, check, monkeypatch):
    stores = []
    monkeypatch.setattr(dc, "grad_check",
                        lambda fn, store, **kw: stores.append(store) or (0.0, {}))
    check(seed=0)
    assert len(stores) == 1
    assert_all_views(stores[0])


def test_a_stack_is_a_cached_strided_view_with_no_copy():
    cfg, store = _model(np.float64)
    names = tuple(f"actor.{br}.conv2.w" for br in BRANCHES)
    stack = store[names]
    assert stack is store[names] and stack.requires_grad and stack.op is None
    assert stack.data.base is store.flat and stack.shape == (3,) + store[names[0]].shape
    for i, name in enumerate(names):
        assert store[name]._stacked_as == ((stack, i),)
        np.testing.assert_array_equal(stack.data[i], store[name].data)
    store[names[2]].data[0, 0, 0] = 7.0
    assert stack.data[2, 0, 0, 0] == 7.0
    const = store.constants()[names]
    assert not const.requires_grad and const.data.base is store.flat


def test_a_stack_needs_equal_shapes_and_even_spacing():
    store = dc.ParamStore(np.float64)
    for name, shape in (("a", (2,)), ("b", (2,)), ("c", (3,)), ("d", (2,)), ("e", (2,))):
        store.add(name, np.ones(shape))
    with pytest.raises(ContractError, match="not packed"):
        store[("a", "b")]  # reading never packs: only init_model, load and the fixtures do
    assert store.flat is None
    store.pack()
    with pytest.raises(ContractError, match="cannot stack"):
        store[("a", "c")]
    with pytest.raises(ContractError, match="cannot stack"):
        store[("a", "b", "d")]  # offsets 0, 2, 7
    assert store[("d", "e")].shape == (2, 2)
    store.add("f", np.ones(2))  # unpacks: the stacks go with the old buffer
    assert store.flat is None and not store["d"]._stacked_as
    with pytest.raises(ContractError, match="not packed"):
        store.constants()[("d", "e")]


def test_diffcore_exports_only_ops_and_its_four_entry_points():
    """perfbench counts every other exported function as an op, so an
    exported helper would inflate every `diffcore.calls.*` count."""
    entry = {"Tensor", "ParamStore", "grad_check", "backward"}
    assert entry <= set(dc.__all__)
    for name in set(dc.__all__) - entry:
        fn = getattr(dc, name)
        assert inspect.isfunction(fn) and fn.__module__ == tensor.__name__, name
        assert "_make(" in inspect.getsource(fn), name
