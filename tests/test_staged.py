"""Staged finite differences: a `staged` graph reruns only the steps that read
a changed parameter and the steps downstream of them, and every grad-check
report keeps the bytes of a full rerun per evaluation."""

from collections import Counter

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import verify
from lanecast._layers import run_steps
from lanecast.decoder import S2, run_pipeline
from lanecast.diffcore.gradcheck import STEP, staged
from lanecast.encoder import encode_actors, encode_lane_nodes
from lanecast.errors import ContractError
from lanecast.losses import total_loss


def _chain(calls, *names):
    """Step i adds sum(1 / params[names[i]]) onto the output of step i - 1
    and logs i."""
    def step(i, name):
        def run(params, *state):
            calls.append(i)
            return (state[0] if state else 0.0) + float(np.sum(1.0 / params[name].data))
        return str(i), run, (str(i - 1),) if i else ()
    return [step(i, name) for i, name in enumerate(names)]


def _params():
    rng = np.random.default_rng(0)
    return {name: dc.Tensor(rng.uniform(1.0, 2.0, (2, 3))) for name in "abcd"}


def test_a_perturbation_reruns_from_the_first_step_that_reads_it():
    calls, params = [], _params()
    fn = staged(_chain(calls, "a", "b", "c", "d"))
    base = fn(params)
    assert calls == [0, 1, 2, 3]
    flat = params["c"].data.reshape(-1)
    keep = flat[4]
    flat[4] = keep + 1e-3
    calls.clear()
    moved = fn(params)
    assert calls == [2, 3]
    assert moved == run_steps(_chain([], "a", "b", "c", "d"), params) != base
    flat[4] = keep
    calls.clear()
    assert fn(params) == base and calls == [2, 3]  # the restored bytes differ from the last run's
    calls.clear()
    assert fn(params) == base and calls == []


def test_a_write_to_a_parameter_of_step_0_reruns_every_step():
    calls, params = [], _params()
    fn = staged(_chain(calls, "a", "b", "c"))
    fn(params)
    params["a"].data[0, 0] += 1.0
    calls.clear()
    fn(params)
    assert calls == [0, 1, 2]


def test_another_mapping_with_the_same_bytes_reruns_every_step():
    calls, params = [], _params()
    fn = staged(_chain(calls, "a", "b", "c"))
    fn(params)
    calls.clear()
    fn(dict(params))
    assert calls == [0, 1, 2]


def test_negative_zero_is_a_change():
    # 0.0 == -0.0, but 1 / x tells them apart
    calls, params = [], {"a": dc.Tensor(np.zeros(1)), "b": dc.Tensor(np.ones(1))}
    fn = staged(_chain(calls, "b", "a"))
    with np.errstate(divide="ignore"):
        assert fn(params) == np.inf
        params["a"].data[0] = -0.0
        calls.clear()
        assert fn(params) == -np.inf and calls == [1]


def _chain_of(check, monkeypatch):
    """The function and store `check` hands to grad_check."""
    seen = []
    monkeypatch.setattr(dc, "grad_check",
                        lambda fn, store, **kw: seen.append((fn, store)) or (0.0, {}))
    check(seed=0)
    return seen[0]


def test_the_actor_encoder_chain_gives_encode_actors_bytes(monkeypatch):
    fn, store = _chain_of(verify.check_actor_encoder, monkeypatch)
    params = store.constants()
    want = verify._reduce(encode_actors(verify._tiny_scene(), params, verify._tiny_cfg())[0])
    assert fn(params).data.tobytes() == want.data.tobytes()
    assert fn(store).data.tobytes() == want.data.tobytes()


def test_the_pipeline_chain_gives_run_pipeline_bytes(monkeypatch):
    fn, store = _chain_of(verify.check_full_pipeline, monkeypatch)
    scene, params = verify._tiny_scene(n_actors=3), store.constants()
    targets, traj, logits = run_pipeline(scene, params, verify._tiny_cfg(), S2)
    want = total_loss(targets, traj, logits, scene.future, scene.has_future,
                      scene.observed[:, -1])[0]
    assert fn(params).data.tobytes() == want.data.tobytes()
    params["dec.comp.l2.w"].data[0, 0] += 0.5
    moved = fn(params)
    assert moved.data.tobytes() != want.data.tobytes()
    targets, traj, logits = run_pipeline(scene, params, verify._tiny_cfg(), S2)
    assert moved.data.tobytes() == total_loss(targets, traj, logits, scene.future,
                                              scene.has_future,
                                              scene.observed[:, -1])[0].data.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_staged_and_full_rerun_reports_match(seed, monkeypatch):
    got = [repr(check(seed=seed)) for _, check in verify.ALL_CHECKS]
    monkeypatch.setattr(verify, "staged", lambda steps: lambda p: run_steps(steps, p))
    want = [repr(check(seed=seed)) for _, check in verify.ALL_CHECKS]
    assert got == want


# ---------------------------------------------------------------------------
# the step graphs of the checks


class _Recorder:
    """A params mapping that adds the names read through it to `names`."""

    def __init__(self, params, names):
        self.params, self.names = params, names

    def __getitem__(self, name):
        self.names.add(name)
        return self.params[name]

    def __contains__(self, name):
        return name in self.params


def _graph_of(check, monkeypatch):
    """(fn, store, steps, runs, reads) for the staged graph `check` hands to
    grad_check: its steps as (name, reads) in order, a Counter of the runs of
    each step by name, and the parameter names each step has read."""
    runs, reads, graph, real = Counter(), {}, [], verify.staged

    def counted(name, step):
        def run(params, *inputs):
            runs[name] += 1
            return step(_Recorder(params, reads.setdefault(name, set())), *inputs)
        return run

    def staged(steps):
        graph.extend((name, r) for name, _, r in steps)
        return real([(name, counted(name, step), r) for name, step, r in steps])

    monkeypatch.setattr(verify, "staged", staged)
    fn, store = _chain_of(check, monkeypatch)
    return fn, store, graph, runs, reads


def _rerun(fn, params, name, runs):
    """The steps, each run once, that a write to one coordinate of `name` reruns."""
    fn(params)
    runs.clear()
    params[name].data.reshape(-1)[0] += 1e-3
    fn(params)
    assert set(runs.values()) <= {1}
    return set(runs)


_LANES = {"lane.in", "lane.gc0", "lanes", "boundaries", "fuse.b2l"}
_AFTER_FUSION = {"targets", "completion", "check"}


def test_a_lane_gc1_weight_reruns_only_gc1_and_what_follows(monkeypatch):
    fn, store, graph, runs, _ = _graph_of(verify.check_full_pipeline, monkeypatch)
    assert [name for name, _ in graph][8:12] == ["lane.in", "lane.gc0", "lanes", "boundaries"]
    params = store.constants()
    for name in [n for n in store.names() if n.startswith("lane.gc1.")]:
        assert _rerun(fn, params, name, runs) == {
            "lanes", "fuse.b2l", "fuse.l2a", "fuse.b2a", "fused"} | _AFTER_FUSION, name


def test_an_actor_parameter_never_reruns_the_lane_boundary_or_b2l_steps(monkeypatch):
    fn, store, _, runs, _ = _graph_of(verify.check_full_pipeline, monkeypatch)
    params = store.constants()
    actor = [n for n in store.names() if n.startswith("actor.")]
    assert len(actor) > 50
    for name in actor:
        got = _rerun(fn, params, name, runs)
        assert not got & _LANES, name
        assert {"actors", "fuse.l2a", "fuse.b2a", "fused"} | _AFTER_FUSION <= got, name
    assert _rerun(fn, params, "actor.vel.conv1.w", runs) == {
        "actor.vel", "actor.sum3", "actor.down1", "actor.down2", "actors", "fuse.l2a",
        "fuse.b2a", "fused"} | _AFTER_FUSION


def test_a_fuse_a2a_parameter_reruns_only_a2a_and_what_follows(monkeypatch):
    fn, store, _, runs, _ = _graph_of(verify.check_full_pipeline, monkeypatch)
    params = store.constants()
    for name in [n for n in store.names() if n.startswith("fuse.a2a.")]:
        assert _rerun(fn, params, name, runs) == {"fused"} | _AFTER_FUSION, name


@pytest.mark.parametrize("check", [verify.check_actor_encoder, verify.check_lane_encoder,
                                   verify.check_boundary_lane_fusion,
                                   verify.check_decoder_stage2, verify.check_full_pipeline])
def test_a_step_whose_reads_did_not_change_is_never_rerun(check, monkeypatch):
    """Per parameter, the steps that rerun are exactly those that read it and
    those that read a step that reran."""
    fn, store, graph, runs, reads = _graph_of(check, monkeypatch)
    params = store.constants()
    fn(params)
    assert set(runs) == {name for name, _ in graph}
    for param in store.names():
        want = set()
        for name, inputs in graph:
            if param in reads[name] or want.intersection(inputs):
                want.add(name)
        assert want and _rerun(fn, params, param, runs) == want, param


def test_the_lane_encoder_graph_gives_encode_lane_nodes_bytes(monkeypatch):
    fn, store = _chain_of(verify.check_lane_encoder, monkeypatch)
    params = store.constants()
    lanes = encode_lane_nodes(verify._tiny_scene().lane_graph, params, verify._tiny_cfg())
    assert fn(params).data.tobytes() == verify._reduce(lanes).data.tobytes()
    params["lane.gc0.self.w"].data[0, 0] += 0.5
    lanes = encode_lane_nodes(verify._tiny_scene().lane_graph, params, verify._tiny_cfg())
    assert fn(params).data.tobytes() == verify._reduce(lanes).data.tobytes()


# ---------------------------------------------------------------------------
# grad_check arguments


def _store():
    store = dc.ParamStore(np.float64)
    store.add("w", np.arange(1.0, 4.0))
    return store


@pytest.mark.parametrize("n", [0, -2, 1.5, True, "3"])
def test_a_bad_n_samples_is_a_contract_error(n):
    with pytest.raises(ContractError, match="n_samples must be None or an int >= 1"):
        dc.grad_check(lambda s: dc.sum(s["w"]), _store(), n_samples=n)


@pytest.mark.parametrize("n, compared", [(None, 3), (1, 1), (np.int64(2), 2), (7, 3)])
def test_good_n_samples_compare_that_many_coordinates(n, compared):
    calls = []
    dc.grad_check(lambda s: calls.append(1) or dc.sum(dc.mul(s["w"], s["w"])), _store(),
                  n_samples=n)
    assert len(calls) == 1 + 2 * compared


def test_finite_differences_step_by_STEP():
    """Each compared coordinate is read at its value plus and minus STEP; an
    exact derivative needs no second step."""
    seen = []
    dc.grad_check(lambda s: seen.append(s["w"].data.copy()) or dc.sum(dc.mul(s["w"], s["w"])),
                  _store())
    w = np.arange(1.0, 4.0)
    want = [w]
    for c in range(3):
        for sign in (1, -1):
            moved = w.copy()
            moved[c] += sign * STEP
            want.append(moved)
    assert len(seen) == len(want)
    for got, exp in zip(seen, want):
        np.testing.assert_array_equal(got, exp)
