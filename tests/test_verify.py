"""Block gradient checks: fixtures stay off ReLU kinks at seeds that used
to land on them, the decoder checks keep their coordinate coverage, and a
coordinate above the bound is measured again at two more steps, which
clears finite-difference artefacts but not a wrong gradient."""

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import verify
from lanecast.diffcore import gradcheck, tensor


@pytest.mark.parametrize("seed", [5, 8])
@pytest.mark.parametrize("check", [verify.check_decoder_stage1,
                                   verify.check_decoder_stage2,
                                   verify.check_full_pipeline])
def test_checks_pass_at_seeds_that_hit_a_relu_kink_with_zero_biases(check, seed):
    err, _ = check(seed=seed)
    assert err < verify.TOLERANCE


def test_decoder_checks_compare_at_least_88_and_100_coordinates(monkeypatch):
    compared = []
    real = dc.grad_check

    def counting(fn, store, **kw):
        calls = []
        out = real(lambda s: calls.append(1) or fn(s), store, **kw)
        compared.append((len(calls) - 1) // 2)  # one base call, two per coordinate
        return out

    monkeypatch.setattr(dc, "grad_check", counting)
    verify.check_decoder_stage1()
    verify.check_decoder_stage2()
    assert compared[0] >= 88 and compared[1] >= 100


@pytest.mark.parametrize("seed", [6, 8])
def test_every_block_passes_at_seeds_with_finite_difference_artefacts(seed):
    # seed 6: roundoff on a 3e-7 pipeline-loss gradient at eps; seed 8: a
    # ReLU kink within eps of a boundary-lane-fusion coordinate
    for name, err in verify.run_all(seed=seed):
        assert err < verify.TOLERANCE, name


def test_seed_0_measures_nothing_again(monkeypatch):
    calls = []
    real = dc.grad_check
    monkeypatch.setattr(dc, "grad_check", lambda fn, store, *args, **kw: real(
        lambda s: calls.append(1) or fn(s), store, *args, **kw))
    verify.run_all(seed=0)
    assert len(calls) == 1726


def test_run_all_at_seed_0_stays_within_its_op_budget(monkeypatch):
    """The staged checks rerun only the steps a perturbation reaches: 87,416
    diffcore ops at seed 0, where rerunning every step after the first one
    that reads the perturbed parameter took 108,511."""
    ops = []
    real = tensor._make
    monkeypatch.setattr(tensor, "_make", lambda *args: ops.append(1) or real(*args))
    verify.run_all(seed=0)
    assert len(ops) <= 90_000


@pytest.mark.parametrize("plant", [lambda a: a * 1.01, lambda a: 0.0],
                         ids=["scaled-1.01", "zeroed"])
def test_a_planted_wrong_gradient_fails_at_every_step(monkeypatch, plant):
    rng = np.random.default_rng(3)
    x = dc.Tensor(rng.normal(size=(5, 3)))
    mix = dc.Tensor(rng.normal(size=(5, 2)))
    store = dc.ParamStore(np.float64)
    store.add("w", rng.normal(size=(3, 2)))

    def fn(s):
        return dc.sum(dc.mul(dc.relu(dc.matmul(x, s["w"])), mix))

    real = gradcheck.backward
    analytic = real(fn(store), dict(store.items()))["w"].reshape(-1)
    coord = int(np.argmax(np.abs(analytic)))

    def planted(loss, params):
        grads = real(loss, params)
        grads["w"].reshape(-1)[coord] = plant(grads["w"].reshape(-1)[coord])
        return grads

    calls = []
    counted = lambda s: calls.append(1) or fn(s)  # noqa: E731
    err, _ = dc.grad_check(counted, store)
    assert err < verify.TOLERANCE and len(calls) == 1 + 2 * 6
    monkeypatch.setattr(gradcheck, "backward", planted)
    calls.clear()
    err, report = dc.grad_check(counted, store)
    # the planted coordinate alone is measured again, at two more steps, and
    # its smallest error of the three is still above the bound
    assert len(calls) == 1 + 2 * 6 + 4
    assert err > verify.TOLERANCE and report["w"][0] == coord
