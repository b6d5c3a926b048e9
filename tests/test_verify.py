"""Block gradient checks: fixtures stay off ReLU kinks at seeds that used
to land on them, and the decoder checks keep their coordinate coverage."""

import pytest

from lanecast import diffcore as dc
from lanecast import verify


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
