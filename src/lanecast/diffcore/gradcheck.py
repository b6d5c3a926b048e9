"""Finite-difference validation of analytic gradients.

Runs in float64 only. For each sampled coordinate the numeric derivative is
the central difference (f(x+eps) - f(x-eps)) / (2 eps) and the reported error
is |a - n| / max(1e-8, |a| + |n|). A non-finite error counts as inf, so a
NaN value or derivative fails at any tolerance. A coordinate above TOLERANCE
is measured again at eps * 100 and eps / 100 and keeps its smallest error:
roundoff on a tiny derivative, or a ReLU kink within eps, fails at one step,
a wrong analytic value at all three.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError
from .tensor import backward

TOLERANCE = 1e-4


def _measure(fn, params, flat, c, a, eps):
    """(numeric, rel_err) of coordinate `c` against the analytic `a`."""
    keep = flat[c]
    flat[c] = keep + eps
    f_plus = float(fn(params).data)
    flat[c] = keep - eps
    f_minus = float(fn(params).data)
    flat[c] = keep
    numeric = (f_plus - f_minus) / (2.0 * eps)
    rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
    return numeric, (rel if np.isfinite(rel) else np.inf)  # NaN passes no bound


def grad_check(fn, store, eps=1e-5, n_samples=None, seed=0):
    """Compare analytic gradients of `fn(store) -> scalar Tensor` to central
    finite differences.

    With `n_samples`, checks a random subset of coordinates per parameter
    (always at least one); otherwise checks every coordinate. Returns
    (max_rel_err, report) where report maps parameter names to their worst
    coordinate's (index, analytic, numeric, rel_err).

    The one analytic pass runs on the store; the finite differences run on
    its constants, which share its arrays, so they see each perturbation and
    record no tape.
    """
    if store.dtype != np.float64:
        raise ContractError(f"grad_check requires a float64 store, got {store.dtype}")
    rng = np.random.default_rng(seed)

    loss = fn(store)
    if loss.shape != ():
        raise ContractError(f"grad_check: fn must return a scalar, got shape {loss.shape}")
    analytic = backward(loss, store)

    params = store.constants()
    worst = 0.0
    report = {}
    for name, t in store.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n_samples is None or n_samples >= n:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max(1, n_samples), replace=False)
        a_flat = analytic[name].reshape(-1)
        entry = None
        for c in coords:
            c, a = int(c), float(a_flat[c])
            numeric, rel = _measure(fn, params, flat, c, a, eps)
            if rel > TOLERANCE:
                for step in (eps * 100, eps / 100):
                    again = _measure(fn, params, flat, c, a, step)
                    if again[1] < rel:
                        numeric, rel = again
            if entry is None or rel > entry[3]:
                entry = (c, a, numeric, rel)
            if rel > worst:
                worst = rel
        report[name] = entry
    return worst, report
