"""Finite-difference validation of analytic gradients.

Runs in float64 only. For each sampled coordinate the numeric derivative is
the central difference (f(x+h) - f(x-h)) / (2 h) at h = STEP, and the reported
error is |a - n| / max(1e-8, |a| + |n|). A non-finite error counts as inf, so
a NaN value or derivative fails at any tolerance. A coordinate above TOLERANCE
is measured again at STEP * 100 and STEP / 100 and keeps its smallest error:
roundoff on a tiny derivative, or a ReLU kink within STEP, fails at one step,
a wrong analytic value at all three.

A finite difference moves one coordinate, so a deep function mostly repeats
the pass before it. `staged(steps)` builds it from a graph of steps that
remember what they read: a call reruns only the steps that read a changed
parameter and the steps downstream of them, and reuses every other step's
output as it is.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from ..errors import ContractError
from .tensor import backward

TOLERANCE, STEP = 1e-4, 1e-5  # the bound on the relative error; the finite-difference step


class _Reads:
    """A params mapping that records the bytes of each parameter read through it."""

    def __init__(self, params):
        self.params, self.bytes = params, {}

    def __getitem__(self, name):
        t = self.params[name]
        self.bytes[name] = t.data.tobytes()
        return t

    def __contains__(self, name):
        return name in self.params


def staged(steps):
    """`fn(params)`: `run_steps(steps, params)` over a graph of steps, each
    `(name, fn, reads)`, that reruns only what a change reaches.

    Each step keeps, from its last run, the params mapping, the names it read
    through it, their exact bytes and its output. A call reuses that output
    while no step it reads reran, the mapping is the same object and the
    bytes are unchanged, so a taped pass is reused only by a pass over the
    same mapping."""
    memo = [None] * len(steps)  # per step: (params, {name: bytes}, output)

    def fn(params):
        out, rerun = {}, set()
        for i, (name, step, reads) in enumerate(steps):
            last = memo[i]
            if last is None or last[0] is not params or not rerun.isdisjoint(reads) or any(
                    params[n].data.tobytes() != b for n, b in last[1].items()):
                rerun.add(name)
                seen = _Reads(params)
                out[name] = step(seen, *(out[r] for r in reads))
                memo[i] = (params, seen.bytes, out[name])
            else:
                out[name] = last[2]
        return out[name]

    return fn


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


def grad_check(fn, store, n_samples=None, seed=0):
    """Compare analytic gradients of `fn(store) -> scalar Tensor` to central
    finite differences.

    With `n_samples`, an int >= 1, checks that many random coordinates per
    parameter (all of a smaller one); otherwise checks every coordinate. Returns
    (max_rel_err, report) where report maps parameter names to their worst
    coordinate's (index, analytic, numeric, rel_err).

    The one analytic pass runs on the store; the finite differences run on
    its constants, which share its arrays, so they see each perturbation and
    record no tape.
    """
    if store.dtype != np.float64:
        raise ContractError(f"grad_check requires a float64 store, got {store.dtype}")
    if n_samples is not None and (isinstance(n_samples, bool) or not isinstance(
            n_samples, Integral) or n_samples < 1):
        raise ContractError(f"grad_check: n_samples must be None or an int >= 1, got {n_samples!r}")
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
            coords = rng.choice(n, size=n_samples, replace=False)
        a_flat = analytic[name].reshape(-1)
        entry = None
        for c in coords:
            c, a = int(c), float(a_flat[c])
            numeric, rel = _measure(fn, params, flat, c, a, STEP)
            if rel > TOLERANCE:
                for step in (STEP * 100, STEP / 100):
                    again = _measure(fn, params, flat, c, a, step)
                    if again[1] < rel:
                        numeric, rel = again
            if entry is None or rel > entry[3]:
                entry = (c, a, numeric, rel)
            if rel > worst:
                worst = rel
        report[name] = entry
    return worst, report
