"""Probes the benchmark installs around the program's public functions.

`StepClock` is the untraced probe: it wraps `NAdam.step` alone, with one clock
read after each return. `Tracer` wraps the public functions at the module
where they are called (e.g. `lanecast.decoder.encode_actors`, the name
`run_pipeline` looks up) plus every `lanecast.diffcore` op, and records a span
per call: name, start, end, parent span and view (scene id, actor id). Spans
stay in memory; ops are counters attributed to the innermost open span, so an
encoder's time includes the ops it dispatches.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter

import numpy as np

import lanecast.decoder as lc_decoder
import lanecast.diffcore as lc_dc
import lanecast.ensemble as lc_ensemble
import lanecast.fusion as lc_fusion
import lanecast.optim as lc_optim
import lanecast.verify as lc_verify

# diffcore exports that are not ops on tensors
_NOT_OPS = {"grad_check", "backward", "set_debug_checks"}


class _NullSpan:
    def update(self, **extra):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class StepClock:
    """Untraced probe: records the clock after every `NAdam.step` return."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.step_returns = []

    def span(self, name):
        return _NULL_SPAN

    @contextlib.contextmanager
    def installed(self):
        orig = lc_optim.NAdam.step
        marks, clock = self.step_returns, self.clock

        @functools.wraps(orig)
        def step(opt, grads, lr):
            out = orig(opt, grads, lr)
            marks.append(clock())
            return out

        lc_optim.NAdam.step = step
        try:
            yield self
        finally:
            lc_optim.NAdam.step = orig


class Span:
    __slots__ = ("name", "start", "end", "parent", "view", "ops", "op_s",
                 "out_bytes", "extra")

    def __init__(self, name, start, parent, view):
        self.name, self.start, self.end = name, start, start
        self.parent, self.view = parent, view
        self.ops, self.op_s, self.out_bytes = 0, 0.0, 0
        self.extra = {}

    @property
    def dur(self):
        return self.end - self.start

    def update(self, **extra):
        self.extra.update(extra)

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


class _SpanCtx:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        # the benchmark's own spans mark phases (a pass, train, one forecast
        # call): no view is current yet, and the next backward counts only
        # the graph built inside this phase
        self.tracer.view = None
        self.tracer.graph_nodes = 0
        self.span = self.tracer.open(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.close(self.span)
        return False


class Tracer:
    """Records spans and op counts while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.view = None
        self.op_calls = Counter()
        self.graph_nodes = 0  # grad-tracking op outputs since the last backward
        self.fn_evals = 0
        self.fn_eval_s = 0.0

    def open(self, name):
        sp = Span(name, self.clock(), self._stack[-1] if self._stack else None,
                  self.view)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def close(self, sp):
        sp.end = self.clock()
        self._stack.pop()

    def span(self, name):
        return _SpanCtx(self, name)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if before is not None or after is not None or callable(name):
                bound = sig.bind(*args, **kwargs).arguments
            extra = before(bound) if before is not None else None
            sp = tracer.open(name(bound) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if extra:
                sp.extra.update(extra)
            if after is not None:
                sp.extra.update(after(bound, out))
            return out

        return wrapper

    def _wrap_op(self, op_name, fn):
        tracer, calls, clock, stack = self, self.op_calls, self.clock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            calls[op_name] += 1
            if stack:
                sp = stack[-1]
                sp.ops += 1
                sp.op_s += dt
                sp.out_bytes += out.data.nbytes
            if out.requires_grad:
                tracer.graph_nodes += 1
            return out

        return wrapper

    def _wrap_grad_check(self, fn):
        tracer, clock = self, self.clock

        @functools.wraps(fn)
        def grad_check(check_fn, store, *args, **kwargs):
            def counted(s):
                t0 = clock()
                out = check_fn(s)
                tracer.fn_eval_s += clock() - t0
                tracer.fn_evals += 1
                return out
            return fn(counted, store, *args, **kwargs)

        return grad_check

    def _hooks(self):
        """(owner, attribute, replacement) for every wrapped call site."""
        def set_view(a):
            self.view = (a["scene"].scene_id, a["actor_id"])

        def attention_name(a):
            return a["name"].replace("fuse.", "fusion.")

        def attention_pairs(a, out):
            q = np.asarray(a["query_pos"], dtype=np.float64)
            c = np.asarray(a["ctx_pos"], dtype=np.float64)
            diff = q[:, None, :] - c[None, :, :]
            mask = np.hypot(diff[..., 0], diff[..., 1]) < a["tau"]
            if a.get("exclude_self"):
                mask &= ~np.eye(len(q), len(c), dtype=bool)
            return {"pairs": int(mask.sum()), "distances": mask.size}

        def loss_counts(a, out):
            return {"conf_kept": out[1].n_conf_kept,
                    "has_gt": sum(g is not None for g in a["gt_futures"])}

        def take_nodes(a):
            nodes, self.graph_nodes, self.view = self.graph_nodes, 0, None
            return {"nodes": nodes}

        hooks = [
            (lc_optim, "normalize", self._wrap("scene.normalize", lc_optim.normalize,
                                               before=set_view)),
            (lc_decoder, "normalize", self._wrap("scene.normalize", lc_decoder.normalize,
                                                 before=set_view)),
            (lc_decoder, "encode_actors", self._wrap("encoder.actor", lc_decoder.encode_actors)),
            (lc_decoder, "encode_lane_nodes",
             self._wrap("encoder.lane", lc_decoder.encode_lane_nodes)),
            (lc_decoder, "encode_boundaries",
             self._wrap("encoder.boundary", lc_decoder.encode_boundaries)),
            (lc_decoder, "fuse_scene", self._wrap("fusion.scene", lc_decoder.fuse_scene)),
            (lc_fusion, "fuse_boundary_to_lane",
             self._wrap("fusion.b2l", lc_fusion.fuse_boundary_to_lane)),
            (lc_fusion, "distance_attention",
             self._wrap(attention_name, lc_fusion.distance_attention, after=attention_pairs)),
            (lc_decoder, "predict_targets",
             self._wrap("decoder.targets", lc_decoder.predict_targets)),
            (lc_decoder, "complete_trajectories",
             self._wrap("decoder.completion", lc_decoder.complete_trajectories)),
            (lc_optim, "total_loss", self._wrap("losses.total_loss", lc_optim.total_loss,
                                                after=loss_counts)),
            (lc_dc, "backward", self._wrap("diffcore.backward", lc_dc.backward,
                                           before=take_nodes)),
            (lc_optim.NAdam, "step", self._wrap("optim.step", lc_optim.NAdam.step,
                                                after=lambda a, out: {
                                                    "tensors": len(a["self"].active)})),
            (lc_ensemble, "weighted_kmeans",
             self._wrap("ensemble.kmeans", lc_ensemble.weighted_kmeans,
                        after=lambda a, out: {"lloyd_iters": len(out[2])})),
            (lc_ensemble, "load_predictions",
             self._wrap("decoder.load_predictions", lc_ensemble.load_predictions,
                        after=lambda a, out: {"actors": len(out)})),
            (lc_dc, "grad_check", self._wrap_grad_check(lc_dc.grad_check)),
            (lc_verify, "ALL_CHECKS",
             tuple((block, self._wrap(f"verify.{block}", fn))
                   for block, fn in lc_verify.ALL_CHECKS)),
        ]
        for name in op_names():
            hooks.append((lc_dc, name, self._wrap_op(name, getattr(lc_dc, name))))
        return hooks

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, new in self._hooks():
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)


def op_names():
    """The diffcore ops: every exported plain function but the entry points
    that run ops (backward, grad_check) or configure them."""
    return [n for n in lc_dc.__all__
            if n not in _NOT_OPS and inspect.isfunction(getattr(lc_dc, n, None))]


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(id(sp.parent), []).append(sp)
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for ch in sorted(children.get(id(sp), ()), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(sp)] = sp.dur - covered
    return out


def to_records(spans):
    """Spans as JSON-ready dicts, parents given by index."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    return [{"name": sp.name, "start": sp.start, "end": sp.end,
             "parent": index.get(id(sp.parent)), "view": sp.view,
             "ops": sp.ops, **sp.extra} for sp in spans]
