"""NAdam, the warm-restart cosine schedule, and the two-stage training loop.

NAdam owns the parameters' memory: each is a view of its one flat buffer,
which every step writes in place. The schedule restarts at epochs {6, 18, 42}
with period lengths doubling 6 -> 12 -> 24 -> 48 (summing to 90), then holds
the minimum rate. Stage two starts at the first restart. Before that the
completion head is not on the tape, so its gradients are exact zeros and NAdam
leaves it bit-exactly at its initial values (see `NAdam`); no parameter is
ever frozen by name.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np

from . import diffcore as dc
from .config import TrainConfig
from .decoder import MIN_T, S1, S2, check_history, init_model, run_pipeline
from .errors import ContractError, ParseError, TrainingError
from .losses import total_loss
from .metrics import distances
from .scene import normalize

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
_MOMENTUM_DECAY = 0.96
_MOMENTUM_SPAN = 250.0


def _mu(t):
    return BETA1 * (1.0 - 0.5 * _MOMENTUM_DECAY ** (t / _MOMENTUM_SPAN))


class NAdam:
    """Adam with Nesterov momentum and the 0.96-power momentum schedule.

    Owns one flat buffer of the store's parameters, in `store.names()` order,
    and rebinds each `.data` to its reshaped view: a step writes the buffer in
    place. Use one optimizer per store; a second `NAdam(store)` takes the
    arrays over, and rebinding a `.data` later detaches that parameter. A
    parameter whose gradient is exactly zero does not move: from zero moments,
    `g = 0` keeps `m = v = 0` and subtracts `lr * 0 / (0 + EPS) = 0`, so its
    moments are still zero at its first nonzero gradient, as if it joined then.
    """

    def __init__(self, store):
        self.store = store
        self.active = store.names()
        self.t = 0
        self.mu_prod = 1.0
        params = [store[n] for n in self.active]
        # both concatenations start from an empty array: np.concatenate needs one
        self._p = np.concatenate([np.empty(0, store.dtype)] + [p.data.ravel() for p in params])
        for p, view in zip(params, np.split(self._p, np.cumsum([p.size for p in params])[:-1])):
            p.data = view.reshape(p.shape)
        self._m, self._v, self._tmp = (np.zeros_like(self._p) for _ in range(3))

    def step(self, grads, lr):
        if lr <= 0:
            raise ContractError(f"lr must be positive, got {lr}")
        flat = [np.empty(0, self._p.dtype)]
        for name in self.active:
            if name not in grads:
                raise ContractError(f"no gradient for param {name}")
            g, p = np.asarray(grads[name]), self.store[name]
            if g.shape != p.shape:
                raise ContractError(f"grad shape {g.shape} != param {name} {p.shape}")
            flat.append(g.ravel())
        g = np.concatenate(flat).astype(self._p.dtype, copy=False)  # float64 rounds once
        self.t += 1
        mu_t, mu_next = _mu(self.t), _mu(self.t + 1)
        self.mu_prod *= mu_t
        mu_prod_next = self.mu_prod * mu_next
        bias_v = 1.0 - BETA2 ** self.t
        # The classic per-tensor formula, in place over the flat arrays:
        #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
        #   step = c_m*m + c_g*g;  p -= lr*step / (sqrt(v/bias_v) + EPS)
        # Every op rounds as in that form; IEEE + and * commute exactly, so
        # swapping operands (c_g*g first, g*(1-b1)) keeps the bits.
        m, v, tmp = self._m, self._v, self._tmp
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=tmp)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        step = np.multiply(g, (1.0 - mu_t) / (1.0 - self.mu_prod), out=g)
        step += np.multiply(m, mu_next / (1.0 - mu_prod_next), out=tmp)
        step *= lr
        np.sqrt(np.divide(v, bias_v, out=tmp), out=tmp)
        step /= np.add(tmp, EPS, out=tmp)
        self._p -= step


class LrSchedule:
    """The warm-restart cosine schedule of a TrainConfig, the default one if none."""

    def __init__(self, train_cfg=None):
        tc = TrainConfig() if train_cfg is None else train_cfg
        self.lr_max, self.lr_min, self.total_epochs = tc.lr_max, tc.lr_min, tc.total_epochs
        self.periods = tuple(tc.periods)
        bounds = (0, *itertools.accumulate(self.periods))
        self.starts, self.cycle_end = bounds[:-1], bounds[-1]  # lr_min from cycle_end on

    def lr_at(self, epoch):
        if not 0 <= epoch < self.total_epochs:
            raise ContractError(f"epoch {epoch} outside [0, {self.total_epochs})")
        if epoch >= self.cycle_end:
            return self.lr_min
        for start, period in zip(reversed(self.starts), reversed(self.periods)):
            if epoch >= start:
                frac = (epoch - start) / period
                return self.lr_min + 0.5 * (self.lr_max - self.lr_min) * \
                    (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# training


def _scene_views(scenes):
    """(scene index, focal actor id) pairs, the unit of one forward pass."""
    return [(si, actor.id) for si, scene in enumerate(scenes) for actor in scene.focal_actors()]


def _view_loss(scene, actor_id, store, cfg, stage):
    ns = normalize(scene, actor_id)
    targets, traj, logits = run_pipeline(ns, store, cfg.model, stage)
    loss, bd = total_loss(targets, traj, logits, ns.future, ns.has_future, ns.observed[:, -1])
    # train-time minFDE(K) of the focal actor in its frame, as `actor_metrics` reads it
    i = ns.actor_index(actor_id)
    if not ns.has_future[i]:
        return loss, bd, None
    return loss, bd, float(distances(traj.data[i, :, -1], ns.future[i, -1]).min())


@np.errstate(all="ignore")
def train(scenes, run_cfg, log_path=None):
    """Two-stage training over synthetic scenes.

    Deterministic for a fixed (scenes, config): parameter init, batch order
    and every reduction order are seeded or fixed. Returns (store, log
    records, optimizer). A non-finite loss raises TrainingError naming the
    epoch, scene id and actor id; numpy's warnings are off while training.
    Before epoch 0, scenes the model cannot take raise ParseError: "horizon.H"
    for a short history, "horizon.T" for mixed T or T < 2 with stage two to run.

    Each view's tape is walked as soon as its loss is known, adding onto the
    batch's gradient sums, so a step's peak is one view's tape, not the
    batch's; the bits equal one walk over the mean of the batch's losses.
    """
    if not scenes:
        raise TrainingError("empty dataset")
    tc = run_cfg.train
    dtype = np.float32 if tc.precision == "float32" else np.float64
    store = dc.ParamStore(dtype)
    rng = np.random.default_rng(run_cfg.seed)
    t_future = scenes[0].horizon[1]
    odd = next((s for s in scenes if s.horizon[1] != t_future), None)
    if odd is not None:  # the completion head has one horizon
        raise ParseError("horizon.T", f"horizon.T: scene {odd.scene_id!r} has T={odd.horizon[1]} "
                         f"but scene {scenes[0].scene_id!r} has T={t_future}")
    if t_future < MIN_T and tc.total_epochs > tc.stage2_start_epoch:
        raise ParseError("horizon.T", f"horizon.T: T={t_future}, stage two needs T >= {MIN_T}")
    for scene in scenes:
        check_history(scene)
    init_model(store, run_cfg.model, t_future, rng)

    sched = LrSchedule(tc)
    opt = NAdam(store)
    views = _scene_views(scenes)
    order_rng = np.random.default_rng(run_cfg.seed + 1)

    records = []
    log_file = open(log_path, "w") if log_path else None
    started = time.monotonic()
    try:
        for epoch in range(tc.total_epochs):
            stage = S1 if epoch < tc.stage2_start_epoch else S2
            lr = sched.lr_at(epoch)
            perm = order_rng.permutation(len(views))

            sums = {"conf": 0.0, "target": 0.0, "traj": 0.0, "total": 0.0}
            fde_sum, fde_n = 0.0, 0
            for b0 in range(0, len(perm), tc.batch_size):
                batch = perm[b0:b0 + tc.batch_size]
                grad_sums = {}
                for vi in batch:
                    si, aid = views[vi]
                    loss, bd, fde = _view_loss(scenes[si], aid, store, run_cfg, stage)
                    if not math.isfinite(bd.total):
                        raise TrainingError(
                            f"non-finite loss at epoch {epoch}, view (scene "
                            f"{scenes[si].scene_id!r}, actor {aid!r}), components {bd}")
                    # walk this view's tape before the next view's forward
                    grads = dc.backward(dc.scale(loss, 1.0 / len(batch)), store, into=grad_sums)
                    for key in sums:
                        sums[key] += getattr(bd, key)
                    if fde is not None:
                        fde_sum, fde_n = fde_sum + fde, fde_n + 1
                opt.step(grads, lr)

            rec = {"epoch": epoch, "lr": lr, "stage": stage}
            rec.update((k, v / len(views)) for k, v in sums.items() if k != "traj" or stage == S2)
            rec["minFDE6"] = (fde_sum / fde_n) if fde_n else None
            records.append(rec)
            if log_file:
                log_file.write(json.dumps(rec) + "\n")
    finally:
        if log_file:
            log_file.close()
    elapsed = time.monotonic() - started
    return store, records, opt, elapsed
