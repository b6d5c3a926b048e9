"""Training losses: max-entropy confidence targets under a KL loss with a
2 m endpoint filter, plus winner-take-all smooth-L1 losses on targets and
trajectories. The pipeline returns [A, K, T', 2] trajectories in both
stages: with T' = 1 (stage one, the targets as one-step trajectories) the
loss scores endpoints only; with T' = T (stage two) it adds the trajectory
term over steps 0..T-2.

The confidence target distribution is itself a function of the predictions
(softmax over negative displacement errors), so it stays on the tape and
gradients flow through both KL arguments. Only the discrete choices, the
2 m filter and the winning mode, are made outside the graph.

`total_loss` scores all actors of a scene at once: the modes and
confidence rows of the actors kept by the filter are gathered in one step,
and the ground-truth confidence and the KL run batched over [n, K, T, 2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .decoder import S1, S2
from .errors import ContractError

CONF_FILTER_METERS = 2.0
LOG_FLOOR = 1e-12


@dataclass
class LossBreakdown:
    conf: float
    target: float
    traj: float
    total: float
    n_conf_kept: int
    n_target: int
    stage: str


def mode_displacements(s, s_hat):
    """Displacement error per mode: [K, T, 2] tensor -> [K] tensor, or
    batched [n, K, T, 2] -> [n, K].

    s_hat is a [T, 2] (batched: [n, T, 2]) array (constant).
    """
    lead, t = s.shape[:-3], s.shape[-2]
    s_hat = np.asarray(s_hat)
    if s_hat.shape != (*lead, t, 2):
        raise ContractError(f"mode_displacements: gt shape {s_hat.shape} vs modes {s.shape}")
    diff = dc.sub(s, s_hat[..., None, :, :])
    return dc.max(dc.l2_norm_rows(diff), axis=-1)


def gt_confidence(s, s_hat):
    """Ground-truth mode distribution: softmax over negative displacement
    errors (the softmax's internal max shift realizes the subtract-min-D
    stabilization exactly). Tensor in, tensor out; arrays work too. Batches
    like mode_displacements."""
    if isinstance(s, dc.Tensor):
        return dc.softmax(dc.scale(mode_displacements(s, s_hat), -1.0), axis=-1)
    out = gt_confidence(dc.Tensor(np.asarray(s, dtype=np.float64)), s_hat)
    return out.data


def confidence_loss(c, c_hat):
    """KL(c_hat || c) = sum c_hat (log c_hat - log c), logs floored at 1e-12
    (which also realizes 0 log 0 = 0). Both arguments may carry gradients.
    With [n, K] rows, returns the sum of the n KLs."""
    if not isinstance(c, dc.Tensor):
        c = dc.Tensor(np.asarray(c, dtype=np.float64))
    if not isinstance(c_hat, dc.Tensor):
        c_hat = dc.Tensor(np.asarray(c_hat, dtype=c.dtype))
    if c.shape != c_hat.shape:
        raise ContractError(f"confidence_loss: shapes {c.shape} vs {c_hat.shape}")
    diff = dc.sub(dc.log(c_hat, floor=LOG_FLOOR), dc.log(c, floor=LOG_FLOOR))
    return dc.sum(dc.mul(c_hat, diff))


def conf_filter(pred_endpoints, gt_endpoint):
    """Keep an actor iff its best endpoint error is within 2 m (inclusive).

    [K, 2] endpoints and a [2] ground truth give one bool; [A, K, 2] and
    [A, 2] give an [A] mask."""
    d = np.asarray(pred_endpoints, dtype=np.float64) - np.asarray(gt_endpoint)[..., None, :]
    return np.hypot(d[..., 0], d[..., 1]).min(axis=-1) <= CONF_FILTER_METERS


def select_winners(targets, gt_endpoints):
    """Per actor, the mode whose target lies closest to the ground-truth
    endpoint; ties resolve to the lowest mode index."""
    t = np.asarray(targets, dtype=np.float64)
    d = t - np.asarray(gt_endpoints)[:, None, :]
    return np.argmin(np.hypot(d[..., 0], d[..., 1]), axis=1)


def target_loss(targets, gt_endpoints, mask):
    """Winner-take-all smooth-L1 on target offsets.

    targets: tensor [A, K, 2]; gt_endpoints: [A, 2]; mask: [A] bool, true for
    actors observed at the last history step (with ground truth). Returns
    (scalar tensor, n_kept, winners).
    """
    a, k = targets.shape[0], targets.shape[1]
    mask = np.asarray(mask, dtype=bool)
    winners = select_winners(targets.data, gt_endpoints)
    kept = np.flatnonzero(mask)
    if kept.size == 0:
        return dc.Tensor(np.zeros((), dtype=targets.dtype)), 0, winners
    flat = dc.reshape(targets, (a * k, 2))
    rows = dc.gather(flat, kept * k + winners[kept], axis=0)
    diff = dc.sub(rows, np.asarray(gt_endpoints)[kept])
    return dc.mean(dc.smooth_l1(diff, beta=1.0)), int(kept.size), winners


def trajectory_loss(traj, gt, mask, winners):
    """Smooth-L1 over the winning mode's steps 0..T-2, averaged per the
    1/(N(T-1)) convention (with the per-step two-component mean folded in).
    """
    a, k, t = traj.shape[0], traj.shape[1], traj.shape[2]
    if t < 2:
        raise ContractError(f"trajectory loss needs T >= 2, got {t}")
    mask = np.asarray(mask, dtype=bool)
    kept = np.flatnonzero(mask)
    if kept.size == 0:
        return dc.Tensor(np.zeros((), dtype=traj.dtype)), 0
    flat = dc.reshape(traj, (a * k * t, 2))
    steps = np.arange(t - 1)
    idx = ((kept * k + winners[kept])[:, None] * t + steps[None, :]).reshape(-1)
    rows = dc.gather(flat, idx, axis=0)
    gt_rows = np.asarray(gt, dtype=np.float64)[kept][:, : t - 1].reshape(-1, 2)
    diff = dc.sub(rows, gt_rows)
    return dc.mean(dc.smooth_l1(diff, beta=1.0)), int(kept.size)


def total_loss(targets, traj, logits, gt_futures, last_observed):
    """Assemble the loss for one normalized scene.

    targets [A,K,2], traj [A,K,T',2], logits [A,K] are pipeline tensors;
    T' = 1 (stage one) scores endpoints only, T' = T adds the trajectory
    term. gt_futures is a length-A list of [T,2] arrays or None, whose last
    T' steps are the confidence reference; last_observed is the [A] bool
    mask. Returns (scalar tensor, LossBreakdown).
    """
    t = traj.shape[2]
    has_gt = np.array([g is not None for g in gt_futures], dtype=bool)
    gt_ref = np.stack([np.asarray(g, dtype=np.float64)[-t:] if g is not None
                       else np.zeros((t, 2)) for g in gt_futures])
    gt_end = gt_ref[:, -1]

    # one KL over the kept actors; with none kept, the empty batch sums to 0
    kept = np.flatnonzero(has_gt & conf_filter(targets.data, gt_end))
    c_hat = gt_confidence(dc.gather(traj, kept, axis=0), gt_ref[kept])
    conf = dc.gather(dc.softmax(logits, axis=1), kept, axis=0)
    conf_term = dc.scale(confidence_loss(conf, c_hat), 1.0 / max(kept.size, 1))

    reg_mask = has_gt & np.asarray(last_observed, dtype=bool)
    target_term, n_target, winners = target_loss(targets, gt_end, reg_mask)

    total = dc.add(conf_term, target_term)
    traj_val = 0.0
    if t > 1:
        traj_term, _ = trajectory_loss(traj, gt_ref, reg_mask, winners)
        total = dc.add(total, traj_term)
        traj_val = float(traj_term.data)

    conf_val = float(conf_term.data)
    target_val = float(target_term.data)
    return total, LossBreakdown(
        conf=conf_val, target=target_val, traj=traj_val,
        total=conf_val + target_val + traj_val,
        n_conf_kept=int(kept.size), n_target=n_target, stage=S1 if t == 1 else S2)
