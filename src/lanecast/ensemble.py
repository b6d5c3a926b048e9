"""Multi-model fusion: pool every sub-model's modes, weight each trajectory
by its confidence times a softmax over the models' negated validation
scores, cluster the pooled target points with weighted k-means (k=6), and
emit per-cluster weighted-average trajectories with renormalized weights as
confidences.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .decoder import Forecast, load_predictions
from .errors import (ContractError, EnsembleError, ParseError, numbers, parse_json,
                     require, string)
from .scene import actor_rng_seed

KMEANS_MAX_ITERS = 100


@dataclass
class SubmodelPrediction:
    model_id: str
    alpha: float  # validation brier-minFDE
    forecasts: dict  # (scene_id, actor_id) -> Forecast


def model_factors(alphas):
    """softmax(-alpha) over models, stabilized."""
    a = np.asarray(alphas, dtype=np.float64)
    e = np.exp(-(a - a.min()))
    return e / e.sum()


def ensemble_weights(alphas, confidences):
    """Per-trajectory weights: W[j, i] = conf_j[i] * factor_j, flattened
    model-major. `confidences` is a list of per-model [K] arrays."""
    factors = model_factors(alphas)
    return np.concatenate([np.asarray(c, dtype=np.float64) * f
                           for c, f in zip(confidences, factors)])


def weighted_kmeans(points, weights, k=6, seed=0):
    """Weighted k-means++ and Lloyd iterations.

    Seeding: first center drawn with probability proportional to weight,
    later centers proportional to weight times squared distance to the
    nearest chosen center. Lloyd alternates nearest-center assignment
    (ties: lowest index) and weighted centroid updates; an emptied cluster
    is reseeded at the point with the largest weighted distance to its
    center. Stops when assignments stabilize or after 100 iterations.

    Returns (assignments [M], centers [k, 2], objective history, empty mask).
    With M < k, each point becomes its own cluster and the remainder are
    flagged empty.
    """
    x = np.asarray(points, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    m = x.shape[0]
    if m == 0 or x.ndim != 2:
        raise ContractError(f"weighted_kmeans: bad points shape {x.shape}")
    if w.shape != (m,) or (w < 0).any() or w.sum() <= 0:
        raise ContractError("weighted_kmeans: weights must be >= 0, not all zero")

    if m < k:
        centers = np.zeros((k, 2))
        centers[:m] = x
        return np.arange(m), centers, [0.0], np.arange(k) >= m

    rng = np.random.default_rng(seed)
    centers = np.empty((k, 2))
    centers[0] = x[rng.choice(m, p=w / w.sum())]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        score = w * d2
        total = score.sum()
        if total > 0:
            idx = rng.choice(m, p=score / total)
        else:
            # all mass on chosen points (duplicates); lowest unchosen index
            idx = int(np.argmax(d2 == d2.max()))
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))

    assignments = np.full(m, -1, dtype=np.int64)
    objective = []
    for _ in range(KMEANS_MAX_ITERS):
        dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)  # [M, k]
        new_assign = np.argmin(dists, axis=1)  # ties: lowest index
        objective.append(float((w * dists[np.arange(m), new_assign]).sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            members = np.flatnonzero(assignments == c)
            if members.size == 0:
                wd = w * dists[np.arange(m), assignments]
                far = int(np.argmax(wd))
                centers[c] = x[far]
                continue
            mw = w[members]
            tot = mw.sum()
            if tot > 0:
                centers[c] = (mw[:, None] * x[members]).sum(axis=0) / tot
            else:
                centers[c] = x[members].mean(axis=0)

    empty = np.array([not np.any(assignments == c) for c in range(k)])
    return assignments, centers, objective, empty


def fuse_actor(trajectories, confidences, alphas, k=6, seed=0):
    """Pool N sub-models' modes for one actor and cluster them.

    trajectories: list of [K, T, 2]; confidences: list of [K]. Returns
    (trajs [k', T, 2], confs [k'], assignments [M]) with clusters ordered by
    descending confidence (k' < k only when the pool is smaller than k).
    """
    n = len(trajectories)
    if n == 0:
        raise EnsembleError("no sub-models to fuse")
    t_len = trajectories[0].shape[1]
    for tr in trajectories:
        if tr.shape[1] != t_len:
            raise EnsembleError("sub-models disagree on trajectory length")
    pool = np.concatenate([np.asarray(t, dtype=np.float64) for t in trajectories])  # [M,T,2]
    weights = ensemble_weights(alphas, confidences)
    targets = pool[:, -1, :]
    assignments, _, _, empty = weighted_kmeans(targets, weights, k=k, seed=seed)

    out_trajs, out_confs = [], []
    for c in range(k):
        if empty[c]:
            continue
        members = np.flatnonzero(assignments == c)
        mw = weights[members]
        tot = mw.sum()
        if tot > 0:
            traj = (mw[:, None, None] * pool[members]).sum(axis=0) / tot
        else:
            traj = pool[members].mean(axis=0)
        out_trajs.append(traj)
        out_confs.append(tot)
    confs = np.asarray(out_confs)
    total = confs.sum()
    confs = np.full(len(confs), 1.0 / len(confs)) if total <= 0 else confs / total
    order = np.argsort(-confs, kind="stable")
    return ([out_trajs[i] for i in order], confs[order], assignments)


def fuse(submodels, seed=0, k=6):
    """Ensemble every actor covered by the sub-models.

    All models must cover every actor; a gap raises EnsembleError naming
    (model_id, actor_id). Per-actor clustering seeds derive from the actor
    key so results are independent of iteration order.
    """
    if not submodels:
        raise EnsembleError("empty sub-model list")
    keys = sorted({key for sm in submodels for key in sm.forecasts})
    missing = [(sm.model_id, key) for sm in submodels for key in keys
               if key not in sm.forecasts]
    if missing:
        raise EnsembleError(f"sub-model predictions missing: {missing}")

    alphas = [sm.alpha for sm in submodels]
    out = []
    for key in keys:
        scene_id, actor_id = key
        trajs = [sm.forecasts[key].trajectories for sm in submodels]
        confs = [sm.forecasts[key].confidences for sm in submodels]
        aseed = actor_rng_seed(scene_id, actor_id, seed)
        fused_trajs, fused_confs, _ = fuse_actor(trajs, confs, alphas, k=k, seed=aseed)
        traj_arr = np.stack(fused_trajs)
        out.append(Forecast(scene_id=scene_id, actor_id=actor_id,
                            targets=traj_arr[:, -1, :].copy(),
                            trajectories=traj_arr,
                            confidences=np.asarray(fused_confs)))
    return out


def _read_bytes(path, field):
    try:
        with open(path, "rb") as f:
            return f.read()
    except (OSError, ValueError) as err:  # ValueError: NUL or lone surrogate in the path
        raise ParseError(field, f"{field}: cannot read {path}: {err}") from err


def load_manifest(data, base_dir=None):
    """Manifest: JSON list of {model_id, alpha, prediction_file}; no
    model_id twice."""
    entries = parse_json(data, "manifest")
    if not isinstance(entries, list) or not entries:
        raise ParseError("document", "manifest must be a nonempty JSON list")
    subs, model_ids = [], {}
    for i, e in enumerate(entries):
        p = f"manifest[{i}]"
        model_id, alpha, path = (require(e, key, p) for key in (
            "model_id", "alpha", "prediction_file"))
        alpha = float(numbers(alpha, p + ".alpha", ()))
        if not alpha > 0:
            raise ParseError(p + ".alpha", f"{p}.alpha must be positive, got {alpha!r}")
        path = string(path, p + ".prediction_file")
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        forecasts = load_predictions(_read_bytes(path, p + ".prediction_file"))
        subs.append(SubmodelPrediction(
            model_id=string(model_id, p + ".model_id", model_ids), alpha=alpha,
            forecasts={(fc.scene_id, fc.actor_id): fc for fc in forecasts}))
    return subs
