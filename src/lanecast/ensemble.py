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
_BLOCK = 32  # actors clustered at once; bounds the stacked [N, M, T, 2] pool


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
    model-major; `confidences` lists per-model [K] arrays, actor after actor."""
    factors = np.tile(model_factors(alphas), len(confidences) // len(alphas))
    return np.concatenate(confidences, dtype=np.float64) * np.repeat(
        factors, [len(c) for c in confidences])


def weighted_kmeans(points, weights, k=6, seed=0):
    """Weighted k-means++ seeding: the first center drawn in proportion to
    weight, later ones to weight times squared distance to the nearest center.
    Then Lloyd until assignments repeat or for 100 iterations: nearest center
    (ties: lowest index), weighted centroids, an emptied cluster restarted at
    the point of largest weighted distance. Returns (assignments [M], centers
    [k, 2], objective history, empty [k]); M < k points: one cluster each."""
    x, w = (np.asarray(a, dtype=np.float64)[None] for a in (points, weights))
    assign, centers, objective, iters, empty = _kmeans(x, w, k, [seed])
    return assign[0], centers[0], objective[0, :iters[0]].tolist(), empty[0]


def _kmeans(x, w, k, seeds):
    """`weighted_kmeans` on N pools at once, x [N, M, 2] and w [N, M]; pool i
    draws from `default_rng(seeds[i])` and stops on its own, as if alone.
    Returns assignments, centers, objective [N, 100], iterations [N], empty."""
    if x.shape[2:] != (2,) or w.shape != x.shape[:2] or not (
            np.isfinite(w).all() and (w >= 0).all() and (w.sum(axis=1) > 0).all()):
        raise ContractError(f"weighted_kmeans: points {x.shape[1:]} need [M, 2] and as many "
                            "weights, finite, >= 0 and not all zero")
    (n, m), rows = w.shape, np.arange(len(w))
    if m < k:
        return (np.tile(np.arange(m), (n, 1)), np.pad(x, ((0, 0), (0, k - m), (0, 0))),
                np.zeros((n, 1)), np.ones(n, dtype=np.int64), np.tile(np.arange(k) >= m, (n, 1)))
    # Generator.choice(m, p=p) is searchsorted(cumsum(p) / cdf[-1], u, "right")
    uniforms = np.stack([np.random.default_rng(s).random(k) for s in seeds])
    drawn, centers, d2 = np.zeros_like(rows), np.empty((n, k, 2)), np.full((n, m), np.inf)
    for c in range(k):
        score = w if c == 0 else w * d2
        total = score.sum(axis=1)
        draw = total > 0  # else all mass is on chosen points: lowest unchosen index
        cdf = np.cumsum(score / np.where(draw, total, 1.0)[:, None], axis=1)
        cdf /= np.where(draw, cdf[:, -1], 1.0)[:, None]
        pick = np.where(draw, (cdf <= uniforms[rows, drawn, None]).sum(axis=1),
                        (d2 == d2.max(axis=1, keepdims=True)).argmax(axis=1))
        drawn += draw
        centers[:, c] = x[rows, pick]
        d2 = np.minimum(d2, ((x - centers[:, c, None]) ** 2).sum(axis=2))
    assign, iters, live = np.full((n, m), -1), np.zeros_like(rows), rows
    objective = np.zeros((n, KMEANS_MAX_ITERS))
    for it in range(KMEANS_MAX_ITERS):
        xl, wl = x[live], w[live]
        dists = ((xl[:, :, None] - centers[live][:, None]) ** 2).sum(axis=3)  # [L, M, k]
        new, wd = dists.argmin(axis=2), wl * dists.min(axis=2)  # ties: lowest index
        objective[live, it] = wd.sum(axis=1)
        iters[live] += 1
        moved = (new != assign[live]).any(axis=1)
        live, xl, wl, new, wd = live[moved], xl[moved], wl[moved], new[moved], wd[moved]
        if not live.size:
            break
        assign[live] = new
        far = xl[np.arange(live.size), wd.argmax(axis=1), None]  # reseeds emptied clusters
        seg = (np.arange(live.size)[:, None] * k + new).ravel()
        means, _, count = _segment_means(xl.reshape(-1, 2), wl.ravel(), seg, live.size * k)
        centers[live] = np.where(count.reshape(-1, k, 1) == 0, far, means.reshape(-1, k, 2))
    return assign, centers, objective, iters, ~(assign[:, :, None] == np.arange(k)).any(axis=1)


def _segment_means(values, w, seg, n_seg):
    """Weighted means of the rows of `values` [P, D] per segment, weight totals
    and counts, summed as numpy sums one pool's members: rows in order (as
    bincount adds), totals pairwise. A zero-weight segment: the plain mean."""
    tot, count = _pool_sums(w, seg, n_seg)
    scale = np.where(tot[seg] > 0, w, 1.0)
    sums = np.stack([np.bincount(seg, v * scale, n_seg) for v in values.T], axis=1)
    return sums / np.where(tot > 0, tot, np.maximum(count, 1))[:, None], tot, count


def _pool_sums(values, seg, n_seg):
    """`values[seg == s].sum()` per segment s, bit for bit, and the counts: numpy
    adds under 8 numbers in order, as bincount does, more pairwise, row by row."""
    count, out = np.bincount(seg, minlength=n_seg), np.bincount(seg, values, n_seg)
    start, ordered = np.cumsum(count) - count, values[np.argsort(seg, kind="stable")]
    for size in np.unique(count[count >= 8]):
        at = np.flatnonzero(count == size)
        out[at] = ordered[start[at, None] + np.arange(size)].sum(axis=1)
    return out, count


def _fuse_block(trajs, confs, alphas, k, seeds):
    """Fuse N = len(seeds) pools of one shape, given as each actor's sub-model
    [K, T, 2] and [K] arrays in turn. Returns trajectories [N, k, T, 2] and
    confidences [N, k] best first and empties last, kept counts, assignments."""
    n, rows = len(seeds), np.arange(len(seeds))
    if len({t.shape[1] for t in trajs}) > 1:
        raise EnsembleError("sub-models disagree on trajectory length")
    if [len(c) for c in confs] != [len(t) for t in trajs]:
        raise ContractError("one confidence per trajectory")
    w = ensemble_weights(alphas, confs).reshape(n, -1)
    x = np.concatenate([t[:, -1] for t in trajs], dtype=np.float64).reshape(n, -1, 2)
    assign, _, _, _, empty = _kmeans(x, w, k, seeds)
    pool = np.concatenate(trajs, dtype=np.float64)  # only now, apart from k-means scratch
    seg = (rows[:, None] * k + assign).ravel()
    fused, tot, _ = _segment_means(pool.reshape(len(seg), -1), w.ravel(), seg, n * k)
    kept = k - empty.sum(axis=1)
    total = _pool_sums(tot[~empty.ravel()], np.repeat(rows, kept), n)[0][:, None]
    conf = np.where(total > 0, tot.reshape(n, k), 1.0) / np.where(total > 0, total, kept[:, None])
    order = (rows[:, None], np.argsort(np.where(empty, np.inf, -conf), axis=1, kind="stable"))
    return fused.reshape(n, k, *pool.shape[1:])[order], conf[order], kept, assign


def fuse_actor(trajectories, confidences, alphas, k=6, seed=0):
    """Pool N sub-models' modes for one actor and cluster them, as `fuse`
    does. Returns (trajs [k', T, 2], confs [k'], assignments [M]), clusters
    by descending confidence; k' < k only for clusters left empty."""
    if len(trajectories) == 0:
        raise EnsembleError("no sub-models to fuse")
    trajs, confs, kept, assign = _fuse_block(
        [np.asarray(t) for t in trajectories], confidences, alphas, k, [seed])
    return list(trajs[0, :kept[0]]), confs[0, :kept[0]], assign[0]


@np.errstate(all="ignore")
def fuse(submodels, seed=0, k=6):
    """Ensemble every actor, `_BLOCK` actors of one pool shape at a time, each
    seeded from its key, with numpy's warnings off. A gap in coverage raises
    EnsembleError naming the first (model_id, scene_id, actor_id) and the count."""
    if not submodels:
        raise EnsembleError("empty sub-model list")
    keys, groups = sorted(set().union(*(sm.forecasts for sm in submodels))), {}  # by shape
    if n_gaps := sum(len(keys) - len(sm.forecasts) for sm in submodels):
        sm = next(sm for sm in submodels if len(sm.forecasts) < len(keys))
        gap = min(set(keys).difference(sm.forecasts))
        raise EnsembleError("sub-model {!r} has no prediction for scene {!r} actor {!r} "
                            "({} missing in all)".format(sm.model_id, *gap, n_gaps))
    for i, key in enumerate(keys):
        shapes = [sm.forecasts[key].trajectories.shape for sm in submodels]
        groups.setdefault((sum(s[0] for s in shapes), *{s[1] for s in shapes}), []).append(i)
    alphas, out = [sm.alpha for sm in submodels], [None] * len(keys)
    for block in (g[b:b + _BLOCK] for g in groups.values() for b in range(0, len(g), _BLOCK)):
        fcs = [sm.forecasts[keys[i]] for i in block for sm in submodels]
        trajs, confs, kept, _ = _fuse_block(
            [fc.trajectories for fc in fcs], [fc.confidences for fc in fcs], alphas, k,
            [actor_rng_seed(*keys[i], seed) for i in block])
        for i, tr, tg, cf, kp in zip(block, trajs, trajs[:, :, -1].copy(), confs, kept):
            out[i] = Forecast(*keys[i], targets=tg[:kp], trajectories=tr[:kp], confidences=cf[:kp])
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
