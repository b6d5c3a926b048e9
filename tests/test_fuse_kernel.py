"""`ensemble.fuse` clusters every actor's pool in one batched weighted
k-means kernel. The per-actor `weighted_kmeans` and `fuse_actor` it replaced
are kept here as the reference: the kernel gives their assignments, empty
masks, cluster order and objective histories, and their trajectories and
confidences bit for bit."""

import gc
import tracemalloc

import numpy as np
import pytest

from lanecast import ensemble
from lanecast.decoder import Forecast
from lanecast.ensemble import (SubmodelPrediction, ensemble_weights, fuse, fuse_actor,
                               weighted_kmeans)
from lanecast.errors import ContractError, EnsembleError
from lanecast.scene import actor_rng_seed

KMEANS_MAX_ITERS = 100
RESEEDS = []  # (iteration, cluster) of every emptied cluster the reference reseeds


def reference_weighted_kmeans(points, weights, k=6, seed=0):
    """The per-pool k-means `fuse` ran once per actor; one line added to
    record reseeds."""
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
    for it in range(KMEANS_MAX_ITERS):
        dists = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)  # [M, k]
        new_assign = np.argmin(dists, axis=1)  # ties: lowest index
        objective.append(float((w * dists[np.arange(m), new_assign]).sum()))
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(k):
            members = np.flatnonzero(assignments == c)
            if members.size == 0:
                RESEEDS.append((it, c))
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


def reference_fuse_actor(trajectories, confidences, alphas, k=6, seed=0):
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
    assignments, _, _, empty = reference_weighted_kmeans(targets, weights, k=k, seed=seed)

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


def reference_fuse(submodels, seed=0, k=6):
    keys = sorted({key for sm in submodels for key in sm.forecasts})
    alphas = [sm.alpha for sm in submodels]
    out = []
    for key in keys:
        scene_id, actor_id = key
        trajs = [sm.forecasts[key].trajectories for sm in submodels]
        confs = [sm.forecasts[key].confidences for sm in submodels]
        aseed = actor_rng_seed(scene_id, actor_id, seed)
        fused_trajs, fused_confs, _ = reference_fuse_actor(trajs, confs, alphas, k=k, seed=aseed)
        traj_arr = np.stack(fused_trajs)
        out.append(Forecast(scene_id=scene_id, actor_id=actor_id,
                            targets=traj_arr[:, -1, :].copy(),
                            trajectories=traj_arr,
                            confidences=np.asarray(fused_confs)))
    return out


# ---------------------------------------------------------------------------
# inputs


def score_fuse_submodels(seed, n_actors=1000, n_models=4, k=6, t=15, modes=None):
    """Sub-models shaped like the benchmark's score-fuse workload: modes
    drift linearly off smooth ground-truth tracks, confidences Dirichlet.
    `modes` optionally gives each model its own mode count."""
    rng = np.random.default_rng(seed)
    keys = [(f"scene{i // 8:04d}", f"a{i % 8}") for i in range(n_actors)]
    turn = rng.normal(0.0, 0.1, (n_actors, 1)) * np.arange(1, t + 1) * 0.1
    heading = rng.uniform(-np.pi, np.pi, (n_actors, 1)) + turn
    speed = rng.uniform(3.0, 15.0, (n_actors, 1, 1))
    step = np.stack([np.cos(heading), np.sin(heading)], axis=2) * speed * 0.1
    gt = rng.uniform(-100.0, 100.0, (n_actors, 1, 2)) + np.cumsum(step, axis=1)
    ramp = np.linspace(1.0 / t, 1.0, t)[None, None, :, None]
    subs = []
    for j, kj in enumerate(modes or [k] * n_models):
        traj = gt[:, None] + rng.normal(0.0, 2.0, (n_actors, kj, 1, 2)) * ramp
        conf = rng.dirichlet(np.ones(kj), size=n_actors)
        subs.append(SubmodelPrediction(f"model{j}", 0.5 + 0.3 * j, {
            key: Forecast(*key, targets=traj[i, :, -1], trajectories=traj[i],
                          confidences=conf[i]) for i, key in enumerate(keys)}))
    return subs


def assert_same_forecasts(got, want):
    assert [(f.scene_id, f.actor_id) for f in got] == [(f.scene_id, f.actor_id) for f in want]
    for g, w in zip(got, want):
        for name in ("trajectories", "targets", "confidences"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and a.shape == b.shape, (g.actor_id, name)
            assert a.tobytes() == b.tobytes(), (g.scene_id, g.actor_id, name)


def assert_same_kmeans(points, weights, k, seed):
    got = weighted_kmeans(points, weights, k=k, seed=seed)
    want = reference_weighted_kmeans(points, weights, k=k, seed=seed)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[0].dtype == want[0].dtype
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2] == want[2]
    np.testing.assert_array_equal(got[3], want[3])
    return got


def assert_same_fused_actor(trajs, confs, alphas, k, seed):
    got = fuse_actor(trajs, confs, alphas, k=k, seed=seed)
    want = reference_fuse_actor(trajs, confs, alphas, k=k, seed=seed)
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[0], want[0]):
        assert a.tobytes() == b.tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    np.testing.assert_array_equal(got[2], want[2])
    return got


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("seed", [0, 5])
def test_score_fuse_inputs_fuse_bit_identically(seed):
    subs = score_fuse_submodels(seed)
    assert_same_forecasts(fuse(subs, seed=0), reference_fuse(subs, seed=0))


@pytest.mark.parametrize("seed", [0, 5])
def test_batched_kmeans_matches_each_pool_alone(seed):
    """Assignments, centers, objective histories and empty masks of every
    pool clustered in one `_kmeans` call equal its own reference run."""
    subs = score_fuse_submodels(seed, n_actors=200)
    keys = sorted(subs[0].forecasts)
    x = np.stack([np.concatenate([sm.forecasts[key].trajectories[:, -1] for sm in subs])
                  for key in keys])
    w = np.stack([ensemble_weights([sm.alpha for sm in subs],
                                   [sm.forecasts[key].confidences for sm in subs])
                  for key in keys])
    seeds = [actor_rng_seed(*key, seed) for key in keys]
    assign, centers, objective, iters, empty = ensemble._kmeans(x, w, 6, seeds)
    for i in range(len(keys)):
        want = reference_weighted_kmeans(x[i], w[i], k=6, seed=seeds[i])
        np.testing.assert_array_equal(assign[i], want[0])
        assert centers[i].tobytes() == want[1].tobytes()
        assert objective[i, :iters[i]].tolist() == want[2]
        np.testing.assert_array_equal(empty[i], want[3])


def test_every_c6_case():
    rng = np.random.default_rng(1)
    trajs = [rng.normal(size=(6, 5, 2)) for _ in range(7)]
    confs = []
    for _ in range(7):
        c = rng.random(6) + 0.01
        confs.append(c / c.sum())
    assert_same_fused_actor(trajs, confs, [1.0] * 7, 6, 2)

    blob_centers = np.array([[0, 0], [100, 0], [0, 100], [100, 100],
                             [-100, 50], [200, 50]], dtype=float)
    for seed in range(50):
        srng = np.random.default_rng(seed)
        pts = []
        for c in blob_centers:
            pts.append(c + srng.normal(size=(int(srng.integers(4, 9)), 2)))
        pts = np.concatenate(pts)
        assert_same_kmeans(pts, srng.uniform(0.2, 1.0, size=len(pts)), 6, seed)

    rng = np.random.default_rng(3)
    fcs = {}
    for i in range(5):
        traj = rng.normal(size=(6, 6, 2)) * 5
        conf = rng.random(6) + 0.05
        fcs[(f"s{i}", "a0")] = Forecast(f"s{i}", "a0", traj[:, -1].copy(), traj,
                                        conf / conf.sum())
    subs = [SubmodelPrediction("solo", 0.8, fcs)]
    assert_same_forecasts(fuse(subs, seed=0), reference_fuse(subs, seed=0))

    rng = np.random.default_rng(4)
    for _ in range(20):
        pts = rng.normal(size=(30, 2)) * 4
        w = rng.uniform(0.1, 1.0, size=30)
        assert_same_kmeans(pts, w, 6, int(rng.integers(100)))


def test_mixed_pool_sizes():
    """A sub-model with K=3 gives pools of 15; actors whose models split one
    pool size differently, or whose horizon differs, get their own group."""
    subs = score_fuse_submodels(2, n_actors=120, modes=(6, 3, 6))
    rng = np.random.default_rng(9)
    for i, key in enumerate(sorted(subs[0].forecasts)[:30]):
        t = 15 if i % 2 else 8
        for sm, kj in zip(subs, (4, 5, 6) if i % 3 else (6, 3, 6)):
            traj = rng.normal(size=(kj, t, 2)) * 6
            conf = rng.dirichlet(np.ones(kj))
            sm.forecasts[key] = Forecast(*key, traj[:, -1].copy(), traj, conf)
    assert_same_forecasts(fuse(subs, seed=3), reference_fuse(subs, seed=3))


def test_pools_smaller_than_k():
    subs = score_fuse_submodels(4, n_actors=50, modes=(1, 2, 1))
    out = fuse(subs, seed=1)
    assert_same_forecasts(out, reference_fuse(subs, seed=1))
    assert {f.trajectories.shape[0] for f in out} == {4}
    assert_same_kmeans(np.array([[0.0, 0.0], [5.0, 5.0]]), np.ones(2), 6, 0)


def test_all_duplicate_points_draw_no_uniform():
    """Once all weight sits on chosen centers, seeding takes the lowest
    unchosen index and draws nothing; the clusters left empty stay empty."""
    rng = np.random.default_rng(6)
    for seed in range(10):
        pts = np.repeat(rng.normal(size=(int(rng.integers(1, 4)), 2)), 10, axis=0)
        rng.shuffle(pts)
        _, _, _, empty = assert_same_kmeans(pts, rng.random(len(pts)) + 0.1, 6, seed)
        assert empty.any()
    traj = np.ones((6, 4, 2))
    conf = np.full(6, 1 / 6)
    trajs, _, _ = assert_same_fused_actor([traj, traj], [conf, conf], [0.5, 0.7], 6, 0)
    assert len(trajs) == 1


def test_zero_weight_clusters_take_the_plain_mean():
    """Once the weighted points are all centers, seeding picks the farthest
    zero-weight points: their clusters weigh nothing and average plainly."""
    rng = np.random.default_rng(8)
    for seed in range(20):
        pts = np.concatenate([rng.normal(size=(3, 2)), rng.normal(size=(9, 2)) * 3 + 40])
        w = np.concatenate([rng.random(3) + 0.1, np.zeros(9)])
        assign, _, _, _ = assert_same_kmeans(pts, w, 6, seed)
        assert not w[np.isin(assign, assign[3:])].any()
        trajs = np.repeat(pts[:, None], 4, axis=1) + rng.normal(size=(12, 4, 2))
        trajs[:, -1] = pts
        _, confs, _ = assert_same_fused_actor([trajs[:6], trajs[6:]], [w[:6], w[6:]],
                                              [1.0, 2.0], 6, seed)
        assert (confs[3:] == 0).all()


def test_an_emptied_cluster_is_reseeded():
    rng = np.random.default_rng(16729)
    m = int(rng.integers(6, 14))
    pts = rng.normal(size=(m, 2)) * 3
    w = rng.random(m)
    RESEEDS.clear()
    assert_same_kmeans(pts, w, 6, 16729)
    assert RESEEDS and len(np.unique(pts, axis=0)) == m


def test_pool_sums_are_numpys_own_sums():
    rng = np.random.default_rng(11)
    sizes = rng.integers(0, 40, 60)
    seg = rng.permutation(np.repeat(np.arange(60), sizes))
    values = rng.random(seg.size) * 10.0 ** rng.integers(-8, 8, seg.size)
    values[::7] = 0.0
    sums, count = ensemble._pool_sums(values, seg, 60)
    np.testing.assert_array_equal(count, sizes)
    for s in range(60):
        assert sums[s].tobytes() == values[seg == s].sum().tobytes()


def test_bad_pools_rejected():
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(6, 5, 2)), rng.normal(size=(6, 7, 2))
    conf = np.full(6, 1 / 6)
    with pytest.raises(EnsembleError, match="trajectory length"):
        fuse_actor([a, b], [conf, conf], [1.0, 1.0])
    with pytest.raises(ContractError):
        fuse_actor([a, a], [conf, conf[:5]], [1.0, 1.0])
    with pytest.raises(ContractError):
        weighted_kmeans(np.zeros((4, 2)), np.array([1.0, np.nan, 1.0, 1.0]))
    with pytest.raises(ContractError):
        weighted_kmeans(np.zeros((4, 3)), np.ones(4))
    subs = score_fuse_submodels(1, n_actors=5)
    key = sorted(subs[0].forecasts)[3]
    fc = subs[1].forecasts[key]
    subs[1].forecasts[key] = Forecast(*key, fc.targets, fc.trajectories, fc.confidences[:4])
    with pytest.raises(ContractError):
        fuse(subs)
    subs[1].forecasts[key] = Forecast(*key, fc.targets[:, :3], fc.trajectories[:, :3],
                                      fc.confidences)
    with pytest.raises(EnsembleError, match="trajectory length"):
        fuse(subs)


# ---------------------------------------------------------------------------
# memory


def _traced_peak(fn):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_fuse_peak_stays_near_the_per_actor_loop():
    """The kernel stacks at most `_BLOCK` actors' pools, so fusing 1000
    actors of 4 models peaks within 1.25x of the per-actor loop, whose peak
    is little more than its output."""
    subs = score_fuse_submodels(0)
    fuse(subs)
    want = _traced_peak(lambda: reference_fuse(subs))
    got = _traced_peak(lambda: fuse(subs))
    assert want > 1_500_000  # the fused forecasts themselves
    assert got <= 1.25 * want, f"kernel peak {got} B, per-actor loop peak {want} B"
