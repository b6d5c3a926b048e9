"""The array form of `generate_synthetic` against the per-point and
per-step scalar loops it replaced, kept here as the reference: saved scenes
must be byte-identical."""

import math

import numpy as np
import pytest

from lanecast import scene as sc


def _arc_point(s, kappa):
    if abs(kappa) < 1e-12:
        return s, 0.0, 0.0  # x, y, tangent angle
    th = kappa * s
    return math.sin(th) / kappa, (1.0 - math.cos(th)) / kappa, th


def _lane_point(s, lateral, kappa):
    x, y, th = _arc_point(s, kappa)
    return x - lateral * math.sin(th), y + lateral * math.cos(th), th


def _smoothstep(u):
    u = min(1.0, max(0.0, u))
    return u * u * (3.0 - 2.0 * u)


def reference_generate_synthetic(config, seed):
    """The scalar generator: one `_lane_point` call per polyline point and
    per (actor, time step)."""
    config.validate()
    rng = np.random.default_rng(seed)
    kappa = float(rng.uniform(*config.curvature_range))
    w = config.lane_width

    def lane_lateral(idx):
        return (idx - (config.n_lanes - 1) / 2.0) * w

    n_pts = int(config.lane_length / config.sample_step) + 1
    svals = np.arange(n_pts) * config.sample_step
    lanes, boundaries = [], []
    for li in range(config.n_lanes):
        lat = lane_lateral(li)
        pts = np.array([_lane_point(s, lat, kappa)[:2] for s in svals])
        lane_id = f"lane{li}"
        lanes.append(sc.Lane(lane_id, pts))
        for side, off in (("left", lat + w / 2.0), ("right", lat - w / 2.0)):
            interior = (side == "left" and li + 1 < config.n_lanes) or \
                       (side == "right" and li > 0)
            bpts = np.array([_lane_point(s, off, kappa)[:2] for s in svals])
            boundaries.append(sc.BoundaryPolyline(
                points=bpts, marking="dashed" if interior else "solid",
                side=side, lane_id=lane_id))

    n_steps = config.h + config.t
    actors, tracks = [], []
    for ai in range(config.n_actors):
        lane_idx = int(rng.integers(config.n_lanes))
        s0 = float(rng.uniform(0.05, 0.35)) * config.lane_length
        v = float(rng.uniform(*config.speed_range))
        v = min(v, (config.lane_length - s0) / (n_steps * config.dt))

        lat_from = lane_lateral(lane_idx)
        lat_to = lat_from
        change_at = n_steps
        if config.n_lanes > 1 and rng.random() < config.lane_change_prob:
            target = lane_idx + (1 if lane_idx + 1 < config.n_lanes else -1)
            if 0 < lane_idx and rng.random() < 0.5:
                target = lane_idx - 1
            lat_to = lane_lateral(target)
            change_at = int(rng.integers(max(1, config.h - 2), config.h + config.t // 2))
        window = 20

        xs = np.empty((n_steps, 2))
        ths = np.empty(n_steps)
        for i in range(n_steps):
            s = s0 + v * config.dt * i
            blend = _smoothstep((i - change_at) / window) if i >= change_at else 0.0
            lat = lat_from + (lat_to - lat_from) * blend
            x, y, th = _lane_point(s, lat, kappa)
            xs[i] = (x, y)
            ths[i] = float(sc.wrap_angles(th))

        hist = xs[:config.h].copy()
        if config.noise_sigma > 0:
            hist = hist + rng.normal(0.0, config.noise_sigma, hist.shape)
        vel = np.stack([v * np.cos(ths[:config.h]), v * np.sin(ths[:config.h])], axis=1)
        actors.append(sc.ActorTrack(
            id=f"a{ai}",
            kind="vehicle" if ai == 0 else str(rng.choice(sc.ACTOR_KINDS, p=[0.7, 0.1, 0.1, 0.1])),
            focal=(ai == 0)))
        tracks.append((hist, ths[:config.h].copy(), vel, np.ones(config.h, dtype=bool),
                       xs[config.h:].copy()))

    return sc.make_scene((config.h, config.t), actors, tracks, lanes, boundaries,
                         segment_len=config.segment_len, lane_width=w, scene_id=f"syn-{seed}")


def random_config(rng):
    kappa = rng.uniform(-0.05, 0.05, 2) * (rng.random() < 0.7)
    return sc.SceneGenConfig(
        n_lanes=int(rng.integers(1, 6)), lane_width=float(rng.uniform(2.0, 5.0)),
        lane_length=float(rng.uniform(10.0, 120.0)),
        curvature_range=(float(kappa.min()), float(kappa.max())),
        n_actors=int(rng.integers(1, 9)), h=int(rng.integers(2, 30)),
        t=int(rng.integers(1, 40)), noise_sigma=float(rng.choice([0.0, 0.1])),
        lane_change_prob=float(rng.uniform(0.0, 1.0)), dt=float(rng.uniform(0.05, 0.5)),
        sample_step=float(rng.uniform(0.3, 3.0)), segment_len=float(rng.uniform(1.0, 4.0)))


def test_random_configs_match_the_loop():
    rng = np.random.default_rng(0)
    for k in range(80):
        cfg = random_config(rng)
        got = sc.save_scene(sc.generate_synthetic(cfg, seed=k))
        assert got == sc.save_scene(reference_generate_synthetic(cfg, seed=k)), (k, cfg)


@pytest.mark.parametrize("cfg", [
    sc.SceneGenConfig(),
    sc.SceneGenConfig(n_lanes=4, n_actors=8, lane_length=150.0),
    sc.SceneGenConfig(curvature_range=(1e-13, 1e-13)),  # the straight-line branch
    sc.SceneGenConfig(n_lanes=3, curvature_range=(-0.08, -0.02), lane_change_prob=1.0, h=4,
                      t=60),
], ids=["default", "dense", "near-zero-kappa", "curved-lane-changes"])
def test_named_configs_match_the_loop(cfg):
    for seed in range(3):
        assert sc.save_scene(sc.generate_synthetic(cfg, seed)) == sc.save_scene(
            reference_generate_synthetic(cfg, seed))


def test_lane_points_along_a_circle():
    kappa = 0.1
    s = np.linspace(0.0, 10.0, 7)
    pts, th = sc._lane_points(s, 2.0, kappa)
    assert pts.shape == (7, 2) and th.shape == (7,)
    # every point of the offset arc lies 1/kappa - 2 from the circle's center
    np.testing.assert_allclose(np.hypot(pts[:, 0], pts[:, 1] - 1.0 / kappa),
                               1.0 / kappa - 2.0, atol=1e-12)
    np.testing.assert_allclose(th, kappa * s, atol=0)
