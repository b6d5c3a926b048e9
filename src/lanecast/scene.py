"""Vectorized scene model: actor tracks, lane graphs, boundary polylines.

A scene carries its records (what the file holds, in the world frame) plus
derived structure: the resampled lane-node graph with typed adjacency and
the resampled boundary nodes matched to lane nodes. Derivation is
deterministic, so a save/load round trip reproduces the derived parts too.

Lane and boundary nodes of a scene count together against MAX_SCENE_NODES,
read from each polyline's length before resampling. Nearest-node searches
run as all-pairs distance arrays in fixed-size row blocks.

All geometry is float64, packed once per scene (see `Scene`). Scenes are
treated as immutable after construction; `normalize` returns a view that
moves the packed arrays and shares every record and the rest.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ConfigError, ContractError, ParseError, integer, numbers, one_of,
                     parse_json, require, string)

ACTOR_KINDS = ("vehicle", "pedestrian", "cyclist", "other")
MARKINGS = ("solid", "dashed", "double", "none")
SIDES = ("left", "right")
ADJ_CATEGORIES = ("predecessor", "successor", "left", "right")

WORLD_FRAME = "world"

# lane plus boundary nodes per scene: bounds the all-pairs work a file can ask for
MAX_SCENE_NODES = 2048
_BLOCK_ROWS = 256  # rows per all-pairs distance block: memory ~ N * _BLOCK_ROWS
# `generate_synthetic` builds arrays of every polyline's points and of every
# actor's time steps; these cap their sizes per scene
MAX_POLYLINE_POINTS = 2048  # lane_length / sample_step
MAX_TIME_STEPS = 1000       # h + t
MAX_ACTORS = 256            # generated and loaded scenes alike


def wrap_angles(arr):
    """Map angles to (-pi, pi], elementwise. Idempotent, including at the
    boundary.

    fmod is exact and leaves |r| < tau; the one shift by tau that follows is
    exact too (Sterbenz's lemma), so each result is exactly x - n*tau for the
    one integer n that lands it in (-pi, pi]."""
    r = np.fmod(np.asarray(arr, dtype=np.float64), math.tau)
    return np.where(r > math.pi, r - math.tau, np.where(r <= -math.pi, r + math.tau, r))


@dataclass
class ActorTrack:
    """One agent's identity; its states are its row of the Scene's packed arrays."""

    id: str
    kind: str
    focal: bool = False


@dataclass
class Lane:
    id: str
    centerline: np.ndarray  # [P, 2]


@dataclass
class LaneGraph:
    """Resampled lane nodes plus typed directed adjacency.

    Adjacency arrays have shape [E, 2] of (src, dst) node indices, sorted.
    left(i, j) holds exactly when right(j, i) does.
    """

    centers: np.ndarray       # [N, 2]
    directions: np.ndarray    # [N, 2], unit rows
    lengths: np.ndarray       # [N]
    adjacency: dict[str, np.ndarray]
    lane_ranges: dict[str, tuple[int, int]]

    @property
    def n_nodes(self):
        return self.centers.shape[0]


@dataclass
class BoundaryPolyline:
    """A lane boundary as the scene file holds it, in the world frame."""

    points: np.ndarray  # [P, 2]
    marking: str
    side: str
    lane_id: str
    # its rows of the world scene's node_centers, set at scene build time;
    # kept because perfbench/inputs.py counts boundary nodes by it on loaded scenes
    node_centers: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))


@dataclass
class Scene:
    """The data of a scene lives in packed arrays, which the model reads: the
    actors' states stacked on a leading actor axis (actor i is row i), every
    boundary's resampled nodes flat, in boundary order, and the lane graph.
    The records hold what the scene file holds, in the world frame: an actor
    its id, kind and `focal`, a lane its centerline, a boundary its points
    and marking. A view moves only the packed arrays and shares every record
    with its scene, so only a world-frame scene can be saved."""

    horizon: tuple[int, int]  # (H, T)
    actors: list[ActorTrack]
    lanes: list[Lane]
    boundaries: list[BoundaryPolyline]
    lane_graph: LaneGraph
    positions: np.ndarray           # [A, H, 2]
    headings: np.ndarray            # [A, H]
    velocities: np.ndarray          # [A, H, 2]
    observed: np.ndarray            # [A, H] bool
    future: np.ndarray              # [A, T, 2], read only where has_future
    has_future: np.ndarray          # [A] bool
    node_centers: np.ndarray        # [B, 2]
    node_directions: np.ndarray     # [B, 2]
    node_markings: np.ndarray       # [B] int64, index into MARKINGS
    matched_lane_nodes: np.ndarray  # [B] int64, -1 where the lane has no nodes
    frame: str = WORLD_FRAME
    # x_world = world_rot @ x_frame + world_trans
    world_rot: np.ndarray = field(default_factory=lambda: np.eye(2))
    world_trans: np.ndarray = field(default_factory=lambda: np.zeros(2))
    scene_id: str = "scene"

    def actor_index(self, actor_id):
        for i, a in enumerate(self.actors):
            if a.id == actor_id:
                return i
        raise ContractError(f"no actor with id {actor_id!r}")

    def focal_actors(self):
        return [a for a in self.actors if a.focal]


@dataclass
class SceneGenConfig:
    n_lanes: int = 2
    lane_width: float = 3.5
    lane_length: float = 100.0
    curvature_range: tuple[float, float] = (0.0, 0.0)  # 1/m
    n_actors: int = 3
    h: int = 10
    t: int = 15
    noise_sigma: float = 0.0
    speed_range: tuple[float, float] = (5.0, 12.0)
    lane_change_prob: float = 0.3
    dt: float = 0.1
    sample_step: float = 1.0  # polyline sampling, meters
    segment_len: float = 2.0  # lane node granularity, meters

    def validate(self):
        if self.h < 2:
            raise ConfigError(f"h must be >= 2, got {self.h}")
        if self.t < 1:
            raise ConfigError(f"t must be >= 1, got {self.t}")
        if self.n_lanes < 1:
            raise ConfigError(f"n_lanes must be >= 1, got {self.n_lanes}")
        if self.n_actors < 1:
            raise ConfigError(f"n_actors must be >= 1, got {self.n_actors}")
        if self.lane_width <= 0 or self.lane_length <= 0:
            raise ConfigError("lane_width and lane_length must be positive")
        if self.curvature_range[0] > self.curvature_range[1]:
            raise ConfigError(f"bad curvature_range {self.curvature_range}")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if not 0 <= self.lane_change_prob <= 1:
            raise ConfigError(f"data.gen.lane_change_prob must lie in [0, 1], "
                              f"got {self.lane_change_prob}")
        if self.dt <= 0 or self.sample_step <= 0 or self.segment_len <= 0:
            raise ConfigError("dt, sample_step and segment_len must be positive")
        if not self.lane_length / self.sample_step <= MAX_POLYLINE_POINTS:
            raise ConfigError(f"data.gen.sample_step: lane_length / sample_step = "
                              f"{self.lane_length / self.sample_step:g} points per polyline, "
                              f"more than MAX_POLYLINE_POINTS={MAX_POLYLINE_POINTS}")
        if self.h + self.t > MAX_TIME_STEPS:
            raise ConfigError(f"data.gen.h: h + t = {self.h + self.t} steps, "
                              f"more than MAX_TIME_STEPS={MAX_TIME_STEPS}")
        if self.n_actors > MAX_ACTORS:
            raise ConfigError(f"data.gen.n_actors: {self.n_actors} actors, "
                              f"more than MAX_ACTORS={MAX_ACTORS}")
        # polylines lie within o = n_lanes * lane_width / 2 of one arc: <= (1 + o kappa) long
        lanes = min(self.n_lanes, MAX_SCENE_NODES + 1)  # keeps the bound in float range
        kappa = float(max(map(abs, self.curvature_range)))
        nodes = 3 * lanes * (1.0 + (1.0 + kappa * lanes * self.lane_width / 2)
                             * self.lane_length / self.segment_len)
        if not nodes <= MAX_SCENE_NODES:
            raise ConfigError(f"data.gen: {self.n_lanes} lanes of {self.lane_length} m can make "
                              f"more than MAX_SCENE_NODES={MAX_SCENE_NODES} nodes")


# ---------------------------------------------------------------------------
# resampling and graph construction


def resample_polyline(points, segment_len, budget=MAX_SCENE_NODES, path="points"):
    """Split a polyline into n equal-arclength segments, n = round(len/seg).

    Returns (centers [n,2], directions [n,2] unit chords, lengths [n]).
    Degenerate polylines (zero total length) come back empty. More than
    `budget` nodes, read from the length before allocating (NaN counts as
    more), or centers beyond float range raise ParseError naming `path`.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN count as over budget
        deltas = np.diff(pts, axis=0)
        seg = np.hypot(deltas[:, 0], deltas[:, 1])
        total = float(seg.sum())
    if total <= 1e-9:
        return np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0)
    if not total / segment_len <= budget:
        raise ParseError(path, f"{path}: more than the {budget} nodes left of MAX_SCENE_NODES")
    n = max(1, int(round(total / segment_len)))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    edges = np.linspace(0.0, total, n + 1)
    ex = np.interp(edges, cum, pts[:, 0])
    ey = np.interp(edges, cum, pts[:, 1])
    starts = np.stack([ex[:-1], ey[:-1]], axis=1)
    ends = np.stack([ex[1:], ey[1:]], axis=1)
    centers = 0.5 * (starts + ends)
    if not np.isfinite(centers).all():
        raise ParseError(path, f"{path}: node centers overflow float range")
    chords = ends - starts
    norms = np.hypot(chords[:, 0], chords[:, 1])
    # a segment can have zero chord on a hairpin; fall back to +x
    safe = np.where(norms > 1e-12, norms, 1.0)
    directions = chords / safe[:, None]
    directions[norms <= 1e-12] = (1.0, 0.0)
    lengths = np.full(n, total / n)
    return centers, directions, lengths


def _nearest(points, centers, starts):
    """Distance to, and index of, each point's nearest node in every node
    range of `centers` (range k starts at starts[k]). Nodes within a relative
    1e-9 of the minimum tie, and a tie goes to the lowest index, so a match
    does not hang on the frame's roundoff. Returns ([P, R], [P, R])."""
    diff = centers[None, :, :] - points[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    dmin = np.minimum.reduceat(dist, starts, axis=1)
    col = np.arange(len(centers))
    hit = dist <= dmin[:, np.searchsorted(starts, col, side="right") - 1] * (1 + 1e-9)
    return dmin, np.minimum.reduceat(np.where(hit, col, len(centers)), starts, axis=1)


def _sorted_edges(keys, n):
    """Keys src * n + dst -> sorted unique (src, dst) rows [E, 2]. Sorting in
    place beats np.unique, which hashes, ~40x at the node budget."""
    keys.sort()
    return np.stack(np.divmod(keys[np.diff(keys, prepend=-1) > 0], n), axis=1)


def build_lane_nodes(lanes, segment_len=SceneGenConfig.segment_len,
                     lane_width=SceneGenConfig.lane_width):
    """Resample centerlines into a LaneGraph with typed adjacency.

    Successor edges chain consecutive nodes of one lane; predecessors mirror
    them. Left/right edges join each node to its nearest lateral neighbour
    on each side: among the nearest nodes of the other lanes, those closer
    than 1.2 * lane_width and nearly parallel (|d_i . d_j| > 0.8), the
    closest to its left and the closest to its right (ties to the lower
    node index). Each node adds at most one edge per side, and right(i, j)
    mirrors left(j, i), so there are at most 2N left edges. One all-pairs
    pass in row blocks finds them: lanes own contiguous node ranges, so a
    segment min over a lane's columns gives each node's nearest node on it.
    The first lane past MAX_SCENE_NODES is a ParseError. Returns (graph,
    skipped), skipped counting degenerate centerlines that produced no nodes.
    """
    if segment_len <= 0:
        raise ConfigError(f"segment_len must be positive, got {segment_len}")
    parts, lane_ranges, n = [(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))], {}, 0
    for i, lane in enumerate(lanes):
        part = resample_polyline(lane.centerline, segment_len, MAX_SCENE_NODES - n,
                                 f"lanes[{i}].centerline")
        if len(part[0]):
            lane_ranges[lane.id] = (n, n + len(part[0]))
            n += len(part[0])
            parts.append(part)
    centers, directions, lengths = map(np.concatenate, zip(*parts))
    lane_of = np.repeat(np.arange(len(parts) - 1), [len(p[0]) for p in parts[1:]])
    starts = np.flatnonzero(np.diff(lane_of, prepend=-1))
    k = np.flatnonzero(lane_of[1:] == lane_of[:-1])
    succ = np.stack([k, k + 1], axis=1)

    keys = [np.zeros(0, dtype=np.int64)]  # left edges as src * n + dst
    for r in range(0, n, _BLOCK_ROWS):
        dist, near = _nearest(centers[r:r + _BLOCK_ROWS], centers, starts)
        rows, seg = np.nonzero(dist < 1.2 * lane_width)  # own lane: the node itself, cross 0
        i, j, dij = rows + r, near[rows, seg], dist[rows, seg]
        di, dj = directions[i], directions[j]
        dx, dy = (centers[j] - centers[i]).T
        cross = di[:, 0] * dy - di[:, 1] * dx
        ok = (np.abs(di[:, 0] * dj[:, 0] + di[:, 1] * dj[:, 1]) > 0.8) & (np.abs(cross) >= 1e-9)
        i, j, dij, left_of = i[ok], j[ok], dij[ok], cross[ok] > 0  # j lies left of i
        # the nearest candidate per (node, side): first of each group, sorted by distance, index
        order = np.lexsort((j, dij, left_of, i))
        i, j, left_of = i[order], j[order], left_of[order]
        first = np.diff(i * 2 + left_of, prepend=-1) != 0
        i, j, left_of = i[first], j[first], left_of[first]
        keys.append(np.where(left_of, i * n + j, j * n + i))
    left = _sorted_edges(np.concatenate(keys), n)
    adjacency = {"predecessor": succ[:, ::-1].copy(), "successor": succ, "left": left,
                 "right": _sorted_edges(left[:, 1] * n + left[:, 0], n)}
    skipped = len(lanes) + 1 - len(parts)
    return LaneGraph(centers, directions, lengths, adjacency, lane_ranges), skipped


def _match_boundaries(boundaries, graph, segment_len):
    """Resample each boundary and match its nodes to the parent lane's nodes
    by one blocked argmin over that lane's range (-1 if it has no nodes).
    Boundary nodes take what the lanes left of MAX_SCENE_NODES; the first
    past it is a ParseError. Sets each record's `node_centers` to its rows
    and returns the packed node arrays by Scene field."""
    budget, parts = MAX_SCENE_NODES - graph.n_nodes, [(np.zeros((0, 2)), np.zeros((0, 2)))]
    for i, b in enumerate(boundaries):
        parts.append(resample_polyline(b.points, segment_len, budget,
                                       f"boundaries[{i}].points")[:2])
        budget -= len(parts[-1][0])
    centers, directions = map(np.concatenate, zip(*parts))
    sizes = [len(p[0]) for p in parts[1:]]
    offsets = np.cumsum([0] + sizes)
    matched = np.full(len(centers), -1, dtype=np.int64)
    for b, start, stop in zip(boundaries, offsets[:-1], offsets[1:]):
        b.node_centers = centers[start:stop]
        lo, hi = graph.lane_ranges.get(b.lane_id, (0, 0))
        for r in range(start, stop if hi > lo else start, _BLOCK_ROWS):
            near = _nearest(centers[r:min(r + _BLOCK_ROWS, stop)], graph.centers[lo:hi], [0])[1]
            matched[r:r + len(near)] = lo + near[:, 0]
    markings = np.repeat([MARKINGS.index(b.marking) for b in boundaries], sizes).astype(np.int64)
    return dict(node_centers=centers, node_directions=directions, node_markings=markings,
                matched_lane_nodes=matched)


def make_scene(horizon, actors, tracks, lanes, boundaries, segment_len=SceneGenConfig.segment_len,
               lane_width=SceneGenConfig.lane_width, scene_id="scene"):
    """Assemble a Scene: validate, build the lane graph, match boundaries, pack.
    `tracks` holds one (positions [H, 2], headings [H] in (-pi, pi], velocities
    [H, 2], observed [H] bool, future [T, 2] or None) tuple per actor."""
    h, t = horizon
    if not any(a.focal for a in actors):
        raise ContractError("scene has no focal actor")
    for a, (pos, _, _, obs, fut) in zip(actors, tracks, strict=True):
        if np.shape(pos) != (h, 2):
            raise ContractError(f"actor {a.id}: history length != H={h}")
        if fut is not None and np.shape(fut) != (t, 2):
            raise ContractError(f"actor {a.id}: future length != T={t}")
        if not np.any(obs):
            raise ContractError(f"actor {a.id}: no observed steps")
    graph, _ = build_lane_nodes(lanes, segment_len, lane_width)
    positions, headings, velocities, observed, futures = zip(*tracks)
    return Scene(
        (h, t), actors, lanes, boundaries, graph,
        *(np.array(x, dtype=np.float64) for x in (positions, headings, velocities)),
        observed=np.array(observed, dtype=bool),
        future=np.array([np.zeros((t, 2)) if f is None else f for f in futures],
                        dtype=np.float64),
        has_future=np.array([f is not None for f in futures]),
        **_match_boundaries(boundaries, graph, segment_len), scene_id=scene_id)


# ---------------------------------------------------------------------------
# synthetic generation


def _lane_points(s, lateral, kappa):
    """Points at arc lengths s [P] of the arc of curvature kappa through the
    origin (heading +x), offset `lateral` (scalar or [P]) to its left.
    Returns (points [P, 2], tangent angles [P])."""
    s = np.asarray(s, dtype=np.float64)
    if abs(kappa) < 1e-12:
        x, y, th = s, np.zeros_like(s), np.zeros_like(s)
    else:
        th = kappa * s
        x, y = np.sin(th) / kappa, (1.0 - np.cos(th)) / kappa
    # unit normal (left of travel): (-sin th, cos th)
    return np.stack([x - lateral * np.sin(th), y + lateral * np.cos(th)], axis=-1), th


def generate_synthetic(config: SceneGenConfig, seed, scene_id=None):
    """A deterministic toy scene: parallel (possibly curved) lanes with
    boundary lines, and actors driving along them.

    Actor 0 is focal. With two or more lanes an actor may blend laterally
    into a neighbor lane over the prediction window. Position noise, when
    enabled, perturbs observed history only; ground-truth futures stay on
    the maneuver path.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    kappa = float(rng.uniform(*config.curvature_range))
    w = config.lane_width

    def lane_lateral(idx):
        return (idx - (config.n_lanes - 1) / 2.0) * w

    n_pts = int(config.lane_length / config.sample_step) + 1
    svals = np.arange(n_pts) * config.sample_step
    lanes = []
    boundaries = []
    for li in range(config.n_lanes):
        lat = lane_lateral(li)
        lane_id = f"lane{li}"
        lanes.append(Lane(lane_id, _lane_points(svals, lat, kappa)[0]))
        for side, off in (("left", lat + w / 2.0), ("right", lat - w / 2.0)):
            interior = (side == "left" and li + 1 < config.n_lanes) or \
                       (side == "right" and li > 0)
            bpts = _lane_points(svals, off, kappa)[0]
            boundaries.append(BoundaryPolyline(
                points=bpts, marking="dashed" if interior else "solid",
                side=side, lane_id=lane_id))

    n_steps = config.h + config.t
    steps = np.arange(n_steps)
    actors, tracks = [], []
    for ai in range(config.n_actors):
        lane_idx = int(rng.integers(config.n_lanes))
        s0 = float(rng.uniform(0.05, 0.35)) * config.lane_length
        v = float(rng.uniform(*config.speed_range))
        # keep the whole trajectory on the map
        v = min(v, (config.lane_length - s0) / (n_steps * config.dt))

        lat_from = lane_lateral(lane_idx)
        lat_to = lat_from
        change_at = n_steps  # never
        if config.n_lanes > 1 and rng.random() < config.lane_change_prob:
            target = lane_idx + (1 if lane_idx + 1 < config.n_lanes else -1)
            if 0 < lane_idx and rng.random() < 0.5:
                target = lane_idx - 1
            lat_to = lane_lateral(target)
            change_at = int(rng.integers(max(1, config.h - 2), config.h + config.t // 2))
        window = 20

        u = np.clip((steps - change_at) / window, 0.0, 1.0)
        blend = u * u * (3.0 - 2.0 * u)  # smoothstep: 0 up to change_at
        xs, ths = _lane_points(s0 + v * config.dt * steps,
                               lat_from + (lat_to - lat_from) * blend, kappa)
        ths = wrap_angles(ths)

        hist = xs[:config.h].copy()
        if config.noise_sigma > 0:
            hist = hist + rng.normal(0.0, config.noise_sigma, hist.shape)
        vel = np.stack([v * np.cos(ths[:config.h]), v * np.sin(ths[:config.h])], axis=1)
        actors.append(ActorTrack(
            id=f"a{ai}",
            kind="vehicle" if ai == 0 else str(rng.choice(ACTOR_KINDS, p=[0.7, 0.1, 0.1, 0.1])),
            focal=(ai == 0),
        ))
        tracks.append((hist, ths[:config.h], vel, np.ones(config.h, dtype=bool), xs[config.h:]))

    sid = scene_id if scene_id is not None else f"syn-{seed}"
    return make_scene((config.h, config.t), actors, tracks, lanes, boundaries,
                      segment_len=config.segment_len, lane_width=w, scene_id=sid)


# ---------------------------------------------------------------------------
# normalization


def normalize(scene: Scene, actor_id: str) -> Scene:
    """Rigid transform into the agent frame of `actor_id`: its last observed
    position moves to the origin, its heading there to +x. A pure isometry;
    applying it twice equals applying it once. Only the packed arrays the
    model reads move, an array at a time; the view shares every record (they
    stay in the world frame), `observed`, lengths, adjacency and matches."""
    i = scene.actor_index(actor_id)
    if not scene.observed[i, -1]:
        raise ContractError(f"actor {actor_id} unobserved at last history step")
    origin = scene.positions[i, -1].copy()
    psi = float(scene.headings[i, -1])
    c, s = math.cos(psi), math.sin(psi)
    rot = np.array([[c, s], [-s, c]])  # world -> agent

    def tp(pts):  # transform points
        return (pts - origin) @ rot.T

    def tv(vecs):  # rotate vectors
        return vecs @ rot.T

    g = scene.lane_graph
    # compose so x_world still recoverable: x_w = R_old (rot^T x_new + origin) + t_old
    return replace(
        scene, positions=tp(scene.positions), headings=wrap_angles(scene.headings - psi),
        velocities=tv(scene.velocities), future=tp(scene.future),
        node_centers=tp(scene.node_centers), node_directions=tv(scene.node_directions),
        lane_graph=replace(g, centers=tp(g.centers), directions=tv(g.directions)),
        frame=f"agent:{actor_id}", world_rot=scene.world_rot @ rot.T,
        world_trans=scene.world_rot @ origin + scene.world_trans)


def to_world(scene: Scene, points):
    """Map agent-frame points back to the world frame."""
    return np.asarray(points) @ scene.world_rot.T + scene.world_trans


# ---------------------------------------------------------------------------
# serialization


def load_scene(data, segment_len=SceneGenConfig.segment_len,
               lane_width=SceneGenConfig.lane_width, scene_id="scene"):
    """Parse scene JSON (bytes or str). Violations raise ParseError naming
    the offending field. Scene identity is not part of the file format;
    callers pass one (the CLI uses the file's stem)."""
    obj = parse_json(data, "scene")
    if not isinstance(obj, dict):
        raise ParseError("document", "top level must be an object")

    hz = require(obj, "horizon")
    h, t = (require(hz, key, "horizon") for key in "HT")
    h, t = integer(h, "horizon.H", 2), integer(t, "horizon.T", 1)
    if h + t > MAX_TIME_STEPS:  # T alone sizes the future rows, even of null futures
        raise ParseError("horizon.T", f"horizon.T: H + T = {h + t} steps, "
                                      f"more than MAX_TIME_STEPS={MAX_TIME_STEPS}")

    raw_actors = require(obj, "actors")
    if not isinstance(raw_actors, list) or not raw_actors:
        raise ParseError("actors", "actors must be a nonempty list")
    if len(raw_actors) > MAX_ACTORS:
        raise ParseError("actors", f"actors: more than MAX_ACTORS={MAX_ACTORS}")
    actors, tracks, actor_ids = [], [], {}
    for i, ra in enumerate(raw_actors):
        p = f"actors[{i}]"
        aid = string(require(ra, "id", p), p + ".id", actor_ids)
        kind = one_of(require(ra, "kind", p), p + ".kind", ACTOR_KINDS)
        hist = numbers(require(ra, "history", p), p + ".history", (h, 5))
        observed = require(ra, "observed", p)
        if (not isinstance(observed, list) or len(observed) != h or True not in observed
                or not all(isinstance(b, bool) for b in observed)):
            raise ParseError(p + ".observed", f"{p}.observed must be {h} booleans, "
                                              f"one of them true")
        obs = np.array(observed, dtype=bool)
        fut = require(ra, "future", p)
        future = None if fut is None else numbers(fut, p + ".future", (t, 2))
        focal = require(ra, "focal", p)
        if not isinstance(focal, bool):
            raise ParseError(p + ".focal")
        if focal and not observed[-1]:
            raise ParseError(p + ".observed", f"{p}.observed: a focal actor must be "
                                              f"observed at the last history step")
        actors.append(ActorTrack(id=aid, kind=kind, focal=focal))
        tracks.append((hist[:, 0:2], wrap_angles(hist[:, 2]), hist[:, 3:5], obs, future))

    raw_lanes = require(obj, "lanes")
    if not isinstance(raw_lanes, list):
        raise ParseError("lanes")
    lanes, lane_ids = [], {}
    for i, rl in enumerate(raw_lanes):
        p = f"lanes[{i}]"
        lid = string(require(rl, "id", p), p + ".id", lane_ids)
        pts = numbers(require(rl, "centerline", p), p + ".centerline", (None, 2))
        if pts.shape[0] < 2:
            raise ParseError(p + ".centerline", f"{p}.centerline needs >= 2 points")
        lanes.append(Lane(lid, pts))

    raw_bounds = require(obj, "boundaries")
    if not isinstance(raw_bounds, list):
        raise ParseError("boundaries")
    boundaries = []
    for i, rb in enumerate(raw_bounds):
        p = f"boundaries[{i}]"
        pts = numbers(require(rb, "points", p), p + ".points", (None, 2))
        if pts.shape[0] < 2:
            raise ParseError(p + ".points", f"{p}.points needs >= 2 points")
        marking = one_of(require(rb, "marking", p), p + ".marking", MARKINGS)
        side = one_of(require(rb, "side", p), p + ".side", SIDES)
        lid = string(require(rb, "lane_id", p), p + ".lane_id")
        if lid not in lane_ids:
            raise ParseError(p + ".lane_id", f"{p}.lane_id {lid!r} not among lanes")
        boundaries.append(BoundaryPolyline(points=pts, marking=marking, side=side,
                                           lane_id=lid))

    if not any(a.focal for a in actors):
        raise ParseError("actors", "no focal actor")
    return make_scene((h, t), actors, tracks, lanes, boundaries, segment_len, lane_width, scene_id)


def save_scene(scene: Scene) -> bytes:
    """Serialize a world-frame scene to UTF-8 JSON with round-trip float
    precision; actor states come from the packed arrays. A view's records
    stay in the world frame while its rows move, so saving one would mix
    frames: a ContractError."""
    if scene.frame != WORLD_FRAME:
        raise ContractError(f"save_scene: scene in frame {scene.frame!r}, not {WORLD_FRAME!r}")
    history = np.concatenate([scene.positions, scene.headings[..., None], scene.velocities],
                             axis=2).tolist()
    obj = {
        "horizon": {"H": scene.horizon[0], "T": scene.horizon[1]},
        "actors": [{
            "id": a.id,
            "kind": a.kind,
            "history": history[i],
            "observed": scene.observed[i].tolist(),
            "future": scene.future[i].tolist() if scene.has_future[i] else None,
            "focal": bool(a.focal),
        } for i, a in enumerate(scene.actors)],
        "lanes": [{"id": l.id, "centerline": l.centerline.tolist()} for l in scene.lanes],
        "boundaries": [{
            "points": b.points.tolist(),
            "marking": b.marking,
            "side": b.side,
            "lane_id": b.lane_id,
        } for b in scene.boundaries],
    }
    return json.dumps(obj).encode("utf-8")


def actor_rng_seed(scene_id, actor_id, seed):
    """Stable per-actor stream id: crc32 of the pair, xor the run seed."""
    tag = zlib.crc32(f"{scene_id}/{actor_id}".encode("utf-8"))
    return (int(seed) ^ tag) & 0xFFFFFFFF
