"""Vectorized scene model: actor tracks, lane graphs, boundary polylines.

A scene carries raw polylines (what gets serialized) plus derived structure:
the resampled lane-node graph with typed adjacency and, per boundary, the
resampled boundary nodes matched to lane nodes. Derivation is deterministic,
so a save/load round trip reproduces the derived parts too.

Lane and boundary nodes of a scene count together against MAX_SCENE_NODES,
read from each polyline's length before resampling. Nearest-node searches
run as all-pairs distance arrays in fixed-size row blocks.

All geometry is float64. Scenes are treated as immutable after construction;
`normalize` returns a new scene.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractError, ParseError, parse_json

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
MAX_ACTORS = 256


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
    """One agent: H observed states and, when labeled, T future positions."""

    id: str
    kind: str
    positions: np.ndarray      # [H, 2]
    headings: np.ndarray       # [H], radians in (-pi, pi]
    velocities: np.ndarray     # [H, 2]
    observed: np.ndarray       # [H] bool
    future: np.ndarray | None  # [T, 2] or None
    focal: bool = False

    def last_observed_index(self):
        idx = np.flatnonzero(self.observed)
        if idx.size == 0:
            raise ContractError(f"actor {self.id} has no observed steps")
        return int(idx[-1])


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
    """A lane boundary with its marking, plus derived resampled nodes."""

    points: np.ndarray  # [P, 2]
    marking: str
    side: str
    lane_id: str
    # derived at scene build time:
    node_centers: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    node_directions: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    matched_lane_nodes: list[int] = field(default_factory=list)


@dataclass
class Scene:
    horizon: tuple[int, int]  # (H, T)
    actors: list[ActorTrack]
    lanes: list[Lane]
    boundaries: list[BoundaryPolyline]
    lane_graph: LaneGraph
    frame: str = WORLD_FRAME
    # x_world = world_rot @ x_frame + world_trans
    world_rot: np.ndarray = field(default_factory=lambda: np.eye(2))
    world_trans: np.ndarray = field(default_factory=lambda: np.zeros(2))
    scene_id: str = "scene"

    def actor(self, actor_id):
        for a in self.actors:
            if a.id == actor_id:
                return a
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


def build_lane_nodes(lanes, segment_len=2.0, lane_width=3.5):
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
    by one blocked argmin over that lane's range. Boundary nodes take what the
    lanes left of MAX_SCENE_NODES; the first past it is a ParseError."""
    budget = MAX_SCENE_NODES - graph.n_nodes
    for i, b in enumerate(boundaries):
        b.node_centers, b.node_directions, _ = resample_polyline(
            b.points, segment_len, budget, f"boundaries[{i}].points")
        budget -= len(b.node_centers)
        lo, hi = graph.lane_ranges.get(b.lane_id, (0, 0))
        near = [np.zeros((0, 1), dtype=np.int64)] + [
            lo + _nearest(b.node_centers[r:r + _BLOCK_ROWS], graph.centers[lo:hi], [0])[1]
            for r in range(0, len(b.node_centers) if hi > lo else 0, _BLOCK_ROWS)]
        b.matched_lane_nodes = np.concatenate(near)[:, 0].tolist()


def make_scene(horizon, actors, lanes, boundaries, segment_len=2.0, lane_width=3.5,
               scene_id="scene"):
    """Assemble a Scene: build the lane graph, match boundaries, validate."""
    h, t = horizon
    if not any(a.focal for a in actors):
        raise ContractError("scene has no focal actor")
    for a in actors:
        if a.positions.shape != (h, 2):
            raise ContractError(f"actor {a.id}: history length != H={h}")
        if a.future is not None and a.future.shape != (t, 2):
            raise ContractError(f"actor {a.id}: future length != T={t}")
        if not a.observed.any():
            raise ContractError(f"actor {a.id}: no observed steps")
    graph, _ = build_lane_nodes(lanes, segment_len, lane_width)
    _match_boundaries(boundaries, graph, segment_len)
    return Scene(horizon=(h, t), actors=actors, lanes=lanes, boundaries=boundaries,
                 lane_graph=graph, scene_id=scene_id)


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
    actors = []
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
            positions=hist,
            headings=ths[:config.h].copy(),
            velocities=vel,
            observed=np.ones(config.h, dtype=bool),
            future=xs[config.h:].copy(),
            focal=(ai == 0),
        ))

    sid = scene_id if scene_id is not None else f"syn-{seed}"
    return make_scene((config.h, config.t), actors, lanes, boundaries,
                      segment_len=config.segment_len, lane_width=w, scene_id=sid)


# ---------------------------------------------------------------------------
# normalization


def normalize(scene: Scene, actor_id: str) -> Scene:
    """Rigid transform into the agent frame of `actor_id`: its last observed
    position moves to the origin, its heading there to +x. A pure isometry;
    applying it twice equals applying it once."""
    actor = scene.actor(actor_id)
    if not actor.observed[-1]:
        raise ContractError(f"actor {actor_id} unobserved at last history step")
    origin = actor.positions[-1].astype(np.float64)
    psi = float(actor.headings[-1])
    c, s = math.cos(psi), math.sin(psi)
    rot = np.array([[c, s], [-s, c]])  # world -> agent

    def tp(pts):  # transform points
        return (np.asarray(pts) - origin) @ rot.T

    def tv(vecs):  # rotate vectors
        return np.asarray(vecs) @ rot.T

    actors = [replace(
        a,
        positions=tp(a.positions),
        headings=wrap_angles(a.headings - psi),
        velocities=tv(a.velocities),
        observed=a.observed.copy(),
        future=None if a.future is None else tp(a.future),
    ) for a in scene.actors]

    lanes = [Lane(l.id, tp(l.centerline)) for l in scene.lanes]
    boundaries = [replace(
        b, points=tp(b.points), node_centers=tp(b.node_centers),
        node_directions=tv(b.node_directions),
        matched_lane_nodes=list(b.matched_lane_nodes),
    ) for b in scene.boundaries]
    g = scene.lane_graph
    graph = LaneGraph(tp(g.centers), tv(g.directions), g.lengths.copy(),
                      {k: v.copy() for k, v in g.adjacency.items()},
                      dict(g.lane_ranges))

    # compose so x_world still recoverable: x_w = R_old (rot^T x_new + origin) + t_old
    world_rot = scene.world_rot @ rot.T
    world_trans = scene.world_rot @ origin + scene.world_trans
    return Scene(horizon=scene.horizon, actors=actors, lanes=lanes,
                 boundaries=boundaries, lane_graph=graph,
                 frame=f"agent:{actor_id}", world_rot=world_rot,
                 world_trans=world_trans, scene_id=scene.scene_id)


def to_world(scene: Scene, points):
    """Map agent-frame points back to the world frame."""
    return np.asarray(points) @ scene.world_rot.T + scene.world_trans


# ---------------------------------------------------------------------------
# serialization


def _require(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{path}{key}" if path.endswith(".") or not path else key)
    return obj[key]


def _num_array(val, path, shape_hint=None):
    try:
        arr = np.asarray(val, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:  # overflow: an int beyond float range
        raise ParseError(path, f"{path}: not numeric or out of range") from e
    if shape_hint is not None and (arr.ndim != len(shape_hint) or any(
            s is not None and arr.shape[i] != s for i, s in enumerate(shape_hint))):
        raise ParseError(path, f"{path}: bad shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParseError(path, f"{path}: non-finite value")
    return arr


def load_scene(data, segment_len=2.0, lane_width=3.5, scene_id="scene"):
    """Parse scene JSON (bytes or str). Violations raise ParseError naming
    the offending field. Scene identity is not part of the file format;
    callers pass one (the CLI uses the file's stem)."""
    obj = parse_json(data, "scene")
    if not isinstance(obj, dict):
        raise ParseError("document", "top level must be an object")

    hz = _require(obj, "horizon", "")
    h = _require(hz, "H", "horizon.")
    t = _require(hz, "T", "horizon.")
    if (isinstance(h, bool) or isinstance(t, bool) or not isinstance(h, int)
            or not isinstance(t, int) or h < 2 or t < 1):
        raise ParseError("horizon", f"bad horizon H={h!r} T={t!r}")

    raw_actors = _require(obj, "actors", "")
    if not isinstance(raw_actors, list) or not raw_actors:
        raise ParseError("actors", "actors must be a nonempty list")
    actors, actor_ids = [], set()
    for i, ra in enumerate(raw_actors):
        p = f"actors[{i}]."
        aid = str(_require(ra, "id", p))
        if aid in actor_ids:
            raise ParseError(p + "id", f"{p}id {aid!r} repeats an earlier actor's id")
        kind = _require(ra, "kind", p)
        if kind not in ACTOR_KINDS:
            raise ParseError(p + "kind", f"unknown actor kind {kind!r}")
        hist = _num_array(_require(ra, "history", p), p + "history", (h, 5))
        observed = _require(ra, "observed", p)
        if (not isinstance(observed, list) or len(observed) != h
                or not all(isinstance(b, bool) for b in observed)):
            raise ParseError(p + "observed", f"{p}observed must be {h} booleans")
        obs = np.array(observed, dtype=bool)
        if not obs.any():
            raise ParseError(p + "observed", f"{p}observed has no true entry")
        fut = _require(ra, "future", p)
        future = None if fut is None else _num_array(fut, p + "future", (t, 2))
        focal = _require(ra, "focal", p)
        if not isinstance(focal, bool):
            raise ParseError(p + "focal")
        actors.append(ActorTrack(
            id=aid, kind=kind, positions=hist[:, 0:2].copy(),
            headings=wrap_angles(hist[:, 2]), velocities=hist[:, 3:5].copy(),
            observed=obs, future=future, focal=focal))
        actor_ids.add(aid)

    raw_lanes = _require(obj, "lanes", "")
    if not isinstance(raw_lanes, list):
        raise ParseError("lanes")
    lanes = []
    lane_ids = set()
    for i, rl in enumerate(raw_lanes):
        p = f"lanes[{i}]."
        lid = str(_require(rl, "id", p))
        if lid in lane_ids:
            raise ParseError(p + "id", f"{p}id {lid!r} repeats an earlier lane's id")
        pts = _num_array(_require(rl, "centerline", p), p + "centerline", (None, 2))
        if pts.shape[0] < 2:
            raise ParseError(p + "centerline", f"{p}centerline needs >= 2 points")
        lanes.append(Lane(lid, pts))
        lane_ids.add(lid)

    raw_bounds = _require(obj, "boundaries", "")
    if not isinstance(raw_bounds, list):
        raise ParseError("boundaries")
    boundaries = []
    for i, rb in enumerate(raw_bounds):
        p = f"boundaries[{i}]."
        pts = _num_array(_require(rb, "points", p), p + "points", (None, 2))
        if pts.shape[0] < 2:
            raise ParseError(p + "points", f"{p}points needs >= 2 points")
        marking = _require(rb, "marking", p)
        if marking not in MARKINGS:
            raise ParseError(p + "marking", f"unknown marking {marking!r}")
        side = _require(rb, "side", p)
        if side not in SIDES:
            raise ParseError(p + "side", f"unknown side {side!r}")
        lid = str(_require(rb, "lane_id", p))
        if lid not in lane_ids:
            raise ParseError(p + "lane_id", f"{p}lane_id {lid!r} not among lanes")
        boundaries.append(BoundaryPolyline(points=pts, marking=marking, side=side,
                                           lane_id=lid))

    if not any(a.focal for a in actors):
        raise ParseError("actors", "no focal actor")
    return make_scene((h, t), actors, lanes, boundaries, segment_len=segment_len,
                      lane_width=lane_width, scene_id=str(scene_id))


def save_scene(scene: Scene) -> bytes:
    """Serialize to UTF-8 JSON with round-trip float precision."""
    obj = {
        "horizon": {"H": scene.horizon[0], "T": scene.horizon[1]},
        "actors": [{
            "id": a.id,
            "kind": a.kind,
            "history": np.concatenate(
                [a.positions, a.headings[:, None], a.velocities], axis=1).tolist(),
            "observed": [bool(b) for b in a.observed],
            "future": None if a.future is None else a.future.tolist(),
            "focal": bool(a.focal),
        } for a in scene.actors],
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
