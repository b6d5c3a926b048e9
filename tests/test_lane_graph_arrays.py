"""The all-pairs array search in `build_lane_nodes` and `_match_boundaries`
against per-node loops, kept here as the reference: graphs and boundary
matches must be byte-identical. The lane-graph loop keeps, per node, the
nearest lateral candidate on each side among the other lanes' nearest
nodes."""

import math
import tracemalloc

import numpy as np
import pytest

from lanecast import diffcore as dc
from lanecast import encoder
from lanecast import scene as sc
from lanecast.config import ModelConfig


def reference_lane_nodes(lanes, segment_len=2.0, lane_width=3.5):
    """The per-lane-pair, per-node loop that built lane graphs before."""
    centers, directions, lengths = [], [], []
    lane_ranges = {}
    skipped = 0
    succ = []
    for lane in lanes:
        c, d, ln = sc.resample_polyline(lane.centerline, segment_len)
        if c.shape[0] == 0:
            skipped += 1
            continue
        start = sum(len(x) for x in lengths)
        lane_ranges[lane.id] = (start, start + c.shape[0])
        centers.append(c)
        directions.append(d)
        lengths.append(ln)
        succ.extend((i, i + 1) for i in range(start, start + c.shape[0] - 1))

    centers = np.concatenate([np.zeros((0, 2))] + centers)
    directions = np.concatenate([np.zeros((0, 2))] + directions)
    lengths = np.concatenate([np.zeros(0)] + lengths)

    left, right = set(), set()
    thresh = 1.2 * lane_width
    for src_id in lane_ranges:
        s0, s1 = lane_ranges[src_id]
        for i in range(s0, s1):
            best = {True: None, False: None}  # side (j left of i) -> (distance, j)
            for dst_id in lane_ranges:
                if dst_id == src_id:
                    continue
                d0, d1 = lane_ranges[dst_id]
                diff = centers[d0:d1] - centers[i]
                dist = np.hypot(diff[:, 0], diff[:, 1])
                j = d0 + int(np.argmin(dist))
                if dist[j - d0] >= thresh:
                    continue
                if abs(float(directions[i] @ directions[j])) <= 0.8:
                    continue
                dx, dy = centers[j] - centers[i]
                cross = directions[i, 0] * dy - directions[i, 1] * dx
                if abs(cross) < 1e-9:
                    continue
                side = bool(cross > 0)
                if best[side] is None or (dist[j - d0], j) < best[side]:
                    best[side] = (dist[j - d0], j)
            for side, hit in best.items():
                if hit is None:
                    continue
                j = hit[1]
                if side:
                    left.add((i, j))
                    right.add((j, i))
                else:
                    right.add((i, j))
                    left.add((j, i))

    def _edges(pairs):
        return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)

    adjacency = {
        "predecessor": _edges([(j, i) for i, j in succ]),
        "successor": _edges(succ),
        "left": _edges(left),
        "right": _edges(right),
    }
    return sc.LaneGraph(centers, directions, lengths, adjacency, lane_ranges), skipped


def reference_matches(boundaries, graph, segment_len):
    """Per boundary, the per-node argmin list that matched boundaries before."""
    out = []
    for b in boundaries:
        centers, _, _ = sc.resample_polyline(b.points, segment_len)
        lo, hi = graph.lane_ranges.get(b.lane_id, (0, 0))
        lane = graph.centers[lo:hi]
        out.append([] if hi == lo else [
            lo + int(np.argmin(np.hypot(*(lane - p).T))) for p in centers])
    return out


def arc(lateral, length, kappa, n_pts):
    s = np.linspace(0.0, length, n_pts)
    return sc._lane_points(s, lateral, kappa)[0]


def random_lanes(rng):
    """1-5 curved lanes at random spacing, some reversed, degenerate or
    crossing the others."""
    kappa = rng.uniform(-0.03, 0.03)
    lateral = np.cumsum(rng.uniform(1.5, 6.0, rng.integers(1, 6)))
    lanes = []
    for k, lat in enumerate(lateral):
        pts = arc(lat, rng.uniform(3.0, 40.0), kappa, rng.integers(2, 12))
        pts = pts + rng.uniform(-2.0, 2.0, size=2)
        kind = rng.random()
        if kind < 0.15:
            pts = pts[::-1]
        elif kind < 0.25:
            pts = np.repeat(pts[:1], rng.integers(2, 4), axis=0)
        elif kind < 0.35:
            pts = pts @ np.array([[0.0, 1.0], [-1.0, 0.0]]) + lateral.mean()
        lanes.append(sc.Lane(f"lane{k}", pts))
    return lanes


def random_boundaries(rng, lanes):
    out = []
    for lane in lanes:
        for off in rng.uniform(-3.0, 3.0, rng.integers(0, 3)):
            pts = lane.centerline + off
            if rng.random() < 0.2:
                pts = pts[::-1]
            out.append(sc.BoundaryPolyline(points=pts, marking="solid", side="left",
                                           lane_id=lane.id))
    return out


def assert_same_graph(got, want):
    (g, g_skipped), (w, w_skipped) = got, want
    assert g_skipped == w_skipped
    assert g.lane_ranges == w.lane_ranges
    for name in ("centers", "directions", "lengths"):
        a, b = getattr(g, name), getattr(w, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert list(g.adjacency) == list(w.adjacency)
    for cat in sc.ADJ_CATEGORIES:
        a, b = g.adjacency[cat], w.adjacency[cat]
        assert a.dtype == np.int64 and a.shape == b.shape, cat
        assert a.tobytes() == b.tobytes(), cat


def assert_same_scene(lanes, boundaries, segment_len, lane_width):
    got = sc.build_lane_nodes(lanes, segment_len, lane_width)
    want = reference_lane_nodes(lanes, segment_len, lane_width)
    assert_same_graph(got, want)
    nodes = sc._match_boundaries(boundaries, got[0], segment_len)
    refs = reference_matches(boundaries, want[0], segment_len)
    # the packed rows are each boundary's resampled nodes in order; its record views its run
    parts = [sc.resample_polyline(b.points, segment_len)[:2] for b in boundaries]
    offsets = np.cumsum([0] + [len(c) for c, _ in parts])
    for name, k in (("node_centers", 0), ("node_directions", 1)):
        want_rows = np.concatenate([np.zeros((0, 2))] + [p[k] for p in parts])
        assert nodes[name].tobytes() == want_rows.tobytes(), name
    for b, lo, hi in zip(boundaries, offsets[:-1], offsets[1:], strict=True):
        assert b.node_centers.tobytes() == nodes["node_centers"][lo:hi].tobytes()
    matched = nodes["matched_lane_nodes"]
    assert matched.dtype == np.int64 and matched.shape == (offsets[-1],)
    for k, ref in enumerate(refs):
        # the reference leaves a lane without nodes unmatched; the array holds -1
        m = matched[offsets[k]:offsets[k + 1]]
        assert m.tobytes() == np.array(ref or [-1] * len(m), dtype=np.int64).tobytes()
    return got[0]


def test_random_scenes_match_the_loop():
    rng = np.random.default_rng(0)
    lateral = 0
    for _ in range(240):
        lanes = random_lanes(rng)
        graph = assert_same_scene(lanes, random_boundaries(rng, lanes),
                                  rng.uniform(0.5, 4.0), rng.uniform(2.0, 5.0))
        lateral += graph.adjacency["left"].shape[0]
    assert lateral > 1000  # the lateral search was exercised, not just skipped


def straight(lane_id, y, length=20.0, x0=0.0):
    return sc.Lane(lane_id, np.array([[x0, y], [x0 + length, y]]))


@pytest.mark.parametrize("lanes, lane_width", [
    ([], 3.5),
    ([straight("a", 0.0)], 3.5),
    ([straight("a", 0.0), sc.Lane("b", np.array([[20.0, 3.0], [0.0, 3.0]]))], 3.5),
    ([straight("a", 0.0), sc.Lane("z", np.array([[1.0, 1.0], [1.0, 1.0]])),
      straight("b", 3.0)], 3.5),
    ([straight("a", 0.0), sc.Lane("x", np.array([[10.0, -10.0], [10.0, 10.0]])),
      straight("b", 2.0), sc.Lane("y", np.array([[0.0, -5.0], [20.0, 5.0]]))], 3.5),
    # equidistant nodes: ties must go to the lowest index
    ([straight("a", 0.0, length=4.0), straight("b", 1.0, length=2.0, x0=1.0),
      straight("c", -1.0, length=2.0, x0=1.0)], 3.5),
    # |d_i . d_j| exactly 0.8 is not parallel enough
    ([straight("a", 0.0), sc.Lane("b", np.array([[0.0, 1.0], [4.0, 4.0]]))], 3.5),
    # 1.2 * 2.5 == 3.0: a neighbor exactly at the threshold is out of range
    ([straight("a", 0.0), straight("b", 3.0)], 2.5),
], ids=["empty", "one-lane", "reversed", "degenerate", "crossing", "ties", "dot-at-0.8",
        "at-threshold"])
def test_edge_case_scenes_match_the_loop(lanes, lane_width):
    bounds = [sc.BoundaryPolyline(points=l.centerline + 1.0, marking="solid", side="left",
                                  lane_id=l.id) for l in lanes]
    assert_same_scene(lanes, bounds, 2.0, lane_width)


def test_row_blocks_match_one_block(monkeypatch):
    """A scene wider than one row block gives the same bytes as the loop."""
    lanes = [straight(f"l{k}", 1.5 * k, length=2.0 * (sc._BLOCK_ROWS // 2 + 3), x0=0.3 * k)
             for k in range(3)]
    lanes.append(straight("long", 1.0, length=2.0 * (sc._BLOCK_ROWS + 7)))
    bounds = [sc.BoundaryPolyline(points=lanes[-1].centerline + [0.0, 1.0], marking="solid",
                                  side="left", lane_id="long")]
    assert_same_scene(lanes, bounds, 2.0, 3.5)
    monkeypatch.setattr(sc, "_BLOCK_ROWS", 7)
    assert_same_scene(lanes, bounds, 2.0, 3.5)


def test_budget_counts_lane_and_boundary_nodes():
    per_lane = sc.MAX_SCENE_NODES // 4
    lanes = [straight(f"l{k}", 4.0 * k, length=2.0 * per_lane) for k in range(4)]
    graph, _ = sc.build_lane_nodes(lanes)
    assert graph.n_nodes == sc.MAX_SCENE_NODES
    with pytest.raises(sc.ParseError) as e:
        sc.build_lane_nodes(lanes + [straight("over", 50.0, length=2.0)])
    assert e.value.field == "lanes[4].centerline"
    bound = sc.BoundaryPolyline(points=lanes[0].centerline + [0.0, 1.0], marking="solid",
                                side="left", lane_id="l0")
    with pytest.raises(sc.ParseError) as e:
        sc._match_boundaries([bound], graph, 2.0)
    assert e.value.field == "boundaries[0].points"


@pytest.mark.parametrize("bad", [1e13, math.inf, math.nan])
def test_length_beyond_budget_raises_before_allocating(bad):
    with pytest.raises(sc.ParseError) as e:
        sc.resample_polyline(np.array([[0.0, 0.0], [bad, 0.0]]), 2.0, path="p")
    assert e.value.field == "p"


def test_centers_beyond_float_range_rejected():
    with pytest.raises(sc.ParseError) as e, np.errstate(over="ignore"):
        sc.resample_polyline(np.array([[1.7e308, 0.0], [1.7e308, 3.0]]), 2.0, path="p")
    assert e.value.field == "p"


@pytest.mark.parametrize("lanes", [
    [straight(f"l{k}", 3.5 * k, length=sc.MAX_SCENE_NODES) for k in range(2)],
    [straight(f"l{k}", 0.01 * k, length=2.0) for k in range(sc.MAX_SCENE_NODES)],
], ids=["long-parallel", "two-node-1cm"])
def test_scene_at_the_budget_stays_in_bounded_memory(lanes):
    """Row blocks keep the all-pairs pass far below N^2 memory at the budget."""
    tracemalloc.start()
    try:
        graph, _ = sc.build_lane_nodes(lanes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n_nodes == sc.MAX_SCENE_NODES
    assert peak < 256 * 2**20
    assert graph.adjacency["left"].shape[0] <= 2 * graph.n_nodes


def test_crowded_lanes_keep_one_neighbour_per_side():
    """With four parallel lanes 1 m apart all in range, each node links only
    the adjacent lane's node on each side."""
    lanes = [straight(f"l{k}", 1.0 * k, length=6.0) for k in range(4)]
    graph, _ = sc.build_lane_nodes(lanes, 2.0, 3.5)
    left = {tuple(e) for e in graph.adjacency["left"]}
    # node i of lane k is 3k + i; its left neighbour is node i of lane k+1
    assert left == {(3 * k + i, 3 * (k + 1) + i) for k in range(3) for i in range(3)}


def test_graph_conv_on_the_crowded_budget_scene_stays_in_bounded_memory():
    """One gated graph-conv layer at d=64, forward and backward, on 2048
    two-node lanes 1 cm apart (a file `load_scene` accepts)."""
    lanes = [straight(f"l{k}", 0.01 * k, length=2.0) for k in range(sc.MAX_SCENE_NODES)]
    graph, _ = sc.build_lane_nodes(lanes)
    cfg = ModelConfig(d=64, l_graph=1)
    store = dc.ParamStore(np.float32)
    encoder.init_lane_encoder(store, cfg, np.random.default_rng(0))
    x = dc.Tensor(np.random.default_rng(1).normal(size=(graph.n_nodes, cfg.d)).astype(np.float32))
    tracemalloc.start()
    try:
        y = encoder.gated_lane_graph_conv(x, graph, store, "lane.gc0")
        grads = dc.backward(dc.sum(y), dict(store.items()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(grads["lane.gc0.left.w.w"]).all()
    assert peak < 256 * 2**20
