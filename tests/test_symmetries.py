"""Symmetries the agent-centric frame guarantees, checked end to end in
float64: a rigid motion of the world moves the world-frame forecasts with it
and leaves the confidences alone, and the order of the non-focal actors, the
lanes and the boundaries in a scene file does not change any focal forecast.

The scenes have straight lanes, the generator's default. On a curved arc a
boundary node can sit exactly midway between two lane nodes; the last test
checks that such a near-tie matches the same node in a shifted frame."""

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lanecast import diffcore as dc
from lanecast.config import ModelConfig
from lanecast.decoder import forecast, init_model
from lanecast.scene import SceneGenConfig, generate_synthetic, load_scene, save_scene

TOL = 1e-9
GEN = SceneGenConfig(n_lanes=3, n_actors=5, lane_length=60.0, h=8, t=10, noise_sigma=0.05)
CFG = ModelConfig(d=16, l_graph=2)
STORE = dc.ParamStore(np.float64)
init_model(STORE, CFG, GEN.t, np.random.default_rng(11))

symmetry_settings = settings(max_examples=4, deadline=None, derandomize=True)


def _scene_json(seed, gen=GEN):
    """A generated scene with two focal actors, as a scene-file object."""
    scene = generate_synthetic(gen, seed, scene_id="sym")
    for i, actor in enumerate(scene.actors):
        actor.focal = i < 2
    return json.loads(save_scene(scene))


def _forecasts(obj):
    return {f.actor_id: f for f in forecast(load_scene(json.dumps(obj), scene_id="sym"),
                                            STORE, CFG)}


def _moved(obj, theta, shift):
    """The scene file with every world coordinate rotated by theta, then
    shifted by `shift`; headings turn by theta, velocities rotate."""
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])

    def place(points):
        return (np.asarray(points) @ rot.T + shift).tolist()

    out = json.loads(json.dumps(obj))
    for actor in out["actors"]:
        hist = np.asarray(actor["history"])
        hist[:, 0:2] = hist[:, 0:2] @ rot.T + shift
        hist[:, 2] = hist[:, 2] + theta
        hist[:, 3:5] = hist[:, 3:5] @ rot.T
        actor["history"] = hist.tolist()
        if actor["future"] is not None:
            actor["future"] = place(actor["future"])
    for lane in out["lanes"]:
        lane["centerline"] = place(lane["centerline"])
    for bound in out["boundaries"]:
        bound["points"] = place(bound["points"])
    return out, rot


@symmetry_settings
@given(seed=st.integers(0, 10_000), theta=st.floats(-np.pi, np.pi),
       shift=st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)))
def test_a_rigid_motion_of_the_world_moves_the_forecasts_with_it(seed, theta, shift):
    obj = _scene_json(seed)
    moved, rot = _moved(obj, theta, np.asarray(shift))
    before, after = _forecasts(obj), _forecasts(moved)
    assert sorted(before) == sorted(after) and len(before) == 2
    for aid, f in before.items():
        g = after[aid]
        np.testing.assert_allclose(g.trajectories, f.trajectories @ rot.T + shift, rtol=0, atol=TOL)
        np.testing.assert_allclose(g.targets, f.targets @ rot.T + shift, rtol=0, atol=TOL)
        np.testing.assert_allclose(g.confidences, f.confidences, rtol=0, atol=TOL)


@symmetry_settings
@given(seed=st.integers(0, 10_000), data=st.data())
def test_reordering_context_leaves_every_focal_forecast_unchanged(seed, data):
    obj = _scene_json(seed)
    focal, others = obj["actors"][:2], obj["actors"][2:]
    shuffled = json.loads(json.dumps(obj))
    shuffled["actors"] = focal + data.draw(st.permutations(others), label="actors")
    shuffled["lanes"] = data.draw(st.permutations(obj["lanes"]), label="lanes")
    shuffled["boundaries"] = data.draw(st.permutations(obj["boundaries"]), label="boundaries")
    before, after = _forecasts(obj), _forecasts(shuffled)
    assert sorted(before) == sorted(after) and len(before) == 2
    for aid, f in before.items():
        g = after[aid]
        for field in ("trajectories", "targets", "confidences"):
            np.testing.assert_allclose(getattr(g, field), getattr(f, field), rtol=0, atol=TOL,
                                       err_msg=field)


def test_a_shift_moves_forecasts_on_a_curved_arc_too():
    obj = _scene_json(391, replace(GEN, curvature_range=(-0.01, 0.01)))
    moved, _ = _moved(obj, 0.0, np.array([0.0, 0.5]))
    before, after = _forecasts(obj), _forecasts(moved)
    for aid, f in before.items():
        np.testing.assert_allclose(after[aid].trajectories, f.trajectories + [0.0, 0.5],
                                   rtol=0, atol=TOL)
