"""Mutation fuzz of the prediction-file, manifest, checkpoint and scene
parsers: whatever is done to a valid document, loading it either succeeds or
raises ParseError. The record-by-record prediction loader also gives the
same result as a whole-tree reference loader. The scene, prediction and
manifest readers reject a non-string id, a boolean among numbers and a
number written as a string, naming the field."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lanecast import diffcore as dc
from lanecast.decoder import CONF_SUM_TOL, Forecast, load_predictions
from lanecast.ensemble import load_manifest
from lanecast.errors import ParseError, parse_json
from lanecast.scene import SceneGenConfig, generate_synthetic, load_scene, save_scene

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=10)


def valid_predictions():
    return [{"scene_id": f"s{i}", "actor_id": "a0",
             "trajectories": [[[0.5 * j, 1.0], [j, 2.0], [j, 3.0]] for j in range(3)],
             "confidences": [0.25, 0.25, 0.5],
             "targets": [[j, 3.0] for j in range(3)]} for i in range(2)]


def valid_manifest():
    return [{"model_id": "m0", "alpha": 1.5, "prediction_file": "p.json"},
            {"model_id": "m1", "alpha": 2.0, "prediction_file": "p.json"}]


def mutate_tree(data, doc):
    """Walk a random path into `doc`, then replace or delete what is there."""
    path = []
    node = doc
    while isinstance(node, (list, dict)) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(
            range(len(node)) if isinstance(node, list) else sorted(node)))
        path.append(key)
        node = node[key]
    if not path:
        return data.draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(json_values)
    return doc


def mutate_bytes(data, blob):
    """Drop, overwrite or insert one byte."""
    i = data.draw(st.integers(0, len(blob) - 1))
    b = bytes([data.draw(st.integers(0, 255))])
    return data.draw(st.sampled_from(
        [blob[:i] + blob[i + 1:], blob[:i] + b + blob[i + 1:], blob[:i] + b + blob[i:]]))


def parses_or_parse_error(load, blob):
    try:
        load(blob)
    except ParseError:
        pass


def _numbers(value, field):
    """Nested JSON lists of finite numbers, none of them a boolean ->
    float64 array, else ParseError(field)."""
    def leaves(v):
        return [x for kid in v for x in leaves(kid)] if isinstance(v, list) else [v]

    bad = ParseError(field, f"{field}: must be finite, non-boolean numbers in equal-length lists")
    if not all(type(x) in (int, float) for x in leaves(value)):
        raise bad
    try:
        arr = np.array(value, dtype=np.float64)
    except (ValueError, OverflowError):  # ragged; an int beyond float range
        raise bad from None
    if not np.isfinite(arr).all():
        raise bad
    return arr


def _bad_shape(field, arr, want):
    return ParseError(field, f"{field}: shape {list(arr.shape)}, want {want}")


def reference_load_predictions(data):
    """A whole-tree loader: parse the document, then check every record.
    Kept as the reference for `load_predictions`, which decodes record by
    record and looks for booleans only when the document spells one. Rules
    added since it was the loader: a repeated (scene_id, actor_id) is an
    error at its second record; ids are strings; no number is a boolean."""
    recs = parse_json(data, "prediction file")
    if not isinstance(recs, list):
        raise ParseError("document", "prediction file must be a JSON list")
    out, seen = [], {}
    for i, r in enumerate(recs):
        p = f"predictions[{i}]."
        for key in ("scene_id", "actor_id", "trajectories", "confidences", "targets"):
            if not isinstance(r, dict) or key not in r:
                raise ParseError(p + key)
        traj = _numbers(r["trajectories"], p + "trajectories")
        if traj.ndim != 3 or traj.shape[2] != 2:
            raise _bad_shape(p + "trajectories", traj, "[*, *, 2]")
        k = traj.shape[0]
        conf = _numbers(r["confidences"], p + "confidences")
        if conf.shape != (k,):
            raise _bad_shape(p + "confidences", conf, f"[{k}]")
        if conf.min() < 0 or abs(conf.sum() - 1.0) > CONF_SUM_TOL:
            raise ParseError(p + "confidences", f"{p}confidences: must be non-negative "
                             f"and sum to 1, got min {conf.min():g}, sum {conf.sum():.9g}")
        targ = _numbers(r["targets"], p + "targets")
        if targ.shape != (k, 2):
            raise _bad_shape(p + "targets", targ, f"[{k}, 2]")
        key = (r["scene_id"], r["actor_id"])
        for name, v in zip(("scene_id", "actor_id"), key):
            if not isinstance(v, str):
                raise ParseError(p + name, f"{p}{name}: must be a string, got {v!r:.60}")
        if key in seen:
            raise ParseError(p + "actor_id", f"{p}actor_id: scene {key[0]!r}, actor "
                             f"{key[1]!r} repeats predictions[{seen[key]}]")
        seen[key] = i
        out.append(Forecast(key[0], key[1], targ, traj, conf))
    return out


def loads_like_the_reference(blob):
    """`load_predictions(blob)` gives bit-identical forecasts to the
    reference, or a ParseError with the same field and message; returns
    the forecasts, or the error."""
    try:
        want = reference_load_predictions(blob)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            load_predictions(blob)
        assert (got.value.field, str(got.value)) == (e.field, str(e))
        return got.value
    got = load_predictions(blob)
    assert [(f.scene_id, f.actor_id) for f in got] == [(f.scene_id, f.actor_id) for f in want]
    for a, b in zip(got, want):
        for name in ("targets", "trajectories", "confidences"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype == np.float64 and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
    return got


def _record_with(i, key, value):
    """The valid predictions with record i's `key` set to `value`."""
    recs = valid_predictions()
    recs[i][key] = value
    return json.dumps(recs).encode()


VALID = json.dumps(valid_predictions()).encode()
BAD_RECORD_0 = json.dumps([{**valid_predictions()[0], "confidences": [1.0]},
                           valid_predictions()[1]]).encode()


@pytest.mark.parametrize("blob, field", [
    (b" \t\r\n" + VALID + b"\n \t", None),
    (VALID.decode(), None),
    (b"[]", None),
    (b" [ \n] ", None),
    (b"\xef\xbb\xbf" + VALID, "document"),
    ("\ufeff" + VALID.decode(), "document"),
    (b"\x0c" + VALID, "document"),
    (VALID[:-1] + b", ]", "document"),
    (VALID[:-1] + b",", "document"),
    (VALID[:-1], "document"),
    (b"[,]", "document"),
    (VALID + b"x", "document"),
    (VALID + b"]", "document"),
    (VALID + VALID, "document"),
    (VALID.replace(b"}, {", b"} {"), "document"),
    (b'{"predictions": []}', "document"),
    (b'"[]"', "document"),
    (b"]", "document"),
    (b"", "document"),
    (b"[" * 100000 + b"]" * 100000, "document"),
    (b"[" + b"1" * 5000 + b"]", "document"),
    (b"[\x80]", "document"),
    (b"[1]", "predictions[0].scene_id"),
    (b"[NaN]", "predictions[0].scene_id"),
    (BAD_RECORD_0, "predictions[0].confidences"),
    (BAD_RECORD_0[:-1], "document"),
    (BAD_RECORD_0[:-2] + b"}, [}]", "document"),
    (json.dumps(valid_predictions()[:1] * 2).encode(), "predictions[1].actor_id"),
    (json.dumps(valid_predictions()[:1] * 2).encode()[:-1] + b"x", "document"),
    (_record_with(0, "scene_id", None), "predictions[0].scene_id"),
    (_record_with(1, "actor_id", 7), "predictions[1].actor_id"),
    (_record_with(0, "actor_id", True), "predictions[0].actor_id"),
    (_record_with(0, "targets", [[2, True], [1, 3.0], [2, 3.0]]), "predictions[0].targets"),
    (_record_with(0, "targets", [[2, True], [1, 3.0], [2, 3.0]]).decode(),
     "predictions[0].targets"),
    (_record_with(1, "confidences", [True, 0, 0]), "predictions[1].confidences"),
    (_record_with(0, "trajectories", [[[0.5, 1.0], [1, False], [0, 3.0]]] * 3),
     "predictions[0].trajectories"),
], ids=["whitespace", "str", "empty", "empty-spaced", "bom", "bom-str", "form-feed",
        "trailing-comma", "no-close", "truncated", "lone-comma", "garbage", "extra-close",
        "two-lists", "no-comma", "object", "string", "close-only", "blank", "deep",
        "big-int", "utf8", "number-record", "nan-record", "bad-record-0",
        "bad-record-0-then-truncated", "bad-record-0-then-syntax-error", "repeated-key",
        "repeated-key-then-garbage", "null-scene-id", "numeric-actor-id", "boolean-actor-id",
        "boolean-target", "boolean-target-str", "boolean-confidences", "boolean-trajectory"])
def test_streamed_loader_matches_the_reference(blob, field):
    result = loads_like_the_reference(blob)
    if field is None:
        assert isinstance(result, list)
    else:
        assert result.field == field


def test_booleans_are_looked_for_only_where_spelled():
    """`load_predictions` walks the numbers for booleans only when the
    document holds `true` or `false`; inside a string they are no boolean."""
    for word in ("true", "false"):
        blob = _record_with(0, "scene_id", word)
        for doc in (blob, blob.decode()):
            assert [f.scene_id for f in loads_like_the_reference(doc)] == [word, "s1"]


def test_valid_documents_parse(tmp_path):
    assert len(load_predictions(json.dumps(valid_predictions()))) == 2
    (tmp_path / "p.json").write_text(json.dumps(valid_predictions()))
    subs = load_manifest(json.dumps(valid_manifest()), base_dir=str(tmp_path))
    assert [s.alpha for s in subs] == [1.5, 2.0]


@given(data=st.data())
@FUZZ
def test_predictions_tree_mutation(data):
    doc = mutate_tree(data, valid_predictions())
    loads_like_the_reference(json.dumps(doc).encode())


@given(data=st.data())
@FUZZ
def test_predictions_byte_mutation(data):
    loads_like_the_reference(mutate_bytes(data, json.dumps(valid_predictions()).encode()))


@pytest.fixture
def pred_dir(tmp_path):
    (tmp_path / "p.json").write_text(json.dumps(valid_predictions()))
    return str(tmp_path)


@given(data=st.data())
@FUZZ
def test_manifest_tree_mutation(pred_dir, data):
    doc = mutate_tree(data, valid_manifest())
    parses_or_parse_error(lambda b: load_manifest(b, base_dir=pred_dir),
                          json.dumps(doc).encode())


@given(data=st.data())
@FUZZ
def test_manifest_byte_mutation(pred_dir, data):
    blob = mutate_bytes(data, json.dumps(valid_manifest()).encode())
    parses_or_parse_error(lambda b: load_manifest(b, base_dir=pred_dir), blob)


def _manifest_with(i, key, value):
    doc = valid_manifest()
    doc[i][key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("doc, field", [
    (_manifest_with(0, "model_id", None), "manifest[0].model_id"),
    (_manifest_with(1, "model_id", 7), "manifest[1].model_id"),
    (_manifest_with(0, "model_id", True), "manifest[0].model_id"),
    (_manifest_with(1, "model_id", "m0"), "manifest[1].model_id"),
], ids=["null-model-id", "numeric-model-id", "boolean-model-id", "repeated-model-id"])
def test_manifest_field_rules(pred_dir, doc, field):
    """A model id is a string, used once."""
    with pytest.raises(ParseError) as err:
        load_manifest(doc, base_dir=pred_dir)
    assert err.value.field == field


def valid_checkpoint():
    """(manifest dict, data bytes) of a two-parameter float64 checkpoint."""
    store = dc.ParamStore(np.float64)
    store.add("w", np.arange(6.0).reshape(2, 3))
    store.add("b", np.ones(3))
    blob = b"".join(t.data.astype("<f8").tobytes() for _, t in store.items())
    manifest = {"format": "lanecast-params-v1", "meta": {"stage": "S2"},
                "params": [{"name": n, "shape": list(t.shape), "dtype": "float64"}
                           for n, t in store.items()]}
    return manifest, blob


def checkpoint_bytes(manifest, blob):
    head = json.dumps(manifest).encode()
    return struct.pack("<Q", len(head)) + head + blob


def load_checkpoint(tmp_path, raw):
    path = tmp_path / "checkpoint.bin"
    path.write_bytes(raw)
    return dc.ParamStore.load(path)


def test_valid_checkpoint_loads(tmp_path):
    store = load_checkpoint(tmp_path, checkpoint_bytes(*valid_checkpoint()))
    assert store.names() == ["w", "b"] and store.meta == {"stage": "S2"}


@given(data=st.data())
@FUZZ
def test_checkpoint_tree_mutation(tmp_path, data):
    manifest, blob = valid_checkpoint()
    raw = checkpoint_bytes(mutate_tree(data, manifest), blob)
    parses_or_parse_error(lambda b: load_checkpoint(tmp_path, b), raw)


@given(data=st.data())
@FUZZ
def test_checkpoint_byte_mutation(tmp_path, data):
    raw = mutate_bytes(data, checkpoint_bytes(*valid_checkpoint()))
    parses_or_parse_error(lambda b: load_checkpoint(tmp_path, b), raw)


def valid_scene():
    gen = SceneGenConfig(n_lanes=2, n_actors=2, h=3, t=2, lane_length=12.0)
    return json.loads(save_scene(generate_synthetic(gen, 0)))


def test_valid_scene_loads():
    scene = load_scene(json.dumps(valid_scene()))
    assert scene.lane_graph.n_nodes == 12 and len(scene.boundaries) == 4


def _rename_lane(doc, lane_id, ref):
    """Lane 0 renamed to `lane_id`, its boundaries pointing at it by `ref`."""
    old = doc["lanes"][0]["id"]
    doc["lanes"][0]["id"] = lane_id
    for b in doc["boundaries"]:
        if b["lane_id"] == old:
            b["lane_id"] = ref


def _set_at(*path):
    """A mutation setting doc[path[0]]...[path[-2]] to path[-1]."""
    def mutate(doc):
        *keys, last, value = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return mutate


@pytest.mark.parametrize("mutate, field", [
    (_set_at("actors", 0, "id", None), "actors[0].id"),
    (_set_at("actors", 1, "id", 7), "actors[1].id"),
    (_set_at("actors", 0, "id", True), "actors[0].id"),
    (lambda doc: _rename_lane(doc, None, None), "lanes[0].id"),
    (lambda doc: _rename_lane(doc, 7, 7), "lanes[0].id"),
    (lambda doc: _rename_lane(doc, "True", True), "boundaries[0].lane_id"),
    (lambda doc: _rename_lane(doc, "None", None), "boundaries[0].lane_id"),
    (_set_at("actors", 0, "history", 0, 3, True), "actors[0].history"),
    (_set_at("actors", 1, "future", 0, [2, True]), "actors[1].future"),
    (_set_at("lanes", 1, "centerline", 0, 0, "1e3"), "lanes[1].centerline"),
    (_set_at("boundaries", 2, "points", 1, 1, "1e3"), "boundaries[2].points"),
    (_set_at("horizon", "H", True), "horizon.H"),
    (_set_at("horizon", "T", 2.0), "horizon.T"),
], ids=["null-actor-id", "numeric-actor-id", "boolean-actor-id", "null-lane-id",
        "numeric-lane-id", "boolean-lane-ref", "null-lane-ref", "boolean-history",
        "boolean-future", "string-centerline", "string-points", "boolean-h", "float-t"])
def test_scene_field_rules(mutate, field):
    """Ids are strings, numbers are JSON numbers and never booleans; the
    horizon names the count at fault."""
    doc = valid_scene()
    mutate(doc)
    with pytest.raises(ParseError) as err:
        load_scene(json.dumps(doc))
    assert err.value.field == field


@given(data=st.data())
@FUZZ
def test_scene_tree_mutation(data):
    doc = mutate_tree(data, valid_scene())
    parses_or_parse_error(load_scene, json.dumps(doc).encode())


@given(data=st.data())
@FUZZ
def test_scene_byte_mutation(data):
    blob = mutate_bytes(data, json.dumps(valid_scene()).encode())
    parses_or_parse_error(load_scene, blob)


@given(data=st.data())
@FUZZ
def test_scene_coordinate_scaling(data):
    """One coordinate moved far away: lanes and boundaries then cross the
    node budget, actors just sit far off."""
    doc = valid_scene()
    rows = [row for key, field in (("lanes", "centerline"), ("boundaries", "points"),
                                   ("actors", "history"), ("actors", "future"))
            for item in doc[key] for row in item[field]]
    row = data.draw(st.sampled_from(rows))
    row[data.draw(st.integers(0, 1))] *= data.draw(st.sampled_from([1e6, 1e300, -1e300]))
    parses_or_parse_error(load_scene, json.dumps(doc).encode())
