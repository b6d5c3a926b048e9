"""Self-tests for the benchmark's own helpers.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import inputs
import lanecast.decoder as lc_decoder
import lanecast.diffcore as lc_dc
import lanecast.optim as lc_optim
import numpy as np
import pytest
from report import summarize
from spans import Span, StepClock, Tracer, self_times


def test_tail_needs_ten_samples_beyond_it():
    assert summarize(list(range(99))) == {"n": 99, "p50": 49}
    s = summarize(list(range(100)))
    assert set(s) == {"n", "p50", "p90"}
    assert s["p90"] == pytest.approx(89.1)
    assert set(summarize(list(range(1000)))) == {"n", "p50", "p99"}
    assert set(summarize(list(range(10000)))) == {"n", "p50", "p999"}
    assert summarize([]) == {"n": 0}


def _span(name, start, end, parent=None):
    sp = Span(name, start, parent, None)
    sp.end = end
    return sp


def test_self_time_subtracts_the_union_of_children_within_the_span():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 3.0, root)
    b = _span("b", 2.0, 5.0, root)       # overlaps a: the union counts once
    c = _span("c", 8.0, 12.0, root)      # runs past the parent: clipped
    grand = _span("grand", 1.5, 2.5, a)  # only its own parent loses it
    got = self_times([root, a, b, c, grand])
    assert got[id(root)] == pytest.approx(10.0 - 4.0 - 2.0)
    assert got[id(a)] == pytest.approx(2.0 - 1.0)
    assert got[id(b)] == pytest.approx(3.0)
    assert got[id(grand)] == pytest.approx(1.0)


@pytest.fixture
def tiny_score_fuse(monkeypatch):
    spec = dict(inputs.WORKLOADS["score-fuse"], n_actors=40)
    monkeypatch.setitem(inputs.WORKLOADS, "score-fuse", spec)


@pytest.mark.parametrize("name", ["small", "score-fuse"])
def test_same_seed_same_inputs(name, tmp_path, tiny_score_fuse):
    def digest(seed, sub):
        return inputs.digest_files(inputs.write_inputs(name, seed, tmp_path / sub))

    assert digest(3, "a") == digest(3, "b")
    assert digest(3, "a") != digest(4, "c")


def test_probes_restore_every_wrapped_function():
    originals = (lc_optim.NAdam.step, lc_decoder.encode_actors, lc_dc.matmul,
                 lc_dc.backward)
    with StepClock().installed():
        assert lc_optim.NAdam.step is not originals[0]
    with Tracer().installed():
        assert lc_decoder.encode_actors is not originals[1]
        assert lc_dc.matmul is not originals[2]
    assert (lc_optim.NAdam.step, lc_decoder.encode_actors, lc_dc.matmul,
            lc_dc.backward) == originals


def test_traced_forecast_attributes_ops_to_the_innermost_span(tmp_path):
    files = inputs.write_inputs("small", 1, tmp_path)[:1]
    tracer = Tracer()
    loaded = inputs.load_inputs("small", files, tracer)
    store = lc_dc.ParamStore()
    cfg = loaded.run_cfg
    lc_decoder.init_model(store, cfg.model, loaded.scenes[0].horizon[1],
                          np.random.default_rng(0))
    with tracer.installed():
        with tracer.span("job"):
            lc_decoder.forecast(loaded.scenes[0], store, cfg.model)
    by_name = {sp.name: sp for sp in tracer.spans}
    assert {"scene.load", "scene.normalize", "encoder.actor", "fusion.scene",
            "fusion.l2a", "decoder.targets"} <= set(by_name)
    assert by_name["encoder.actor"].ops > 0
    assert by_name["fusion.scene"].ops == 0  # its ops belong to the four blocks
    assert by_name["encoder.actor"].view == ("scene000", "a0")
    assert sum(tracer.op_calls.values()) == sum(sp.ops for sp in tracer.spans)
