"""One tiny `train` under the benchmark's tracer.

The tracer binds some hooked functions' arguments by name (`scene` and
`actor_id` of `normalize`, `gt_futures` of `total_loss`, `self.active` of
`NAdam.step`); this run keeps those names and the spans they feed working
outside a benchmark run.
"""

import sys
from pathlib import Path

from lanecast.config import DataConfig, ModelConfig, RunConfig, TrainConfig
from lanecast.optim import train
from lanecast.scene import SceneGenConfig, generate_synthetic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402 - the benchmark's probes, importable once perfbench/ is on the path


def test_traced_train_records_the_hooked_spans():
    gen = SceneGenConfig(n_lanes=2, lane_length=40.0, n_actors=2, h=6, t=4)
    cfg = RunConfig(seed=1, data=DataConfig(n_scenes=1, gen=gen),
                    model=ModelConfig(d=8, l_graph=1),
                    train=TrainConfig(batch_size=1, total_epochs=2, stage2_start_epoch=1,
                                      periods=(1, 1)))
    scenes = [generate_synthetic(gen, 1, scene_id="s000")]
    tracer = spans.Tracer()
    with tracer.installed():
        _, records, opt, _ = train(scenes, cfg)
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    assert {"scene.normalize", "encoder.actor", "fusion.l2a", "decoder.completion",
            "losses.total_loss", "diffcore.backward", "optim.step"} <= set(by_name)
    views = len(scenes[0].focal_actors())
    assert len(by_name["optim.step"]) == len(records) * views
    assert all(sp.extra["tensors"] == len(opt.active) for sp in by_name["optim.step"])
    focal = {("s000", a.id) for a in scenes[0].focal_actors()}
    for sp in by_name["losses.total_loss"]:
        assert sp.extra["has_gt"] == len(scenes[0].actors) and sp.extra["conf_kept"] >= 0
        assert sp.view in focal
