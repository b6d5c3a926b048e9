"""Run configuration: one JSON file drives every command.

Sections map onto dataclasses; unknown keys anywhere are rejected so typos
fail loudly instead of silently using defaults, and every value is checked
against its field's annotation before `validate` reads it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, field

from .errors import ConfigError, ParseError, parse_json
from .scene import SceneGenConfig


@dataclass
class ModelConfig:
    d: int = 64            # shared feature width
    l_graph: int = 4       # gated graph conv layers
    k_modes: int = 6
    tau_lane: float = 10.0      # lane -> actor attention radius, meters
    tau_boundary: float = 10.0  # boundary -> actor
    tau_actor: float = 30.0     # actor -> actor
    input_scale: float = 0.1    # meters -> network units for raw coordinates
    output_scale: float = 10.0  # network units -> meters on regression heads

    def validate(self):
        if self.d < 4 or self.d % 2:
            raise ConfigError(f"model.d must be an even int >= 4, got {self.d}")
        if self.l_graph < 1:
            raise ConfigError(f"model.l_graph must be >= 1, got {self.l_graph}")
        if self.k_modes < 1:
            raise ConfigError(f"model.k_modes must be >= 1, got {self.k_modes}")
        for name in ("tau_lane", "tau_boundary", "tau_actor", "input_scale", "output_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"model.{name} must be positive")


@dataclass
class TrainConfig:
    batch_size: int = 32
    total_epochs: int = 100
    stage2_start_epoch: int = 6
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    periods: tuple[int, ...] = (6, 12, 24, 48)
    precision: str = "float32"

    def validate(self):
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if self.total_epochs < 1:
            raise ConfigError("train.total_epochs must be >= 1")
        if not self.periods or any(p < 1 for p in self.periods):
            raise ConfigError(f"train.periods must be a nonempty list of positive ints, "
                              f"got {list(self.periods)}")
        if self.stage2_start_epoch != self.periods[0]:
            raise ConfigError(
                f"train.stage2_start_epoch must equal the first restart "
                f"({self.periods[0]}), got {self.stage2_start_epoch}")
        if not (0 < self.lr_min <= self.lr_max):
            raise ConfigError("train lr bounds must satisfy 0 < lr_min <= lr_max")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"train.precision must be float32/float64, got {self.precision!r}")


@dataclass
class DataConfig:
    n_scenes: int = 8
    gen: SceneGenConfig = field(default_factory=SceneGenConfig)

    def validate(self):
        if self.n_scenes < 1:
            raise ConfigError("data.n_scenes must be >= 1")
        self.gen.validate()


@dataclass
class RunConfig:
    seed: int = 0
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.data.validate()
        self.model.validate()
        self.train.validate()
        return self


def _from_dict(tp, val, path):
    """`val` checked against the annotation `tp`: a dataclass needs an object
    of its fields and recurses, a tuple a JSON list of its element types, an
    int a non-bool int, a float a finite int or float (kept as given, so the
    config hash does not move), a str a str."""
    if dataclasses.is_dataclass(tp):
        if not isinstance(val, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        hints = typing.get_type_hints(tp)
        unknown = set(val) - set(hints)
        if unknown:
            raise ConfigError(f"{path or 'config'}: unknown keys {sorted(unknown)}")
        return tp(**{k: _from_dict(hints[k], v, f"{path}.{k}" if path else k)
                     for k, v in val.items()})
    if typing.get_origin(tp) is tuple:
        elems = typing.get_args(tp)
        if isinstance(val, (list, tuple)) and elems[-1] is Ellipsis:
            elems = elems[:1] * len(val)
        if not isinstance(val, (list, tuple)) or len(val) != len(elems):
            count = "" if elems[-1] is Ellipsis else f" of {len(elems)} values"
            raise ConfigError(f"{path}: expected a list{count}, got {val!r:.40}")
        return tuple(_from_dict(e, v, f"{path}[{i}]") for i, (e, v) in enumerate(zip(elems, val)))
    if not (isinstance(val, (int, float)) and abs(val) <= sys.float_info.max if tp is float
            else isinstance(val, tp)) or isinstance(val, bool):
        raise ConfigError(f"{path}: expected {'finite ' * (tp is float)}{tp.__name__}, "
                          f"got {val!r:.40}")
    return val


def load_config(source) -> RunConfig:
    """Parse a RunConfig from a JSON string/bytes or a dict, then validate."""
    if isinstance(source, (str, bytes)):
        try:
            source = parse_json(source, "config")
        except ParseError as e:
            raise ConfigError(str(e)) from e
    cfg = _from_dict(RunConfig, source, "")
    cfg.validate()
    return cfg


def config_hash(cfg: RunConfig) -> str:
    """Short stable digest of the full config, recorded in outputs."""
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
