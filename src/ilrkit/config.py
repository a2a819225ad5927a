"""Pipeline configuration: a single JSON document, overridable by flags.

The config hash (sha256 of the canonical JSON form) is embedded in every
output manifest so each artifact is traceable to the exact run settings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .embedstore import FORMATS, parse_json_object
from .errors import ConfigError, DataValidationError
from .expert import ExpertTrainConfig
from .fusion import AdapterTrainConfig
from .synthgen import SynthConfig

ENV_CONFIG = "ILRKIT_CONFIG"


@dataclass
class PipelineConfig:
    seed: int = 7
    k: int = 5
    tau: float = 0.5
    taus: tuple[float, ...] = (0.2, 0.5, 0.8)
    n_tasks: int = 500  # benchmark tasks per category
    n_train_tasks: int = 2000  # adapter-training tasks, built on the train split
    n_sweep_tasks: int = 200
    test_fraction: float = 0.3
    positive_rate: float = 0.5
    format: str = "jsonl"  # embedding interchange format
    synth: SynthConfig = field(default_factory=SynthConfig)
    expert: ExpertTrainConfig = field(default_factory=ExpertTrainConfig)
    adapter: AdapterTrainConfig = field(default_factory=AdapterTrainConfig)

    def validate(self) -> None:
        problems = []
        if self.k < 2:
            problems.append("k must be >= 2 (use build-detection for K=1)")
        if not 0.0 <= self.tau < 1.0:
            problems.append("tau must lie in [0, 1) for cosine similarity")
        if len(self.taus) < 2:
            problems.append("taus must list at least 2 thresholds")
        elif len(set(self.taus)) < len(self.taus):
            problems.append("taus must not repeat a threshold")
        if any(not 0.0 <= t < 1.0 for t in self.taus):
            problems.append("every sweep tau must lie in [0, 1)")
        if self.n_tasks < 1 or self.n_train_tasks < 1 or self.n_sweep_tasks < 1:
            problems.append("task counts must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:
            problems.append("test_fraction must lie strictly between 0 and 1")
        if not 0.0 <= self.positive_rate <= 1.0:
            problems.append("positive_rate must lie in [0, 1]")
        if self.format not in FORMATS:
            problems.append(f"format must be {' or '.join(FORMATS)}")
        try:
            self.synth.validate()
        except DataValidationError as exc:
            problems.append(f"synth: {exc}")
        for label, section in (("", self), ("synth", self.synth), ("expert", self.expert),
                               ("adapter", self.adapter)):
            problems += _field_problems(section, label)
        if problems:
            raise ConfigError("; ".join(problems))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


# lowest allowed value of a field, and whether that value itself is allowed;
# numpy seed sequences take non-negative integers only
_LOWER_BOUNDS = {
    "": {"seed": (0, True)},
    "synth": {"seed": (0, True)},
    "expert": {"d_out": (1, True), "margin": (0, True), "loss_weights": (0, True),
               "p_instances": (2, True), "q_images": (2, True), "step_size": (0, False),
               "epochs": (0, True), "seed": (0, True)},
    "adapter": {"step_size": (0, False), "epochs": (0, True), "batch_size": (1, True),
                "seed": (0, True), "readout_temperature": (0, False)},
}


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _field_problems(section, label: str) -> list[str]:
    """The fields of ``section`` below their lower bound, and the float and
    tuple fields holding a NaN, an infinity or an integer beyond the float
    range, each named as ``label.field``."""
    problems = []
    bounds = _LOWER_BOUNDS[label]
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        values = value if isinstance(value, tuple) else (value,)
        name = f"{label}.{f.name}" if label else f.name
        if (f.type == "float" or f.type.startswith("tuple[")) and not all(map(_finite, values)):
            problems.append(f"{name} must be finite, got {value!r}")
        elif f.name in bounds:
            low, inclusive = bounds[f.name]
            if any(v < low or (v == low and not inclusive) for v in values):
                problems.append(f"{name} must be {'>=' if inclusive else '>'} {low}, got {value!r}")
    return problems


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked_fields(cls, obj, label: str) -> dict:
    """``obj`` as keyword arguments of ``cls``: unknown fields are rejected,
    int fields must hold integers (not floats or bools), float fields
    numbers and tuple fields lists of numbers, of the tuple's length when
    it is fixed. Ranges are left to ``validate``."""
    prefix = f"{label}." if label else ""
    if not isinstance(obj, dict):
        raise ConfigError(f"{label} must be a JSON object")
    unknown = set(obj) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {label or 'config'} fields: {sorted(unknown)}")
    kwargs = dict(obj)
    for f in dataclasses.fields(cls):
        if f.name not in obj:
            continue
        value = obj[f.name]
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{prefix}{f.name} must be an integer, got {value!r}")
        if f.type == "float" and not _is_number(value):
            raise ConfigError(f"{prefix}{f.name} must be a number, got {value!r}")
        if f.type.startswith("tuple["):
            if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
                raise ConfigError(f"{prefix}{f.name} must be a list of numbers, got {value!r}")
            length = f.type.count(",") + 1
            if "..." not in f.type and len(value) != length:
                raise ConfigError(
                    f"{prefix}{f.name} must be a list of {length} numbers, got {value!r}"
                )
            kwargs[f.name] = tuple(value)
    return kwargs


def config_from_dict(obj: dict) -> PipelineConfig:
    kwargs = _checked_fields(PipelineConfig, obj, "")
    for name, cls in (("synth", SynthConfig), ("expert", ExpertTrainConfig),
                      ("adapter", AdapterTrainConfig)):
        if name in kwargs:
            kwargs[name] = cls(**_checked_fields(cls, kwargs[name], name))
    config = PipelineConfig(**kwargs)
    config.validate()
    return config


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return config_from_dict({})
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    try:
        obj = parse_json_object(data, f"{path}: invalid JSON config")
    except DataValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return config_from_dict(obj)
