import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilrkit.config import PipelineConfig, config_from_dict, load_config
from ilrkit.errors import ConfigError
from ilrkit.expert import ExpertConfig
from ilrkit.fusion import AdapterTrainConfig
from ilrkit.synthgen import SynthConfig


def test_default_config_is_valid():
    PipelineConfig().validate()


def test_hash_is_stable_and_sensitive():
    a, b = PipelineConfig(), PipelineConfig()
    assert a.config_hash() == b.config_hash()
    c = PipelineConfig(seed=8)
    assert c.config_hash() != a.config_hash()


def test_default_hash_is_pinned():
    # every manifest carries this hash; a change to the canonical JSON shows here
    assert PipelineConfig().config_hash() == (
        "9ddca091873a3009743b4cdb88c50c88489708d93bb0ea26a0d3d7199c71be6a"
    )


def test_from_dict_round_trip():
    cfg = PipelineConfig(seed=3, k=4, taus=(0.1, 0.6))
    rebuilt = config_from_dict(cfg.to_dict())
    assert rebuilt == cfg
    assert rebuilt.config_hash() == cfg.config_hash()


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError, match="unknown config fields"):
        config_from_dict({"seeed": 3})
    with pytest.raises(ConfigError, match="unknown synth fields"):
        config_from_dict({"synth": {"alpha": 0.5, "beta": 1.0}})


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"k": 1}, "k must be"),
        ({"tau": 1.0}, "tau"),
        ({"taus": [0.5]}, "taus"),
        ({"test_fraction": 0.0}, "test_fraction"),
        ({"positive_rate": 2.0}, "positive_rate"),
        ({"format": "csv"}, "format"),
        ({"n_tasks": 0}, "task counts"),
        ({"synth": {"n_tokens": 0}}, "synth: all synth counts"),
        ({"synth": {"n_tokens": "a"}}, "synth"),
        ({"synth": {"n_tokens": 2.5}}, r"synth\.n_tokens must be an integer, got 2\.5"),
        ({"k": "x"}, "k must be an integer, got 'x'"),
        ({"taus": 5}, "taus must be a list of numbers, got 5"),
        ({"taus": [0.2, "a"]}, "taus must be a list of numbers"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"expert": {"d_out": 2.0}}, r"expert\.d_out must be an integer"),
        ({"expert": {"d_out": "wide"}}, r"expert\.d_out must be an integer, got 'wide'"),
        ({"adapter": {"step_size": "fast"}}, r"adapter\.step_size must be a number"),
        ({"tau": False}, "tau must be a number"),
        ({"synth": 5}, "synth must be a JSON object"),
        ({"expert": {"d_out": 1}}, r"expert\.d_out must be >= 2, got 1"),
        ({"expert": []}, "expert must be a JSON object"),
        ({"taus": [0.5, 0.5]}, "taus must not repeat a threshold"),
        ({"taus": [0.2, 0.5, 0.2]}, "taus must not repeat a threshold"),
    ],
)
def test_validation_errors(overrides, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(overrides)


def test_nested_overrides():
    cfg = config_from_dict({"synth": {"alpha": 0.5}, "expert": {"d_out": 12},
                            "adapter": {"step_size": 0.01}})
    assert cfg.synth.alpha == 0.5
    assert cfg.expert.d_out == 12
    assert cfg.adapter.step_size == 0.01
    assert cfg.synth.sigma == PipelineConfig().synth.sigma


def test_load_config_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 11, "k": 3}))
    cfg = load_config(path)
    assert cfg.seed == 11 and cfg.k == 3


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


_ODD_NUMBERS = st.one_of(
    st.sampled_from([0, 1, 2, -1, 10 ** 400, 0.0, 0.5, -0.5, 1e-300, 1e300,
                     float("nan"), float("inf"), float("-inf")]),
    st.integers(), st.floats(),
)
_SECTIONS = {"": PipelineConfig, "synth": SynthConfig, "expert": ExpertConfig,
             "adapter": AdapterTrainConfig}


@st.composite
def _odd_fields(draw) -> dict:
    """One to three fields, of the top level or of a section, set to odd
    numbers or lists of them."""
    obj: dict = {}
    for _ in range(draw(st.integers(1, 3))):
        label = draw(st.sampled_from(sorted(_SECTIONS)))
        name = draw(st.sampled_from([f.name for f in dataclasses.fields(_SECTIONS[label])
                                     if f.name not in _SECTIONS]))
        section = obj.setdefault(label, {}) if label else obj
        section[name] = draw(st.one_of(_ODD_NUMBERS, st.lists(_ODD_NUMBERS, max_size=3)))
    return obj


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(obj=_odd_fields())
def test_accepted_config_is_in_range(obj):
    """A config either fails with ConfigError or holds finite floats, seeds a
    numpy seed sequence takes, and usable expert and adapter settings."""
    try:
        config = config_from_dict(obj)
    except ConfigError:
        return
    for label, cls in _SECTIONS.items():
        section = getattr(config, label) if label else config
        for f in dataclasses.fields(cls):
            value = getattr(section, f.name)
            if f.type == "float" or f.type.startswith("tuple["):
                assert all(math.isfinite(v) for v in np.atleast_1d(np.asarray(value, float)))
        if hasattr(section, "seed"):
            np.random.SeedSequence(section.seed)
    e, a = config.expert, config.adapter
    assert e.d_out >= 2
    assert a.batch_size >= 1 and a.epochs >= 0 and a.step_size > 0 and a.readout_temperature > 0


# expert.seed and expert.epochs as perfbench.workloads.seeded_config writes
# them: the benchmark seed in every section, and score_loop's short run
_PERFBENCH_CONFIG = {"seed": 4242, "synth": {"seed": 4242},
                     "expert": {"seed": 4242, "epochs": 5},
                     "adapter": {"seed": 4242, "epochs": 2}}
_RETIRED_EXPERT = {"margin": 0.3, "loss_weights": [1.0, 1.0], "p_instances": 8,
                   "q_images": 4, "step_size": 0.15, "epochs": 30, "seed": 0}


@pytest.mark.parametrize("retired", [
    {"seed": 4242, "epochs": 5}, _RETIRED_EXPERT, {"loss_weights": "any value", "d_out": 12},
], ids=["perfbench", "all seven", "any value"])
def test_retired_expert_fields_act_on_nothing(retired):
    # each is logged and left out: the config and its hash are those of the
    # same config without them
    with_retired = json.loads(json.dumps(_PERFBENCH_CONFIG))
    with_retired["expert"] = retired
    without = json.loads(json.dumps(with_retired))
    without["expert"] = {k: v for k, v in retired.items() if k not in _RETIRED_EXPERT}
    assert config_from_dict(with_retired) == config_from_dict(without)
    assert config_from_dict(with_retired).config_hash() == config_from_dict(without).config_hash()


def test_perfbench_config_loads_from_file(tmp_path, caplog):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_PERFBENCH_CONFIG, indent=2, sort_keys=True) + "\n")
    assert load_config(path).expert == ExpertConfig()
    # each retired field is logged once per load
    assert [r.getMessage() for r in caplog.records] == [
        f"expert.{name} has no effect: the expert head is fitted in closed form"
        for name in ("epochs", "seed")]


@pytest.mark.parametrize("obj, field", [
    ({"expert": {"epoch": 5}}, "epoch"),
    ({"expert": {"seeds": 1}}, "seeds"),
    ({"adapter": {"margin": 0.3}}, "margin"),
    ({"synth": {"p_instances": 8}}, "p_instances"),
    ({"epochs": 5}, "epochs"),
])
def test_misspelt_or_misplaced_retired_field_is_unknown(obj, field):
    with pytest.raises(ConfigError, match=rf"unknown .*fields: \['{field}'\]"):
        config_from_dict(obj)
