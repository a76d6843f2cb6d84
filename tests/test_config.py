from dataclasses import fields, is_dataclass

import pytest

from neurospeaker.config import REGISTRY, load_config, registry_help
from neurospeaker.errors import ConfigError
from neurospeaker.pipeline import TrainConfig


def test_defaults_match_published_settings():
    config = load_config()
    assert config["dsp.bandpass_order"] == 4
    assert config["dsp.bandpass_low_hz"] == 0.1
    assert config["dsp.bandpass_high_hz"] == 70.0
    assert config["dsp.notch_hz"] == 60.0
    assert config["nn.tcn_filters"] == 128
    assert config["nn.gru_hidden"] == 128
    assert config["train.batch_size"] == 100
    assert config["train.epochs"] is None  # auto: 300, or 500 for 8 speakers


def test_file_values_and_overrides(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment line\n"
        "seed=99\n"
        "dsp.notch_q=25\n"
        "kpca.kernel=rbf\n"
        "\n"
    )
    config = load_config(path, overrides=["dsp.notch_q=40"])
    assert config.seed == 99
    assert config["dsp.notch_q"] == 40.0  # --set wins over the file
    assert config["kpca.kernel"] == "rbf"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("dsp.unknown_thing=1\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config(overrides=["nope=2"])


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        load_config(overrides=["train.epochs=many"])
    with pytest.raises(ConfigError):
        load_config(overrides=["dsp.notch_q=sharp"])


def test_missing_assignment_rejected(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("just a line\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_contradictory_values_surface_at_parse_time():
    with pytest.raises(Exception):
        load_config(overrides=["dsp.bandpass_low_hz=90", "dsp.bandpass_high_hz=70"])
    with pytest.raises(Exception):
        load_config(overrides=["synth.n_speakers=1"])


def test_registry_help_lists_provenance():
    text = registry_help()
    assert "dsp.notch_q" in text
    assert "[published]" in text and "[decision]" in text
    # every key documented
    for key in REGISTRY:
        assert key.name in text


def test_epochs_auto_parses():
    assert load_config(overrides=["train.epochs=auto"])["train.epochs"] is None
    assert load_config(overrides=["train.epochs=250"])["train.epochs"] == 250


def test_subconfig_construction():
    config = load_config(overrides=["kpca.kernel=rbf", "kpca.gamma=0.5"])
    assert config.kpca.kernel.kind == "rbf"
    assert config.kpca.kernel.gamma == 0.5
    assert config.train.batch_size == 100
    assert config.synth.n_speakers == 4
    default = load_config()
    assert default["kpca.gamma"] == 0.0  # 0 means 1/dim
    assert default.kpca.kernel.gamma == 0.0


SUBCONFIGS = ("synth", "dsp", "ica", "mfcc", "kpca", "train")
NON_DEFAULT = {
    "dsp.bandpass_order": "6",  # an odd order cannot be designed
    "kpca.kernel": "rbf",
    "kpca.gamma": "0.5",
    "train.epochs": "7",
    "dsp.frame_length": "120",
    # Adam's betas lie in [0, 1)
    "train.beta1": "0.5",
    "train.beta2": "0.99",
}


def _non_default(key) -> str:
    if key.name in NON_DEFAULT:
        return NON_DEFAULT[key.name]
    if isinstance(key.default, int):
        return str(key.default + 1)
    return repr(key.default * 1.5)


def _leaf_fields(config) -> dict[tuple[type, str], object]:
    """(owning dataclass, field name) -> value, descending into nested configs."""
    out = {}
    for spec in fields(config):
        value = getattr(config, spec.name)
        if is_dataclass(value):
            out.update(_leaf_fields(value))
        else:
            out[(type(config), spec.name)] = value
    return out


def _built_fields(config) -> dict[tuple[str, type, str], object]:
    return {
        (stage, *where): value
        for stage in SUBCONFIGS
        for where, value in _leaf_fields(getattr(config, stage)).items()
    }


@pytest.mark.parametrize("key", REGISTRY, ids=lambda key: key.name)
def test_each_key_sets_exactly_its_field(key):
    raw = _non_default(key)
    config = load_config(overrides=[f"{key.name}={raw}"])
    assert config[key.name] == key.parse(raw) != key.default
    before, after = _built_fields(load_config()), _built_fields(config)
    changed = {where for where in before if before[where] != after[where]}
    # the root seed also seeds training
    expected_owners = {key.owner} | ({TrainConfig} if key.name == "seed" else set())
    assert {(owner, name) for _, owner, name in changed} == {
        (owner, key.field) for owner in expected_owners
    }
    for where in changed:
        assert after[where] == config.values[key.name]


# Keys that restated a fixed fact (hop, KPCA width), shadowed the dataset's
# own modality, or picked a path nothing but a test took; each with its old
# default.
RETIRED_KEYS = {
    "dsp.hop_length": "10",
    "kpca.n_components": "30",
    "train.modality": "FUSED43",
    "train.validation_fraction": "0.1",
    "train.carve_validation_from_train": "false",
    "features.normalize": "true",
}


@pytest.mark.parametrize("name, old_default", RETIRED_KEYS.items(), ids=list(RETIRED_KEYS))
def test_retired_key_rejected_even_at_its_old_default(tmp_path, name, old_default):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(overrides=[f"{name}={old_default}"])
    path = tmp_path / "run.conf"
    path.write_text(f"{name}={old_default}\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)
    assert name not in registry_help()


FLOAT_KEYS = [key for key in REGISTRY if isinstance(key.default, float)]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e400"])
@pytest.mark.parametrize("key", FLOAT_KEYS, ids=lambda key: key.name)
def test_non_finite_float_rejected(key, raw):
    with pytest.raises(ConfigError, match=key.name):
        load_config(overrides=[f"{key.name}={raw}"])


def test_non_utf8_config_file_rejected(tmp_path):
    path = tmp_path / "run.conf"
    path.write_bytes(b"\xffseed=3\n")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(path)


@pytest.mark.parametrize("assignment", [
    "kpca.max_fit_frames=31", "ica.max_iter=1", "ica.tol=1e-300", "dsp.bandpass_order=2",
    "dsp.frame_length=10", "nn.tcn_filters=1", "nn.tcn_width=1", "nn.gru_hidden=1",
    "train.beta1=0.0", "train.beta2=0.0",
])
def test_smallest_runnable_values_load(assignment):
    name, raw = assignment.split("=")
    assert str(load_config(overrides=[assignment])[name]) == raw
