"""Flat key=value run configuration with section prefixes.

Every tunable in the package appears in the registry below together with its
provenance and the stage dataclass field it sets, whose default is the key's
default: ``published`` marks values fixed by the reported setup,
``decision`` marks values this implementation had to choose. Unknown keys are
rejected; command-line ``--set`` overrides file values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

from .errors import ConfigError
from .features import MfccConfig
from .ica import ArtifactThresholds
from .kpca import KernelSpec
from .pipeline import DspConfig, IcaConfig, KpcaConfig, TrainConfig
from .synth import SynthSpec


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_epochs(text: str):
    if text.strip().lower() in ("auto", "none", ""):
        return None
    return int(text)


@dataclass(frozen=True)
class ConfigKey:
    """One flat key and the stage dataclass field it sets; the field's own
    default is the key's default."""

    name: str
    parse: callable
    provenance: str  # "published" or "decision"
    help: str
    owner: type
    field: str

    @property
    def default(self):
        return next(f.default for f in fields(self.owner) if f.name == self.field)


REGISTRY: tuple[ConfigKey, ...] = (
    ConfigKey("seed", int, "decision", "root seed; every stage derives from it", SynthSpec, "seed"),
    # synthetic corpus
    ConfigKey("synth.n_speakers", int, "published", "speakers in the corpus (datasets had 4 and 8)", SynthSpec, "n_speakers"),
    ConfigKey("synth.utterances_per_speaker", int, "decision", "utterances generated per speaker", SynthSpec, "utterances_per_speaker"),
    ConfigKey("synth.duration_s", _finite_float, "decision", "utterance duration in seconds", SynthSpec, "duration_s"),
    ConfigKey("synth.separability", _finite_float, "decision", "speaker signature distance; 0 = chance-level corpus", SynthSpec, "separability"),
    ConfigKey("synth.noise_db", _finite_float, "decision", "audio noise level relative to speech (dB)", SynthSpec, "noise_db"),
    # dsp
    ConfigKey("dsp.bandpass_order", int, "published", "IIR band-pass order", DspConfig, "bandpass_order"),
    ConfigKey("dsp.bandpass_low_hz", _finite_float, "published", "band-pass low cutoff", DspConfig, "bandpass_low_hz"),
    ConfigKey("dsp.bandpass_high_hz", _finite_float, "published", "band-pass high cutoff", DspConfig, "bandpass_high_hz"),
    ConfigKey("dsp.notch_hz", _finite_float, "published", "power-line notch center", DspConfig, "notch_hz"),
    ConfigKey("dsp.notch_q", _finite_float, "decision", "notch quality factor", DspConfig, "notch_q"),
    ConfigKey("dsp.frame_length", int, "decision", "EEG feature window (samples at 1 kHz)", DspConfig, "frame_length"),
    # ica
    ConfigKey("ica.max_iter", int, "decision", "FastICA iteration cap", IcaConfig, "max_iter"),
    ConfigKey("ica.tol", _finite_float, "decision", "FastICA convergence tolerance", IcaConfig, "tol"),
    ConfigKey("ica.kurtosis_threshold", _finite_float, "decision", "reject |excess kurtosis| above this", ArtifactThresholds, "kurtosis"),
    ConfigKey("ica.lowfreq_ratio_threshold", _finite_float, "decision", "reject low-frequency power ratio above this", ArtifactThresholds, "lowfreq_ratio"),
    ConfigKey("ica.lowfreq_cutoff_hz", _finite_float, "decision", "low-frequency band edge for the ratio", ArtifactThresholds, "lowfreq_cutoff_hz"),
    ConfigKey("ica.max_amplitude_z_threshold", _finite_float, "decision", "reject max-amplitude z-score above this", ArtifactThresholds, "max_amplitude_z"),
    # features
    ConfigKey("features.mfcc_window_ms", _finite_float, "decision", "MFCC analysis window", MfccConfig, "window_ms"),
    ConfigKey("features.mfcc_fft_size", int, "decision", "MFCC FFT size", MfccConfig, "fft_size"),
    ConfigKey("features.mfcc_filters", int, "decision", "mel filter count", MfccConfig, "n_filters"),
    ConfigKey("features.mfcc_preemphasis", _finite_float, "decision", "pre-emphasis coefficient", MfccConfig, "preemphasis"),
    # kpca
    ConfigKey("kpca.kernel", str, "decision", "kernel kind: linear, poly, or rbf", KernelSpec, "kind"),
    ConfigKey("kpca.degree", int, "decision", "polynomial kernel degree", KernelSpec, "degree"),
    ConfigKey("kpca.coef0", _finite_float, "decision", "polynomial kernel offset", KernelSpec, "coef0"),
    ConfigKey("kpca.gamma", _finite_float, "decision", "rbf width; 0 means 1/dim", KernelSpec, "gamma"),
    ConfigKey("kpca.max_fit_frames", int, "decision", "training frames used to fit the kernel matrix", KpcaConfig, "max_fit_frames"),
    # nn / train
    ConfigKey("nn.tcn_filters", int, "published", "TCN filter count", TrainConfig, "tcn_filters"),
    ConfigKey("nn.tcn_width", int, "decision", "TCN causal kernel width", TrainConfig, "tcn_width"),
    ConfigKey("nn.gru_hidden", int, "published", "GRU hidden units", TrainConfig, "gru_hidden"),
    ConfigKey("train.epochs", _parse_epochs, "published", "epochs; auto = 300 (500 for 8 speakers)", TrainConfig, "epochs"),
    ConfigKey("train.batch_size", int, "published", "mini-batch size", TrainConfig, "batch_size"),
    ConfigKey("train.learning_rate", _finite_float, "decision", "Adam learning rate (the optimizer's canonical default)", TrainConfig, "learning_rate"),
    ConfigKey("train.beta1", _finite_float, "decision", "Adam beta1", TrainConfig, "beta1"),
    ConfigKey("train.beta2", _finite_float, "decision", "Adam beta2", TrainConfig, "beta2"),
    ConfigKey("train.epsilon", _finite_float, "decision", "Adam epsilon", TrainConfig, "epsilon"),
)

_BY_NAME = {key.name: key for key in REGISTRY}
_BY_FIELD = {(key.owner, key.field): key for key in REGISTRY}


def _build(cls, values: dict[str, object], **overrides):
    """Construct ``cls`` from the keys that set its fields. A nested config
    dataclass is built the same way; fields no key sets keep their defaults."""
    kwargs = {}
    for spec in fields(cls):
        key = _BY_FIELD.get((cls, spec.name))
        if key is not None:
            kwargs[spec.name] = values[key.name]
        elif is_dataclass(spec.default_factory):
            kwargs[spec.name] = _build(spec.default_factory, values)
    kwargs.update(overrides)
    return cls(**kwargs)


@dataclass(frozen=True)
class RunConfig:
    """Every tunable, resolved and validated: the flat ``values`` by key, and
    each stage's config, built from them once by ``load_config``."""

    values: dict[str, object]
    synth: SynthSpec
    dsp: DspConfig
    ica: IcaConfig
    mfcc: MfccConfig
    kpca: KpcaConfig
    train: TrainConfig

    def __getitem__(self, name: str):
        return self.values[name]

    @property
    def seed(self) -> int:
        return self.values["seed"]


def parse_assignment(line: str) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigError(f"expected key=value, got {line!r}")
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def load_config(
    path: Path | str | None = None, overrides: list[str] | None = None
) -> RunConfig:
    """Merge defaults, an optional config file, and --set overrides, and
    build each stage config from the result.

    Rejects unknown keys, bad values and contradictions before any
    computation starts.
    """
    values = {key.name: key.default for key in REGISTRY}

    def apply(name: str, raw: str, origin: str):
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError(f"{origin}: unknown config key {name!r}")
        try:
            values[name] = key.parse(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{origin}: bad value for {name}: {exc}") from exc

    if path is not None:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            name, raw = parse_assignment(stripped)
            apply(name, raw, f"{path}:{lineno}")
    for item in overrides or []:
        name, raw = parse_assignment(item)
        apply(name, raw, "--set")
    # Each stage config validates itself as it is built.
    return RunConfig(
        values,
        synth=_build(SynthSpec, values),
        dsp=_build(DspConfig, values),
        ica=_build(IcaConfig, values),
        mfcc=_build(MfccConfig, values),
        kpca=_build(KpcaConfig, values),
        # The root seed lives on SynthSpec and seeds training too.
        train=_build(TrainConfig, values, seed=values["seed"]),
    )


def registry_help() -> str:
    lines = ["configuration keys (default, provenance):"]
    for key in REGISTRY:
        lines.append(f"  {key.name} = {key.default}  [{key.provenance}] {key.help}")
    return "\n".join(lines)
