"""End-to-end orchestration: preprocessing, dataset assembly, training,
evaluation, and the three-modality comparison experiment.

Runs are deterministic: every stochastic step draws from a generator derived
from the root seed and a stage label, and utterances are processed one after
another. One seeded split (``split_utterances``) serves the KPCA fit and every
modality.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dsp, ica, kpca, nn
from .core import LabeledDataset, SignalRecord, derive_rng, split_dataset
from .errors import DimensionError, InputError
from .features import (
    EEG_CHANNELS,
    EEG_FEATURES_PER_CHANNEL,
    FeatureSequence,
    FeatureStats,
    MfccConfig,
    Modality,
    compute_feature_stats,
    extract_eeg_features,
    extract_mfcc,
    fuse,
    normalize_features,
)
from .synth import SynthSpec, Utterance, generate_synthetic


@dataclass
class DspConfig:
    bandpass_order: int = 4
    bandpass_low_hz: float = 0.1
    bandpass_high_hz: float = 70.0
    notch_hz: float = 60.0
    notch_q: float = 30.0
    frame_length: int = 100

    def __post_init__(self):
        if not 0 < self.bandpass_low_hz < self.bandpass_high_hz:
            raise InputError(
                f"band-pass cutoffs must satisfy 0 < low < high, got "
                f"{self.bandpass_low_hz}..{self.bandpass_high_hz}"
            )
        if self.notch_hz <= 0 or self.notch_q <= 0:
            raise InputError("notch frequency and quality must be positive")


@dataclass
class IcaConfig:
    max_iter: int = 200
    tol: float = 1e-5
    thresholds: ica.ArtifactThresholds = field(default_factory=ica.ArtifactThresholds)


@dataclass
class KpcaConfig:
    kernel: kpca.KernelSpec = field(default_factory=kpca.KernelSpec)
    max_fit_frames: int = 2000


@dataclass
class TrainConfig:
    """Training hyperparameters. ``epochs=None`` resolves to 300, or 500 for
    8-speaker datasets."""

    epochs: int | None = None
    batch_size: int = 100
    seed: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    tcn_filters: int = 128
    tcn_width: int = 3
    gru_hidden: int = 128

    def __post_init__(self):
        if self.epochs is not None and self.epochs <= 0:
            raise InputError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")

    def resolve_epochs(self, n_speakers: int) -> int:
        if self.epochs is not None:
            return self.epochs
        return 500 if n_speakers == 8 else 300


@dataclass
class EvalReport:
    test_accuracy: float
    confusion_matrix: np.ndarray  # (n_speakers, n_speakers) counts, rows = truth
    curves: list[tuple[int, float, float]]

    @property
    def n_test(self) -> int:
        return int(self.confusion_matrix.sum())

    def accuracy_percent(self) -> str:
        from .fileio import format_percent

        return format_percent(self.test_accuracy)


@dataclass
class TrainResult:
    params: nn.ClassifierParams
    curves: list[tuple[int, float, float]]
    stats: FeatureStats


def check_dimension_contracts(n_speakers: int) -> None:
    """The arithmetic the whole pipeline is built on; asserted on every run."""
    if EEG_CHANNELS * EEG_FEATURES_PER_CHANNEL != Modality.EEG155.dim:
        raise DimensionError(
            f"{EEG_CHANNELS} channels x {EEG_FEATURES_PER_CHANNEL} features "
            f"!= {Modality.EEG155.dim}"
        )
    if Modality.MFCC13.dim + Modality.EEG30.dim != Modality.FUSED43.dim:
        raise DimensionError("fusion dims are inconsistent")
    if n_speakers < 2:
        raise DimensionError(f"need at least 2 speakers, got {n_speakers}")


def preprocess_eeg(
    utterances: list[Utterance],
    config: DspConfig = DspConfig(),
    ica_config: IcaConfig = IcaConfig(),
    seed: int = 0,
) -> tuple[list[Utterance], list[tuple]]:
    """Band-pass, notch, and ICA artifact removal per utterance.

    Returns cleaned utterances plus artifact-report rows for the audit log.
    Every recording must share the first one's sample rate, which the filters
    are designed for.
    """
    if not utterances:
        raise InputError("no utterances to preprocess")
    rate = utterances[0].eeg.sample_rate_hz
    for utt in utterances:
        if utt.eeg.sample_rate_hz != rate:
            raise InputError(
                f"utterance {utt.utterance_id!r} has {utt.eeg.sample_rate_hz:g} Hz EEG, "
                f"not the {rate:g} Hz of {utterances[0].utterance_id!r}"
            )
    bandpass = dsp.design_bandpass(
        config.bandpass_order, config.bandpass_low_hz, config.bandpass_high_hz, rate
    )
    notch = dsp.design_notch(config.notch_hz, config.notch_q, rate)

    cleaned: list[Utterance] = []
    report_rows: list[tuple] = []
    for utt in utterances:
        filtered = dsp.apply_filter(notch, dsp.apply_filter(bandpass, utt.eeg))
        rng = derive_rng(seed, f"ica.{utt.utterance_id}")
        model = ica.fit_ica(
            filtered, max_iter=ica_config.max_iter, tol=ica_config.tol, rng=rng
        )
        comps = ica.sources(model, filtered)
        report = ica.score_and_reject(model, comps, ica_config.thresholds)
        clean = ica.reconstruct_clean(model, comps, report)
        clean_record = SignalRecord(
            utt.eeg.sample_rate_hz, clean.samples, utt.eeg.channel_labels
        )
        cleaned.append(replace(utt, eeg=clean_record))
        report_rows.extend((utt.utterance_id, *row) for row in report.rows())
    return cleaned, report_rows


def extract_features(
    utterances: list[Utterance],
    dsp_config: DspConfig = DspConfig(),
    mfcc_config: MfccConfig = MfccConfig(),
) -> dict[str, dict[str, FeatureSequence]]:
    """Per-utterance MFCC13 and EEG155 sequences keyed by utterance id."""
    features = {}
    for utt in utterances:
        mfcc = extract_mfcc(utt.audio, mfcc_config, utterance_id=utt.utterance_id)
        eeg155 = extract_eeg_features(
            utt.eeg, dsp_config.frame_length, utterance_id=utt.utterance_id
        )
        features[utt.utterance_id] = {"mfcc13": mfcc, "eeg155": eeg155}
    return features


def reduce_eeg(
    features: dict[str, dict[str, FeatureSequence]],
    train_ids: list[str],
    config: KpcaConfig = KpcaConfig(),
    seed: int = 0,
) -> kpca.KpcaModel:
    """Fit KPCA on standardized training EEG155 frames and add EEG30 streams.

    Features are z-scored (training statistics) before the kernel so no
    single raw feature scale dominates; the same transform is applied to all
    partitions.
    """
    train_seqs = [features[i]["eeg155"] for i in train_ids]
    stats = compute_feature_stats(train_seqs)
    pooled = np.concatenate(
        [normalize_features(stats, s).frames for s in train_seqs], axis=0
    ).astype(np.float64)
    if pooled.shape[0] > config.max_fit_frames:
        rng = derive_rng(seed, "kpca.subsample")
        pick = np.sort(rng.choice(pooled.shape[0], size=config.max_fit_frames, replace=False))
        pooled = pooled[pick]
    model = kpca.fit_kpca(pooled, config.kernel, Modality.EEG30.dim)
    for utt_id, streams in features.items():
        normalized = normalize_features(stats, streams["eeg155"])
        reduced = kpca.transform_frames(model, normalized.frames.astype(np.float64))
        streams["eeg30"] = FeatureSequence(
            reduced, streams["eeg155"].rate_hz, Modality.EEG30, utt_id
        )
    return model


def modality_sequence(streams: dict[str, FeatureSequence], modality: Modality) -> FeatureSequence:
    if modality is Modality.MFCC13:
        return streams["mfcc13"]
    if modality is Modality.EEG155:
        return streams["eeg155"]
    if modality is Modality.EEG30:
        return streams["eeg30"]
    if modality is Modality.FUSED43:
        return fuse(streams["mfcc13"], streams["eeg30"])
    raise InputError(f"unsupported modality {modality}")


def split_utterances(
    features: dict[str, dict[str, FeatureSequence]],
    speakers: dict[str, int],
    seed: int = 0,
) -> dict[str, str]:
    """The partition tag ("train", "val" or "test") of every utterance id.

    This is the run's one seeded split: the KPCA fit uses its training
    utterances and every modality's dataset carries it, so no stage can
    train on another stage's test utterances.
    """
    ids = sorted(features)
    split = split_dataset(
        [(features[i]["eeg155"], speakers[i]) for i in ids], rng=derive_rng(seed, "split")
    )
    return dict(zip(ids, split.partition))


def assemble_dataset(
    features: dict[str, dict[str, FeatureSequence]],
    speakers: dict[str, int],
    modality: Modality,
    seed: int = 0,
) -> LabeledDataset:
    """Build the labelled dataset for one modality on the seeded split."""
    partition = split_utterances(features, speakers, seed)
    ids = sorted(features)
    items = [(modality_sequence(features[i], modality), speakers[i]) for i in ids]
    return LabeledDataset(
        items=items,
        n_speakers=max(label for _, label in items) + 1,
        partition=tuple(partition[i] for i in ids),
    )


def predict(
    params: nn.ClassifierParams,
    items: list[tuple[FeatureSequence, int]],
    batch_size: int,
) -> np.ndarray:
    """Argmax speaker of each item (ties resolve to the lowest class index),
    forwarded ``batch_size`` items at a time."""
    preds = [np.zeros(0, dtype=np.int64)]
    for start in range(0, len(items), batch_size):
        chunk = items[start : start + batch_size]
        x, lengths = nn.pad_batch(
            [s.frames for s, _ in chunk], dtype=params.tcn.kernels.dtype
        )
        probs, _, _ = nn.forward_batch(params, x, lengths)
        preds.append(np.argmax(probs, axis=1))
    return np.concatenate(preds)


def _labels(items: list[tuple[FeatureSequence, int]]) -> np.ndarray:
    return np.array([label for _, label in items], dtype=np.int64)


def train(
    dataset: LabeledDataset, config: TrainConfig = TrainConfig()
) -> TrainResult:
    """Mini-batch Adam training on the dataset's own modality, with per-epoch
    train/validation accuracy curves over its validation partition.

    Features are z-scored with the training partition's statistics, which
    the result carries for evaluation.
    """
    check_dimension_contracts(dataset.n_speakers)
    train_items = dataset.subset("train")
    if not train_items:
        raise InputError("dataset has no training items")
    modality = train_items[0][0].modality
    stats = compute_feature_stats([s for s, _ in train_items])
    train_items = [(normalize_features(stats, s), y) for s, y in train_items]
    val_items = [(normalize_features(stats, s), y) for s, y in dataset.subset("val")]

    rng_init = derive_rng(config.seed, "train.init")
    params = nn.init_classifier(
        modality.dim,
        dataset.n_speakers,
        rng_init,
        tcn_filters=config.tcn_filters,
        tcn_width=config.tcn_width,
        gru_hidden=config.gru_hidden,
        dtype=np.float32,
    )
    adam = nn.adam_init(
        params,
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
    )

    sequences = [np.asarray(s.frames, dtype=np.float32) for s, _ in train_items]
    labels = _labels(train_items)
    val_labels = _labels(val_items)
    rng_shuffle = derive_rng(config.seed, "train.shuffle")
    epochs = config.resolve_epochs(dataset.n_speakers)
    curves: list[tuple[int, float, float]] = []
    for epoch in range(1, epochs + 1):
        order = rng_shuffle.permutation(len(sequences))
        correct = 0
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            x, lengths = nn.pad_batch([sequences[i] for i in batch_idx])
            batch_labels = labels[batch_idx]
            probs, _, cache = nn.forward_batch(params, x, lengths, batch_labels)
            correct += int(np.sum(np.argmax(probs, axis=1) == batch_labels))
            grads = nn.backward(cache, params)
            nn.adam_step(params, grads, adam)
        train_acc = correct / len(sequences)
        val_acc = float("nan")
        if val_items:
            val_preds = predict(params, val_items, config.batch_size)
            val_acc = int(np.sum(val_preds == val_labels)) / len(val_items)
        curves.append((epoch, train_acc, val_acc))
    return TrainResult(params=params, curves=curves, stats=stats)


def evaluate(
    params: nn.ClassifierParams,
    dataset: LabeledDataset,
    stats: FeatureStats | None = None,
    curves: list[tuple[int, float, float]] | None = None,
    batch_size: int = 100,
) -> EvalReport:
    """Argmax classification of the test partition (ties resolve to the
    lowest class index); accuracy is correct/total."""
    test_items = dataset.subset("test")
    if not test_items:
        raise InputError("dataset has no test items")
    if stats is not None:
        test_items = [(normalize_features(stats, s), y) for s, y in test_items]
    n = dataset.n_speakers
    if params.n_speakers != n:
        raise DimensionError(
            f"checkpoint has {params.n_speakers} speakers, dataset has {n}"
        )
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (_labels(test_items), predict(params, test_items, batch_size)), 1)
    accuracy = float(np.trace(confusion)) / len(test_items)
    return EvalReport(
        test_accuracy=accuracy,
        confusion_matrix=confusion,
        curves=list(curves or []),
    )


MODALITY_COLUMNS = {
    Modality.MFCC13: "MFCC",
    Modality.EEG30: "EEG",
    Modality.FUSED43: "MFCC+EEG",
}


@dataclass
class ExperimentResult:
    accuracies: dict[str, float]  # column name -> test accuracy fraction
    reports: dict[Modality, EvalReport]
    results: dict[Modality, TrainResult]
    kpca_model: kpca.KpcaModel


def run_experiment(
    spec: SynthSpec,
    modalities: tuple[Modality, ...] = (Modality.MFCC13, Modality.EEG30, Modality.FUSED43),
    config: TrainConfig = TrainConfig(),
    dsp_config: DspConfig = DspConfig(),
    ica_config: IcaConfig = IcaConfig(),
    kpca_config: KpcaConfig = KpcaConfig(),
    mfcc_config: MfccConfig = MfccConfig(),
    utterances: list[Utterance] | None = None,
) -> ExperimentResult:
    """Train one model per modality on identical splits and seeds.

    Mirrors the published comparison: a three-column table of test accuracy
    for MFCC-only, EEG-only, and fused features.
    """
    check_dimension_contracts(spec.n_speakers)
    if utterances is None:
        utterances = generate_synthetic(spec)
    speakers = {u.utterance_id: u.speaker for u in utterances}
    cleaned, _ = preprocess_eeg(utterances, dsp_config, ica_config, config.seed)
    features = extract_features(cleaned, dsp_config, mfcc_config)
    partition = split_utterances(features, speakers, config.seed)
    train_ids = [i for i, tag in partition.items() if tag == "train"]
    kpca_model = reduce_eeg(features, train_ids, kpca_config, config.seed)

    reports: dict[Modality, EvalReport] = {}
    results: dict[Modality, TrainResult] = {}
    accuracies: dict[str, float] = {}
    for modality in modalities:
        dataset = assemble_dataset(features, speakers, modality, config.seed)
        result = train(dataset, config)
        report = evaluate(result.params, dataset, result.stats, result.curves)
        reports[modality] = report
        results[modality] = result
        accuracies[MODALITY_COLUMNS.get(modality, modality.name)] = report.test_accuracy
    return ExperimentResult(
        accuracies=accuracies,
        reports=reports,
        results=results,
        kpca_model=kpca_model,
    )
