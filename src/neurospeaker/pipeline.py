"""End-to-end orchestration: preprocessing, dataset assembly, training,
evaluation, and the three-modality comparison experiment.

Runs are deterministic: every stochastic step draws from a generator derived
from the root seed and a stage label. Each EEG recording is filtered once
through the band-pass + notch cascade. Filtering, ICA, rejection, features
and the KPCA projection run per utterance, spread over the usable CPUs
(``core._ordered_map``); each draws from its own generator and results
are gathered in corpus order, so the bytes are those of one utterance after
another. One seeded split (``split_labels`` on the speakers of the
sorted utterance ids) serves the KPCA fit and every modality; it needs no
feature, so it is drawn before the frontend runs.

``run_experiment`` runs the KPCA fit, the val/test frontend and one job per
modality through the same map. Each job draws its own ``train.*``
generators and results keep the order of ``modalities``, so the bytes are
those of the serial loop, run on one CPU or on a BLAS that cannot be pinned.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import dsp, ica, kpca, nn
from .core import (
    LabeledDataset,
    SignalRecord,
    _ordered_map,
    derive_rng,
    split_labels,
)
from .errors import DimensionError, InputError
from .features import (
    EEG_HOP,
    EEG_RATE_HZ,
    FeatureSequence,
    FeatureStats,
    MfccConfig,
    Modality,
    check_recording,
    compute_feature_stats,
    extract_eeg_features,
    extract_mfcc,
    fuse,
    normalize_features,
)
from .synth import SynthSpec, Utterance, generate_synthetic

@dataclass
class DspConfig:
    """EEG filters, designed at ``EEG_RATE_HZ`` as the config is made, and the EEG155 window."""

    bandpass_order: int = 4
    bandpass_low_hz: float = 0.1
    bandpass_high_hz: float = 70.0
    notch_hz: float = 60.0
    notch_q: float = 30.0
    frame_length: int = 100

    def __post_init__(self):
        self.cascade()
        dsp.FrameSpec(self.frame_length, EEG_HOP)

    def cascade(self) -> dsp.BiquadCascade:
        """The band-pass sections followed by the notch section."""
        low, high = self.bandpass_low_hz, self.bandpass_high_hz
        bandpass = dsp.design_bandpass(self.bandpass_order, low, high, EEG_RATE_HZ)
        notch = dsp.design_notch(self.notch_hz, self.notch_q, EEG_RATE_HZ)
        return dsp.BiquadCascade(bandpass.sections + notch.sections)


@dataclass
class IcaConfig:
    max_iter: int = 200
    tol: float = 1e-5
    thresholds: ica.ArtifactThresholds = field(default_factory=ica.ArtifactThresholds)

    def __post_init__(self):
        if self.max_iter < 1:
            raise InputError(f"ICA max_iter must be >= 1, got {self.max_iter}")
        if self.tol <= 0:
            raise InputError(f"ICA tol must be positive, got {self.tol}")


@dataclass
class KpcaConfig:
    kernel: kpca.KernelSpec = field(default_factory=kpca.KernelSpec)
    max_fit_frames: int = 2000

    def __post_init__(self):
        if self.max_fit_frames <= Modality.EEG30.dim:
            raise InputError(
                f"max_fit_frames must exceed the {Modality.EEG30.dim} components, "
                f"got {self.max_fit_frames}"
            )


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
        for name in ("tcn_filters", "tcn_width", "gru_hidden"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise InputError(f"{name} must lie in [0, 1), got {getattr(self, name)}")

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


@dataclass
class TrainResult:
    params: nn.ClassifierParams
    curves: list[tuple[int, float, float]]
    stats: FeatureStats


def check_dimension_contracts(n_speakers: int) -> None:
    """The one width a run chooses: a classifier needs two speakers or more.
    The stream widths are fixed by ``Modality.dim``."""
    if n_speakers < 2:
        raise DimensionError(f"need at least 2 speakers, got {n_speakers}")


def preprocess_eeg(
    utterances: list[Utterance],
    config: DspConfig = DspConfig(),
    ica_config: IcaConfig = IcaConfig(),
    seed: int = 0,
) -> tuple[list[Utterance], list[tuple]]:
    """Band-pass and notch filtering, then ICA artifact removal, of each
    utterance (``_clean_utterance``), one item of ``_ordered_map`` each; the
    cascade is designed once per call.
    Returns cleaned utterances plus artifact-report rows for the audit log,
    both in corpus order. Every recording must first pass ``check_recording``.
    """
    if not utterances:
        raise InputError("no utterances to preprocess")
    for utt in utterances:
        check_recording(utt.eeg, "EEG", config.frame_length, utt.utterance_id)
    cascade = config.cascade()
    results = _ordered_map(lambda utt: _clean_utterance(utt, cascade, ica_config, seed), utterances)
    return [utt for utt, _ in results], [r for _, rows in results for r in rows]


def _clean_utterance(
    utt: Utterance, cascade: dsp.BiquadCascade, ica_config: IcaConfig, seed: int
) -> tuple[Utterance, list[tuple]]:
    """Filtering and ICA artifact removal of one recording: the cleaned
    utterance and its artifact-report rows."""
    record = dsp.apply_filter(cascade, utt.eeg)
    rng = derive_rng(seed, f"ica.{utt.utterance_id}")
    model = ica.fit_ica(record, max_iter=ica_config.max_iter, tol=ica_config.tol, rng=rng)
    comps = ica.sources(model, record)
    report = ica.score_and_reject(comps, ica_config.thresholds)
    clean = ica.reconstruct_clean(model, comps, report)
    rows = [(utt.utterance_id, *r) for r in report.rows()]
    return replace(utt, eeg=SignalRecord(EEG_RATE_HZ, clean)), rows


def extract_features(
    utterances: list[Utterance],
    dsp_config: DspConfig = DspConfig(),
    mfcc_config: MfccConfig = MfccConfig(),
) -> dict[str, dict[str, FeatureSequence]]:
    """Per-utterance MFCC13 and EEG155 sequences keyed by utterance id. Every
    recording must first pass ``check_recording``: each EEG, then each audio."""
    for utt in utterances:
        check_recording(utt.eeg, "EEG", dsp_config.frame_length, utt.utterance_id)
    for utt in utterances:
        check_recording(utt.audio, "audio", mfcc_config.frame_length, utt.utterance_id)
    streams = _ordered_map(
        lambda utt: {
            "mfcc13": extract_mfcc(utt.audio, mfcc_config, utterance_id=utt.utterance_id),
            "eeg155": extract_eeg_features(
                utt.eeg, dsp_config.frame_length, utterance_id=utt.utterance_id
            ),
        },
        utterances,
    )
    return {utt.utterance_id: s for utt, s in zip(utterances, streams)}


def reduce_eeg(
    features: dict[str, dict[str, FeatureSequence]],
    train_ids: list[str],
    config: KpcaConfig = KpcaConfig(),
    seed: int = 0,
) -> kpca.KpcaModel:
    """Fit KPCA on the training ids' EEG155 frames (``fit_eeg``) and add
    every utterance's EEG30 stream (``project_eeg``)."""
    model, stats = fit_eeg(features, train_ids, config, seed)
    project_eeg(features, model, stats)
    return model


def fit_eeg(
    features: dict[str, dict[str, FeatureSequence]],
    train_ids: list[str],
    config: KpcaConfig = KpcaConfig(),
    seed: int = 0,
) -> tuple[kpca.KpcaModel, FeatureStats]:
    """Fit KPCA on standardized training EEG155 frames: the model and the
    training statistics ``project_eeg`` standardizes with.

    Features are z-scored (training statistics) before the kernel so no
    single raw feature scale dominates. Only the streams of ``train_ids``
    are read.
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
    return kpca.fit_kpca(pooled, config.kernel, Modality.EEG30.dim), stats


def project_eeg(
    features: dict[str, dict[str, FeatureSequence]],
    model: kpca.KpcaModel,
    stats: FeatureStats,
) -> None:
    """Add every utterance's EEG30 stream: its EEG155 frames standardized
    with the training ``stats`` and projected, each utterance one item of
    ``_ordered_map``."""
    reduced = _ordered_map(
        lambda seq: kpca.transform_frames(
            model, normalize_features(stats, seq).frames.astype(np.float64)
        ),
        [streams["eeg155"] for streams in features.values()],
    )
    for (utt_id, streams), frames in zip(features.items(), reduced):
        streams["eeg30"] = FeatureSequence(frames, Modality.EEG30, utt_id)


def modality_sequence(streams: dict[str, FeatureSequence], modality: Modality) -> FeatureSequence:
    """The stream of ``modality``, fused from its ``sources`` when it has two.
    ``streams`` holds the sources, by lower-case modality name."""
    parts = [streams[m.name.lower()] for m in modality.sources]
    return fuse(*parts) if len(parts) > 1 else parts[0]


def split_utterances(speakers: dict[str, int], seed: int = 0) -> dict[str, str]:
    """The partition tag ("train", "val" or "test") of every utterance id,
    in sorted id order. It depends on the speaker labels alone, so it
    exists before any feature does."""
    ids = sorted(speakers)
    return dict(zip(ids, split_labels([speakers[i] for i in ids], derive_rng(seed, "split"))))


def assemble_dataset(
    features: dict[str, dict[str, FeatureSequence]],
    speakers: dict[str, int],
    modality: Modality,
    seed: int = 0,
) -> LabeledDataset:
    """The labelled dataset for one modality on ``split_utterances``, the
    run's one seeded split, which the KPCA fit and every modality share, so
    no stage trains on another's test utterances. ``features`` holds every
    id of ``speakers``."""
    partition = split_utterances(speakers, seed)
    items = [(modality_sequence(features[i], modality), speakers[i]) for i in partition]
    return LabeledDataset(items, max(speakers.values()) + 1, tuple(partition.values()))


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
    stats: FeatureStats,
    curves: list[tuple[int, float, float]] | None = None,
    batch_size: int = 100,
) -> EvalReport:
    """Argmax classification of the test partition, z-scored with the
    model's training ``stats`` (ties resolve to the lowest class index);
    accuracy is correct/total."""
    test_items = dataset.subset("test")
    if not test_items:
        raise InputError("dataset has no test items")
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
) -> ExperimentResult:
    """Train one model per modality on identical splits and seeds.

    Mirrors the published comparison: a three-column table of test accuracy
    for MFCC-only, EEG-only, and fused features. The result's dicts follow
    the order of ``modalities``. The split needs only the speaker labels,
    so the training utterances are cleaned and featurized first. The KPCA
    fit and the modalities' jobs are then the items of one
    ``_ordered_map`` call, in serial order, so the failure raised is that
    of the serial loop. The fit item is item 0, on the calling thread: it
    runs the fit beside the cleaning and featurizing of the val/test
    utterances (a nested two-item map), then projects every stream. A job
    whose sources hold EEG30 waits for that item, any other job for the
    val/test streams; a job whose streams were not made fails behind the
    error that stopped them. At width 1 the order is: training frontend,
    fit, val/test frontend, projection, modalities.
    """
    utterances = generate_synthetic(spec)
    speakers = {u.utterance_id: u.speaker for u in utterances}
    partition = split_utterances(speakers, config.seed)
    train_ids = [i for i, tag in partition.items() if tag == "train"]
    held_out = [u for u in utterances if partition[u.utterance_id] != "train"]
    utterances = [u for u in utterances if partition[u.utterance_id] == "train"]

    def featurize(utts: list[Utterance]) -> dict[str, dict[str, FeatureSequence]]:
        cleaned, _ = preprocess_eeg(utts, dsp_config, ica_config, config.seed)
        # Each stage reads only the last one's output, so the recordings go
        # before the features are extracted; the KPCA fit and the trainings
        # set the run's peak memory.
        utts.clear()
        return extract_features(cleaned, dsp_config, mfcc_config)

    features = featurize(utterances)
    streamed, fitted = threading.Event(), threading.Event()

    def featurize_held_out() -> None:
        # The fit reads only the training ids' streams, so one dict update
        # beside it is safe. A corpus too small for val/test utterances
        # reaches ``evaluate``, which rejects its empty test partition.
        if held_out:
            features.update(featurize(held_out))
        streamed.set()

    def fit() -> kpca.KpcaModel:
        try:
            (model, stats), _ = _ordered_map(
                lambda task: task(),
                [partial(fit_eeg, features, train_ids, kpca_config, config.seed), featurize_held_out],
            )
            project_eeg(features, model, stats)
            return model
        finally:
            streamed.set()
            fitted.set()

    def job(modality: Modality) -> tuple[TrainResult, EvalReport]:
        (fitted if Modality.EEG30 in modality.sources else streamed).wait()
        if len(features) < len(speakers):
            raise InputError("the val/test utterances have no features")
        dataset = assemble_dataset(features, speakers, modality, config.seed)
        result = train(dataset, config)
        return result, evaluate(result.params, dataset, result.stats, result.curves)

    kpca_model, *outcomes = _ordered_map(
        lambda task: task(), [fit, *(partial(job, m) for m in modalities)]
    )
    return ExperimentResult(
        accuracies={
            MODALITY_COLUMNS.get(m, m.name): report.test_accuracy
            for m, (_, report) in zip(modalities, outcomes)
        },
        reports={m: report for m, (_, report) in zip(modalities, outcomes)},
        results={m: result for m, (result, _) in zip(modalities, outcomes)},
        kpca_model=kpca_model,
    )
