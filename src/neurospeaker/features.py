"""Frame-level feature extraction for both modalities and frame-aligned fusion.

EEG: five statistics per channel per frame (RMS, zero-crossing rate, moving
window average, excess kurtosis, normalized power spectral entropy), giving
155 dimensions for a 31-channel montage. Audio: a standard 13-coefficient
MFCC front end. Both streams run at a 100 Hz frame rate.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import SignalRecord
from .dsp import FrameSpec, frame_signal
from .errors import AlignmentError, DimensionError, InputError

EEG_CHANNELS = 31
EEG_FEATURES_PER_CHANNEL = 5
FEATURE_RATE_HZ = 100
MOVING_WINDOW = 10  # samples per sub-window of the moving-window average


class Modality(enum.IntEnum):
    """Feature stream identity; the integer value is the on-disk code."""

    MFCC13 = 0
    EEG155 = 1
    EEG30 = 2
    FUSED43 = 3

    @property
    def dim(self) -> int:
        return _MODALITY_DIMS[self]


_MODALITY_DIMS = {
    Modality.MFCC13: 13,
    Modality.EEG155: EEG_CHANNELS * EEG_FEATURES_PER_CHANNEL,
    Modality.EEG30: 30,
    Modality.FUSED43: 43,
}


@dataclass
class FeatureSequence:
    """Time-major frame matrix (T x D) at 100 Hz with a modality tag."""

    frames: np.ndarray
    rate_hz: int
    modality: Modality
    utterance_id: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2:
            raise InputError("frames must be a 2-D (time x dim) array")
        if self.frames.shape[1] != self.modality.dim:
            raise DimensionError(
                f"{self.modality.name} expects {self.modality.dim} dims, "
                f"got {self.frames.shape[1]}"
            )
        if self.rate_hz <= 0:
            raise InputError(f"rate_hz must be positive, got {self.rate_hz}")
        if not np.all(np.isfinite(self.frames)):
            raise InputError(f"non-finite features in utterance {self.utterance_id!r}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def _feature_block(frames: np.ndarray) -> np.ndarray:
    """Vectorized five-feature computation over (..., frame_length) windows."""
    x = np.asarray(frames, dtype=np.float64)
    length = x.shape[-1]
    if length < 2:
        raise InputError(f"frames need at least 2 samples, got {length}")

    rms = np.sqrt(np.mean(x * x, axis=-1))

    signs = np.sign(x)
    crossings = np.sum(signs[..., 1:] * signs[..., :-1] < 0, axis=-1)
    zcr = crossings / length

    w = min(MOVING_WINDOW, length)
    csum = np.cumsum(x, axis=-1)
    win_sums = np.concatenate(
        [csum[..., w - 1 : w], csum[..., w:] - csum[..., : length - w]], axis=-1
    )
    mwa = np.mean(win_sums / w, axis=-1)

    mean = np.mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1)
    m4 = np.mean(centered**4, axis=-1)
    live = var > 1e-30
    kurtosis = np.zeros_like(var)
    np.divide(m4, var * var, out=kurtosis, where=live)
    kurtosis = np.where(live, kurtosis - 3.0, 0.0)

    # Welch-style PSD (half-frame segments, 50% overlap, rectangular) keeps
    # single-realization entropy close to the flat-spectrum maximum.
    seg = max(2, length // 2)
    hop = max(1, seg // 2)
    segments = np.lib.stride_tricks.sliding_window_view(x, seg, axis=-1)[..., ::hop, :]
    psd = np.sum(np.abs(np.fft.rfft(segments, axis=-1)) ** 2, axis=-2)
    total = np.sum(psd, axis=-1, keepdims=True)
    p = psd / np.where(total > 0, total, 1.0)
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    entropy = -np.sum(plogp, axis=-1) / math.log(psd.shape[-1])
    entropy = np.where(live, entropy, 0.0)

    return np.stack([rms, zcr, mwa, kurtosis, entropy], axis=-1)


def eeg_frame_features(frame: np.ndarray) -> np.ndarray:
    """[RMS, zero-crossing rate, moving-window average, excess kurtosis, spectral entropy].

    Zero-variance frames report kurtosis 0 and entropy 0 by convention.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1:
        raise InputError("eeg_frame_features expects a 1-D frame")
    return _feature_block(frame[np.newaxis, :])[0]


def _feature_hop(sample_rate_hz: float) -> int:
    """Samples between consecutive frames: the hop that gives ``FEATURE_RATE_HZ``."""
    hop = sample_rate_hz / FEATURE_RATE_HZ
    if hop < 1 or hop != int(hop):
        raise InputError(
            f"{sample_rate_hz:g} Hz is not a whole multiple of the "
            f"{FEATURE_RATE_HZ} Hz feature rate"
        )
    return int(hop)


def extract_eeg_features(
    clean_eeg: SignalRecord,
    frame_length: int = 100,
    utterance_id: str = "",
) -> FeatureSequence:
    """Per-frame concatenation of the five features over all 31 channels (155 dims),
    from ``frame_length``-sample windows at the 100 Hz feature rate."""
    if clean_eeg.channels != EEG_CHANNELS:
        raise DimensionError(
            f"expected {EEG_CHANNELS} EEG channels, got {clean_eeg.channels}"
        )
    spec = FrameSpec(frame_length, _feature_hop(clean_eeg.sample_rate_hz))
    windows = frame_signal(clean_eeg, spec)  # (C, T, L)
    feats = _feature_block(windows)  # (C, T, 5)
    frames = np.transpose(feats, (1, 0, 2)).reshape(feats.shape[1], -1)
    return FeatureSequence(frames, FEATURE_RATE_HZ, Modality.EEG155, utterance_id)


@dataclass(frozen=True)
class MfccConfig:
    sample_rate_hz: int = 16000
    window_ms: float = 25.0
    fft_size: int = 512
    n_filters: int = 26
    preemphasis: float = 0.97
    log_floor: float = 1e-10

    @property
    def frame_length(self) -> int:
        return int(round(self.sample_rate_hz * self.window_ms / 1000.0))


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filters on the mel scale covering 0..Nyquist."""

    n_filters: int
    fft_size: int
    sample_rate_hz: int
    weights: np.ndarray  # (n_filters, fft_size // 2 + 1)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, fft_size: int, sample_rate_hz: int) -> MelFilterbank:
    nyquist = sample_rate_hz / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(fft_size // 2 + 1) * sample_rate_hz / fft_size
    weights = np.zeros((n_filters, fft_size // 2 + 1))
    for i in range(n_filters):
        left, center, right = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (bin_freqs - left) / max(center - left, 1e-12)
        down = (right - bin_freqs) / max(right - center, 1e-12)
        weights[i] = np.maximum(0.0, np.minimum(up, down))
        if weights[i].sum() <= 0:
            raise DimensionError(
                f"mel filter {i} is empty; fft_size {fft_size} too small "
                f"for {n_filters} filters"
            )
    return MelFilterbank(n_filters, fft_size, sample_rate_hz, weights)


def _dct_matrix(n_coeffs: int, n_inputs: int) -> np.ndarray:
    """Orthonormal DCT-II, first ``n_coeffs`` rows."""
    k = np.arange(n_coeffs)[:, None]
    n = np.arange(n_inputs)[None, :]
    mat = np.cos(np.pi * k * (2 * n + 1) / (2 * n_inputs))
    mat[0] *= math.sqrt(1.0 / n_inputs)
    mat[1:] *= math.sqrt(2.0 / n_inputs)
    return mat


def extract_mfcc(
    audio: SignalRecord,
    config: MfccConfig = MfccConfig(),
    utterance_id: str = "",
) -> FeatureSequence:
    """13 mel-frequency cepstral coefficients per 10 ms frame of mono 16 kHz audio."""
    if audio.sample_rate_hz != config.sample_rate_hz:
        raise InputError(
            f"expected {config.sample_rate_hz} Hz audio, got {audio.sample_rate_hz};"
            " resample upstream"
        )
    if audio.channels != 1:
        raise InputError(f"expected mono audio, got {audio.channels} channels")
    x = audio.samples[0]
    emphasized = np.concatenate([x[:1], x[1:] - config.preemphasis * x[:-1]])
    spec = FrameSpec(config.frame_length, _feature_hop(audio.sample_rate_hz))
    record = SignalRecord(audio.sample_rate_hz, emphasized[np.newaxis, :], ("mono",))
    windows = frame_signal(record, spec)[0]  # (T, frame_length)
    hann = np.hanning(config.frame_length)
    power = np.abs(np.fft.rfft(windows * hann, n=config.fft_size, axis=-1)) ** 2
    bank = mel_filterbank(config.n_filters, config.fft_size, config.sample_rate_hz)
    energies = power @ bank.weights.T
    log_mel = np.log(np.maximum(energies, config.log_floor))
    coeffs = log_mel @ _dct_matrix(Modality.MFCC13.dim, config.n_filters).T
    return FeatureSequence(coeffs, FEATURE_RATE_HZ, Modality.MFCC13, utterance_id)


def fuse(mfcc: FeatureSequence, eeg_reduced: FeatureSequence) -> FeatureSequence:
    """Frame-wise [MFCC13 | EEG30] concatenation, truncated to the shorter stream."""
    if mfcc.modality is not Modality.MFCC13 or eeg_reduced.modality is not Modality.EEG30:
        raise AlignmentError(
            f"fuse needs (MFCC13, EEG30), got ({mfcc.modality.name}, {eeg_reduced.modality.name})"
        )
    if mfcc.utterance_id != eeg_reduced.utterance_id:
        raise AlignmentError(
            f"utterance mismatch: {mfcc.utterance_id!r} vs {eeg_reduced.utterance_id!r}"
        )
    if mfcc.rate_hz != eeg_reduced.rate_hz:
        raise AlignmentError(f"rate mismatch: {mfcc.rate_hz} vs {eeg_reduced.rate_hz}")
    t = min(mfcc.n_frames, eeg_reduced.n_frames)
    fused = np.concatenate([mfcc.frames[:t], eeg_reduced.frames[:t]], axis=1)
    return FeatureSequence(fused, mfcc.rate_hz, Modality.FUSED43, mfcc.utterance_id)


@dataclass(frozen=True)
class FeatureStats:
    """Per-dimension mean/std computed from the training partition only."""

    mean: np.ndarray
    std: np.ndarray
    modality: Modality

    STD_FLOOR = 1e-8


def compute_feature_stats(sequences: list[FeatureSequence]) -> FeatureStats:
    if not sequences:
        raise InputError("cannot compute stats from an empty sequence list")
    modality = sequences[0].modality
    stacked = np.concatenate([s.frames.astype(np.float64) for s in sequences], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    return FeatureStats(mean=mean, std=std, modality=modality)


def normalize_features(stats: FeatureStats, seq: FeatureSequence) -> FeatureSequence:
    """Z-score with training statistics; constant dimensions map to zero."""
    if seq.modality is not stats.modality:
        raise AlignmentError(
            f"stats are for {stats.modality.name}, sequence is {seq.modality.name}"
        )
    denom = np.maximum(stats.std, FeatureStats.STD_FLOOR)
    frames = (seq.frames.astype(np.float64) - stats.mean) / denom
    return FeatureSequence(frames, seq.rate_hz, seq.modality, seq.utterance_id)
