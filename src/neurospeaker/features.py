"""Frame-level feature extraction for both modalities and frame-aligned fusion.

EEG: five statistics per channel per frame (RMS, zero-crossing rate, moving
window average, excess kurtosis, normalized power spectral entropy), giving
155 dimensions for a 31-channel montage, computed a few channels at a time.
Each signal is read once for the zero crossings (one prefix sum of sign
changes per channel) and once for the spectra (one FFT per distinct
half-frame segment start, shared by the frames that overlap it). Audio: a
standard 13-coefficient MFCC front end. Both streams run at a 100 Hz frame
rate, a hop of ``EEG_HOP`` samples of 1 kHz EEG or ``AUDIO_HOP`` of 16 kHz
audio; ``check_recording`` is the one rule for a recording they can be cut from.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import SignalRecord
from .dsp import FrameSpec, frame_signal
from .errors import AlignmentError, DimensionError, InputError, NumericError

EEG_CHANNELS = 31
EEG_FEATURES_PER_CHANNEL = 5
FEATURE_RATE_HZ = 100
AUDIO_RATE_HZ = 16_000  # the one audio rate the MFCC front end reads
EEG_RATE_HZ = 1_000  # the one EEG rate the filters are designed for
EEG_HOP = EEG_RATE_HZ // FEATURE_RATE_HZ  # samples between frames: 10
AUDIO_HOP = AUDIO_RATE_HZ // FEATURE_RATE_HZ  # 160
# The recordings the chain reads: kind -> (rate, channels, window name).
RECORDINGS = {"EEG": (EEG_RATE_HZ, EEG_CHANNELS, "window"), "audio": (AUDIO_RATE_HZ, 1, "MFCC window")}
MFCC_LOG_FLOOR = 1e-10  # mel energies are floored here before the log
MOVING_WINDOW = 10  # samples per sub-window of the moving-window average
# Channels whose EEG155 statistics are computed together: at 2,000 samples a
# block's (channels, frames, frame_length) windows take 0.6 MB, not 4.7 MB.
EEG_CHANNEL_BLOCK = 4


class Modality(enum.IntEnum):
    """Feature stream identity; the integer value is the on-disk code."""

    MFCC13 = 0
    EEG155 = 1
    EEG30 = 2
    FUSED43 = 3

    @property
    def sources(self) -> tuple[Modality, ...]:
        """The streams this one is built from, in fused column order: FUSED43
        is MFCC13 then EEG30, frame by frame; any other stream is its own."""
        return (Modality.MFCC13, Modality.EEG30) if self is Modality.FUSED43 else (self,)

    @property
    def dim(self) -> int:
        return sum(_STREAM_DIMS[m] for m in self.sources)


_STREAM_DIMS = {
    Modality.MFCC13: 13,
    Modality.EEG155: EEG_CHANNELS * EEG_FEATURES_PER_CHANNEL,
    Modality.EEG30: 30,
}


@dataclass
class FeatureSequence:
    """Time-major frame matrix (T x D, T >= 1) at ``FEATURE_RATE_HZ`` with a
    modality tag."""

    frames: np.ndarray
    modality: Modality
    utterance_id: str

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2:
            raise InputError("frames must be a 2-D (time x dim) array")
        if self.frames.shape[0] < 1:
            raise InputError(f"no frames in utterance {self.utterance_id!r}")
        if self.frames.shape[1] != self.modality.dim:
            raise DimensionError(
                f"{self.modality.name} expects {self.modality.dim} dims, "
                f"got {self.frames.shape[1]}"
            )
        if not np.all(np.isfinite(self.frames)):
            raise InputError(f"non-finite features in utterance {self.utterance_id!r}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def excess_kurtosis(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variance, liveness (variance above 1e-30) and excess kurtosis
    m4 / var^2 - 3 along the last axis of zero-mean data; the kurtosis of a
    constant signal is 0.

    The fourth power is the square of the square: ``centered**4`` would send
    every element to libm ``pow``, an order of magnitude slower.
    """
    sq = centered * centered
    var = np.mean(sq, axis=-1)
    live = var > 1e-30
    kurtosis = np.zeros_like(var)
    np.divide(np.mean(sq * sq, axis=-1), var * var, out=kurtosis, where=live)
    return var, live, np.where(live, kurtosis - 3.0, 0.0)


def check_recording(record: SignalRecord, kind: str, window: int, utterance_id: str) -> None:
    """Reject, naming the utterance, a ``kind`` recording (``"EEG"`` or
    ``"audio"``, bound in ``RECORDINGS``) its features cannot be cut from:
    another channel count, then another rate, then fewer than ``window``
    samples."""
    rate_hz, channels, window_name = RECORDINGS[kind]
    name = f"utterance {utterance_id!r}"
    if record.channels != channels:
        raise DimensionError(f"{name} has {record.channels} {kind} channels, not {channels}")
    if record.sample_rate_hz != rate_hz:
        raise InputError(f"{name} has {record.sample_rate_hz:g} Hz {kind}, not {rate_hz} Hz")
    if record.n_samples < window:
        raise InputError(
            f"{name} has {record.n_samples} {kind} samples, fewer than one "
            f"{window}-sample {window_name}"
        )


def _zero_crossings(x: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """(C, T) sign changes inside each ``length``-sample window of (C, N) ``x``.

    One indicator per adjacent sample pair (a zero sample has no sign, so
    its pairs never count), prefix-summed once per channel; a window's count
    is the difference of two prefix sums.
    """
    signs = np.sign(x)
    prefix = np.zeros(x.shape, dtype=np.int64)
    np.cumsum(signs[:, 1:] * signs[:, :-1] < 0, axis=1, dtype=np.int64, out=prefix[:, 1:])
    return prefix[:, starts + length - 1] - prefix[:, starts]


def _welch_psd(x: np.ndarray, starts: np.ndarray, length: int) -> np.ndarray:
    """(C, T, F) Welch-style PSD of each ``length``-sample window: half-frame
    rectangular segments at 50 % overlap, their power spectra summed.

    Neighbouring windows share segments, so each distinct segment start is
    transformed once and its power gathered into every window that holds it.
    """
    seg = max(2, length // 2)
    hop = max(1, seg // 2)
    offsets = np.arange(0, length - seg + 1, hop)
    distinct, which = np.unique(starts[:, None] + offsets[None, :], return_inverse=True)
    which = which.reshape(len(starts), len(offsets))
    segments = np.lib.stride_tricks.sliding_window_view(x, seg, axis=1)[:, distinct]
    power = np.abs(np.fft.rfft(segments, axis=-1)) ** 2  # (C, U, F)
    psd = power[:, which[:, 0]]
    for j in range(1, len(offsets)):
        psd += power[:, which[:, j]]
    return psd


def extract_eeg_features(
    clean_eeg: SignalRecord,
    frame_length: int = 100,
    utterance_id: str = "",
) -> FeatureSequence:
    """Per-frame concatenation of the five features over all 31 channels (155 dims),
    from ``frame_length``-sample windows every ``EEG_HOP`` samples of 1 kHz
    EEG that passes ``check_recording``.

    Per channel and frame: [RMS, zero-crossing rate, moving-window average,
    excess kurtosis, normalized spectral entropy]. Zero-variance frames report
    kurtosis 0 and entropy 0 by convention. Every statistic is per channel,
    so channels are taken ``EEG_CHANNEL_BLOCK`` at a time and the working
    arrays stay a fraction of the recording's size.
    """
    check_recording(clean_eeg, "EEG", frame_length, utterance_id)
    spec = FrameSpec(frame_length, EEG_HOP)
    n_frames = spec.n_frames(clean_eeg.n_samples)
    feats = np.empty((n_frames, EEG_CHANNELS, EEG_FEATURES_PER_CHANNEL))
    for lo in range(0, EEG_CHANNELS, EEG_CHANNEL_BLOCK):
        block = SignalRecord(
            clean_eeg.sample_rate_hz, clean_eeg.samples[lo : lo + EEG_CHANNEL_BLOCK]
        )
        _channel_features(block, spec, feats[:, lo : lo + EEG_CHANNEL_BLOCK])
    frames = feats.reshape(n_frames, -1)
    return FeatureSequence(frames, Modality.EEG155, utterance_id)


def _channel_features(eeg: SignalRecord, spec: FrameSpec, out: np.ndarray) -> None:
    """The five statistics of every channel of ``eeg`` into (T, C, 5) ``out``.

    Zero crossings and segment spectra are read from the (C, N) signal; the
    other three statistics from a (C, T, L) copy of the windows.
    """
    x, frame_length = eeg.samples, spec.frame_length
    windows = frame_signal(eeg, spec)  # (C, T, L)
    starts = np.arange(windows.shape[1]) * spec.hop_length

    out[..., 0] = np.sqrt(np.mean(windows * windows, axis=-1)).T
    out[..., 1] = (_zero_crossings(x, starts, frame_length) / frame_length).T

    w = min(MOVING_WINDOW, frame_length)
    csum = np.cumsum(windows, axis=-1)
    win_sums = np.concatenate(
        [csum[..., w - 1 : w], csum[..., w:] - csum[..., : frame_length - w]], axis=-1
    )
    out[..., 2] = np.mean(win_sums / w, axis=-1).T

    _, live, kurtosis = excess_kurtosis(windows - np.mean(windows, axis=-1, keepdims=True))
    out[..., 3] = kurtosis.T

    # Welch-style PSD keeps single-realization entropy close to the
    # flat-spectrum maximum.
    psd = _welch_psd(x, starts, frame_length)
    total = np.sum(psd, axis=-1, keepdims=True)
    p = psd / np.where(total > 0, total, 1.0)
    plogp = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    entropy = -np.sum(plogp, axis=-1) / math.log(psd.shape[-1])
    out[..., 4] = np.where(live, entropy, 0.0).T


@dataclass(frozen=True)
class MfccConfig:
    window_ms: float = 25.0
    fft_size: int = 512
    n_filters: int = 26
    preemphasis: float = 0.97

    def __post_init__(self):
        # What extract_mfcc would reject only after synthesis, rejected here.
        FrameSpec(self.frame_length, AUDIO_HOP)
        if self.fft_size < 1 or self.n_filters < 1:
            raise InputError(
                f"need fft_size >= 1 and n_filters >= 1, got {self.fft_size} and {self.n_filters}"
            )
        mel_filterbank(self.n_filters, self.fft_size, AUDIO_RATE_HZ)

    @property
    def frame_length(self) -> int:
        return int(round(AUDIO_RATE_HZ * self.window_ms / 1000.0))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, fft_size: int, sample_rate_hz: int) -> np.ndarray:
    """(n_filters, fft_size // 2 + 1) triangular mel-scale filter weights over 0..Nyquist."""
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
    return weights


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
    """13 mel-frequency cepstral coefficients per 10 ms frame of mono 16 kHz
    audio that passes ``check_recording``."""
    check_recording(audio, "audio", config.frame_length, utterance_id)
    x = audio.samples[0]
    emphasized = np.concatenate([x[:1], x[1:] - config.preemphasis * x[:-1]])
    spec = FrameSpec(config.frame_length, AUDIO_HOP)
    record = SignalRecord(audio.sample_rate_hz, emphasized[np.newaxis, :])
    windows = frame_signal(record, spec)[0]  # (T, frame_length)
    hann = np.hanning(config.frame_length)
    power = np.abs(np.fft.rfft(windows * hann, n=config.fft_size, axis=-1)) ** 2
    bank = mel_filterbank(config.n_filters, config.fft_size, AUDIO_RATE_HZ)
    energies = power @ bank.T
    log_mel = np.log(np.maximum(energies, MFCC_LOG_FLOOR))
    coeffs = log_mel @ _dct_matrix(Modality.MFCC13.dim, config.n_filters).T
    return FeatureSequence(coeffs, Modality.MFCC13, utterance_id)


def fuse(mfcc: FeatureSequence, eeg_reduced: FeatureSequence) -> FeatureSequence:
    """Frame-wise concatenation of ``Modality.FUSED43.sources`` (MFCC13, then
    EEG30), truncated to the shorter stream."""
    found = (mfcc.modality, eeg_reduced.modality)
    if found != Modality.FUSED43.sources:
        need, got = (", ".join(m.name for m in pair) for pair in (Modality.FUSED43.sources, found))
        raise AlignmentError(f"fuse needs ({need}), got ({got})")
    if mfcc.utterance_id != eeg_reduced.utterance_id:
        raise AlignmentError(
            f"utterance mismatch: {mfcc.utterance_id!r} vs {eeg_reduced.utterance_id!r}"
        )
    t = min(mfcc.n_frames, eeg_reduced.n_frames)
    fused = np.concatenate([mfcc.frames[:t], eeg_reduced.frames[:t]], axis=1)
    return FeatureSequence(fused, Modality.FUSED43, mfcc.utterance_id)


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
    """Z-score with training statistics; constant dimensions map to zero.
    Finite frames whose z-scores leave float32 range raise ``NumericError``."""
    if seq.modality is not stats.modality:
        raise AlignmentError(
            f"stats are for {stats.modality.name}, sequence is {seq.modality.name}"
        )
    denom = np.maximum(stats.std, FeatureStats.STD_FLOOR)
    with np.errstate(over="ignore"):  # an overflow is reported below
        frames = ((seq.frames.astype(np.float64) - stats.mean) / denom).astype(np.float32)
    if not np.all(np.isfinite(frames)):
        raise NumericError(
            f"z-scoring utterance {seq.utterance_id!r}'s {seq.modality.name} frames "
            f"leaves float32 range"
        )
    return FeatureSequence(frames, seq.modality, seq.utterance_id)
