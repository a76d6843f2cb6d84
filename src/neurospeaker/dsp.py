"""IIR filter design and application for EEG conditioning, plus framing.

Designs are built from first principles: analog Butterworth prototype,
low-pass-to-band-pass transform, bilinear mapping with frequency pre-warping,
and pairing into stable second-order sections. Application is causal
(single-pass, transposed direct form II) and row-wise, and runs the compiled
loop behind ``scipy.signal.sosfilt``; each row's output is the same as if it
were filtered alone. The pipeline filters each recording once, through one
cascade of the band-pass sections followed by the notch section; the same
loop (``_filter_rows``) runs the synthetic corpus's resonators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SignalRecord, _scipy_extension
from .errors import FilterDesignError, InputError


@dataclass(frozen=True)
class BiquadSection:
    """One second-order section with a0 normalized to 1."""

    b0: float
    b1: float
    b2: float
    a1: float
    a2: float


@dataclass(frozen=True)
class BiquadCascade:
    sections: tuple[BiquadSection, ...]

    def response(self, freqs_hz, sample_rate_hz: float) -> np.ndarray:
        """Complex frequency response H(e^{j omega}) evaluated from the coefficients."""
        w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / sample_rate_hz
        z1 = np.exp(-1j * w)
        z2 = z1 * z1
        h = np.ones_like(z1, dtype=np.complex128)
        for s in self.sections:
            h *= (s.b0 + s.b1 * z1 + s.b2 * z2) / (1.0 + s.a1 * z1 + s.a2 * z2)
        return h


@dataclass(frozen=True)
class FrameSpec:
    """Analysis framing: window of ``frame_length`` samples every ``hop_length``."""

    frame_length: int
    hop_length: int

    def __post_init__(self):
        if not 0 < self.hop_length <= self.frame_length:
            raise InputError(
                f"need 0 < hop ({self.hop_length}) <= frame ({self.frame_length})"
            )

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.frame_length:
            raise InputError(
                f"signal of {n_samples} samples shorter than one {self.frame_length}-sample frame"
            )
        return 1 + (n_samples - self.frame_length) // self.hop_length


def _prewarp(freq_hz: float, fs: float) -> float:
    """Analog frequency (rad/s) that the bilinear transform maps to freq_hz."""
    return 2.0 * fs * math.tan(math.pi * freq_hz / fs)


def _pair_conjugates(roots: np.ndarray) -> list[tuple[complex, complex]]:
    """Group roots into conjugate (or real) pairs for section building."""
    roots = list(roots)
    complex_roots = sorted(
        (r for r in roots if abs(r.imag) > 1e-12 * max(1.0, abs(r))),
        key=lambda r: (r.real, abs(r.imag)),
    )
    real_roots = sorted((r for r in roots if abs(r.imag) <= 1e-12 * max(1.0, abs(r))), key=lambda r: r.real)
    pairs: list[tuple[complex, complex]] = []
    used = [False] * len(complex_roots)
    for i, r in enumerate(complex_roots):
        if used[i] or r.imag < 0:
            continue
        # find its conjugate
        best, best_d = None, None
        for j in range(len(complex_roots)):
            if j == i or used[j] or complex_roots[j].imag > 0:
                continue
            d = abs(complex_roots[j] - r.conjugate())
            if best is None or d < best_d:
                best, best_d = j, d
        if best is None:
            raise FilterDesignError("complex pole without conjugate partner")
        used[i] = used[best] = True
        pairs.append((r, complex_roots[best]))
    for k in range(0, len(real_roots) - 1, 2):
        pairs.append((real_roots[k], real_roots[k + 1]))
    if len(real_roots) % 2:
        raise FilterDesignError("odd number of real poles cannot form biquads")
    return pairs


def design_bandpass(order: int, low_hz: float, high_hz: float, sample_rate_hz: float) -> BiquadCascade:
    """Butterworth band-pass of the given overall order as biquad sections.

    ``order`` counts poles of the final band-pass (must be even); the analog
    prototype has order/2 poles. Edge frequencies are pre-warped so the
    digital -3 dB points land on ``low_hz`` and ``high_hz``.
    """
    nyquist = sample_rate_hz / 2.0
    if not 0 < low_hz < high_hz < nyquist:
        raise FilterDesignError(
            f"need 0 < low ({low_hz}) < high ({high_hz}) < Nyquist ({nyquist})"
        )
    if order < 2 or order % 2:
        raise FilterDesignError(f"band-pass order must be even and >= 2, got {order}")
    n_proto = order // 2

    wl = _prewarp(low_hz, sample_rate_hz)
    wh = _prewarp(high_hz, sample_rate_hz)
    w0 = math.sqrt(wl * wh)
    bw = wh - wl

    # Butterworth prototype poles on the unit circle, left half-plane.
    proto = [
        np.exp(1j * math.pi * (2 * k + n_proto + 1) / (2 * n_proto))
        for k in range(n_proto)
    ]
    # Low-pass -> band-pass: each prototype pole spawns the roots of
    # s^2 - (bw p) s + w0^2.
    analog_poles = []
    for p in proto:
        disc = np.sqrt((bw * p) ** 2 - 4.0 * w0 * w0)
        analog_poles.append((bw * p + disc) / 2.0)
        analog_poles.append((bw * p - disc) / 2.0)

    fs2 = 2.0 * sample_rate_hz
    digital_poles = np.array([(fs2 + s) / (fs2 - s) for s in analog_poles])
    if np.any(np.abs(digital_poles) >= 1.0):
        raise FilterDesignError("design produced an unstable pole")

    # n_proto zeros at z=+1 (from s=0) and n_proto at z=-1 (from s=inf):
    # every section carries the numerator (z-1)(z+1) = z^2 - 1.
    sections = []
    for p, q in _pair_conjugates(digital_poles):
        a1 = float(-(p + q).real)
        a2 = float((p * q).real)
        sections.append(BiquadSection(b0=1.0, b1=0.0, b2=-1.0, a1=a1, a2=a2))

    cascade = BiquadCascade(tuple(sections))
    # Normalize to unit gain at the (digital) center frequency.
    f_center = sample_rate_hz / math.pi * math.atan(w0 / fs2)
    gain = abs(cascade.response([f_center], sample_rate_hz)[0])
    first = cascade.sections[0]
    scaled = BiquadSection(first.b0 / gain, first.b1 / gain, first.b2 / gain, first.a1, first.a2)
    return BiquadCascade((scaled,) + cascade.sections[1:])


def design_notch(center_hz: float, quality: float, sample_rate_hz: float) -> BiquadCascade:
    """Single-biquad notch with unit passband gain and a zero at ``center_hz``."""
    nyquist = sample_rate_hz / 2.0
    if not 0 < center_hz < nyquist:
        raise FilterDesignError(f"notch center {center_hz} must lie below Nyquist {nyquist}")
    if quality <= 0:
        raise FilterDesignError(f"quality must be positive, got {quality}")
    w0 = 2.0 * math.pi * center_hz / sample_rate_hz
    alpha = math.sin(w0) / (2.0 * quality)
    a0 = 1.0 + alpha
    section = BiquadSection(
        b0=1.0 / a0,
        b1=-2.0 * math.cos(w0) / a0,
        b2=1.0 / a0,
        a1=-2.0 * math.cos(w0) / a0,
        a2=(1.0 - alpha) / a0,
    )
    return BiquadCascade((section,))


def apply_filter(cascade: BiquadCascade, signal: SignalRecord) -> SignalRecord:
    """Causal filtering of each channel independently (``_filter_rows``),
    zero initial state; output length equals input length."""
    if signal.n_samples == 0:
        raise InputError("cannot filter an empty signal")
    return SignalRecord(signal.sample_rate_hz, _filter_rows(cascade.sections, signal.samples))


def _filter_rows(sections: tuple[BiquadSection, ...], rows: np.ndarray) -> np.ndarray:
    """``sections`` run over each row of (rows, n) ``rows`` from zero state.

    The compiled loop behind ``scipy.signal.sosfilt`` (``scipy.signal._sosfilt``,
    loaded by ``core._scipy_extension``) runs in place on a C-contiguous
    float64 copy. Each sample takes y = b0*x + s1, s1' = (b1*x - a1*y) + s2
    and s2' = b2*x - a2*y, in that order, so a row's output does not depend
    on which other rows share the call.
    """
    sos = np.array([[s.b0, s.b1, s.b2, 1.0, s.a1, s.a2] for s in sections])
    y = np.array(rows, dtype=np.float64, order="C")
    _scipy_extension("scipy.signal._sosfilt")._sosfilt(sos, y, np.zeros((len(y), len(sos), 2)))
    return y


def frame_signal(signal: SignalRecord, spec: FrameSpec) -> np.ndarray:
    """Slice each channel into overlapping frames: (channels, n_frames, frame_length)."""
    n = spec.n_frames(signal.n_samples)
    windows = np.lib.stride_tricks.sliding_window_view(
        signal.samples, spec.frame_length, axis=1
    )[:, :: spec.hop_length, :]
    return np.ascontiguousarray(windows[:, :n, :])
