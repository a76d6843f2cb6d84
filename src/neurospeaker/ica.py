"""Blind source separation for automated EEG artifact removal.

Replaces an interactive component-selection workflow with a deterministic
chain: eigenvalue whitening, symmetric fixed-point FastICA (log-cosh
contrast) with one component per channel, threshold-based component
rejection, and inverse reconstruction with rejected components zeroed.
:func:`fit_ica` is the one place that builds an :class:`IcaModel`. The
fixed-point loop writes its projections, their ``tanh`` and ``1 - tanh^2``
into two (C, T) buffers allocated once per fit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SignalRecord
from .errors import DegenerateInputError, InputError, NumericError
from .features import excess_kurtosis

RANK_TOL = 1e-10  # relative eigenvalue floor for the covariance


@dataclass
class IcaModel:
    """Whitening and an orthonormal unmixing rotation, one component per channel."""

    whitening_matrix: np.ndarray  # (C, C)
    dewhitening_matrix: np.ndarray  # (C, C), inverse of the whitening map
    mean_vector: np.ndarray  # (C,)
    unmixing_matrix: np.ndarray  # (C, C), orthonormal rows
    converged: bool
    n_iterations: int


@dataclass(frozen=True)
class ArtifactThresholds:
    """Rejection limits; a component failing any one of them is removed."""

    kurtosis: float = 15.0
    lowfreq_ratio: float = 0.7
    lowfreq_cutoff_hz: float = 3.0
    max_amplitude_z: float = 8.0


@dataclass
class ArtifactReport:
    """Per-component scores and the set of rejected component indices."""

    kurtosis: np.ndarray
    lowfreq_ratio: np.ndarray
    max_amplitude_z: np.ndarray
    rejected: frozenset[int]

    def rows(self) -> list[tuple[int, float, float, float, bool]]:
        return [
            (
                i,
                float(self.kurtosis[i]),
                float(self.lowfreq_ratio[i]),
                float(self.max_amplitude_z[i]),
                i in self.rejected,
            )
            for i in range(len(self.kurtosis))
        ]


def whiten(eeg: SignalRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Zero-mean, identity-covariance transform of a multichannel record.

    Returns (whitening matrix, its inverse, channel means, whitened samples).
    Raises a degenerate-input error naming the most correlated channel pair
    when the covariance is rank deficient.
    """
    x = eeg.samples
    n_ch, n_samples = x.shape
    if n_ch < 2:
        raise InputError("whitening needs at least 2 channels")
    if n_samples <= n_ch:
        raise InputError(f"need more samples ({n_samples}) than channels ({n_ch})")
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    cov = centered @ centered.T / n_samples
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] < RANK_TOL * max(eigvals[-1], 1e-300):
        std = np.sqrt(np.maximum(np.diag(cov), 1e-300))
        corr = cov / np.outer(std, std)
        np.fill_diagonal(corr, 0.0)
        i, j = np.unravel_index(np.argmax(np.abs(corr)), corr.shape)
        a, b = sorted((i, j))
        raise DegenerateInputError(
            f"rank-deficient covariance; channels 'ch{a:02d}' and 'ch{b:02d}' "
            "are linearly dependent"
        )
    inv_root = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T
    root = eigvecs @ np.diag(eigvals**0.5) @ eigvecs.T
    return inv_root, root, mean, inv_root @ centered


def _symmetric_decorrelation(w: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(w @ w.T)
    return (eigvecs * eigvals**-0.5) @ eigvecs.T @ w


def fit_fastica(
    z: np.ndarray, rng: np.random.Generator, max_iter: int, tol: float
) -> tuple[np.ndarray, bool, int]:
    """Symmetric fixed-point FastICA with the log-cosh contrast.

    Operates on already-whitened (C, T) samples and returns the (C, C)
    unmixing rotation, whether it converged and the iterations run.
    Non-convergence within ``max_iter`` is reported, not raised.
    """
    n_ch, n_samples = z.shape
    w = _symmetric_decorrelation(rng.standard_normal((n_ch, n_ch)))
    g = np.empty(z.shape)  # projections w @ z, then their tanh
    g_prime = np.empty(z.shape)  # 1 - tanh^2
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        np.matmul(w, z, out=g)
        np.tanh(g, out=g)
        np.multiply(g, g, out=g_prime)
        np.subtract(1.0, g_prime, out=g_prime)
        g_prime_mean = np.mean(g_prime, axis=1)
        w_new = (g @ z.T) / n_samples - g_prime_mean[:, None] * w
        w_new = _symmetric_decorrelation(w_new)
        if not np.all(np.isfinite(w_new)):
            raise NumericError("FastICA iteration produced non-finite weights")
        # Convergence: every row direction is (sign-invariantly) unchanged.
        delta = np.max(np.abs(np.abs(np.sum(w_new * w, axis=1)) - 1.0))
        w = w_new
        if delta < tol:
            converged = True
            break
    return w, converged, iterations


def fit_ica(
    eeg: SignalRecord, rng: np.random.Generator, max_iter: int = 200, tol: float = 1e-5
) -> IcaModel:
    """Whiten and fit in one step; one component per channel."""
    whitening, dewhitening, mean, z = whiten(eeg)
    w, converged, iterations = fit_fastica(z, rng, max_iter, tol)
    return IcaModel(whitening, dewhitening, mean, w, converged, iterations)


def sources(model: IcaModel, eeg: SignalRecord) -> SignalRecord:
    """Estimated independent components of a raw-space record."""
    centered = eeg.samples - model.mean_vector[:, None]
    comps = model.unmixing_matrix @ model.whitening_matrix @ centered
    return SignalRecord(eeg.sample_rate_hz, comps)


def score_and_reject(
    components: SignalRecord, thresholds: ArtifactThresholds = ArtifactThresholds()
) -> ArtifactReport:
    """Score components for blink/drift/EMG signatures and mark rejects.

    A component is rejected iff |excess kurtosis| exceeds the kurtosis limit,
    or the fraction of spectral power below the low-frequency cutoff exceeds
    the ratio limit, or the largest amplitude is too many standard deviations
    from the component mean.
    """
    s = components.samples
    mean = s.mean(axis=1, keepdims=True)
    centered = s - mean
    var, live, kurt = excess_kurtosis(centered)

    psd = np.abs(np.fft.rfft(s, axis=1)) ** 2
    freqs = np.fft.rfftfreq(s.shape[1], d=1.0 / components.sample_rate_hz)
    low = freqs < thresholds.lowfreq_cutoff_hz
    total = psd.sum(axis=1)
    ratio = np.where(total > 0, psd[:, low].sum(axis=1) / np.where(total > 0, total, 1.0), 0.0)

    std = np.sqrt(np.maximum(var, 1e-300))
    max_z = np.where(live, np.max(np.abs(centered), axis=1) / std, 0.0)

    rejected = frozenset(
        int(i)
        for i in range(s.shape[0])
        if abs(kurt[i]) > thresholds.kurtosis
        or ratio[i] > thresholds.lowfreq_ratio
        or max_z[i] > thresholds.max_amplitude_z
    )
    return ArtifactReport(
        kurtosis=kurt, lowfreq_ratio=ratio, max_amplitude_z=max_z, rejected=rejected
    )


def reconstruct_clean(
    model: IcaModel, components: SignalRecord, report: ArtifactReport
) -> np.ndarray:
    """Raw-space (C, T) samples with the rejected components zeroed out."""
    bad = sorted(report.rejected)
    if any(i < 0 or i >= components.channels for i in bad):
        raise InputError(f"rejected indices {bad} outside 0..{components.channels - 1}")
    kept = components.samples.copy()
    if bad:
        kept[bad, :] = 0.0
    # Unmixing U = W_rot @ W_white has pseudo-inverse W_dewhite @ W_rot^T
    # because the rotation rows are orthonormal.
    mixing = model.dewhitening_matrix @ model.unmixing_matrix.T
    return mixing @ kept + model.mean_vector[:, None]
