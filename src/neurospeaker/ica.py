"""Blind source separation for automated EEG artifact removal.

Replaces an interactive component-selection workflow with a deterministic
chain: eigenvalue whitening, symmetric fixed-point FastICA (log-cosh
contrast), threshold-based component rejection, and inverse reconstruction
with rejected components zeroed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SignalRecord
from .errors import DegenerateInputError, InputError, NumericError
from .features import excess_kurtosis

RANK_TOL = 1e-10  # relative eigenvalue floor for the covariance


@dataclass
class IcaModel:
    """Whitening plus (once fitted) an orthonormal unmixing rotation."""

    whitening_matrix: np.ndarray  # (C, C)
    dewhitening_matrix: np.ndarray  # (C, C), inverse of the whitening map
    mean_vector: np.ndarray  # (C,)
    n_components: int
    unmixing_matrix: np.ndarray | None = None  # (n_components, C), orthonormal rows
    converged: bool = False
    n_iterations: int = 0


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
    thresholds: ArtifactThresholds = field(default_factory=ArtifactThresholds)

    @property
    def n_components(self) -> int:
        return len(self.kurtosis)

    def rows(self) -> list[tuple[int, float, float, float, bool]]:
        return [
            (
                i,
                float(self.kurtosis[i]),
                float(self.lowfreq_ratio[i]),
                float(self.max_amplitude_z[i]),
                i in self.rejected,
            )
            for i in range(self.n_components)
        ]

def whiten(eeg: SignalRecord) -> tuple[IcaModel, SignalRecord]:
    """Zero-mean, identity-covariance transform of a multichannel record.

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
            f"rank-deficient covariance; channels {eeg.channel_labels[a]!r} and "
            f"{eeg.channel_labels[b]!r} are linearly dependent"
        )
    inv_root = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T
    root = eigvecs @ np.diag(eigvals**0.5) @ eigvecs.T
    model = IcaModel(
        whitening_matrix=inv_root,
        dewhitening_matrix=root,
        mean_vector=mean,
        n_components=n_ch,
    )
    whitened = SignalRecord(
        sample_rate_hz=eeg.sample_rate_hz,
        samples=inv_root @ centered,
        channel_labels=eeg.channel_labels,
    )
    return model, whitened


def _symmetric_decorrelation(w: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(w @ w.T)
    return eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T @ w


def fit_fastica(
    whitened: SignalRecord,
    n_components: int | None = None,
    max_iter: int = 200,
    tol: float = 1e-5,
    rng: np.random.Generator | None = None,
    base: IcaModel | None = None,
) -> IcaModel:
    """Symmetric fixed-point FastICA with the log-cosh contrast.

    Operates on already-whitened data. Non-convergence within ``max_iter`` is
    reported through ``converged`` rather than raised. When ``base`` (the
    partial model from :func:`whiten`) is given, its whitening and mean are
    folded into the returned model so it can reconstruct raw-signal space.
    """
    if rng is None:
        raise InputError("fit_fastica requires an explicit rng")
    z = whitened.samples
    n_ch, n_samples = z.shape
    if n_components is None:
        n_components = n_ch
    if n_components > n_ch:
        raise InputError(f"n_components {n_components} exceeds channels {n_ch}")

    w = _symmetric_decorrelation(rng.standard_normal((n_components, n_ch)))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        projections = w @ z  # (n_components, T)
        g = np.tanh(projections)
        g_prime_mean = np.mean(1.0 - g * g, axis=1)
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

    if base is not None:
        model = IcaModel(
            whitening_matrix=base.whitening_matrix,
            dewhitening_matrix=base.dewhitening_matrix,
            mean_vector=base.mean_vector,
            n_components=n_components,
            unmixing_matrix=w,
            converged=converged,
            n_iterations=iterations,
        )
    else:
        eye = np.eye(n_ch)
        model = IcaModel(
            whitening_matrix=eye,
            dewhitening_matrix=eye.copy(),
            mean_vector=np.zeros(n_ch),
            n_components=n_components,
            unmixing_matrix=w,
            converged=converged,
            n_iterations=iterations,
        )
    return model


def fit_ica(
    eeg: SignalRecord,
    n_components: int | None = None,
    max_iter: int = 200,
    tol: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> IcaModel:
    """Whiten and fit in one step; components = channels unless reduced."""
    partial, whitened = whiten(eeg)
    return fit_fastica(whitened, n_components, max_iter, tol, rng, base=partial)


def sources(model: IcaModel, eeg: SignalRecord) -> SignalRecord:
    """Estimated independent components of a raw-space record."""
    if model.unmixing_matrix is None:
        raise InputError("model has no unmixing matrix; fit it first")
    centered = eeg.samples - model.mean_vector[:, None]
    comps = model.unmixing_matrix @ model.whitening_matrix @ centered
    labels = tuple(f"ic{i:02d}" for i in range(comps.shape[0]))
    return SignalRecord(eeg.sample_rate_hz, comps, labels)


def score_and_reject(
    model: IcaModel,
    components: SignalRecord,
    thresholds: ArtifactThresholds = ArtifactThresholds(),
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
        kurtosis=kurt,
        lowfreq_ratio=ratio,
        max_amplitude_z=max_z,
        rejected=rejected,
        thresholds=thresholds,
    )


def reconstruct_clean(
    model: IcaModel, components: SignalRecord, report: ArtifactReport
) -> SignalRecord:
    """Inverse transform with the rejected components zeroed out."""
    if model.unmixing_matrix is None:
        raise InputError("model has no unmixing matrix; fit it first")
    bad = sorted(report.rejected)
    if any(i < 0 or i >= components.channels for i in bad):
        raise InputError(f"rejected indices {bad} outside 0..{components.channels - 1}")
    kept = components.samples.copy()
    if bad:
        kept[bad, :] = 0.0
    # Unmixing U = W_rot @ W_white has pseudo-inverse W_dewhite @ W_rot^T
    # because the rotation rows are orthonormal.
    mixing = model.dewhitening_matrix @ model.unmixing_matrix.T
    restored = mixing @ kept + model.mean_vector[:, None]
    labels = tuple(f"ch{i:02d}" for i in range(restored.shape[0]))
    return SignalRecord(components.sample_rate_hz, restored, labels)
