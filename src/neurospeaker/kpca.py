"""Kernel principal component analysis for EEG feature denoising (155 -> 30).

The fit eigendecomposes the double-centered Gram matrix; centering statistics
are kept so out-of-sample vectors map consistently with the training
projections. Every kernel matrix starts as one ``x @ y.T`` product, and the
kernel's elementwise step (poly: ``+ coef0`` then ``** degree``; RBF: the
squared-norm terms, ``max(., 0)``, ``* -gamma``, ``exp``) overwrites it in
place, a band of rows at a time. The step of each element reads only that
element, so the fit spreads the Gram matrix's bands over the usable CPUs
(``core._ordered_map``) with the bits of one serial pass; ``transform_frames``
applies the step serially and starts no thread, so callers may map over it.
The product itself is never split, because a row band's product need not
carry the full product's bits.

The Gram matrix and each transform block are centred in place, in the order
``- column means, - row means, + total mean``, so no n x n copy is made
beside the kernel matrix itself. The eigensolve runs in place too, and is
the one step of the fit that runs on one CPU: the centred Gram's lower
triangle is mirrored onto its upper one, and scipy's LAPACK ``dsyevd`` (one
OpenBLAS thread) overwrites the Fortran-ordered buffer with the eigenvectors.
The fit therefore holds the one n x n matrix plus LAPACK's 2 n^2 workspace,
about 3.5 n^2 doubles at its peak against about 5.4 n^2 for
``np.linalg.eigh``, which copies its input and allocates its output; the
bits are those ``np.linalg.eigh`` gives on the same matrix. ``dsyevd`` is
reached through ``scipy.linalg.cython_lapack``, which the first fit loads
from its own file (``core._scipy_extension``) without importing
``scipy.linalg``, and called with ``ctypes``, which releases the GIL for
the call (``scipy.linalg.eigh``'s f2py wrapper holds it), so other Python
threads run beside the solve; a pointer whose
exported prototype is not ``dsyevd``'s is refused, and a nonzero LAPACK
``info`` raises ``NumericError``.
Eigenvalues are reported in variance units (Gram eigenvalues divided by n),
so the projected training variance of component j equals ``eigenvalues[j]``
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _ordered_map, _pin_blas, _scipy_extension
from .errors import DimensionError, InputError, NumericError, ReducedRankError

EIGENVALUE_REL_TOL = 1e-9  # positive-eigenvalue cutoff relative to the largest
TRANSFORM_CHUNK_ROWS = 4096  # query rows per kernel block in transform_frames
MIRROR_TILE_ROWS = 256  # rows per band when the Gram's lower triangle is mirrored
GRAM_BAND_ROWS = 128  # rows per map item when the fit applies the kernel step
# The prototype under which scipy.linalg.cython_lapack exports dsyevd.
DSYEVD_PROTOTYPE = "void (char *, char *, int *, {d}, int *, {d}, {d}, int *, int *, int *, int *)".format(
    d="__pyx_t_5scipy_6linalg_13cython_lapack_d *"
)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and parameters: linear, polynomial, or RBF."""

    kind: str = "poly"
    degree: int = 3
    coef0: float = 1.0
    gamma: float = 0.0  # RBF width; 0 means 1/dim at evaluation

    def __post_init__(self):
        if self.kind not in ("linear", "poly", "rbf"):
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "poly" and self.degree < 1:
            raise InputError(f"polynomial degree must be >= 1, got {self.degree}")
        if self.gamma < 0:
            raise InputError(f"gamma must be >= 0, got {self.gamma}")


def _kernel_step(spec: KernelSpec, x: np.ndarray, y: np.ndarray):
    """The kernel's elementwise step on ``k = x @ y.T``: a function that
    overwrites the rows ``rows`` (a slice) of ``k`` with the kernel values,
    or None for the linear kernel, whose values are the product."""
    if spec.kind == "linear":
        return None
    if spec.kind == "poly":
        def step(k: np.ndarray, rows: slice) -> None:
            band = k[rows]
            band += spec.coef0
            np.power(band, spec.degree, out=band)

        return step
    gamma = spec.gamma or 1.0 / x.shape[1]
    x_sq = np.sum(x * x, axis=1)[:, None]
    y_sq = np.sum(y * y, axis=1)[None, :]

    def step(k: np.ndarray, rows: slice) -> None:
        # |x|^2 - 2 x.y + |y|^2, in that order; -2 x.y added is 2 x.y subtracted.
        band = k[rows]
        band *= -2.0
        band += x_sq[rows]
        band += y_sq
        np.maximum(band, 0.0, out=band)
        band *= -gamma
        np.exp(band, out=band)

    return step


def kernel_matrix(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[1] != y.shape[1]:
        raise DimensionError(f"kernel inputs disagree: {x.shape[1]} vs {y.shape[1]} dims")
    k = x @ y.T
    step = _kernel_step(spec, x, y)
    if step is not None:
        step(k, slice(None))
    return k


@dataclass
class KpcaModel:
    support_vectors: np.ndarray  # (n, d) training frames the kernel is evaluated against
    kernel: KernelSpec
    alphas: np.ndarray  # (n, m) eigenvector columns scaled by 1/sqrt(gram eigenvalue)
    eigenvalues: np.ndarray  # (m,) descending, variance units (gram / n)
    row_means: np.ndarray  # (n,) per-column means of the uncentered training Gram
    total_mean: float
    total_positive_mass: float  # sum of ALL positive eigenvalues (variance units)

    @property
    def n_components(self) -> int:
        return self.alphas.shape[1]

    @property
    def input_dim(self) -> int:
        return self.support_vectors.shape[1]


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of square ``a`` onto its upper triangle,
    in place, one band of ``MIRROR_TILE_ROWS`` rows at a time."""
    n = a.shape[0]
    for start in range(0, n, MIRROR_TILE_ROWS):
        stop = min(start + MIRROR_TILE_ROWS, n)
        a[:start, start:stop] = a[start:stop, :start].T
        block = a[start:stop, start:stop]
        rows, cols = np.triu_indices(stop - start, 1)
        block[rows, cols] = block[cols, rows]


def _dsyevd(a: np.ndarray) -> np.ndarray:
    """LAPACK ``dsyevd`` on the Fortran-ordered square ``a``, in place: reads
    its lower triangle, leaves the eigenvectors in its columns, and returns
    the eigenvalues in ascending order. The workspace is the size LAPACK's
    own query gives, as ``scipy.linalg.eigh`` asks for."""
    import ctypes

    cython_lapack = _scipy_extension("scipy.linalg.cython_lapack")
    _pin_blas(cython_lapack.__file__, "")
    api = ctypes.pythonapi
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    capsule = cython_lapack.__pyx_capi__["dsyevd"]
    name = capsule_name(capsule)
    if name != DSYEVD_PROTOTYPE.encode():
        raise NumericError(
            f"scipy.linalg.cython_lapack exports dsyevd as {name.decode()!r}, not as "
            f"{DSYEVD_PROTOTYPE!r}; refusing to call it"
        )
    int_p, ptr = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    # A CFUNCTYPE call releases the GIL until the routine returns.
    dsyevd = ctypes.CFUNCTYPE(
        None, ctypes.c_char_p, ctypes.c_char_p, int_p, ptr, int_p, ptr, ptr, int_p, ptr, int_p, int_p
    )(capsule_pointer(capsule, name))

    n = a.shape[0]
    w = np.empty(n)
    size, info = ctypes.c_int(n), ctypes.c_int(0)

    def call(work: np.ndarray, lwork: int, iwork: np.ndarray, liwork: int) -> None:
        dsyevd(
            b"V", b"L", ctypes.byref(size), a.ctypes.data, ctypes.byref(size), w.ctypes.data,
            work.ctypes.data, ctypes.byref(ctypes.c_int(lwork)),
            iwork.ctypes.data, ctypes.byref(ctypes.c_int(liwork)), ctypes.byref(info),
        )
        if info.value != 0:
            raise NumericError(
                f"LAPACK dsyevd failed on the {n} x {n} centred kernel matrix "
                f"(n = {n}, info = {info.value})"
            )

    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    call(work, -1, iwork, -1)  # workspace query: the sizes land in work[0], iwork[0]
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.intc), liwork)
    return w


def fit_kpca(x: np.ndarray, kernel: KernelSpec, n_components: int) -> KpcaModel:
    """Fit on training frames; raises a reduced-rank error when the centered
    Gram matrix has fewer positive eigenvalues than requested components."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InputError("fit_kpca expects a 2-D (frames x dims) array")
    n = x.shape[0]
    if n <= n_components:
        raise InputError(f"need more than {n_components} frames, got {n}")
    if not np.all(np.isfinite(x)):
        raise InputError("fit_kpca input contains non-finite values")

    gram = x @ x.T
    step = _kernel_step(kernel, x, x)
    if step is not None:
        bands = [slice(start, start + GRAM_BAND_ROWS) for start in range(0, n, GRAM_BAND_ROWS)]
        _ordered_map(lambda rows: step(gram, rows), bands)
    row_means = gram.mean(axis=0)
    total_mean = float(gram.mean())
    gram -= row_means[None, :]
    gram -= row_means[:, None]
    gram += total_mean
    # The RBF Gram is not symmetric bit for bit; the lower triangle is the
    # one the solve is defined on.
    _mirror_lower(gram)

    # gram.T is the same buffer in Fortran order: dsyevd reads its lower
    # triangle and overwrites the buffer with the eigenvectors, so no n x n
    # copy or output array is made.
    eigvecs = gram.T
    eigvals = _dsyevd(eigvecs)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    positive = eigvals > max(eigvals[0], 0.0) * EIGENVALUE_REL_TOL
    usable = int(np.sum(positive))
    if usable < n_components:
        raise ReducedRankError(
            f"centered kernel matrix supports only {usable} components, "
            f"{n_components} requested",
            usable=usable,
        )
    lead_vals = eigvals[:n_components]
    lead_vecs = eigvecs[:, :n_components]
    alphas = lead_vecs / np.sqrt(lead_vals)[None, :]
    return KpcaModel(
        support_vectors=x.copy(),
        kernel=kernel,
        # Fortran-ordered like eigvecs; C order keeps transform's product bits.
        alphas=np.ascontiguousarray(alphas),
        eigenvalues=lead_vals / n,
        row_means=row_means,
        total_mean=total_mean,
        total_positive_mass=float(np.sum(eigvals[positive]) / n),
    )


def transform_frames(model: KpcaModel, x: np.ndarray) -> np.ndarray:
    """Project rows of ``x`` onto the retained components: (T, d) -> (T, m)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise DimensionError(
            f"expected (*, {model.input_dim}) input, got {x.shape}"
        )
    out = np.empty((x.shape[0], model.n_components))
    for start in range(0, x.shape[0], TRANSFORM_CHUNK_ROWS):
        block = x[start : start + TRANSFORM_CHUNK_ROWS]
        k = kernel_matrix(model.kernel, block, model.support_vectors)
        block_means = k.mean(axis=1, keepdims=True)
        k -= model.row_means[None, :]
        k -= block_means
        k += model.total_mean
        out[start : start + TRANSFORM_CHUNK_ROWS] = k @ model.alphas
    return out


def training_projections(model: KpcaModel) -> np.ndarray:
    """Fitted projections of the support vectors themselves, (n, m)."""
    return transform_frames(model, model.support_vectors)


def cumulative_explained_variance(model: KpcaModel) -> np.ndarray:
    """Running fraction of positive-eigenvalue mass captured per component."""
    return np.cumsum(model.eigenvalues) / model.total_positive_mass
