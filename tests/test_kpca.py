import ctypes
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from neurospeaker import core, kpca
from neurospeaker.core import make_rng
from neurospeaker.errors import DimensionError, InputError, NumericError, ReducedRankError


def pca_oracle_projections(x, n_components):
    """Classical PCA via covariance eigendecomposition, independent of kpca."""
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    return centered @ eigvecs[:, order]


def sign_align(reference, candidate):
    signs = np.sign(np.sum(reference * candidate, axis=0))
    signs[signs == 0] = 1.0
    return candidate * signs


class TestLinearKernelEqualsPca:
    def test_matches_classical_pca(self):
        rng = make_rng(0)
        x = rng.standard_normal((50, 10))
        model = kpca.fit_kpca(x, kpca.KernelSpec(kind="linear"), n_components=10)
        projections = kpca.training_projections(model)
        oracle = pca_oracle_projections(x, 10)
        np.testing.assert_allclose(sign_align(oracle, projections), oracle, atol=1e-6)

    def test_eigenvalues_match_covariance_spectrum(self):
        rng = make_rng(1)
        x = rng.standard_normal((60, 8)) * np.array([3.0, 2.0, 1.5, 1.0, 0.8, 0.5, 0.3, 0.1])
        model = kpca.fit_kpca(x, kpca.KernelSpec(kind="linear"), n_components=8)
        centered = x - x.mean(axis=0)
        cov_eigs = np.sort(np.linalg.eigvalsh(centered.T @ centered / x.shape[0]))[::-1]
        np.testing.assert_allclose(model.eigenvalues, cov_eigs, rtol=1e-8, atol=1e-12)


class TestFit:
    def test_reduced_rank_error_reports_usable_count(self):
        rng = make_rng(2)
        distinct = rng.standard_normal((5, 155))
        x = distinct[rng.integers(0, 5, size=60)]
        with pytest.raises(ReducedRankError) as err:
            kpca.fit_kpca(x, kpca.KernelSpec(), n_components=30)
        assert err.value.usable <= 4

    def test_needs_more_frames_than_components(self):
        rng = make_rng(3)
        with pytest.raises(InputError):
            kpca.fit_kpca(rng.standard_normal((30, 155)), kpca.KernelSpec(), 30)

    def test_duplicated_rows_leave_projections_unchanged(self):
        rng = make_rng(4)
        x = rng.standard_normal((40, 6))
        spec = kpca.KernelSpec(kind="poly", degree=3, coef0=1.0)
        base = kpca.fit_kpca(x, spec, n_components=5)
        doubled = kpca.fit_kpca(np.vstack([x, x]), spec, n_components=5)
        p_base = kpca.training_projections(base)
        p_doubled = kpca.training_projections(doubled)[: x.shape[0]]
        np.testing.assert_allclose(sign_align(p_base, p_doubled), p_base, atol=1e-6)

    def test_rejects_non_finite_input(self):
        x = np.zeros((40, 5))
        x[3, 2] = np.inf
        with pytest.raises(InputError):
            kpca.fit_kpca(x, kpca.KernelSpec(kind="linear"), 3)


class TestTransform:
    def _model(self, seed=5, n=60, d=8, m=6, kind="poly"):
        rng = make_rng(seed)
        x = rng.standard_normal((n, d))
        return x, kpca.fit_kpca(x, kpca.KernelSpec(kind=kind), n_components=m)

    def test_training_rows_match_fitted_projections(self):
        x, model = self._model()
        fitted = kpca.training_projections(model)
        for i in (0, 7, 41):
            out = kpca.transform_frames(model, x[i][None])[0]
            np.testing.assert_allclose(out, fitted[i], rtol=1e-8, atol=1e-8)

    def test_output_width_is_component_count(self):
        x, model = self._model(m=6)
        assert kpca.transform_frames(model, x[:1]).shape == (1, 6)
        model30 = kpca.fit_kpca(
            make_rng(6).standard_normal((80, 155)), kpca.KernelSpec(), n_components=30
        )
        assert model30.n_components == 30
        assert kpca.transform_frames(model30, np.zeros((1, 155))).shape == (1, 30)

    def test_training_mean_projects_to_zero_linear_kernel(self):
        rng = make_rng(7)
        x = rng.standard_normal((50, 10))
        model = kpca.fit_kpca(x, kpca.KernelSpec(kind="linear"), n_components=5)
        out = kpca.transform_frames(model, x.mean(axis=0)[None])
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_dimension_mismatch_rejected(self):
        _, model = self._model(d=8)
        with pytest.raises(DimensionError):
            kpca.transform_frames(model, np.zeros((1, 9)))

    def test_in_sample_projection_mean_is_zero(self):
        _, model = self._model(kind="rbf")
        projections = kpca.training_projections(model)
        np.testing.assert_allclose(projections.mean(axis=0), 0.0, atol=1e-8)

    def test_batch_transform_matches_vector_transform(self, monkeypatch):
        x, model = self._model()
        rng = make_rng(8)
        queries = rng.standard_normal((7, 8))
        monkeypatch.setattr(kpca, "TRANSFORM_CHUNK_ROWS", 3)
        batch = kpca.transform_frames(model, queries)
        for i in range(7):
            one_row = kpca.transform_frames(model, queries[i : i + 1])
            np.testing.assert_allclose(batch[i], one_row[0], atol=1e-10)


def reference_kernel(spec, x, y):
    """Each kernel as one expression on fresh arrays."""
    if spec.kind == "linear":
        return x @ y.T
    if spec.kind == "poly":
        return (x @ y.T + spec.coef0) ** spec.degree
    gamma = spec.gamma or 1.0 / x.shape[1]
    sq = np.sum(x * x, axis=1)[:, None] - 2.0 * (x @ y.T) + np.sum(y * y, axis=1)[None, :]
    return np.exp(-gamma * np.maximum(sq, 0.0))


def reference_centering(k, row_means, total_mean):
    """Double centring as one expression with a fresh result."""
    return k - row_means[None, :] - k.mean(axis=1, keepdims=True) + total_mean


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(
        np.asarray(actual, dtype=np.float64).view(np.uint64), np.asarray(expected).view(np.uint64)
    )


KERNELS = {
    "linear": kpca.KernelSpec(kind="linear"),
    "poly": kpca.KernelSpec(),
    "poly degree 2": kpca.KernelSpec(degree=2, coef0=0.5),
    "rbf": kpca.KernelSpec(kind="rbf"),
}


@pytest.mark.parametrize("spec", KERNELS.values(), ids=KERNELS.keys())
class TestInPlaceCentringMatchesReference:
    """Centring the Gram matrix and each transform block in place changes
    no bit of the model or of the projections."""

    def test_kernel_matrix_leaves_inputs_unchanged(self, spec):
        rng = make_rng(20)
        x, y = rng.standard_normal((40, 12)), rng.standard_normal((25, 12))
        x0, y0 = x.copy(), y.copy()
        assert_bits_equal(kpca.kernel_matrix(spec, x, y), reference_kernel(spec, x0, y0))
        assert_bits_equal(x, x0)
        assert_bits_equal(y, y0)

    def test_fit_and_transform(self, spec):
        rng = make_rng(21)
        x = rng.standard_normal((80, 12))
        model = kpca.fit_kpca(x, spec, n_components=6)

        gram = reference_kernel(spec, x, x)
        row_means = gram.mean(axis=0)
        total_mean = float(gram.mean())
        eigvals, eigvecs = np.linalg.eigh(gram - row_means[None, :] - row_means[:, None] + total_mean)
        eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
        positive = eigvals > max(eigvals[0], 0.0) * kpca.EIGENVALUE_REL_TOL
        assert_bits_equal(model.row_means, row_means)
        assert model.total_mean == total_mean
        assert_bits_equal(model.alphas, eigvecs[:, :6] / np.sqrt(eigvals[:6])[None, :])
        assert_bits_equal(model.eigenvalues, eigvals[:6] / 80)
        assert model.total_positive_mass == float(np.sum(eigvals[positive]) / 80)

        # more query rows than one transform block
        queries = rng.standard_normal((kpca.TRANSFORM_CHUNK_ROWS + 5, 12))
        expected = np.concatenate([
            reference_centering(reference_kernel(spec, block, x), row_means, total_mean) @ model.alphas
            for block in (queries[: kpca.TRANSFORM_CHUNK_ROWS], queries[kpca.TRANSFORM_CHUNK_ROWS :])
        ])
        assert_bits_equal(kpca.transform_frames(model, queries), expected)


@pytest.mark.parametrize("spec", KERNELS.values(), ids=KERNELS.keys())
def test_fit_matches_numpy_eigh_at_pipeline_scale(spec):
    """At the pipeline's input width, the eigensolve on the Gram matrix's own
    buffer gives the bits np.linalg.eigh gives on the same centred matrix,
    although scipy and numpy may each bundle their own LAPACK build."""
    n, m = 500, 30
    x = make_rng(22).standard_normal((n, 155))
    model = kpca.fit_kpca(x, spec, n_components=m)

    gram = reference_kernel(spec, x, x)
    row_means = gram.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(gram - row_means[None, :] - row_means[:, None] + gram.mean())
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    positive = eigvals > max(eigvals[0], 0.0) * kpca.EIGENVALUE_REL_TOL
    assert model.alphas.flags.c_contiguous
    assert_bits_equal(model.alphas, eigvecs[:, :m] / np.sqrt(eigvals[:m])[None, :])
    assert_bits_equal(model.eigenvalues, eigvals[:m] / n)
    assert model.total_positive_mass == float(np.sum(eigvals[positive]) / n)


def _fit_at_width(x, spec, width, monkeypatch):
    """fit_kpca with the map forced to ``width`` threads, and the set of
    threads that applied the kernel step. At width 2 each thread's first band
    waits for the other thread's, so both work at once."""
    threads = set()
    started = threading.Barrier(width, timeout=60)
    kernel_step = kpca._kernel_step

    def spy(*args):
        step = kernel_step(*args)
        if step is None:
            return None

        def traced(k, rows):
            if threading.current_thread() not in threads:
                threads.add(threading.current_thread())
                started.wait()
            step(k, rows)

        return traced

    with monkeypatch.context() as patch:
        patch.setattr(core, "_map_width", lambda: width)
        patch.setattr(kpca, "_kernel_step", spy)
        return kpca.fit_kpca(x, spec, n_components=30), threads


@pytest.mark.parametrize("n", [255, 256, 257, 1000])
@pytest.mark.parametrize("spec", KERNELS.values(), ids=KERNELS.keys())
def test_fit_on_two_workers_equals_one_bit_for_bit(spec, n, monkeypatch):
    """The Gram matrix's kernel step, spread over row bands on two threads,
    gives the model of one serial pass."""
    x = make_rng(24).standard_normal((n, 155))
    one, threads1 = _fit_at_width(x, spec, 1, monkeypatch)
    two, threads2 = _fit_at_width(x, spec, 2, monkeypatch)
    if spec.kind == "linear":  # the product is the kernel; nothing to map
        assert threads1 == threads2 == set()
    else:
        assert threads1 == {threading.main_thread()}
        assert len(threads2) == 2 and threading.main_thread() in threads2
    assert_bits_equal(two.alphas, one.alphas)
    assert_bits_equal(two.eigenvalues, one.eigenvalues)
    assert_bits_equal(two.row_means, one.row_means)
    assert two.total_mean == one.total_mean
    assert two.total_positive_mass == one.total_positive_mass


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_mirror_lower_copies_the_lower_triangle_up(n):
    a = make_rng(23).standard_normal((n, n))
    expected = np.tril(a) + np.tril(a, -1).T
    kpca._mirror_lower(a)
    assert_bits_equal(a, expected)


MEMORY_PROBE = """
import sys
import numpy as np
from neurospeaker import core, kpca

core._scipy_extension("scipy.linalg.cython_lapack")  # a fixed cost, apart from the n x n one measured here

def status_bytes(field):
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024

n, kind = int(sys.argv[1]), sys.argv[2]
x = np.random.default_rng(0).standard_normal((n, 155))
before = status_bytes("VmRSS")
kpca.fit_kpca(x, kpca.KernelSpec(kind=kind), n_components=30)
print((status_bytes("VmHWM") - before) / (8 * n * n))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_fit_peak_memory_is_one_gram_plus_lapack_workspace():
    """The fit holds the n x n Gram matrix and LAPACK dsyevd's 2 n^2 workspace,
    about 3.5 n^2 doubles of peak growth in all. A copy of the Gram matrix or
    a separate eigenvector array adds n^2 each (np.linalg.eigh: about 5.4).
    tracemalloc cannot see LAPACK's buffers, and a child's ru_maxrss starts
    at its launcher's peak, so the probe reads its own resident peak (VmHWM)
    in a fresh interpreter."""
    growth = _fit_peak_growth("poly")
    assert growth < 4.5, f"peak grew by {growth:.2f} n^2 doubles"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize("kind, blas", [
    # kernel step on row bands, every CPU, whatever the variable asks for
    ("rbf", {"OPENBLAS_NUM_THREADS": "2"}),
    ("poly", {}),  # on one CPU: one serial pass
])
def test_fit_peak_memory_on_each_path(kind, blas):
    """The same bound for the RBF kernel, whose step makes no n x n
    temporary, and for the serial path of a process limited to one CPU."""
    if kind == "poly" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs sched_setaffinity to limit the probe to one CPU")
    growth = _fit_peak_growth(kind, blas, one_cpu=kind == "poly")
    assert growth < 4.5, f"peak grew by {growth:.2f} n^2 doubles"


def _fit_peak_growth(kind, blas=None, one_cpu=False):
    """Peak resident growth of one fit at n = 1,500, in n^2 doubles."""
    return _probe(MEMORY_PROBE, ["1500", kind], blas, one_cpu)


def _probe(script, args, blas=None, one_cpu=False):
    """The number ``script`` prints, run in a fresh interpreter with the BLAS
    variables in ``blas`` added to its environment (the program sets its
    BLAS to one thread whatever they say), on one CPU if ``one_cpu``."""
    src = str(Path(kpca.__file__).resolve().parents[1])
    one = min(os.sched_getaffinity(0)) if one_cpu else None
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, **(blas or {}), PYTHONPATH=src),
        preexec_fn=(lambda: os.sched_setaffinity(0, {one})) if one_cpu else None,
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout)


GIL_PROBE = """
import sys
import threading
import time
import numpy as np
from neurospeaker import core, kpca

core._scipy_extension("scipy.linalg.cython_lapack")  # a fixed cost, apart from the fit measured here

spins, stop = [0], threading.Event()

def spin():
    while not stop.is_set():
        spins[0] += 1

def rate(work):
    start_spins, start = spins[0], time.perf_counter()
    work()
    return (spins[0] - start_spins) / (time.perf_counter() - start)

x = np.random.default_rng(0).standard_normal((int(sys.argv[1]), 155))
spinner = threading.Thread(target=spin)
spinner.start()
idle = rate(lambda: time.sleep(0.5))
busy = rate(lambda: kpca.fit_kpca(x, kpca.KernelSpec(), n_components=30))
stop.set()
spinner.join()
print(busy / idle)
"""


@pytest.mark.skipif(core._usable_cpus() < 2, reason="needs 2 usable CPUs")
def test_fit_lets_other_threads_run():
    """A Python thread spinning beside a fit at n = 1,500 keeps at least half
    its idle rate: the eigensolve, most of the fit, runs without the GIL
    (scipy.linalg.eigh's f2py wrapper held it, and left the spinner 1-4 %).
    The probe runs in a fresh interpreter, where the program sets BLAS to
    one thread, so the solve takes one CPU and leaves the other to the
    spinner."""
    ratio = _probe(GIL_PROBE, ["1500"])
    assert ratio >= 0.5, f"the spinner ran at {ratio:.2f} of its idle rate"


class TestLapackCapsule:
    """The fit calls scipy's dsyevd through the pointer scipy exports; a
    stub in its place shows what the fit does with the pointer."""

    DSYEVD = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 11)
    NEW_CAPSULE = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)(
        ("PyCapsule_New", ctypes.pythonapi)
    )

    @pytest.fixture
    def stub(self, monkeypatch):
        """Install a Python dsyevd under a given prototype name; returns the
        list of calls it records as (lwork, liwork). The stub answers the
        workspace query with sizes of 1 and then sets ``info``."""
        cython_lapack = core._scipy_extension("scipy.linalg.cython_lapack")
        calls = []
        keep = []

        def install(prototype: bytes, info: int):
            def dsyevd(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, out_info):
                sizes = [ctypes.cast(p, ctypes.POINTER(ctypes.c_int))[0] for p in (lwork, liwork)]
                calls.append(tuple(sizes))
                if sizes == [-1, -1]:
                    ctypes.cast(work, ctypes.POINTER(ctypes.c_double))[0] = 1.0
                    ctypes.cast(iwork, ctypes.POINTER(ctypes.c_int))[0] = 1
                    result = 0
                else:
                    result = info
                ctypes.cast(out_info, ctypes.POINTER(ctypes.c_int))[0] = result

            function = self.DSYEVD(dsyevd)
            keep.extend([function, prototype])  # the capsule holds raw pointers to both
            capsule = self.NEW_CAPSULE(ctypes.cast(function, ctypes.c_void_p), prototype, None)
            monkeypatch.setitem(cython_lapack.__pyx_capi__, "dsyevd", capsule)

        yield install, calls

    def test_another_prototype_is_refused_without_a_call(self, stub):
        install, calls = stub
        # dsyev's prototype: dsyevd's without the integer workspace and its size
        dsyev = kpca.DSYEVD_PROTOTYPE.rsplit(", int *, int *)", 1)[0] + ")"
        install(dsyev.encode(), 0)
        with pytest.raises(NumericError, match="refusing to call it"):
            kpca.fit_kpca(make_rng(25).standard_normal((40, 6)), kpca.KernelSpec(), n_components=5)
        assert calls == []

    @pytest.mark.parametrize("info", [3, -4])
    def test_nonzero_info_raises_a_numeric_error_naming_n(self, stub, info):
        install, calls = stub
        install(kpca.DSYEVD_PROTOTYPE.encode(), info)
        with pytest.raises(NumericError, match=rf"n = 40, info = {info}\)"):
            kpca.fit_kpca(make_rng(25).standard_normal((40, 6)), kpca.KernelSpec(), n_components=5)
        assert calls == [(-1, -1), (1, 1)]  # the workspace query, then the solve


class TestExplainedVariance:
    def test_monotone_and_bounded(self):
        rng = make_rng(9)
        x = rng.standard_normal((60, 12))
        model = kpca.fit_kpca(x, kpca.KernelSpec(), n_components=6)
        curve = kpca.cumulative_explained_variance(model)
        assert np.all(np.diff(curve) >= -1e-12)
        assert curve[-1] <= 1.0 + 1e-12

    def test_rank_one_data_explained_by_first_component(self):
        rng = make_rng(10)
        direction = rng.standard_normal(10)
        x = np.outer(rng.standard_normal(40), direction)
        model = kpca.fit_kpca(x, kpca.KernelSpec(kind="linear"), n_components=1)
        curve = kpca.cumulative_explained_variance(model)
        assert abs(curve[0] - 1.0) < 1e-9

    def test_isotropic_gaussian_curve_is_uniform(self):
        # linear-kernel spectrum of isotropic data should track k/d; the
        # finite-sample (Marchenko-Pastur) spread stays within 0.05 for this
        # n/d ratio
        rng = make_rng(11)
        d, n = 10, 1500
        x = rng.standard_normal((n, d))
        model = kpca.fit_kpca(x, kpca.KernelSpec(kind="linear"), n_components=d)
        curve = kpca.cumulative_explained_variance(model)
        uniform = np.arange(1, d + 1) / d
        assert np.max(np.abs(curve - uniform)) < 0.05

    def test_full_rank_retention_sums_to_one(self):
        rng = make_rng(12)
        x = rng.standard_normal((30, 5))
        model = kpca.fit_kpca(x, kpca.KernelSpec(kind="linear"), n_components=5)
        curve = kpca.cumulative_explained_variance(model)
        assert abs(curve[-1] - 1.0) < 1e-9


def test_out_of_sample_transform_is_stable_under_refit():
    # qualitative: adding one point to a large training set barely moves its
    # out-of-sample projection (no fixed bound in the contract; a loose one
    # guards regressions)
    rng = make_rng(13)
    x = rng.standard_normal((400, 8))
    query = rng.standard_normal((1, 8))
    spec = kpca.KernelSpec(kind="poly", degree=3, coef0=1.0)
    before = kpca.fit_kpca(x, spec, n_components=4)
    after = kpca.fit_kpca(np.vstack([x, query]), spec, n_components=4)
    p_before = kpca.transform_frames(before, query)[0]
    p_after = kpca.transform_frames(after, query)[0]
    signs = np.sign(p_before * p_after)
    signs[signs == 0] = 1.0
    drift = np.linalg.norm(p_before - signs * p_after) / np.linalg.norm(p_before)
    assert drift < 0.05


def test_pca_equivalence_sweep():
    # acceptance-grade sweep at unit-test scale: see test_acceptance for the
    # full 100-instance version
    for seed in range(10):
        rng = make_rng(seed)
        x = rng.standard_normal((50, 10))
        model = kpca.fit_kpca(x, kpca.KernelSpec(kind="linear"), n_components=10)
        projections = kpca.training_projections(model)
        oracle = pca_oracle_projections(x, 10)
        np.testing.assert_allclose(sign_align(oracle, projections), oracle, atol=1e-6)
