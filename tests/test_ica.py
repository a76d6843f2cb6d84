import numpy as np
import pytest
from scipy import stats
from scipy.optimize import linear_sum_assignment
from scipy.signal import sawtooth

from neurospeaker import ica
from neurospeaker.core import SignalRecord, make_rng
from neurospeaker.errors import DegenerateInputError, InputError
from neurospeaker.synth import SynthSpec, generate_synthetic

FS = 1000.0


def record(samples, fs=FS):
    return SignalRecord(fs, np.atleast_2d(samples))


def best_assignment_correlations(true_sources, estimated):
    n = true_sources.shape[0]
    corr = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            corr[i, j] = abs(np.corrcoef(true_sources[i], estimated[j])[0, 1])
    rows, cols = linear_sum_assignment(-corr)
    return corr[rows, cols]


class TestWhiten:
    def test_output_covariance_is_identity(self):
        rng = make_rng(0)
        mixing = rng.standard_normal((4, 4))
        x = mixing @ rng.standard_normal((4, 5000))
        *_, whitened = ica.whiten(record(x))
        cov = np.cov(whitened, bias=True)
        np.testing.assert_allclose(cov, np.eye(4), atol=1e-6)
        np.testing.assert_allclose(whitened.mean(axis=1), 0.0, atol=1e-9)

    def test_covariance_eigenvalues_are_unit(self):
        rng = make_rng(1)
        x = rng.standard_normal((5, 3000)) * np.array([[1.0], [2.0], [0.5], [3.0], [1.5]])
        *_, whitened = ica.whiten(record(x))
        cov = whitened @ whitened.T / whitened.shape[1]
        eigvals = np.linalg.eigvalsh(cov)
        np.testing.assert_allclose(eigvals, 1.0, atol=1e-6)

    def test_already_white_input_stays_white(self):
        rng = make_rng(2)
        x = rng.standard_normal((3, 8000))
        *_, whitened = ica.whiten(record(x))
        cov = whitened @ whitened.T / x.shape[1]
        np.testing.assert_allclose(cov, np.eye(3), atol=1e-6)

    def test_perfectly_correlated_channels_rejected(self):
        rng = make_rng(3)
        base = rng.standard_normal(2000)
        x = np.vstack([base, 2.0 * base, rng.standard_normal(2000)])
        with pytest.raises(DegenerateInputError) as err:
            ica.whiten(record(x))
        assert "ch00" in str(err.value) and "ch01" in str(err.value)

    def test_needs_two_channels(self):
        with pytest.raises(InputError):
            ica.whiten(record(np.zeros((1, 100))))


def three_source_instance(seed, n=4000):
    rng = make_rng(seed)
    t = np.arange(n) / FS
    sources = np.vstack(
        [
            np.sin(2 * np.pi * 13.7 * t),
            sawtooth(2 * np.pi * 7.3 * t),
            rng.uniform(-1.0, 1.0, size=n),
        ]
    )
    mixing = rng.standard_normal((3, 3))
    while np.linalg.cond(mixing) > 10.0:
        mixing = rng.standard_normal((3, 3))
    return sources, mixing, rng


class TestFastIca:
    def test_two_source_recovery(self):
        rng = make_rng(0)
        t = np.arange(4000) / FS
        sources = np.vstack([np.sin(2 * np.pi * 9.1 * t), sawtooth(2 * np.pi * 4.3 * t)])
        mixing = np.array([[1.0, 0.6], [0.4, 1.0]])
        mixed = record(mixing @ sources)
        model = ica.fit_ica(mixed, rng=rng)
        comps = ica.sources(model, mixed).samples
        matched = best_assignment_correlations(sources, comps)
        assert np.all(matched >= 0.95)

    def test_independent_white_input_gives_signed_permutation(self):
        rng = make_rng(4)
        sources = np.vstack(
            [
                rng.uniform(-1, 1, size=6000),
                np.sign(rng.standard_normal(6000)),
                sawtooth(2 * np.pi * 11.3 * np.arange(6000) / FS),
            ]
        )
        sources = (sources - sources.mean(axis=1, keepdims=True)) / sources.std(axis=1, keepdims=True)
        w, _, _ = ica.fit_fastica(sources, rng, max_iter=200, tol=1e-5)
        w = np.abs(w)
        # each row and column should carry a single ~1 entry
        assert np.all(np.sort(w, axis=1)[:, -1] > 0.97)
        assert np.all(np.sort(w, axis=1)[:, :-1].sum(axis=1) < 0.25)
        assert np.all(np.sort(w, axis=0)[-1, :] > 0.97)

    def test_unmixing_rows_orthonormal(self):
        sources, mixing, rng = three_source_instance(5)
        model = ica.fit_ica(record(mixing @ sources), rng=rng)
        gram = model.unmixing_matrix @ model.unmixing_matrix.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-6)

    def test_deterministic_given_seed(self):
        sources, mixing, _ = three_source_instance(6)
        x = record(mixing @ sources)
        a = ica.fit_ica(x, rng=make_rng(123)).unmixing_matrix
        b = ica.fit_ica(x, rng=make_rng(123)).unmixing_matrix
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_stopping_at_the_cap_is_reported(self, seed):
        sources, mixing, rng = three_source_instance(seed)
        model = ica.fit_ica(record(mixing @ sources), rng=rng, max_iter=2)
        assert model.converged is False
        assert model.n_iterations == 2

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_convergence_is_reported_with_its_iteration_count(self, seed):
        sources, mixing, rng = three_source_instance(seed)
        model = ica.fit_ica(record(mixing @ sources), rng=rng)
        assert model.converged is True
        assert 1 < model.n_iterations < 200


def reference_fastica(z, rng, max_iter, tol):
    """The fixed-point loop written with fresh arrays per step and the
    decorrelation as a matmul with ``np.diag``: the form ``ica.fit_fastica``
    must match bit for bit."""

    def decorrelate(w):
        eigvals, eigvecs = np.linalg.eigh(w @ w.T)
        return eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T @ w

    n_ch, n_samples = z.shape
    w = decorrelate(rng.standard_normal((n_ch, n_ch)))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        g = np.tanh(w @ z)
        g_prime_mean = np.mean(1.0 - g * g, axis=1)
        w_new = decorrelate((g @ z.T) / n_samples - g_prime_mean[:, None] * w)
        delta = np.max(np.abs(np.abs(np.sum(w_new * w, axis=1)) - 1.0))
        w = w_new
        if delta < tol:
            converged = True
            break
    return w, converged, iterations


class TestFastIcaMatchesReference:
    """Reused work buffers change no bit of the unmixing matrix, the
    convergence flag or the iteration count."""

    def _assert_same(self, z, seed, max_iter=200, tol=1e-5):
        w, converged, iterations = ica.fit_fastica(z, make_rng(seed), max_iter, tol)
        w_ref, converged_ref, iterations_ref = reference_fastica(z, make_rng(seed), max_iter, tol)
        np.testing.assert_array_equal(w.view(np.uint64), w_ref.view(np.uint64))
        assert (converged, iterations) == (converged_ref, iterations_ref)
        return converged, iterations

    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_three_source_instances(self, seed):
        sources, mixing, _ = three_source_instance(seed)
        *_, z = ica.whiten(record(mixing @ sources))
        assert self._assert_same(z, seed)[0]

    def test_31_channel_synthetic_record(self):
        eeg = generate_synthetic(SynthSpec(n_speakers=2, utterances_per_speaker=1, duration_s=0.5, seed=3))[0].eeg
        *_, z = ica.whiten(eeg)
        assert z.shape == (31, 500)
        self._assert_same(z, 9)

    def test_stopping_at_the_cap(self):
        sources, mixing, _ = three_source_instance(5)
        *_, z = ica.whiten(record(mixing @ sources))
        assert self._assert_same(z, 5, max_iter=2) == (False, 2)


class TestScoring:
    def _report(self, component, fs=FS, thresholds=ica.ArtifactThresholds()):
        return ica.score_and_reject(record(component, fs), thresholds)

    def test_gaussian_noise_not_rejected(self):
        noise = make_rng(0).standard_normal(4000)
        report = self._report(noise)
        assert abs(report.kurtosis[0]) < 1.0
        assert report.rejected == frozenset()

    def test_sparse_spike_train_rejected_by_kurtosis(self):
        rng = make_rng(1)
        component = np.zeros(4000)
        spikes = rng.choice(4000, size=40, replace=False)
        component[spikes] = rng.standard_normal(40) * 5.0 + 10.0
        # population excess kurtosis of a 1%-sparse train is ~1/p - 3 >> 15
        report = self._report(component)
        assert report.kurtosis[0] > 15.0
        assert 0 in report.rejected

    def test_slow_wave_rejected_by_lowfreq_ratio(self):
        t = np.arange(4000) / FS
        slow = np.sin(2 * np.pi * 0.5 * t)
        report = self._report(slow)
        assert report.lowfreq_ratio[0] > 0.7
        assert 0 in report.rejected

    def test_burst_rejected_by_amplitude_z(self):
        rng = make_rng(2)
        component = rng.standard_normal(4000) * 0.1
        component[2000] = 25.0
        report = self._report(component, thresholds=ica.ArtifactThresholds(kurtosis=1e9))
        assert report.max_amplitude_z[0] > 8.0
        assert 0 in report.rejected

    def test_summary_lists_every_component(self):
        rng = make_rng(3)
        report = self._report(rng.standard_normal((3, 2000)))
        assert [row[0] for row in report.rows()] == [0, 1, 2]


def test_scored_kurtosis_matches_scipy():
    rng = make_rng(8)
    n = 3000
    components = np.stack([
        rng.standard_normal(n),
        rng.laplace(size=n),
        rng.uniform(-1.0, 1.0, n),
        30.0 * (rng.uniform(size=n) < 0.01) + 0.1 * rng.standard_normal(n),
    ])
    report = ica.score_and_reject(record(components))
    expected = stats.kurtosis(components, axis=1, fisher=True, bias=True)
    np.testing.assert_allclose(report.kurtosis, expected, rtol=1e-12)


class TestReconstruct:
    def test_round_trip_when_nothing_rejected(self):
        sources, mixing, rng = three_source_instance(8)
        x = record(mixing @ sources + 1.5)
        model = ica.fit_ica(x, rng=rng)
        comps = ica.sources(model, x)
        report = ica.ArtifactReport(
            kurtosis=np.zeros(3), lowfreq_ratio=np.zeros(3),
            max_amplitude_z=np.zeros(3), rejected=frozenset(),
        )
        restored = ica.reconstruct_clean(model, comps, report)
        err = np.linalg.norm(restored - x.samples) / np.linalg.norm(x.samples)
        assert err < 1e-6

    def test_rejecting_everything_leaves_channel_means(self):
        sources, mixing, rng = three_source_instance(9)
        x = record(mixing @ sources + np.array([[1.0], [2.0], [3.0]]))
        model = ica.fit_ica(x, rng=rng)
        comps = ica.sources(model, x)
        report = ica.ArtifactReport(
            kurtosis=np.zeros(3), lowfreq_ratio=np.zeros(3),
            max_amplitude_z=np.zeros(3), rejected=frozenset({0, 1, 2}),
        )
        restored = ica.reconstruct_clean(model, comps, report)
        expected = np.tile(x.samples.mean(axis=1, keepdims=True), (1, x.samples.shape[1]))
        np.testing.assert_allclose(restored, expected, atol=1e-9)

    def test_artifact_injection_cleanup(self):
        # blink-like sparse artifact mixed into an EEG-like background; after
        # rejection the cleaned channels should match the pre-injection signal
        rng = make_rng(10)
        n = 6000
        t = np.arange(n) / FS
        clean_sources = np.vstack(
            [
                np.sin(2 * np.pi * 9.0 * t),
                sawtooth(2 * np.pi * 5.7 * t),
                rng.uniform(-1, 1, size=n),
            ]
        )
        artifact = np.zeros(n)
        starts = rng.choice(n - 40, size=6, replace=False)
        for s in starts:
            artifact[s : s + 40] += 60.0 * np.hanning(40)
        mixing = rng.standard_normal((4, 4))
        while np.linalg.cond(mixing) > 10.0:
            mixing = rng.standard_normal((4, 4))
        all_sources = np.vstack([clean_sources, artifact])
        clean_signal = mixing[:, :3] @ clean_sources
        dirty = record(mixing @ all_sources)

        model = ica.fit_ica(dirty, rng=rng)
        comps = ica.sources(model, dirty)
        report = ica.score_and_reject(comps)
        assert report.rejected, "the blink component should be rejected"
        restored = ica.reconstruct_clean(model, comps, report)
        for ch in range(4):
            r = np.corrcoef(restored[ch], clean_signal[ch])[0, 1]
            assert r >= 0.9
