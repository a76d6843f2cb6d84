import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from neurospeaker.core import SignalRecord, make_rng
from neurospeaker.errors import AlignmentError, DimensionError, InputError, NumericError
from neurospeaker.features import (
    MFCC_LOG_FLOOR,
    MOVING_WINDOW,
    FeatureSequence,
    FeatureStats,
    Modality,
    MfccConfig,
    compute_feature_stats,
    excess_kurtosis,
    extract_eeg_features,
    extract_mfcc,
    fuse,
    mel_filterbank,
    normalize_features,
)


def feature_block(frames):
    """Oracle: [RMS, zero-crossing rate, moving-window average, excess kurtosis,
    spectral entropy] of each (..., frame_length) window, computed window by
    window from its own samples.

    Zero-variance frames report kurtosis 0 and entropy 0 by convention.
    """
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

    _, live, kurtosis = excess_kurtosis(x - np.mean(x, axis=-1, keepdims=True))

    # Welch-style PSD: half-frame segments, 50% overlap, rectangular.
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


def eeg_frame_features(frame):
    """Per-frame oracle: the five EEG features of one 1-D frame."""
    return feature_block(np.asarray(frame)[np.newaxis, :])[0]


class TestEegFrameFeatures:
    def test_constant_frame_conventions(self):
        feats = eeg_frame_features(np.full(100, 2.0))
        np.testing.assert_allclose(feats, [2.0, 0.0, 2.0, 0.0, 0.0], atol=1e-12)

    def test_sinusoid_zero_crossing_rate(self):
        # k full cycles cross zero 2k times
        for k in (2, 5, 10):
            t = np.arange(100)
            frame = np.sin(2 * np.pi * k * t / 100 + 0.1)
            zcr = eeg_frame_features(frame)[1]
            assert abs(zcr - 2 * k / 100) <= 1 / 100 + 1e-12

    def test_white_noise_spectral_entropy_high(self):
        rng = make_rng(0)
        entropies = [eeg_frame_features(rng.standard_normal(100))[4] for _ in range(100)]
        assert np.mean(entropies) >= 0.9

    def test_rms_scale_covariant_others_invariant(self):
        rng = make_rng(1)
        frame = rng.standard_normal(100)
        base = eeg_frame_features(frame)
        scaled = eeg_frame_features(-3.7 * frame)
        assert abs(scaled[0] - 3.7 * base[0]) <= 1e-9 * base[0]
        # moving-window average is linear in the signal
        assert abs(scaled[2] - (-3.7) * base[2]) <= 1e-9 * abs(base[2]) + 1e-12
        # zero-crossing rate, kurtosis, spectral entropy are scale-invariant
        np.testing.assert_allclose(scaled[[1, 3, 4]], base[[1, 3, 4]], rtol=1e-9, atol=1e-12)

    def test_sinusoid_kurtosis(self):
        # population excess kurtosis of a sinusoid is -1.5
        t = np.arange(1000)
        frame = np.sin(2 * np.pi * 10 * t / 1000)
        assert abs(eeg_frame_features(frame)[3] - (-1.5)) < 0.01

    def test_too_short_frame_rejected(self):
        with pytest.raises(InputError):
            eeg_frame_features(np.array([1.0]))


KURTOSIS_SAMPLES = {
    "gaussian": lambda rng, n: rng.standard_normal(n),
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "laplace": lambda rng, n: rng.laplace(size=n),
    "sparse spikes": lambda rng, n: 50.0 * (rng.uniform(size=n) < 0.02) + 1e-3 * rng.standard_normal(n),
    "offset sinusoid": lambda rng, n: 7.0 + np.sin(np.arange(n) * 0.37),
}


class TestExcessKurtosis:
    """The one kurtosis both the EEG features and ICA scoring use, against
    scipy's population (biased) Fisher kurtosis."""

    @pytest.mark.parametrize("draw", KURTOSIS_SAMPLES.values(), ids=KURTOSIS_SAMPLES.keys())
    def test_frame_feature_matches_scipy(self, draw):
        frame = draw(make_rng(5), 100)
        expected = stats.kurtosis(frame, fisher=True, bias=True)
        np.testing.assert_allclose(eeg_frame_features(frame)[3], expected, rtol=1e-12)

    def test_helper_matches_scipy_along_the_last_axis(self):
        x = make_rng(6).laplace(size=(3, 4, 250))
        var, live, kurt = excess_kurtosis(x - x.mean(axis=-1, keepdims=True))
        np.testing.assert_allclose(kurt, stats.kurtosis(x, axis=-1, fisher=True, bias=True), rtol=1e-12)
        np.testing.assert_allclose(var, x.var(axis=-1), rtol=1e-12)
        assert live.all()

    def test_constant_rows_have_zero_kurtosis(self):
        var, live, kurt = excess_kurtosis(np.zeros((2, 50)))
        assert not live.any()
        np.testing.assert_array_equal(kurt, 0.0)


class TestExtractEegFeatures:
    def _record(self, samples):
        return SignalRecord(1000.0, samples)

    def test_shape_for_one_second(self):
        x = make_rng(0).standard_normal((31, 1000))
        seq = extract_eeg_features(self._record(x), 100)
        assert seq.frames.shape == (91, 155)
        assert seq.modality is Modality.EEG155

    def test_wrong_channel_count_rejected(self):
        x = make_rng(0).standard_normal((30, 1000))
        with pytest.raises(DimensionError) as err:
            extract_eeg_features(self._record(x))
        assert "31" in str(err.value) and "30" in str(err.value)

    def test_all_zero_input_tiles_degenerate_vector(self):
        seq = extract_eeg_features(self._record(np.zeros((31, 1000))))
        expected = np.tile([0.0, 0.0, 0.0, 0.0, 0.0], 31)
        np.testing.assert_array_equal(seq.frames, np.tile(expected, (91, 1)))

    @pytest.mark.parametrize("rate_hz", [500.0, 250.0])
    def test_other_eeg_rates_rejected(self, rate_hz):
        """The filters and the 10-sample hop are those of 1 kHz EEG."""
        x = make_rng(2).standard_normal((31, 500))
        with pytest.raises(InputError, match=f"has {rate_hz:g} Hz EEG, not 1000 Hz"):
            extract_eeg_features(SignalRecord(rate_hz, x), 50)

    @pytest.mark.parametrize(
        "rate_hz, n_samples, frame_length",
        [(1000, 1000, 100), (1000, 2000, 37), (1000, 500, 10), (1000, 1001, 33), (1000, 1003, 11), (1000, 100, 100)],
    )
    def test_every_frame_equals_the_oracle_bit_for_bit(self, rate_hz, n_samples, frame_length):
        """Zero crossings and segment spectra are read from the whole signal;
        each (frame, channel) still carries exactly the oracle's float32
        bits. Channel 0 is all zero, channel 1 constant, channel 2 has an
        exact zero every 7th sample."""
        x = make_rng(n_samples + frame_length).standard_normal((31, n_samples))
        x[0] = 0.0
        x[1] = -0.25
        x[2, ::7] = 0.0
        seq = extract_eeg_features(SignalRecord(float(rate_hz), x), frame_length)
        hop = rate_hz // 100
        n_frames = 1 + (n_samples - frame_length) // hop
        assert seq.frames.shape == (n_frames, 155)
        for t in range(n_frames):
            windows = x[:, t * hop : t * hop + frame_length]
            expected = feature_block(windows).astype(np.float32).reshape(-1)
            np.testing.assert_array_equal(seq.frames[t].view(np.uint32), expected.view(np.uint32))

    def test_working_memory_is_a_fraction_of_the_recording(self):
        """Channels are taken a few at a time: one call on 31 x 2,000 samples
        peaks below 8 MB (all channels at once peaked at 28.4 MB)."""
        record = self._record(make_rng(6).standard_normal((31, 2000)))
        tracemalloc.start()
        try:
            extract_eeg_features(record)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("frame_length", [9, 1, 0])
    def test_window_below_one_hop_rejected(self, frame_length):
        with pytest.raises(InputError, match=rf"hop \(10\) <= frame \({frame_length}\)"):
            extract_eeg_features(self._record(np.ones((31, 1000))), frame_length)

    def test_matches_per_frame_operation(self):
        x = make_rng(5).standard_normal((31, 300))
        seq = extract_eeg_features(self._record(x), 100)
        # spot-check one frame/channel against the public per-frame op
        frame = x[7, 50:150]
        expected = eeg_frame_features(frame)
        np.testing.assert_allclose(seq.frames[5, 7 * 5 : 7 * 5 + 5], expected, rtol=1e-6)


class TestMfcc:
    def _audio(self, samples):
        return SignalRecord(16000.0, samples[np.newaxis, :])

    def test_dimension_is_13(self):
        audio = self._audio(make_rng(0).standard_normal(16000) * 0.1)
        seq = extract_mfcc(audio)
        assert seq.dim == 13
        assert seq.modality is Modality.MFCC13

    def test_silence_concentrates_in_c0(self):
        config = MfccConfig()
        seq = extract_mfcc(self._audio(np.zeros(16000)), config)
        # constant log-mel vector: orthonormal DCT-II puts sqrt(N)*log(floor)
        # in c0 and zero elsewhere
        expected_c0 = math.sqrt(config.n_filters) * math.log(MFCC_LOG_FLOOR)
        frames = seq.frames
        np.testing.assert_allclose(frames, np.tile(frames[0], (frames.shape[0], 1)), atol=1e-6)
        assert abs(frames[0, 0] - expected_c0) < 1e-3
        np.testing.assert_allclose(frames[0, 1:], 0.0, atol=1e-4)

    def test_distinct_tones_give_distinct_features(self):
        t = np.arange(16000) / 16000.0
        a = extract_mfcc(self._audio(0.5 * np.sin(2 * np.pi * 1000 * t)))
        b = extract_mfcc(self._audio(0.5 * np.sin(2 * np.pi * 4000 * t)))
        assert np.linalg.norm(a.frames[10] - b.frames[10]) > 0.0

    def test_wrong_rate_rejected(self):
        audio = SignalRecord(8000.0, np.zeros((1, 8000)))
        with pytest.raises(InputError):
            extract_mfcc(audio)

    def test_stereo_rejected(self):
        audio = SignalRecord(16000.0, np.zeros((2, 16000)))
        with pytest.raises(InputError):
            extract_mfcc(audio)

    def test_frame_count_formula(self):
        seq = extract_mfcc(self._audio(np.zeros(32000)))
        assert seq.n_frames == 1 + (32000 - 400) // 160  # 198

    @pytest.mark.parametrize("settings", [
        {"window_ms": 0.0},
        {"window_ms": 9.9},  # 158 samples, under the 160-sample hop
        {"window_ms": -25.0},
        {"fft_size": 0},
        {"fft_size": 16},  # leaves the lowest mel filters without a bin
        {"n_filters": 0},
        {"n_filters": -1},
    ])
    def test_config_rejects_what_extraction_cannot_run(self, settings):
        with pytest.raises(InputError):
            MfccConfig(**settings)

    def test_window_of_one_hop_is_accepted(self):
        seq = extract_mfcc(self._audio(np.zeros(1600)), MfccConfig(window_ms=10.0))
        assert seq.n_frames == 10


@pytest.mark.parametrize("extract, record, message", [
    (extract_eeg_features, SignalRecord(1000.0, np.ones((30, 1000))), "has 30 EEG channels, not 31"),
    (extract_eeg_features, SignalRecord(1000.0, np.ones((31, 50))),
     "has 50 EEG samples, fewer than one 100-sample window"),
    (extract_mfcc, SignalRecord(16000.0, np.ones((2, 16000))), "has 2 audio channels, not 1"),
    (extract_mfcc, SignalRecord(8000.0, np.ones((1, 8000))), "has 8000 Hz audio, not 16000 Hz"),
    (extract_mfcc, SignalRecord(16000.0, np.ones((1, 300))),
     "has 300 audio samples, fewer than one 400-sample MFCC window"),
], ids=["30ch", "50samples", "stereo", "8kHz", "short-audio"])
def test_extraction_names_the_recording_it_cannot_finish(extract, record, message):
    """The channel, rate and length rules of ``check_recording``, raised
    from inside each extractor, name the utterance id it was given."""
    with pytest.raises(InputError) as err:
        extract(record, utterance_id="utt0042")
    assert str(err.value) == f"utterance 'utt0042' {message}"


class TestMelFilterbank:
    def test_filters_cover_spectrum(self):
        weights = mel_filterbank(26, 512, 16000)
        assert weights.shape == (26, 257)
        assert np.all(weights.sum(axis=1) > 0)
        coverage = weights.sum(axis=0)
        assert np.all(coverage[1:-1] > 0)  # every interior bin touched


class TestFusion:
    def _seq(self, t, modality, utt="u0"):
        return FeatureSequence(
            np.arange(t * modality.dim, dtype=np.float32).reshape(t, modality.dim),
            modality,
            utt,
        )

    def test_min_length_rule(self):
        fused = fuse(self._seq(90, Modality.MFCC13), self._seq(91, Modality.EEG30))
        assert fused.frames.shape == (90, 43)
        assert fused.modality is Modality.FUSED43

    def test_dimension_arithmetic(self):
        assert Modality.MFCC13.dim + Modality.EEG30.dim == Modality.FUSED43.dim == 43
        assert Modality.FUSED43.sources == (Modality.MFCC13, Modality.EEG30)
        assert Modality.FUSED43.dim == sum(m.dim for m in Modality.FUSED43.sources)
        for modality in (Modality.MFCC13, Modality.EEG155, Modality.EEG30):
            assert modality.sources == (modality,)

    def test_id_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            fuse(self._seq(10, Modality.MFCC13, "a"), self._seq(10, Modality.EEG30, "b"))

    def test_wrong_modalities_rejected(self):
        with pytest.raises(AlignmentError):
            fuse(self._seq(10, Modality.MFCC13), self._seq(10, Modality.MFCC13))
        with pytest.raises(AlignmentError, match=r"needs \(MFCC13, EEG30\), got \(EEG30, MFCC13\)"):
            fuse(self._seq(10, Modality.EEG30), self._seq(10, Modality.MFCC13))

    def test_column_order_is_mfcc_then_eeg(self):
        mfcc = self._seq(4, Modality.MFCC13)
        eeg = self._seq(4, Modality.EEG30)
        fused = fuse(mfcc, eeg)
        np.testing.assert_array_equal(fused.frames[:, :13], mfcc.frames)
        np.testing.assert_array_equal(fused.frames[:, 13:], eeg.frames)


class TestTimeAlignment:
    def test_frame_count_offset_is_fixed_by_windows(self):
        # equal-duration streams differ by a constant frame offset determined
        # by the two analysis windows (25 ms at 16 kHz vs 100 ms at 1 kHz)
        for duration in (1.0, 2.0, 3.5):
            audio = SignalRecord(16000.0, np.zeros((1, int(16000 * duration))))
            eeg = SignalRecord(1000.0, np.zeros((31, int(1000 * duration))))
            t_mfcc = extract_mfcc(audio).n_frames
            t_eeg = extract_eeg_features(eeg).n_frames
            assert t_mfcc - t_eeg == 7


class TestNormalization:
    def _sequences(self, rng, n=6, t=40, shift=0.0):
        return [
            FeatureSequence(
                (rng.standard_normal((t, 13)) + shift).astype(np.float32),
                Modality.MFCC13,
                f"u{i}",
            )
            for i in range(n)
        ]

    def test_training_set_normalizes_to_zero_mean_unit_std(self):
        seqs = self._sequences(make_rng(0))
        stats = compute_feature_stats(seqs)
        normalized = np.concatenate(
            [normalize_features(stats, s).frames for s in seqs], axis=0
        )
        np.testing.assert_allclose(normalized.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(normalized.std(axis=0), 1.0, atol=1e-3)

    def test_constant_dimension_maps_to_zero(self):
        frames = np.ones((20, 13), dtype=np.float32)
        seq = FeatureSequence(frames, Modality.MFCC13, "u")
        stats = compute_feature_stats([seq])
        out = normalize_features(stats, seq)
        np.testing.assert_array_equal(out.frames, 0.0)

    def test_test_data_keeps_train_statistics(self):
        rng = make_rng(1)
        train = self._sequences(rng)
        shifted = self._sequences(rng, shift=5.0)
        stats = compute_feature_stats(train)
        out = np.concatenate(
            [normalize_features(stats, s).frames for s in shifted], axis=0
        )
        # a 5-sigma-ish shift survives: test stats were not used
        assert out.mean() > 3.0

    def test_z_score_beyond_float32_range_is_a_numeric_error(self):
        """A finite frame whose z-score leaves float32 range is reported,
        naming the utterance and modality, without numpy's cast warning."""
        frames = np.zeros((3, 13), dtype=np.float32)
        frames[1] = 3e38
        stats = FeatureStats(mean=np.zeros(13), std=np.full(13, 0.5), modality=Modality.MFCC13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="'utt7'.*MFCC13"):
                normalize_features(stats, FeatureSequence(frames, Modality.MFCC13, "utt7"))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Modality)), st.integers(min_value=1, max_value=50))
def test_modality_dimension_contract(modality, t):
    frames = np.zeros((t, modality.dim), dtype=np.float32)
    seq = FeatureSequence(frames, modality, "u")
    assert seq.dim == modality.dim
    with pytest.raises(DimensionError):
        FeatureSequence(np.zeros((t, modality.dim + 1), dtype=np.float32), modality, "u")


def test_non_finite_features_rejected():
    frames = np.zeros((3, 13), dtype=np.float32)
    frames[1, 4] = np.nan
    with pytest.raises(InputError):
        FeatureSequence(frames, Modality.MFCC13, "u")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=200,
    )
)
def test_frame_features_finite_on_any_finite_frame(values):
    # guarded divisions and entropy floors: no NaN/Inf even for constant,
    # zero, or wildly scaled frames
    feats = eeg_frame_features(np.array(values))
    assert np.all(np.isfinite(feats))
    assert 0.0 <= feats[4] <= 1.0 + 1e-12
