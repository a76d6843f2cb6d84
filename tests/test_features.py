import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurospeaker.core import SignalRecord, default_channel_labels, make_rng
from neurospeaker.errors import AlignmentError, DimensionError, InputError
from neurospeaker.features import (
    FeatureSequence,
    Modality,
    MfccConfig,
    compute_feature_stats,
    eeg_frame_features,
    extract_eeg_features,
    extract_mfcc,
    fuse,
    mel_filterbank,
    normalize_features,
)


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


class TestExtractEegFeatures:
    def _record(self, samples):
        return SignalRecord(1000.0, samples, default_channel_labels(samples.shape[0]))

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

    def test_hop_follows_the_sample_rate(self):
        """100 Hz frames: hop 5 at 500 Hz; 250 Hz has no whole-sample hop."""
        x = make_rng(2).standard_normal((31, 500))
        seq = extract_eeg_features(SignalRecord(500.0, x, default_channel_labels(31)), 50)
        assert seq.frames.shape == (1 + (500 - 50) // 5, 155)
        assert seq.rate_hz == 100
        np.testing.assert_allclose(seq.frames[3, :5], eeg_frame_features(x[0, 15:65]), rtol=1e-6)
        with pytest.raises(InputError, match="250"):
            extract_eeg_features(SignalRecord(250.0, x, default_channel_labels(31)), 50)

    def test_matches_per_frame_operation(self):
        x = make_rng(5).standard_normal((31, 300))
        seq = extract_eeg_features(self._record(x), 100)
        # spot-check one frame/channel against the public per-frame op
        frame = x[7, 50:150]
        expected = eeg_frame_features(frame)
        np.testing.assert_allclose(seq.frames[5, 7 * 5 : 7 * 5 + 5], expected, rtol=1e-6)


class TestMfcc:
    def _audio(self, samples):
        return SignalRecord(16000.0, samples[np.newaxis, :], ("mono",))

    def test_dimension_is_13(self):
        audio = self._audio(make_rng(0).standard_normal(16000) * 0.1)
        seq = extract_mfcc(audio)
        assert seq.dim == 13
        assert seq.modality is Modality.MFCC13
        assert seq.rate_hz == 100

    def test_silence_concentrates_in_c0(self):
        config = MfccConfig()
        seq = extract_mfcc(self._audio(np.zeros(16000)), config)
        # constant log-mel vector: orthonormal DCT-II puts sqrt(N)*log(floor)
        # in c0 and zero elsewhere
        expected_c0 = math.sqrt(config.n_filters) * math.log(config.log_floor)
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
        audio = SignalRecord(8000.0, np.zeros((1, 8000)), ("mono",))
        with pytest.raises(InputError):
            extract_mfcc(audio)

    def test_stereo_rejected(self):
        audio = SignalRecord(16000.0, np.zeros((2, 16000)), ("l", "r"))
        with pytest.raises(InputError):
            extract_mfcc(audio)

    def test_frame_count_formula(self):
        seq = extract_mfcc(self._audio(np.zeros(32000)))
        assert seq.n_frames == 1 + (32000 - 400) // 160  # 198


class TestMelFilterbank:
    def test_filters_cover_spectrum(self):
        bank = mel_filterbank(26, 512, 16000)
        assert bank.weights.shape == (26, 257)
        assert np.all(bank.weights.sum(axis=1) > 0)
        coverage = bank.weights.sum(axis=0)
        assert np.all(coverage[1:-1] > 0)  # every interior bin touched


class TestFusion:
    def _seq(self, t, modality, utt="u0"):
        return FeatureSequence(
            np.arange(t * modality.dim, dtype=np.float32).reshape(t, modality.dim),
            100,
            modality,
            utt,
        )

    def test_min_length_rule(self):
        fused = fuse(self._seq(90, Modality.MFCC13), self._seq(91, Modality.EEG30))
        assert fused.frames.shape == (90, 43)
        assert fused.modality is Modality.FUSED43

    def test_dimension_arithmetic(self):
        assert Modality.MFCC13.dim + Modality.EEG30.dim == Modality.FUSED43.dim == 43

    def test_id_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            fuse(self._seq(10, Modality.MFCC13, "a"), self._seq(10, Modality.EEG30, "b"))

    def test_rate_mismatch_rejected(self):
        eeg = self._seq(10, Modality.EEG30)
        eeg.rate_hz = 50
        with pytest.raises(AlignmentError):
            fuse(self._seq(10, Modality.MFCC13), eeg)

    def test_wrong_modalities_rejected(self):
        with pytest.raises(AlignmentError):
            fuse(self._seq(10, Modality.MFCC13), self._seq(10, Modality.MFCC13))

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
            audio = SignalRecord(
                16000.0, np.zeros((1, int(16000 * duration))), ("mono",)
            )
            eeg = SignalRecord(
                1000.0,
                np.zeros((31, int(1000 * duration))),
                default_channel_labels(31),
            )
            t_mfcc = extract_mfcc(audio).n_frames
            t_eeg = extract_eeg_features(eeg).n_frames
            assert t_mfcc - t_eeg == 7


class TestNormalization:
    def _sequences(self, rng, n=6, t=40, shift=0.0):
        return [
            FeatureSequence(
                (rng.standard_normal((t, 13)) + shift).astype(np.float32),
                100,
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
        seq = FeatureSequence(frames, 100, Modality.MFCC13, "u")
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


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(list(Modality)), st.integers(min_value=1, max_value=50))
def test_modality_dimension_contract(modality, t):
    frames = np.zeros((t, modality.dim), dtype=np.float32)
    seq = FeatureSequence(frames, 100, modality, "u")
    assert seq.dim == modality.dim
    with pytest.raises(DimensionError):
        FeatureSequence(np.zeros((t, modality.dim + 1), dtype=np.float32), 100, modality, "u")


def test_non_finite_features_rejected():
    frames = np.zeros((3, 13), dtype=np.float32)
    frames[1, 4] = np.nan
    with pytest.raises(InputError):
        FeatureSequence(frames, 100, Modality.MFCC13, "u")


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
