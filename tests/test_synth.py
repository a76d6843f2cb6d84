import math

import numpy as np
import pytest
from scipy.signal import lfilter

from neurospeaker import dsp, synth
from neurospeaker.core import make_rng
from neurospeaker.errors import InputError
from neurospeaker.features import AUDIO_RATE_HZ, EEG_RATE_HZ
from neurospeaker.synth import (
    BASE_FORMANTS_HZ,
    EEG_SOURCE_BANDWIDTHS_HZ,
    EEG_SOURCE_CENTERS_HZ,
    FORMANT_BANDWIDTHS_HZ,
    NOISE_DB_LIMIT,
    SynthSpec,
    generate_synthetic,
    speaker_profiles,
)


def spectral_peak_db(x, fs, freq, width=2.0):
    psd = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(len(x), d=1.0 / fs)
    band = (freqs > freq - width) & (freqs < freq + width)
    rest = ~band & (freqs > 1.0)
    return 10 * np.log10(psd[band].mean() / psd[rest].mean())


def band_power_db(x, fs, freq, width=1.5, discard=500):
    x = x[discard:]  # drop the filter onset transient
    psd = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(len(x), d=1.0 / fs)
    band = (freqs > freq - width) & (freqs < freq + width)
    return 10 * np.log10(psd[band].mean())


class TestCorpusShape:
    def test_counts_and_lengths(self):
        spec = SynthSpec(n_speakers=4, utterances_per_speaker=50, duration_s=2.0, seed=0)
        utts = generate_synthetic(SynthSpec(n_speakers=4, utterances_per_speaker=2, duration_s=2.0, seed=0))
        assert spec.n_speakers * spec.utterances_per_speaker == 200
        assert len(utts) == 8
        for utt in utts:
            assert utt.audio.samples.shape == (1, 32000)
            assert utt.eeg.samples.shape == (31, 2000)

    def test_speakers_cycle_in_order(self):
        utts = generate_synthetic(SynthSpec(n_speakers=3, utterances_per_speaker=2, duration_s=0.5, seed=1))
        assert [u.speaker for u in utts] == [0, 0, 1, 1, 2, 2]

    def test_bad_spec_rejected(self):
        with pytest.raises(InputError):
            SynthSpec(n_speakers=1)
        with pytest.raises(InputError):
            SynthSpec(separability=-0.5)
        with pytest.raises(InputError):
            SynthSpec(duration_s=0.0)
        for noise_db in (1e300, -301.0, float("nan")):
            with pytest.raises(InputError, match="noise_db"):
                SynthSpec(noise_db=noise_db)

    def test_noise_db_at_its_limits_synthesises(self):
        for noise_db in (-NOISE_DB_LIMIT, NOISE_DB_LIMIT):
            spec = SynthSpec(n_speakers=2, utterances_per_speaker=1, duration_s=0.1, noise_db=noise_db)
            for utt in generate_synthetic(spec):
                assert np.all(np.isfinite(utt.audio.samples))


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        a = generate_synthetic(SynthSpec(n_speakers=2, utterances_per_speaker=2, duration_s=0.5, seed=5))
        b = generate_synthetic(SynthSpec(n_speakers=2, utterances_per_speaker=2, duration_s=0.5, seed=5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.audio.samples, y.audio.samples)
            np.testing.assert_array_equal(x.eeg.samples, y.eeg.samples)

    def test_different_seed_different_corpus(self):
        a = generate_synthetic(SynthSpec(n_speakers=2, utterances_per_speaker=1, duration_s=0.5, seed=5))
        b = generate_synthetic(SynthSpec(n_speakers=2, utterances_per_speaker=1, duration_s=0.5, seed=6))
        assert not np.array_equal(a[0].audio.samples, b[0].audio.samples)


class TestResonator:
    """``_resonate`` runs one section in the compiled loop behind
    ``scipy.signal.sosfilt``, which is private to scipy; ``lfilter``, a
    different compiled path, is the oracle, at every (centre, bandwidth,
    rate) the corpus uses: each formant at its base and at the extremes of
    its separability offset, and each EEG source."""

    CASES = [
        *[
            (f_hz * (1.0 + offset), bw, AUDIO_RATE_HZ)
            for f_hz, bw in zip(BASE_FORMANTS_HZ, FORMANT_BANDWIDTHS_HZ)
            for offset in (-0.3, 0.0, 0.3)
        ],
        *[(f_hz, bw, EEG_RATE_HZ) for f_hz, bw in zip(EEG_SOURCE_CENTERS_HZ, EEG_SOURCE_BANDWIDTHS_HZ)],
    ]

    @pytest.mark.parametrize("center_hz, bandwidth_hz, fs", CASES)
    def test_bit_equal_to_lfilter(self, center_hz, bandwidth_hz, fs):
        x = make_rng(26).standard_normal(fs)  # one second
        r = math.exp(-math.pi * bandwidth_hz / fs)
        theta = 2.0 * math.pi * center_hz / fs
        expected = lfilter([1.0 - r], [1.0, -2.0 * r * math.cos(theta), r * r], x)
        assert np.array_equal(synth._resonate(x, center_hz, bandwidth_hz, fs), expected)


class TestSeparabilityKnob:
    def test_zero_separability_equalizes_speaker_signatures(self):
        profiles = speaker_profiles(SynthSpec(n_speakers=4, separability=0.0, seed=3))
        for s in range(1, 4):
            np.testing.assert_array_equal(profiles.formants_hz[0], profiles.formants_hz[s])
            np.testing.assert_array_equal(profiles.mixing[0], profiles.mixing[s])
            np.testing.assert_array_equal(profiles.source_gains[0], profiles.source_gains[s])

    def test_positive_separability_distinguishes_speakers(self):
        profiles = speaker_profiles(SynthSpec(n_speakers=4, separability=1.0, seed=3))
        assert not np.array_equal(profiles.formants_hz[0], profiles.formants_hz[1])
        assert not np.array_equal(profiles.mixing[0], profiles.mixing[1])


class TestPowerlineInterference:
    def test_60hz_present_then_notched_out(self):
        utt = generate_synthetic(
            SynthSpec(n_speakers=2, utterances_per_speaker=1, duration_s=2.0, seed=9)
        )[0]
        assert spectral_peak_db(utt.eeg.samples[0], 1000.0, 60.0) > 10.0
        notch = dsp.design_notch(60.0, 30.0, 1000.0)
        cleaned = dsp.apply_filter(notch, utt.eeg)
        for ch in range(3):
            raw_db = band_power_db(utt.eeg.samples[ch], 1000.0, 60.0)
            clean_db = band_power_db(cleaned.samples[ch], 1000.0, 60.0)
            assert raw_db - clean_db >= 30.0


class TestAudioNoiseKnob:
    def test_noise_db_controls_audio_snr(self):
        quiet = generate_synthetic(
            SynthSpec(n_speakers=2, utterances_per_speaker=1, duration_s=1.0, noise_db=-40.0, seed=4)
        )[0]
        noisy = generate_synthetic(
            SynthSpec(n_speakers=2, utterances_per_speaker=1, duration_s=1.0, noise_db=20.0, seed=4)
        )[0]
        # formant structure drowns at +20 dB noise: flat spectrum
        peak_quiet = spectral_peak_db(quiet.audio.samples[0], 16000.0, 500.0, width=150.0)
        peak_noisy = spectral_peak_db(noisy.audio.samples[0], 16000.0, 500.0, width=150.0)
        assert peak_quiet > peak_noisy + 5.0
