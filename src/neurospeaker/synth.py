"""Synthetic paired speech/EEG corpus generator.

Stands in for private human recordings: each speaker gets a signature
(formant positions for audio, spatial mixing and source gains for EEG) whose
distance from the shared base grows with ``separability``. At separability 0
every speaker draws from the same distribution, so no classifier can beat
chance by construction.

Each resonator is one second-order section run by the EEG filters' compiled
loop (``dsp._filter_rows``, in ``scipy.signal._sosfilt``), so synthesizing
never runs ``scipy.signal``'s package import; ``tests/test_synth.py`` holds
it to ``scipy.signal.lfilter`` bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SignalRecord, derive_rng
from .dsp import BiquadSection, _filter_rows
from .errors import InputError
from .features import AUDIO_RATE_HZ, EEG_CHANNELS, EEG_RATE_HZ

BASE_FORMANTS_HZ = (500.0, 1500.0, 2500.0)
FORMANT_BANDWIDTHS_HZ = (80.0, 120.0, 160.0)
FORMANT_GAINS = (1.0, 0.6, 0.4)

EEG_SOURCE_CENTERS_HZ = (3.0, 7.0, 12.0, 20.0, 35.0)
EEG_SOURCE_BANDWIDTHS_HZ = (1.5, 2.0, 3.0, 4.0, 6.0)
POWERLINE_HZ = 60.0
POWERLINE_AMPLITUDE = 4.0
PINK_NOISE_RMS = 0.25
MIXING_SCALE = 0.3
# Past 300 dB (an amplitude ratio of 1e15) the weaker of speech and noise sits
# below float64 resolution of the stronger, and 10 ** (noise_db / 20)
# overflows from about 6,165 dB.
NOISE_DB_LIMIT = 300.0


@dataclass(frozen=True)
class SynthSpec:
    """Corpus recipe; ``noise_db`` is the audio noise level relative to the
    speech signal (0 dB = equal RMS, positive = noise dominates)."""

    n_speakers: int = 4
    utterances_per_speaker: int = 50
    duration_s: float = 2.0
    separability: float = 1.0
    noise_db: float = -40.0
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2:
            raise InputError(f"need at least 2 speakers, got {self.n_speakers}")
        if self.utterances_per_speaker < 1:
            raise InputError("need at least one utterance per speaker")
        if self.duration_s <= 0:
            raise InputError(f"duration must be positive, got {self.duration_s}")
        if self.separability < 0:
            raise InputError(f"separability must be >= 0, got {self.separability}")
        if not abs(self.noise_db) <= NOISE_DB_LIMIT:
            raise InputError(
                f"noise_db must lie within +-{NOISE_DB_LIMIT:g} dB, got {self.noise_db}"
            )

    def samples_at(self, sample_rate_hz: float) -> int:
        """Samples in each recording sampled at ``sample_rate_hz``."""
        return int(round(self.duration_s * sample_rate_hz))


@dataclass
class Utterance:
    utterance_id: str
    speaker: int
    audio: SignalRecord
    eeg: SignalRecord


@dataclass
class SpeakerProfiles:
    formants_hz: np.ndarray  # (S, 3)
    mixing: np.ndarray  # (S, channels, sources)
    source_gains: np.ndarray  # (S, sources)
    powerline_pattern: np.ndarray  # (channels,)


def _resonate(x: np.ndarray, center_hz: float, bandwidth_hz: float, fs: float) -> np.ndarray:
    """Two-pole resonator at ``center_hz`` over ``x``."""
    r = math.exp(-math.pi * bandwidth_hz / fs)
    theta = 2.0 * math.pi * center_hz / fs
    section = BiquadSection(1.0 - r, 0.0, 0.0, -2.0 * r * math.cos(theta), r * r)
    return _filter_rows((section,), x[np.newaxis, :])[0]


def _pink_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """1/f-shaped Gaussian noise, unit RMS."""
    white = rng.standard_normal(n)
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n)
    shaping = np.ones_like(freqs)
    nonzero = freqs > 0
    shaping[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    shaping[0] = 0.0
    shaped = np.fft.irfft(spectrum * shaping, n=n)
    rms = np.sqrt(np.mean(shaped**2))
    return shaped / max(rms, 1e-30)


def speaker_profiles(spec: SynthSpec) -> SpeakerProfiles:
    """Per-speaker signatures; identical across speakers when separability is 0."""
    rng = derive_rng(spec.seed, "synth.speakers")
    s = spec.n_speakers
    n_src = len(EEG_SOURCE_CENTERS_HZ)
    formant_offsets = rng.uniform(-0.3, 0.3, size=(s, len(BASE_FORMANTS_HZ)))
    mixing_delta = rng.standard_normal((s, EEG_CHANNELS, n_src))
    gain_offsets = rng.uniform(-0.5, 0.5, size=(s, n_src))

    common = derive_rng(spec.seed, "synth.common")
    base_mixing = common.standard_normal((EEG_CHANNELS, n_src)) * MIXING_SCALE
    powerline = common.uniform(0.5, 1.5, size=EEG_CHANNELS)

    sep = spec.separability
    formants = np.array(BASE_FORMANTS_HZ) * (1.0 + sep * formant_offsets)
    mixing = base_mixing[None, :, :] + sep * MIXING_SCALE * mixing_delta
    gains = 1.0 + sep * gain_offsets
    return SpeakerProfiles(
        formants_hz=formants,
        mixing=mixing,
        source_gains=gains,
        powerline_pattern=powerline,
    )


def _synth_audio(rng: np.random.Generator, spec: SynthSpec, formants: np.ndarray) -> np.ndarray:
    n = spec.samples_at(AUDIO_RATE_HZ)
    excitation = rng.standard_normal(n)
    voice = np.zeros(n)
    for f_hz, bw, gain in zip(formants, FORMANT_BANDWIDTHS_HZ, FORMANT_GAINS):
        voice += gain * _resonate(excitation, f_hz, bw, AUDIO_RATE_HZ)
    voice_rms = np.sqrt(np.mean(voice**2))
    voice = voice / max(voice_rms, 1e-30) * 0.1
    noise = rng.standard_normal(n)
    noise = noise / np.sqrt(np.mean(noise**2)) * 0.1 * 10.0 ** (spec.noise_db / 20.0)
    mixed = voice + noise
    peak = np.max(np.abs(mixed))
    if peak > 0.99:  # keep PCM-16 headroom without changing the noise ratio
        mixed = mixed / peak * 0.99
    return mixed


def _synth_eeg(
    rng: np.random.Generator,
    spec: SynthSpec,
    mixing: np.ndarray,
    gains: np.ndarray,
    powerline_pattern: np.ndarray,
) -> np.ndarray:
    n = spec.samples_at(EEG_RATE_HZ)
    n_src = len(EEG_SOURCE_CENTERS_HZ)
    sources = np.empty((n_src, n))
    for i, (f_hz, bw) in enumerate(zip(EEG_SOURCE_CENTERS_HZ, EEG_SOURCE_BANDWIDTHS_HZ)):
        src = _resonate(rng.standard_normal(n), f_hz, bw, EEG_RATE_HZ)
        sources[i] = src / max(np.sqrt(np.mean(src**2)), 1e-30)
    eeg = mixing @ (sources * gains[:, None])
    phase = rng.uniform(0.0, 2.0 * math.pi)
    t = np.arange(n) / EEG_RATE_HZ
    eeg += POWERLINE_AMPLITUDE * np.outer(
        powerline_pattern, np.sin(2.0 * math.pi * POWERLINE_HZ * t + phase)
    )
    for ch in range(EEG_CHANNELS):
        eeg[ch] += PINK_NOISE_RMS * _pink_noise(rng, n)
    return eeg


def generate_synthetic(spec: SynthSpec) -> list[Utterance]:
    """Paired recordings for every (speaker, utterance) cell; fully seed-driven."""
    profiles = speaker_profiles(spec)
    utterances = []
    index = 0
    for speaker in range(spec.n_speakers):
        for _ in range(spec.utterances_per_speaker):
            rng = derive_rng(spec.seed, f"synth.utt.{index}")
            audio = _synth_audio(rng, spec, profiles.formants_hz[speaker])
            eeg = _synth_eeg(
                rng,
                spec,
                profiles.mixing[speaker],
                profiles.source_gains[speaker],
                profiles.powerline_pattern,
            )
            utt_id = f"utt{index:04d}"
            utterances.append(
                Utterance(
                    utterance_id=utt_id,
                    speaker=speaker,
                    audio=SignalRecord(AUDIO_RATE_HZ, audio[None, :]),
                    eeg=SignalRecord(EEG_RATE_HZ, eeg),
                )
            )
            index += 1
    return utterances
