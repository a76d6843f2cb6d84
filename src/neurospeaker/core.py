"""Shared containers, seeded randomness, and dataset bookkeeping.

All stochastic code in the package draws from generators produced here, so a
single root seed reproduces every stage bit for bit.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .features import FeatureSequence

PARTITIONS = ("train", "val", "test")
DEFAULT_SPLIT_RATIOS = (0.8, 0.1, 0.1)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (PCG64): equal seeds give equal streams on any platform."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(seed: int, label: str) -> int:
    """Hash a root seed and a stage label into an independent 64-bit child seed."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(seed: int, label: str) -> np.random.Generator:
    """Stage-local generator: reproducible without coupling stages to each other."""
    return make_rng(derive_seed(seed, label))


@dataclass
class SignalRecord:
    """A multichannel time series: raw EEG (channels x time) or mono audio.

    ``samples`` is channels-major; audio is a single-channel record.
    """

    sample_rate_hz: float
    samples: np.ndarray  # (channels, time)
    channel_labels: tuple[str, ...]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise InputError("samples must be a 2-D (channels x time) array")
        if self.sample_rate_hz <= 0:
            raise InputError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if len(self.channel_labels) != self.samples.shape[0]:
            raise InputError(
                f"{len(self.channel_labels)} channel labels for {self.samples.shape[0]} channels"
            )

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


def default_channel_labels(n: int, prefix: str = "ch") -> tuple[str, ...]:
    return tuple(f"{prefix}{i:02d}" for i in range(n))


@dataclass
class LabeledDataset:
    """Utterance-level (features, speaker) pairs with a frozen train/val/test
    partition; an utterance id belongs to one partition only."""

    items: list[tuple["FeatureSequence", int]]
    n_speakers: int
    partition: tuple[str, ...]

    def __post_init__(self):
        if len(self.partition) != len(self.items):
            raise InputError("partition tag count must equal item count")
        for tag in self.partition:
            if tag not in PARTITIONS:
                raise InputError(f"unknown partition tag {tag!r}")
        labels = [label for _, label in self.items]
        for label in labels:
            if not 0 <= label < self.n_speakers:
                raise InputError(f"speaker id {label} outside 0..{self.n_speakers - 1}")
        train_speakers = {label for (_, label), tag in zip(self.items, self.partition) if tag == "train"}
        if train_speakers != set(range(self.n_speakers)):
            missing = sorted(set(range(self.n_speakers)) - train_speakers)
            raise InputError(f"speakers {missing} have no training items")
        seen: dict[str, str] = {}
        for (seq, _), tag in zip(self.items, self.partition):
            if seen.setdefault(seq.utterance_id, tag) != tag:
                raise InputError(
                    f"utterance {seq.utterance_id!r} appears in partitions "
                    f"{seen[seq.utterance_id]!r} and {tag!r}"
                )

    def indices(self, tag: str) -> list[int]:
        return [i for i, t in enumerate(self.partition) if t == tag]

    def subset(self, tag: str) -> list[tuple["FeatureSequence", int]]:
        return [self.items[i] for i in self.indices(tag)]

def largest_remainder_counts(total: int, ratios: Sequence[float]) -> list[int]:
    """Integer partition sizes that sum exactly to ``total``.

    Floors the real-valued quotas, then hands the leftover items to the
    largest remainders (ties broken by position).
    """
    quotas = [total * r for r in ratios]
    counts = [int(np.floor(q)) for q in quotas]
    leftover = total - sum(counts)
    remainders = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in remainders[:leftover]:
        counts[i] += 1
    return counts


def split_dataset(
    items: list[tuple["FeatureSequence", int]], rng: np.random.Generator
) -> LabeledDataset:
    """Shuffle and partition utterances into train/val/test.

    Global partition sizes follow largest-remainder rounding of
    ``DEFAULT_SPLIT_RATIOS``; assignment is stratified per speaker
    (proportional quotas, and every speaker keeps at least one training
    item). The shuffle is driven solely by ``rng``.
    """
    ratios = DEFAULT_SPLIT_RATIOS
    labels = [label for _, label in items]
    if not labels:
        raise InputError("cannot split an empty item list")
    n_speakers = max(labels) + 1
    if len(items) < n_speakers:
        raise InputError(f"{len(items)} items cannot cover {n_speakers} speakers")
    per_speaker: dict[int, list[int]] = {s: [] for s in range(n_speakers)}
    for idx, label in enumerate(labels):
        if label < 0:
            raise InputError(f"negative speaker id {label}")
        per_speaker.setdefault(label, []).append(idx)
    empty = [s for s in range(n_speakers) if not per_speaker[s]]
    if empty:
        raise InputError(f"speakers {empty} have no items")

    totals = largest_remainder_counts(len(items), ratios)
    tags = [""] * len(items)
    assigned = [0, 0, 0]
    leftovers: list[tuple[int, list[float]]] = []  # (item index, per-partition remainders)

    for speaker in range(n_speakers):
        idxs = list(per_speaker[speaker])
        rng.shuffle(idxs)
        quotas = [len(idxs) * r for r in ratios]
        floors = [int(np.floor(q)) for q in quotas]
        if floors[0] == 0:  # every speaker must train
            floors[0] = 1
        floors = [min(f, len(idxs)) for f in floors]
        while sum(floors) > len(idxs):  # only reachable via the train bump
            shrink = max((1, 2), key=lambda p: floors[p])
            floors[shrink] -= 1
        cursor = 0
        for part, count in enumerate(floors):
            for idx in idxs[cursor : cursor + count]:
                tags[idx] = PARTITIONS[part]
                assigned[part] += 1
            cursor += count
        remainders = [quotas[p] - floors[p] for p in range(3)]
        for idx in idxs[cursor:]:
            leftovers.append((idx, remainders))

    # Distribute leftover items to partitions that still need members,
    # preferring each item's own speaker's largest remainder.
    order = rng.permutation(len(leftovers))
    for k in order:
        idx, remainders = leftovers[k]
        open_parts = [p for p in range(3) if assigned[p] < totals[p]]
        part = max(open_parts, key=lambda p: (remainders[p], -p))
        tags[idx] = PARTITIONS[part]
        assigned[part] += 1

    return LabeledDataset(items=list(items), n_speakers=n_speakers, partition=tuple(tags))
