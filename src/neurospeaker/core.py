"""Shared containers, seeded randomness, dataset bookkeeping, the BLAS pin,
the package's one worker map and its loader of compiled scipy modules.

All stochastic code in the package draws from generators produced here, so a
single root seed reproduces every stage bit for bit. Importing this module
sets numpy's OpenBLAS to one thread, whatever the environment says, and
``_ordered_map`` spreads independent items (utterances, row bands of the
KPCA Gram matrix, the experiment's fit, val/test frontend and trainings)
over the usable CPUs; results come back in item order: a serial loop's bytes.
The program runs two compiled scipy routines (the IIR loop of the corpus
resonators and the EEG filters, and the KPCA eigensolve), and
``_scipy_extension`` loads the module holding each from its own file,
without the package above it.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

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

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise InputError("samples must be a 2-D (channels x time) array")
        if self.sample_rate_hz <= 0:
            raise InputError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


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
    """Shuffle and partition utterances into train/val/test with
    ``split_labels`` on their speaker labels."""
    labels = [label for _, label in items]
    tags = split_labels(labels, rng)
    return LabeledDataset(items=list(items), n_speakers=max(labels) + 1, partition=tags)


def split_labels(labels: Sequence[int], rng: np.random.Generator) -> tuple[str, ...]:
    """The partition tag of each item, given its speaker label.

    Global partition sizes follow largest-remainder rounding of
    ``DEFAULT_SPLIT_RATIOS``; assignment is stratified per speaker
    (proportional quotas, and every speaker keeps at least one training
    item). The shuffle is driven solely by ``rng``, so the tags depend on
    nothing but the labels and the generator.
    """
    ratios = DEFAULT_SPLIT_RATIOS
    if not labels:
        raise InputError("cannot split an empty item list")
    n_speakers = max(labels) + 1
    if len(labels) < n_speakers:
        raise InputError(f"{len(labels)} items cannot cover {n_speakers} speakers")
    per_speaker: dict[int, list[int]] = {s: [] for s in range(n_speakers)}
    for idx, label in enumerate(labels):
        if label < 0:
            raise InputError(f"negative speaker id {label}")
        per_speaker[label].append(idx)
    empty = [s for s in range(n_speakers) if not per_speaker[s]]
    if empty:
        raise InputError(f"speakers {empty} have no items")

    totals = largest_remainder_counts(len(labels), ratios)
    tags = [""] * len(labels)
    assigned = [0, 0, 0]
    leftovers: list[tuple[int, list[float]]] = []  # (item index, per-partition remainders)

    for speaker in range(n_speakers):
        idxs = list(per_speaker[speaker])
        rng.shuffle(idxs)
        quotas = [len(idxs) * r for r in ratios]
        floors = [int(np.floor(q)) for q in quotas]  # sum <= len(idxs) at 0.8/0.1/0.1
        if floors[0] == 0:  # a speaker's lone item trains
            floors[0] = 1
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

    return tuple(tags)


@functools.cache
def _pin_blas(extension: str, suffix: str):
    """Set the scipy-openblas that the extension module at path ``extension``
    links to one thread, once, and return its thread-count getter; None for
    another BLAS, such as MKL, which keeps its own thread count."""
    lib = ctypes.CDLL(extension)  # dlsym on it also searches its dependencies
    name = "scipy_openblas_{}_num_threads" + suffix
    setter, getter = getattr(lib, name.format("set"), None), getattr(lib, name.format("get"), None)
    if setter is None or getter is None:
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter(1)
    return getter


_EXTENSION_LOCK = threading.Lock()


def _scipy_extension(name: str):
    """The compiled scipy module ``name``, such as ``"scipy.signal._sosfilt"``.

    An imported module is returned as it is. Otherwise the module is loaded
    from its own file under scipy's install directory, and registered under
    ``name``, so the package above it never runs (``scipy.signal`` takes
    about 1 s and 70 MB to import with the subpackages it imports); a later
    import of that package reuses the module. A missing file raises
    ``ImportError``: there is no fallback to the package import.
    """
    with _EXTENSION_LOCK:
        if name in sys.modules:
            return sys.modules[name]
        import scipy

        stem = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
        paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"no compiled module {name} at {paths[0]}", name=name, path=paths[0])
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        sys.modules[name] = module
        try:
            loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
        return module


_NUMPY_BLAS = (np.linalg._umath_linalg.__file__, "64_")  # numpy 1 and 2 both have it
_pin_blas(*_NUMPY_BLAS)


def _map_width() -> int:
    """Every usable CPU when numpy's OpenBLAS says it runs one thread, else 1
    (MKL, Accelerate): callers of a multi-threaded BLAS queue on its threads."""
    threads = _pin_blas(*_NUMPY_BLAS)  # the getter of the pin made at import
    return _usable_cpus() if threads and threads() == 1 else 1


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ordered_map(fn: Callable, items: list) -> list:
    """``[fn(item) for item in items]`` on up to ``_map_width()`` threads.

    The calling thread is one of them, so ``width - 1`` threads start (none
    at width 1). Item 0 runs on the calling thread and item ``k`` on worker
    ``k``, handed out before any worker starts; ``run_experiment`` relies on
    that to keep its KPCA fit, the run's largest allocation, out of a
    worker's arena, and to start the fit item that its other items may wait
    for. That item maps again, the fit as item 0 beside the val/test
    frontend, so the fit stays on the calling thread.
    Each allocating thread gets a malloc arena that keeps the memory it
    frees; a pool beside an idle caller raised the frontend benchmark's peak
    RSS by 5 %, and this map by 0.3 %.

    Items are taken in order, so when an item fails, every earlier item has
    already been taken and runs to its end; no new item is taken after a
    failure, and the first failure in item order raises, as in the serial
    loop.
    """
    width = min(_map_width(), len(items))
    if width <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    errors: list[BaseException | None] = [None] * len(items)
    taken = iter(range(width, len(items)))
    lock = threading.Lock()
    stop = threading.Event()

    def drain(i: int | None) -> None:
        while i is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised below, in item order
                errors[i] = exc
                stop.set()
            with lock:
                i = None if stop.is_set() else next(taken, None)

    workers = [threading.Thread(target=drain, args=(k,)) for k in range(1, width)]
    for worker in workers:
        worker.start()
    try:
        drain(0)
    finally:
        stop.set()
        for worker in workers:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
