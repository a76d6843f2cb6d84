import importlib.machinery
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurospeaker.core import (
    _scipy_extension,
    derive_rng,
    derive_seed,
    largest_remainder_counts,
    make_rng,
    split_dataset,
)
from neurospeaker.errors import InputError
from neurospeaker.features import FeatureSequence, Modality


def make_items(counts_per_speaker):
    items = []
    k = 0
    for speaker, count in enumerate(counts_per_speaker):
        for _ in range(count):
            seq = FeatureSequence(
                np.zeros((5, 13), dtype=np.float32), Modality.MFCC13, f"utt{k:04d}"
            )
            items.append((seq, speaker))
            k += 1
    return items


def test_largest_remainder_exact_sums():
    assert largest_remainder_counts(100, (0.8, 0.1, 0.1)) == [80, 10, 10]
    assert largest_remainder_counts(1800, (0.8, 0.1, 0.1)) == [1440, 180, 180]
    assert largest_remainder_counts(24, (0.8, 0.1, 0.1)) == [19, 3, 2]


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=5000))
def test_largest_remainder_always_sums_to_total(total):
    counts = largest_remainder_counts(total, (0.8, 0.1, 0.1))
    assert sum(counts) == total
    assert all(c >= 0 for c in counts)


def test_split_100_items_gives_80_10_10():
    dataset = split_dataset(make_items([25, 25, 25, 25]), rng=make_rng(3))
    assert Counter(dataset.partition) == {"train": 80, "val": 10, "test": 10}


def test_split_1800_items_gives_table_consistent_sizes():
    # 180-item test partitions make the published accuracies k/180 rationals.
    dataset = split_dataset(make_items([450] * 4), rng=make_rng(9))
    assert Counter(dataset.partition) == {"train": 1440, "val": 180, "test": 180}


def test_split_stratified_every_speaker_trains():
    items = make_items([1, 1, 30, 30])
    dataset = split_dataset(items, rng=make_rng(0))
    train_speakers = {label for (_, label), tag in zip(dataset.items, dataset.partition) if tag == "train"}
    assert train_speakers == {0, 1, 2, 3}


def test_split_deterministic_for_equal_seeds():
    items = make_items([13, 17, 20])
    a = split_dataset(items, rng=make_rng(42))
    b = split_dataset(items, rng=make_rng(42))
    assert a.partition == b.partition
    c = split_dataset(items, rng=make_rng(43))
    assert a.partition != c.partition  # extremely unlikely to collide


def test_split_rejects_fewer_items_than_speakers():
    items = make_items([1, 1])
    # fabricate a third speaker with no items by remapping a label out of range
    seq = items[0][0]
    with pytest.raises(InputError):
        split_dataset([(seq, 2), (seq, 0)], rng=make_rng(0))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=2, max_size=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_counts_match_largest_remainder(per_speaker, seed):
    items = make_items(per_speaker)
    dataset = split_dataset(items, rng=make_rng(seed))
    counts = Counter(dataset.partition)
    expected = largest_remainder_counts(len(items), (0.8, 0.1, 0.1))
    # the >=1-train-per-speaker rule may only move items toward train
    assert counts["train"] >= expected[0] or counts["train"] == expected[0]
    if all(n >= 2 for n in per_speaker):
        assert [counts["train"], counts["val"], counts["test"]] == expected
    train_speakers = {
        label for (_, label), tag in zip(dataset.items, dataset.partition) if tag == "train"
    }
    assert train_speakers == set(range(len(per_speaker)))


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(0, "split") == derive_seed(0, "split")
    assert derive_seed(0, "split") != derive_seed(0, "train.init")
    assert derive_seed(0, "split") != derive_seed(1, "split")


def test_rng_streams_reproducible():
    a = derive_rng(7, "stage").standard_normal(8)
    b = derive_rng(7, "stage").standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_missing_scipy_extension_is_an_import_error_naming_its_path():
    """No fallback: a compiled module that is not where scipy installs it
    raises, and nothing is registered under its name."""
    with pytest.raises(ImportError, match=r"_no_such_module\.") as caught:
        _scipy_extension("scipy.signal._no_such_module")
    path = Path(caught.value.path)
    assert path.parent.name == "signal" and path.name.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])
    assert "scipy.signal._no_such_module" not in sys.modules
