"""Speaker identification from speech, EEG, or their frame-aligned fusion.

The processing chain: synthetic corpus generation, EEG conditioning
(band-pass, notch, ICA artifact removal), frame-level feature extraction
(13 MFCCs / 155 EEG statistics at 100 Hz), kernel-PCA reduction of the EEG
space to 30 dimensions, optional fusion to 43 dimensions, and a
TCN-GRU-dense softmax classifier trained with Adam.
"""

from .core import LabeledDataset, SignalRecord, derive_rng, make_rng, split_dataset
from .features import FeatureSequence, Modality

__version__ = "0.1.0"

__all__ = [
    "FeatureSequence",
    "LabeledDataset",
    "Modality",
    "SignalRecord",
    "derive_rng",
    "make_rng",
    "split_dataset",
    "__version__",
]
