"""On-disk formats: feature sequences, raw EEG, WAV audio, manifests,
model checkpoints, and report/curve files.

All binary containers are little-endian. Tensor payloads are 32-bit floats.
"""
from __future__ import annotations

import csv
import io
import math
import os
import struct
import wave
from pathlib import Path

import numpy as np

from .core import SignalRecord, default_channel_labels
from .errors import DimensionError, FormatError, InputError
from .features import FeatureSequence, Modality
from .nn import ClassifierParams, DenseParams, GruLayerParams, TcnLayerParams

FSEQ_MAGIC = b"FSEQ"
EEG_MAGIC = b"EEGR"
CHECKPOINT_MAGIC = b"NSPK"
FORMAT_VERSION = 1

# ---------------------------------------------------------------- FSEQ files

def write_fseq(path: Path | str, seq: FeatureSequence) -> None:
    """magic 'FSEQ', version u16, modality u8, rate_hz u16, T u32, D u32,
    then T*D float32 row-major."""
    frames = np.ascontiguousarray(seq.frames, dtype="<f4")
    t, d = frames.shape
    with open(path, "wb") as fh:
        fh.write(FSEQ_MAGIC)
        fh.write(struct.pack("<HBHII", FORMAT_VERSION, int(seq.modality), seq.rate_hz, t, d))
        fh.write(frames.tobytes())


def read_fseq(path: Path | str, utterance_id: str = "") -> FeatureSequence:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FSEQ_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {FSEQ_MAGIC!r}")
        header = fh.read(struct.calcsize("<HBHII"))
        if len(header) != struct.calcsize("<HBHII"):
            raise FormatError(f"{path}: truncated header")
        version, modality_code, rate_hz, t, d = struct.unpack("<HBHII", header)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        try:
            modality = Modality(modality_code)
        except ValueError as exc:
            raise FormatError(f"{path}: unknown modality code {modality_code}") from exc
        size = 4 * t * d
        # Checked before reading: a corrupt T x D can claim more than memory holds.
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise FormatError(f"{path}: truncated payload ({t} x {d} frames claimed)")
        payload = fh.read(size)
        frames = np.frombuffer(payload, dtype="<f4").reshape(t, d)
    try:
        return FeatureSequence(frames, rate_hz, modality, utterance_id)
    except InputError as exc:  # e.g. rate 0, a D its modality disagrees with, a NaN
        raise FormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------- raw EEG files

def write_eeg(path: Path | str, record: SignalRecord) -> None:
    """magic 'EEGR', version u16, channels u16, sample_rate u32,
    float32 samples channel-major."""
    samples = np.ascontiguousarray(record.samples, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(EEG_MAGIC)
        fh.write(struct.pack("<HHI", FORMAT_VERSION, record.channels, int(record.sample_rate_hz)))
        fh.write(samples.tobytes())


def read_eeg(path: Path | str) -> SignalRecord:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != EEG_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {EEG_MAGIC!r}")
        header = fh.read(struct.calcsize("<HHI"))
        if len(header) != struct.calcsize("<HHI"):
            raise FormatError(f"{path}: truncated header")
        version, channels, rate = struct.unpack("<HHI", header)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        payload = fh.read()
    if channels == 0 or len(payload) % (4 * channels):
        raise FormatError(f"{path}: payload is not a whole number of {channels}-channel samples")
    samples = np.frombuffer(payload, dtype="<f4").reshape(channels, -1)
    try:
        return SignalRecord(rate, samples, default_channel_labels(channels))
    except InputError as exc:  # e.g. rate 0
        raise FormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ WAV audio

def write_wav(path: Path | str, record: SignalRecord) -> None:
    """PCM-16 mono; float samples are clipped to [-1, 1]."""
    if record.channels != 1:
        raise DimensionError(f"WAV writer expects mono audio, got {record.channels} channels")
    clipped = np.clip(record.samples[0], -1.0, 1.0)
    pcm = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(record.sample_rate_hz))
        fh.writeframes(pcm.tobytes())


def read_wav(path: Path | str) -> SignalRecord:
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getsampwidth() != 2 or fh.getnchannels() != 1:
                raise FormatError(f"{path}: expected PCM-16 mono")
            rate = fh.getframerate()
            n_frames = fh.getnframes()
            raw = fh.readframes(n_frames)
    except (wave.Error, EOFError) as exc:  # EOFError: the file ends inside a header
        raise FormatError(f"{path}: not a WAV file ({str(exc) or 'ends inside a header'})") from exc
    if len(raw) != 2 * n_frames:
        raise FormatError(f"{path}: truncated audio ({n_frames} frames claimed)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    try:
        return SignalRecord(rate, samples[None, :], ("mono",))
    except InputError as exc:  # e.g. rate 0
        raise FormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ manifests

MANIFEST_COLUMNS = ("utterance_id", "speaker_label", "audio_path", "eeg_path")


def write_manifest(path: Path | str, rows: list[tuple[str, str, str, str]]) -> None:
    """CSV of (utterance_id, speaker_label, audio_path, eeg_path); paths are
    relative to the manifest's directory."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)


def read_index(path: Path | str, columns: tuple[str, ...]) -> list[dict[str, str]]:
    """Rows of a CSV index whose header is exactly ``columns``; a row with a
    missing or an extra field is a format error."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc.reason})") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None or tuple(reader.fieldnames) != columns:
        raise FormatError(f"{path}: columns {reader.fieldnames} != {list(columns)}")
    rows = []
    for row in reader:
        # DictReader fills missing fields with None and keys extra ones by None.
        if None in row or None in row.values():
            raise FormatError(f"{path}: line {reader.line_num} needs {len(columns)} fields")
        rows.append(row)
    return rows


def read_manifest(path: Path | str) -> list[dict[str, str]]:
    return read_index(path, MANIFEST_COLUMNS)


def speaker_index(rows: list[dict[str, str]]) -> dict[str, int]:
    """Dense speaker ids assigned by first appearance in the manifest."""
    index: dict[str, int] = {}
    for row in rows:
        label = row["speaker_label"]
        if label not in index:
            index[label] = len(index)
    return index


# ------------------------------------------------- named-tensor container i/o

def _write_tensor(fh, name: str, array: np.ndarray) -> None:
    encoded = name.encode()
    data = np.ascontiguousarray(array, dtype="<f4")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", data.ndim))
    for dim in data.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(data.tobytes())


def _read_tensors(fh, path) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    while True:
        head = fh.read(2)
        if not head:
            return tensors
        if len(head) != 2:
            raise FormatError(f"{path}: truncated tensor name length")
        (name_len,) = struct.unpack("<H", head)
        name_bytes = fh.read(name_len)
        if len(name_bytes) != name_len:
            raise FormatError(f"{path}: truncated tensor name")
        try:
            name = name_bytes.decode()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: tensor name is not UTF-8") from exc
        rank_bytes = fh.read(1)
        if len(rank_bytes) != 1:
            raise FormatError(f"{path}: truncated tensor rank for {name!r}")
        (rank,) = struct.unpack("<B", rank_bytes)
        dim_bytes = fh.read(4 * rank)
        if len(dim_bytes) != 4 * rank:
            raise FormatError(f"{path}: truncated tensor shape for {name!r}")
        dims = struct.unpack(f"<{rank}I", dim_bytes)
        size = 4 * math.prod(dims)
        # Checked before reading: a corrupt shape can claim more than memory holds.
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise FormatError(f"{path}: truncated tensor data for {name!r}")
        payload = fh.read(size)
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
        except ValueError as exc:  # e.g. an empty tensor claiming more axes than numpy has
            raise FormatError(f"{path}: unusable shape {dims} for {name!r}") from exc
    # unreachable


# ----------------------------------------------------------- model checkpoint

def write_checkpoint(
    path: Path | str,
    params: ClassifierParams,
    extra_tensors: dict[str, np.ndarray] | None = None,
) -> None:
    """magic 'NSPK', version u16, config block (input_dim u32, n_speakers u32,
    tcn_width u32), then named float32 tensors to end of file."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                "<HIII", FORMAT_VERSION, params.input_dim, params.n_speakers, params.tcn.width
            )
        )
        for name, arr in params.named_arrays():
            _write_tensor(fh, name, arr)
        for name, arr in (extra_tensors or {}).items():
            _write_tensor(fh, name, arr)


def _check_parameter_shapes(path, tensors, input_dim: int, n_speakers: int, tcn_width: int):
    """The header fixes the input width, speaker count and kernel width;
    tcn.kernels and gru.w_update fix the filter count and hidden width.
    Every parameter tensor must agree with them."""
    kernels, w_update = tensors["tcn.kernels"], tensors["gru.w_update"]
    if kernels.ndim != 3 or w_update.ndim != 2:
        raise FormatError(f"{path}: tcn.kernels must have rank 3 and gru.w_update rank 2")
    filters, hidden = kernels.shape[0], w_update.shape[0]
    if 0 in (input_dim, n_speakers, tcn_width, filters, hidden):
        raise FormatError(f"{path}: a layer of zero width")
    gru_weights = (hidden, filters + hidden)
    expected = {
        "tcn.kernels": (filters, tcn_width, input_dim),
        "tcn.biases": (filters,),
        "gru.w_update": gru_weights,
        "gru.w_reset": gru_weights,
        "gru.w_cand": gru_weights,
        "gru.b_update": (hidden,),
        "gru.b_reset": (hidden,),
        "gru.b_cand": (hidden,),
        "dense.weights": (n_speakers, hidden),
        "dense.biases": (n_speakers,),
    }
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise FormatError(f"{path}: {name} has shape {tensors[name].shape}, expected {shape}")


def read_checkpoint(path: Path | str):
    """Returns (params, extra tensors, header dict). Weights come back float32.
    Tensors other than the ten parameters, such as ``norm.*``, are extras."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        header = fh.read(struct.calcsize("<HIII"))
        if len(header) != struct.calcsize("<HIII"):
            raise FormatError(f"{path}: truncated header")
        version, input_dim, n_speakers, tcn_width = struct.unpack("<HIII", header)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        tensors = _read_tensors(fh, path)
    required = [
        "tcn.kernels", "tcn.biases",
        "gru.w_update", "gru.w_reset", "gru.w_cand",
        "gru.b_update", "gru.b_reset", "gru.b_cand",
        "dense.weights", "dense.biases",
    ]
    missing = [name for name in required if name not in tensors]
    if missing:
        raise FormatError(f"{path}: checkpoint missing tensors {missing}")
    _check_parameter_shapes(path, tensors, input_dim, n_speakers, tcn_width)
    params = ClassifierParams(
        tcn=TcnLayerParams(tensors["tcn.kernels"].copy(), tensors["tcn.biases"].copy()),
        gru=GruLayerParams(
            tensors["gru.w_update"].copy(), tensors["gru.w_reset"].copy(),
            tensors["gru.w_cand"].copy(), tensors["gru.b_update"].copy(),
            tensors["gru.b_reset"].copy(), tensors["gru.b_cand"].copy(),
        ),
        dense=DenseParams(tensors["dense.weights"].copy(), tensors["dense.biases"].copy()),
    )
    extras = {k: v.copy() for k, v in tensors.items() if k not in required}
    header_info = {"input_dim": input_dim, "n_speakers": n_speakers, "tcn_width": tcn_width}
    return params, extras, header_info


# ------------------------------------------------------------ reports & plots

def write_curves_csv(path: Path | str, curves: list[tuple[int, float, float]]) -> None:
    """Per-epoch accuracy curves: (epoch, train_accuracy, val_accuracy)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_accuracy", "val_accuracy"])
        for epoch, train_acc, val_acc in curves:
            writer.writerow([epoch, f"{train_acc:.6f}", f"{val_acc:.6f}"])


def write_explained_variance_csv(path: Path | str, fractions: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component_index", "cumulative_fraction"])
        for i, frac in enumerate(fractions):
            writer.writerow([i, f"{frac:.6f}"])


def write_artifact_report_csv(path: Path | str, rows: list[tuple]) -> None:
    """Audit log: (utterance_id, component, kurtosis, lowfreq_ratio, max_amp_z, rejected)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["utterance_id", "component", "kurtosis", "lowfreq_ratio", "max_amplitude_z", "rejected"]
        )
        for utt_id, comp, kurt, ratio, z, rejected in rows:
            writer.writerow(
                [utt_id, comp, f"{kurt:.4f}", f"{ratio:.4f}", f"{z:.4f}", int(rejected)]
            )


def render_curves_svg(path: Path | str, curves: list[tuple[int, float, float]]) -> None:
    """Minimal deterministic SVG line plot of the accuracy curves."""
    width, height, margin = 640, 400, 45
    n = max(len(curves), 1)

    def sx(epoch_idx):
        return margin + (width - 2 * margin) * (epoch_idx / max(n - 1, 1))

    def sy(acc):
        return height - margin - (height - 2 * margin) * acc

    def polyline(values, color):
        pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(values))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    train = [row[1] for row in curves]
    val = [row[2] for row in curves]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        polyline(train, "#1f77b4"),
        polyline(val, "#d62728"),
        f'<text x="{margin}" y="{margin - 12}" font-size="12">'
        "train (blue) / validation (red) accuracy per epoch</text>",
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts))


def format_percent(fraction: float) -> str:
    return f"{fraction * 100.0:.2f}"


def write_comparison_table(
    txt_path: Path | str, csv_path: Path | str, accuracies: dict[str, float]
) -> None:
    """Three-column accuracy table (MFCC, EEG, MFCC+EEG), percent, 2 decimals."""
    columns = ["MFCC", "EEG", "MFCC+EEG"]
    values = [format_percent(accuracies[c]) for c in columns]
    header = " | ".join(f"{c:>10}" for c in columns)
    line = " | ".join(f"{v:>10}" for v in values)
    Path(txt_path).write_text(
        header + "\n" + "-" * len(header) + "\n" + line + "\n"
    )
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerow(values)
