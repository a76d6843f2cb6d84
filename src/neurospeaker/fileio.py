"""On-disk formats: feature sequences, raw EEG, WAV audio, manifests and
feature indexes, model checkpoints, and report/curve files.

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

from .core import SignalRecord
from .errors import DimensionError, FormatError, InputError
from .features import FEATURE_RATE_HZ, FeatureSequence, Modality
from .nn import PARAMETERS, ClassifierParams, parameter_shapes

FSEQ_MAGIC = b"FSEQ"
EEG_MAGIC = b"EEGR"
CHECKPOINT_MAGIC = b"NSPK"
FORMAT_VERSION = 1

# ------------------------------------------------------------ shared helpers

def _read_header(fh, path, magic: bytes, fmt: str) -> tuple:
    """The header fields after ``magic``, unpacked by ``fmt`` whose first
    field is the format version; the version is checked, not returned."""
    found = fh.read(len(magic))
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
    header = fh.read(struct.calcsize(fmt))
    if len(header) != struct.calcsize(fmt):
        raise FormatError(f"{path}: truncated header")
    version, *fields = struct.unpack(fmt, header)
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    return tuple(fields)


def _write_csv(path: Path | str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- FSEQ files

def write_fseq(path: Path | str, seq: FeatureSequence) -> None:
    """magic 'FSEQ', version u16, modality u8, rate_hz u16 (always
    ``FEATURE_RATE_HZ``), T u32, D u32, then T*D float32 row-major."""
    frames = np.ascontiguousarray(seq.frames, dtype="<f4")
    t, d = frames.shape
    with open(path, "wb") as fh:
        fh.write(FSEQ_MAGIC)
        fh.write(struct.pack("<HBHII", FORMAT_VERSION, int(seq.modality), FEATURE_RATE_HZ, t, d))
        fh.write(frames.tobytes())


def read_fseq(path: Path | str, utterance_id: str = "") -> FeatureSequence:
    with open(path, "rb") as fh:
        modality_code, rate_hz, t, d = _read_header(fh, path, FSEQ_MAGIC, "<HBHII")
        try:
            modality = Modality(modality_code)
        except ValueError as exc:
            raise FormatError(f"{path}: unknown modality code {modality_code}") from exc
        if rate_hz != FEATURE_RATE_HZ:
            raise FormatError(f"{path}: frame rate {rate_hz} Hz, expected {FEATURE_RATE_HZ} Hz")
        size = 4 * t * d
        # Checked before reading: a corrupt T x D can claim more than memory holds.
        available = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > available:
            raise FormatError(f"{path}: truncated payload ({t} x {d} frames claimed)")
        if size < available:
            raise FormatError(f"{path}: {available - size} bytes after the {t} x {d} payload")
        payload = fh.read(size)
        frames = np.frombuffer(payload, dtype="<f4").reshape(t, d)
    try:
        return FeatureSequence(frames, modality, utterance_id)
    except InputError as exc:  # e.g. no frames, a D its modality disagrees with, a NaN
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
    """A ragged payload, a header value the record rejects or a non-finite
    sample is a format error."""
    with open(path, "rb") as fh:
        channels, rate = _read_header(fh, path, EEG_MAGIC, "<HHI")
        payload = fh.read()
    if channels == 0 or len(payload) % (4 * channels):
        raise FormatError(f"{path}: payload is not a whole number of {channels}-channel samples")
    samples = np.frombuffer(payload, dtype="<f4").reshape(channels, -1)
    if not np.isfinite(samples).all():
        raise FormatError(f"{path}: non-finite samples")
    try:
        return SignalRecord(rate, samples)
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
    except RuntimeError as exc:  # raised bare by the wave module's chunk reader
        raise FormatError(f"{path}: not a WAV file (a chunk runs past the end of the RIFF chunk)") from exc
    if len(raw) != 2 * n_frames:
        raise FormatError(f"{path}: truncated audio ({n_frames} frames claimed)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    try:
        return SignalRecord(rate, samples[None, :])
    except InputError as exc:  # e.g. rate 0
        raise FormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ manifests

MANIFEST_COLUMNS = ("utterance_id", "speaker_label", "audio_path", "eeg_path")


def write_manifest(path: Path | str, rows: list[dict[str, str]]) -> None:
    """CSV of rows keyed by ``MANIFEST_COLUMNS``, as ``read_manifest`` returns
    them; paths are relative to the manifest's directory."""
    _write_csv(path, MANIFEST_COLUMNS, ([row[c] for c in MANIFEST_COLUMNS] for row in rows))


def read_index(
    path: Path | str, columns: tuple[str, ...], may_be_empty: tuple[str, ...] = ()
) -> list[dict[str, str]]:
    """Rows of a CSV index whose header is exactly ``columns``, the first
    of which is ``utterance_id``; a row with a missing or an extra field, an
    empty field outside ``may_be_empty``, or an utterance id an earlier row
    holds, is a format error."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file ({exc.reason})") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        if reader.fieldnames is None or tuple(reader.fieldnames) != columns:
            raise FormatError(f"{path}: columns {reader.fieldnames} != {list(columns)}")
        rows, seen = [], set()
        for row in reader:
            # DictReader fills missing fields with None and keys extra ones by None.
            if None in row or None in row.values():
                raise FormatError(f"{path}: line {reader.line_num} needs {len(columns)} fields")
            empty = next((c for c in columns if not row[c] and c not in may_be_empty), None)
            if empty is not None:
                raise FormatError(f"{path}: line {reader.line_num} has an empty {empty}")
            utt_id = row["utterance_id"]
            if utt_id in seen:
                raise FormatError(f"{path}: line {reader.line_num} repeats utterance id {utt_id!r}")
            seen.add(utt_id)
            rows.append(row)
    except csv.Error as exc:  # e.g. a field longer than the csv module's limit
        # line_num counts the lines read before the record that failed
        raise FormatError(f"{path}: line {reader.line_num + 1}: {exc}") from exc
    return rows


def read_manifest(path: Path | str) -> list[dict[str, str]]:
    return read_index(path, MANIFEST_COLUMNS)


FEATURES_INDEX = "features.csv"
# The feature-index column that names each stream's files, one per utterance.
STREAM_COLUMNS = {
    Modality.MFCC13: "mfcc_path", Modality.EEG155: "eeg155_path", Modality.EEG30: "eeg30_path"
}
FEATURE_COLUMNS = ("utterance_id", "speaker_label", *STREAM_COLUMNS.values())


def write_features_index(path: Path | str, rows: list[dict[str, str]]) -> None:
    """CSV of each utterance's feature files, keyed by ``FEATURE_COLUMNS``;
    paths are relative to the index's directory. A column a row lacks is
    written empty: the EEG30 one until the kpca stage has run."""
    _write_csv(path, FEATURE_COLUMNS, ([row.get(c, "") for c in FEATURE_COLUMNS] for row in rows))


def read_features_index(path: Path | str) -> list[dict[str, str]]:
    """Only the EEG30 column may be empty, until the kpca stage has run."""
    return read_index(path, FEATURE_COLUMNS, may_be_empty=(STREAM_COLUMNS[Modality.EEG30],))


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
    extra_tensors: dict[str, np.ndarray],
) -> None:
    """magic 'NSPK', version u16, config block (input_dim u32, n_speakers u32,
    tcn_width u32), then named float32 tensors to end of file: the
    parameters, then ``extra_tensors``, which ``read_checkpoint`` requires to
    hold the ``norm.*`` statistics."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                "<HIII", FORMAT_VERSION, params.input_dim, params.n_speakers, params.tcn.width
            )
        )
        for name, arr in params.named_arrays():
            _write_tensor(fh, name, arr)
        for name, arr in extra_tensors.items():
            _write_tensor(fh, name, arr)


# The input normalisation statistics ``train`` stores beside the parameters.
NORM_EXTRAS = ("norm.mean", "norm.std")


def read_checkpoint(path: Path | str):
    """Returns (params, extra tensors, header dict). Weights come back float32.
    Tensors other than ``nn.PARAMETERS`` are extras, ``NORM_EXTRAS`` among
    them. The header and the leading axes of ``tcn.kernels`` and
    ``gru.w_update`` (0 for a scalar) give all twelve shapes; each tensor must
    have its shape and only finite values, no layer may have zero width and
    ``norm.std`` must not be negative."""
    with open(path, "rb") as fh:
        input_dim, n_speakers, tcn_width = _read_header(fh, path, CHECKPOINT_MAGIC, "<HIII")
        tensors = _read_tensors(fh, path)
    missing = [name for name in (*PARAMETERS, *NORM_EXTRAS) if name not in tensors]
    if missing:
        raise FormatError(f"{path}: checkpoint missing tensors {missing}")
    filters, hidden = ((tensors[name].shape or (0,))[0] for name in ("tcn.kernels", "gru.w_update"))
    expected = parameter_shapes(input_dim, n_speakers, tcn_width, filters, hidden)
    expected.update(dict.fromkeys(NORM_EXTRAS, (input_dim,)))
    for name, shape in expected.items():
        array = tensors[name]
        if array.shape != shape:
            raise FormatError(f"{path}: {name} has shape {array.shape}, expected {shape}")
        if not np.isfinite(array).all():
            raise FormatError(f"{path}: {name} holds non-finite values")
    if 0 in (input_dim, n_speakers, tcn_width, filters, hidden):
        raise FormatError(f"{path}: a layer of zero width")
    if np.any(tensors["norm.std"] < 0):
        raise FormatError(f"{path}: norm.std holds negative values")
    params = ClassifierParams.from_arrays([tensors.pop(name).copy() for name in PARAMETERS])
    extras = {k: v.copy() for k, v in tensors.items()}
    header_info = {"input_dim": input_dim, "n_speakers": n_speakers, "tcn_width": tcn_width}
    return params, extras, header_info


# ------------------------------------------------------------ reports & plots

def write_curves_csv(path: Path | str, curves: list[tuple[int, float, float]]) -> None:
    """Per-epoch accuracy curves: (epoch, train_accuracy, val_accuracy)."""
    rows = ((epoch, f"{train:.6f}", f"{val:.6f}") for epoch, train, val in curves)
    _write_csv(path, ("epoch", "train_accuracy", "val_accuracy"), rows)


def write_explained_variance_csv(path: Path | str, fractions: np.ndarray) -> None:
    rows = ((i, f"{frac:.6f}") for i, frac in enumerate(fractions))
    _write_csv(path, ("component_index", "cumulative_fraction"), rows)


def write_artifact_report_csv(path: Path | str, rows: list[tuple]) -> None:
    """Audit log: (utterance_id, component, kurtosis, lowfreq_ratio, max_amp_z, rejected)."""
    header = ("utterance_id", "component", "kurtosis", "lowfreq_ratio", "max_amplitude_z", "rejected")
    _write_csv(path, header, (
        (utt_id, comp, f"{kurt:.4f}", f"{ratio:.4f}", f"{z:.4f}", int(rejected))
        for utt_id, comp, kurt, ratio, z, rejected in rows
    ))


def write_confusion_csv(path: Path | str, confusion: np.ndarray) -> None:
    """Test-partition counts, rows = truth, one ``pred_<i>`` column per speaker."""
    _write_csv(path, [f"pred_{i}" for i in range(len(confusion))], confusion.tolist())


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
    """One column per entry of ``accuracies``, in its order: percent, 2 decimals."""
    columns = list(accuracies)
    values = [format_percent(a) for a in accuracies.values()]
    header = " | ".join(f"{c:>10}" for c in columns)
    line = " | ".join(f"{v:>10}" for v in values)
    Path(txt_path).write_text(
        header + "\n" + "-" * len(header) + "\n" + line + "\n"
    )
    _write_csv(csv_path, columns, [values])
