import csv
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurospeaker import fileio, nn
from neurospeaker.core import SignalRecord, make_rng
from neurospeaker.errors import FormatError
from neurospeaker.features import FeatureSequence, Modality
from neurospeaker.fileio import FEATURE_COLUMNS


# One tensor each, shaped against a 43-dim, 4-speaker checkpoint with four
# filters and hidden width four: wrong rank, wrong rows, wrong length.
BAD_TENSORS = [
    ("tcn.kernels", np.zeros(4 * 3 * 43)),
    ("gru.w_reset", np.zeros((3, 8))),
    ("tcn.biases", np.zeros(7)),
]


# The tensors whose leading axes give the filter count and hidden width, at
# ranks the checkpoint layout does not allow.
WRONG_RANK_TENSORS = [
    ("tcn.kernels", np.array(1.0)),
    ("tcn.kernels", np.zeros((4, 3 * 43))),
    ("gru.w_update", np.array(1.0)),
    ("gru.w_update", np.zeros(4 * 8)),
]


def norm_extras(dim):
    """The ``norm.*`` statistics every checkpoint carries, for ``dim`` inputs."""
    return {"norm.mean": np.zeros(dim), "norm.std": np.ones(dim)}


def write_bad_checkpoint(path, name, array):
    """A valid 43-dim, 4-speaker checkpoint except that tensor ``name`` is
    ``array``; write_checkpoint itself cannot write a misshapen parameter."""
    params = nn.init_classifier(43, 4, make_rng(0), tcn_filters=4, tcn_width=3, gru_hidden=4)
    with open(path, "wb") as fh:
        fh.write(b"NSPK" + struct.pack("<HIII", 1, 43, 4, 3))
        tensors = {**dict(params.named_arrays()), **norm_extras(43), name: array}
        for tensor_name, arr in tensors.items():
            fileio._write_tensor(fh, tensor_name, arr)


def _with(array, index, value):
    array = array.copy()
    array[index] = value
    return array


# Parameters of the right shape for ``write_bad_checkpoint`` holding a NaN
# or an inf.
NON_FINITE_TENSORS = [
    ("gru.w_cand", _with(np.zeros((4, 8)), (1, 2), np.nan)),
    ("dense.biases", _with(np.zeros(4), 3, np.inf)),
]


# norm.* extras that do not fit a 43-dim checkpoint.
BAD_NORM_EXTRAS = {
    "mean too short": {"norm.mean": np.zeros(5), "norm.std": np.ones(43)},
    "std of rank 2": {"norm.mean": np.zeros(43), "norm.std": np.ones((43, 1))},
    "mean NaN": {"norm.mean": _with(np.zeros(43), 3, np.nan), "norm.std": np.ones(43)},
    "std inf": {"norm.mean": np.zeros(43), "norm.std": _with(np.ones(43), 0, np.inf)},
    "std negative": {"norm.mean": np.zeros(43), "norm.std": _with(np.ones(43), 7, -1.0)},
    "mean alone": {"norm.mean": np.zeros(43)},
    "std alone": {"norm.std": np.ones(43)},
}


# Header values a corrupt file can carry that the record itself rejects:
# (file kind, byte offset, replacement bytes).
BAD_HEADER_VALUES = {
    "eeg rate 0": ("eeg", 8, struct.pack("<I", 0)),
    "fseq rate 0": ("fseq", 7, struct.pack("<H", 0)),
    "fseq rate 50": ("fseq", 7, struct.pack("<H", 50)),
    "fseq with no frames": ("fseq", 9, struct.pack("<I", 0)),
    "fseq D disagrees with modality": ("fseq", 6, bytes([int(Modality.EEG30)])),  # D stays 13
    "wav rate 0": ("wav", 24, struct.pack("<I", 0)),
}
READERS = {
    "eeg": fileio.read_eeg,
    "fseq": fileio.read_fseq,
    "wav": fileio.read_wav,
    "nspk": fileio.read_checkpoint,
}


def patch_bytes(path, offset, new):
    raw = bytearray(path.read_bytes())
    raw[offset : offset + len(new)] = new
    path.write_bytes(bytes(raw))


def write_sample(path, kind):
    """A small valid file of ``kind``: 31-channel EEG, MFCC13 frames, 16 kHz
    audio or a tiny checkpoint."""
    rng = make_rng(3)
    if kind == "eeg":
        fileio.write_eeg(path, SignalRecord(1000, rng.standard_normal((31, 20))))
    elif kind == "fseq":
        fileio.write_fseq(path, FeatureSequence(rng.standard_normal((4, 13)), Modality.MFCC13, "u"))
    elif kind == "nspk":
        params = nn.init_classifier(5, 3, rng, tcn_filters=2, tcn_width=2, gru_hidden=3)
        fileio.write_checkpoint(path, params, norm_extras(5))
    else:
        fileio.write_wav(path, SignalRecord(16000, 0.1 * rng.standard_normal((1, 50))))


@pytest.mark.parametrize("kind, offset, new", BAD_HEADER_VALUES.values(), ids=list(BAD_HEADER_VALUES))
def test_header_value_the_record_rejects_is_a_format_error(tmp_path, kind, offset, new):
    path = tmp_path / f"x.{kind}"
    write_sample(path, kind)
    READERS[kind](path)  # the undamaged file reads
    patch_bytes(path, offset, new)
    with pytest.raises(FormatError):
        READERS[kind](path)


# Magic plus the fixed header that follows it, version first.
HEADER_BYTES = {"fseq": 4 + 13, "eeg": 4 + 8, "nspk": 4 + 14}
HEADER_DAMAGE = {
    "bad magic": lambda raw, size: b"NOPE" + raw[4:],
    "truncated header": lambda raw, size: raw[: size - 1],
    "unsupported version 2": lambda raw, size: raw[:4] + struct.pack("<H", 2) + raw[6:],
}


@pytest.mark.parametrize("kind", HEADER_BYTES)
@pytest.mark.parametrize("damage", HEADER_DAMAGE)
def test_damaged_header_is_a_format_error_naming_the_path(tmp_path, kind, damage):
    path = tmp_path / f"x.{kind}"
    write_sample(path, kind)
    READERS[kind](path)  # the undamaged file reads
    path.write_bytes(HEADER_DAMAGE[damage](path.read_bytes(), HEADER_BYTES[kind]))
    with pytest.raises(FormatError, match=damage) as err:
        READERS[kind](path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Files small enough that a drawn byte position lands in the header
    often; 512 Hz has one non-zero rate byte, so one flip can zero the rate."""
    root = tmp_path_factory.mktemp("samples")
    rng = make_rng(4)
    paths = {kind: root / f"sample.{kind}" for kind in ("eeg", "fseq")}
    fileio.write_eeg(paths["eeg"], SignalRecord(512, rng.standard_normal((2, 3))))
    fileio.write_fseq(paths["fseq"], FeatureSequence(rng.standard_normal((1, 13)), Modality.MFCC13, "u"))
    return paths


def _corrupt(data, raw: bytes) -> bytes:
    """``raw`` cut short or with one byte flipped."""
    raw = bytearray(raw)
    position = data.draw(st.integers(0, len(raw) - 1), label="position")
    if data.draw(st.booleans(), label="truncate"):
        return bytes(raw[:position])
    raw[position] ^= data.draw(st.integers(1, 255), label="xor")
    return bytes(raw)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_corrupt_eeg_rejected_or_valid(samples, data):
    path = samples["eeg"].with_name("corrupt.eeg")
    path.write_bytes(_corrupt(data, samples["eeg"].read_bytes()))
    try:
        record = fileio.read_eeg(path)
    except FormatError:
        return
    assert record.sample_rate_hz > 0 and record.channels > 0
    assert np.all(np.isfinite(record.samples))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_corrupt_fseq_rejected_or_valid(samples, data):
    path = samples["fseq"].with_name("corrupt.fseq")
    path.write_bytes(_corrupt(data, samples["fseq"].read_bytes()))
    try:
        seq = fileio.read_fseq(path)
    except FormatError:
        return
    assert seq.dim == seq.modality.dim
    assert np.all(np.isfinite(seq.frames))


@pytest.fixture(scope="module")
def wav_sample(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "sample.wav"
    write_sample(path, "wav")
    return path


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_corrupt_wav_rejected_or_valid(wav_sample, data):
    path = wav_sample.with_name("corrupt.wav")
    path.write_bytes(_corrupt(data, wav_sample.read_bytes()))
    try:
        record = fileio.read_wav(path)
    except FormatError:
        return
    assert record.sample_rate_hz > 0 and record.channels == 1


def test_wav_chunk_size_past_the_riff_chunk_rejected(wav_sample, tmp_path):
    """An odd fmt chunk size makes the ``wave`` module seek past the RIFF
    chunk, which it reports as a bare RuntimeError."""
    path = tmp_path / "a.wav"
    raw = bytearray(wav_sample.read_bytes())
    raw[16] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="past the end of the RIFF chunk"):
        fileio.read_wav(path)


INDEXES = {
    "manifest": (fileio.MANIFEST_COLUMNS, ("u0", "spk0", "audio/u0.wav", "eeg/u0.eeg")),
    "features": (FEATURE_COLUMNS, ("u0", "spk0", "mfcc13/u0.fseq", "eeg155/u0.fseq", "eeg30/u0.fseq")),
}


def write_index(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _read_index_or_reject(path, columns):
    """Rows with exactly the index's columns, or None for a FormatError."""
    try:
        rows = fileio.read_index(path, columns)
    except FormatError:
        return None
    assert all(tuple(row) == columns and all(isinstance(v, str) for v in row.values()) for row in rows)
    return rows


@pytest.mark.parametrize("kind", INDEXES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_index_rejected_or_valid(tmp_path_factory, kind, data):
    columns, row = INDEXES[kind]
    path = tmp_path_factory.mktemp("index") / f"{kind}.csv"
    write_index(path, columns, [row, ("u1", *row[1:])])
    path.write_bytes(_corrupt(data, path.read_bytes()))
    _read_index_or_reject(path, columns)


@pytest.mark.parametrize("kind", INDEXES)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_index_with_arbitrary_text_rows_rejected_or_valid(tmp_path_factory, kind, data):
    columns, _ = INDEXES[kind]
    lines = data.draw(st.lists(st.text(max_size=40), max_size=4), label="lines")
    path = tmp_path_factory.mktemp("index") / f"{kind}.csv"
    path.write_text(",".join(columns) + "\n" + "\n".join(lines), encoding="utf-8")
    _read_index_or_reject(path, columns)


@pytest.mark.parametrize("kind, column", [
    (kind, column) for kind, (columns, _) in INDEXES.items() for column in columns
])
def test_index_with_an_empty_field_rejected(tmp_path, kind, column):
    """Only the features index's EEG30 column may be empty, until kpca fills it."""
    columns, row = INDEXES[kind]
    path = tmp_path / f"{kind}.csv"
    second = ("u1", *row[1:])
    write_index(path, columns, [row, tuple("" if c == column else v for c, v in zip(columns, second))])
    read = fileio.read_manifest if kind == "manifest" else fileio.read_features_index
    if column == fileio.STREAM_COLUMNS[Modality.EEG30]:
        assert read(path)[1][column] == ""
    else:
        with pytest.raises(FormatError, match=f"{kind}.csv: line 3 has an empty {column}$"):
            read(path)


@pytest.mark.parametrize("kind", INDEXES)
def test_index_field_beyond_the_csv_field_limit_rejected(tmp_path, kind):
    columns, row = INDEXES[kind]
    path = tmp_path / f"{kind}.csv"
    write_index(path, columns, [(row[0], "x" * (csv.field_size_limit() + 1), *row[2:])])
    with pytest.raises(FormatError, match="line 2"):
        fileio.read_index(path, columns)


class TestFseq:
    def test_round_trip(self, tmp_path):
        frames = make_rng(0).standard_normal((17, 13)).astype(np.float32)
        seq = FeatureSequence(frames, Modality.MFCC13, "utt0001")
        path = tmp_path / "a.fseq"
        fileio.write_fseq(path, seq)
        loaded = fileio.read_fseq(path, "utt0001")
        np.testing.assert_array_equal(loaded.frames, frames)
        assert loaded.modality is Modality.MFCC13
        assert loaded.utterance_id == "utt0001"

    def test_header_layout(self, tmp_path):
        seq = FeatureSequence(np.zeros((2, 30), dtype=np.float32), Modality.EEG30, "u")
        path = tmp_path / "b.fseq"
        fileio.write_fseq(path, seq)
        raw = path.read_bytes()
        assert raw[:4] == b"FSEQ"
        assert raw[4:6] == (1).to_bytes(2, "little")
        assert raw[6] == int(Modality.EEG30)
        assert raw[7:9] == (100).to_bytes(2, "little")
        assert len(raw) == 4 + 2 + 1 + 2 + 4 + 4 + 2 * 30 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fseq"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(FormatError):
            fileio.read_fseq(path)

    def test_truncated_payload_rejected(self, tmp_path):
        seq = FeatureSequence(np.zeros((4, 13), dtype=np.float32), Modality.MFCC13, "u")
        path = tmp_path / "c.fseq"
        fileio.write_fseq(path, seq)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            fileio.read_fseq(path)

    @pytest.mark.parametrize("extra", [4 * 13, 5], ids=["whole frame appended", "partial frame appended"])
    def test_payload_longer_than_the_header_claims_rejected(self, tmp_path, extra):
        seq = FeatureSequence(np.zeros((4, 13), dtype=np.float32), Modality.MFCC13, "u")
        path = tmp_path / "c.fseq"
        fileio.write_fseq(path, seq)
        path.write_bytes(path.read_bytes() + bytes(extra))
        with pytest.raises(FormatError, match=f"{extra} bytes after the 4 x 13 payload"):
            fileio.read_fseq(path)

    @pytest.mark.parametrize("t, d", [(5, 13), (0xFFFFFFFF, 0xFFFFFFFF)])
    def test_header_claiming_more_than_the_file_rejected(self, tmp_path, t, d):
        """One frame more than the payload holds, and a T x D no memory holds."""
        seq = FeatureSequence(np.zeros((4, 13), dtype=np.float32), Modality.MFCC13, "u")
        path = tmp_path / "long.fseq"
        fileio.write_fseq(path, seq)
        raw = bytearray(path.read_bytes())
        raw[9:17] = struct.pack("<II", t, d)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            fileio.read_fseq(path)


class TestEeg:
    def test_round_trip(self, tmp_path):
        samples = make_rng(1).standard_normal((31, 500)).astype(np.float32)
        rec = SignalRecord(1000, samples)
        path = tmp_path / "x.eeg"
        fileio.write_eeg(path, rec)
        loaded = fileio.read_eeg(path)
        assert loaded.sample_rate_hz == 1000
        assert loaded.channels == 31
        np.testing.assert_array_equal(loaded.samples.astype(np.float32), samples)

    def test_header_layout(self, tmp_path):
        rec = SignalRecord(1000, np.zeros((2, 3)))
        path = tmp_path / "y.eeg"
        fileio.write_eeg(path, rec)
        raw = path.read_bytes()
        assert raw[:4] == b"EEGR"
        assert raw[4:6] == (1).to_bytes(2, "little")
        assert raw[6:8] == (2).to_bytes(2, "little")
        assert raw[8:12] == (1000).to_bytes(4, "little")

    def test_ragged_payload_rejected(self, tmp_path):
        rec = SignalRecord(1000, np.zeros((3, 4)))
        path = tmp_path / "z.eeg"
        fileio.write_eeg(path, rec)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            fileio.read_eeg(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, tmp_path, value):
        path = tmp_path / "x.eeg"
        fileio.write_eeg(path, SignalRecord(1000, np.zeros((2, 5))))
        fileio.read_eeg(path)  # the undamaged file reads
        patch_bytes(path, 12 + 4 * 7, struct.pack("<f", value))  # channel 1, sample 2
        with pytest.raises(FormatError, match="non-finite") as err:
            fileio.read_eeg(path)
        assert str(err.value).startswith(f"{path}: ")


class TestWav:
    def test_round_trip(self, tmp_path):
        x = 0.5 * np.sin(2 * np.pi * 440 * np.arange(1600) / 16000.0)
        rec = SignalRecord(16000, x[None, :])
        path = tmp_path / "a.wav"
        fileio.write_wav(path, rec)
        loaded = fileio.read_wav(path)
        assert loaded.sample_rate_hz == 16000
        np.testing.assert_allclose(loaded.samples[0], x, atol=1.0 / 32767)

    def test_not_wav_rejected(self, tmp_path):
        path = tmp_path / "fake.wav"
        path.write_bytes(b"not a wav")
        with pytest.raises(FormatError):
            fileio.read_wav(path)

    @pytest.mark.parametrize("keep", [0, 4, 20, -1])
    def test_empty_or_truncated_file_rejected(self, tmp_path, keep):
        """Nothing, a cut inside the RIFF or fmt header, or an odd byte
        short of the data chunk."""
        path = tmp_path / "a.wav"
        fileio.write_wav(path, SignalRecord(16000, np.zeros((1, 50))))
        raw = path.read_bytes()
        path.write_bytes(raw[:keep])
        with pytest.raises(FormatError):
            fileio.read_wav(path)


class TestManifest:
    def test_round_trip_and_speaker_index(self, tmp_path):
        rows = [dict(zip(fileio.MANIFEST_COLUMNS, row)) for row in [
            ("utt0000", "alice", "audio/utt0000.wav", "eeg/utt0000.eeg"),
            ("utt0001", "bob", "audio/utt0001.wav", "eeg/utt0001.eeg"),
            ("utt0002", "alice", "audio/utt0002.wav", "eeg/utt0002.eeg"),
        ]]
        path = tmp_path / "manifest.csv"
        fileio.write_manifest(path, rows)
        loaded = fileio.read_manifest(path)
        assert loaded == rows
        assert [r["utterance_id"] for r in loaded] == ["utt0000", "utt0001", "utt0002"]
        assert fileio.speaker_index(loaded) == {"alice": 0, "bob": 1}

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("utterance,speaker\nu,s\n")
        with pytest.raises(FormatError):
            fileio.read_manifest(path)

    @pytest.mark.parametrize("row", ["u0,spk0,audio/u0.wav", "u0,spk0,audio/u0.wav,eeg/u0.eeg,x"])
    def test_row_with_missing_or_extra_field_rejected(self, tmp_path, row):
        path = tmp_path / "manifest.csv"
        path.write_text(",".join(fileio.MANIFEST_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(FormatError, match="line 2"):
            fileio.read_manifest(path)

    def test_non_text_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(",".join(fileio.MANIFEST_COLUMNS).encode() + b"\n\xff\xfe,s,a,e\n")
        with pytest.raises(FormatError):
            fileio.read_manifest(path)


class TestCheckpoint:
    def _params(self):
        return nn.init_classifier(43, 4, make_rng(0), tcn_filters=8, tcn_width=3, gru_hidden=6)

    def test_round_trip_with_extras_and_adam(self, tmp_path):
        """Older checkpoints also carry Adam state as adam.* tensors; any
        tensor beyond the ten parameters reads back as an extra."""
        params = self._params()
        extras = {
            "norm.mean": np.arange(43, dtype=np.float64),
            "norm.std": np.ones(43),
            "adam.step": np.array(12.0),
            "adam.m.tcn.biases": np.ones(8),
        }
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, params, extras)
        loaded, loaded_extras, header = fileio.read_checkpoint(path)
        assert header == {"input_dim": 43, "n_speakers": 4, "tcn_width": 3}
        for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
            np.testing.assert_array_equal(a.astype(np.float32), b)
        assert list(loaded_extras) == list(extras)
        for name, arr in extras.items():
            np.testing.assert_array_equal(loaded_extras[name], arr.astype(np.float32))

    def test_magic_and_header(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params(), norm_extras(43))
        raw = path.read_bytes()
        assert raw[:4] == b"NSPK"
        assert int.from_bytes(raw[6:10], "little") == 43
        assert int.from_bytes(raw[10:14], "little") == 4
        assert int.from_bytes(raw[14:18], "little") == 3

    def test_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params(), norm_extras(43))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            fileio.read_checkpoint(path)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params(), norm_extras(43))
        raw = path.read_bytes()
        fileio.read_checkpoint(path)  # the whole file reads
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError):
                fileio.read_checkpoint(path)

    def test_shape_larger_than_file_rejected(self, tmp_path):
        path = tmp_path / "model.nspk"
        path.write_bytes(
            b"NSPK" + struct.pack("<HIII", 1, 43, 4, 3) + struct.pack("<H", 3) + b"big"
            + struct.pack("<BII", 2, 0xFFFFFFFF, 0xFFFFFFFF) + bytes(16)
        )
        with pytest.raises(FormatError):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("name, array", BAD_TENSORS, ids=[name for name, _ in BAD_TENSORS])
    def test_tensor_shape_disagreeing_with_header_rejected(self, tmp_path, name, array):
        path = tmp_path / "model.nspk"
        write_bad_checkpoint(path, name, array)
        with pytest.raises(FormatError, match=name):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("name, array", WRONG_RANK_TENSORS, ids=lambda v: getattr(v, "shape", v))
    def test_parameter_of_wrong_rank_rejected(self, tmp_path, name, array):
        path = tmp_path / "model.nspk"
        write_bad_checkpoint(path, name, array)
        with pytest.raises(FormatError, match=name):
            fileio.read_checkpoint(path)

    @pytest.mark.parametrize("name, array", NON_FINITE_TENSORS, ids=[name for name, _ in NON_FINITE_TENSORS])
    def test_non_finite_parameter_rejected(self, tmp_path, name, array):
        path = tmp_path / "model.nspk"
        write_bad_checkpoint(path, name, array)
        with pytest.raises(FormatError, match=f"{name} holds non-finite values") as err:
            fileio.read_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("extras", BAD_NORM_EXTRAS.values(), ids=BAD_NORM_EXTRAS.keys())
    def test_norm_extras_not_fitting_the_input_rejected(self, tmp_path, extras):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params(), extras)
        with pytest.raises(FormatError, match="norm") as err:
            fileio.read_checkpoint(path)
        assert str(path) in str(err.value)

    def test_norm_extras_required_and_zero_std_allowed(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params(), {})
        with pytest.raises(FormatError, match=r"missing tensors \['norm.mean', 'norm.std'\]"):
            fileio.read_checkpoint(path)
        fileio.write_checkpoint(path, self._params(), {"norm.mean": np.zeros(43), "norm.std": np.zeros(43)})
        assert sorted(fileio.read_checkpoint(path)[1]) == ["norm.mean", "norm.std"]

    def test_undecodable_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params(), norm_extras(43))
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"tcn.kernels")] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            fileio.read_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("nspk") / "small.nspk"
    params = nn.init_classifier(5, 3, make_rng(1), tcn_filters=2, tcn_width=2, gru_hidden=3)
    fileio.write_checkpoint(path, params, norm_extras(5))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_rejected_or_usable(small_checkpoint, data):
    """A checkpoint cut short or with one byte flipped either fails as a
    format error or yields weights the classifier runs on."""
    path = small_checkpoint.with_name("corrupt.nspk")
    path.write_bytes(_corrupt(data, small_checkpoint.read_bytes()))
    try:
        params, _, header = fileio.read_checkpoint(path)
    except FormatError:
        return
    assert all(np.all(np.isfinite(array)) for _, array in params.named_arrays())
    with np.errstate(all="ignore"):  # a flipped weight may be large enough to overflow
        probs, _, _ = nn.forward_batch(params, np.zeros((1, 5, header["input_dim"]), np.float32), np.array([5]))
    assert probs.shape == (1, header["n_speakers"])


class TestReports:
    def test_curves_csv(self, tmp_path):
        path = tmp_path / "curves.csv"
        fileio.write_curves_csv(path, [(1, 0.5, 0.25), (2, 0.75, 0.5)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_accuracy,val_accuracy"
        assert lines[1] == "1,0.500000,0.250000"

    def test_explained_variance_csv_has_component_rows(self, tmp_path):
        path = tmp_path / "ev.csv"
        fileio.write_explained_variance_csv(path, np.linspace(0.1, 1.0, 30))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "component_index,cumulative_fraction"
        assert len(lines) == 31

    def test_comparison_table_columns(self, tmp_path):
        txt, csv_path = tmp_path / "t.txt", tmp_path / "t.csv"
        fileio.write_comparison_table(txt, csv_path, {"MFCC": 0.4556, "EEG": 0.4333, "MFCC+EEG": 0.5611})
        header, _, values = txt.read_text().strip().splitlines()
        assert [c.strip() for c in header.split("|")] == ["MFCC", "EEG", "MFCC+EEG"]
        assert [v.strip() for v in values.split("|")] == ["45.56", "43.33", "56.11"]
        csv_lines = csv_path.read_text().strip().splitlines()
        assert csv_lines[0] == "MFCC,EEG,MFCC+EEG"
        assert csv_lines[1] == "45.56,43.33,56.11"

    def test_comparison_table_follows_the_given_columns(self, tmp_path):
        txt, csv_path = tmp_path / "t.txt", tmp_path / "t.csv"
        fileio.write_comparison_table(txt, csv_path, {"EEG": 0.5, "MFCC": 0.25})
        header, _, values = txt.read_text().strip().splitlines()
        assert [c.strip() for c in header.split("|")] == ["EEG", "MFCC"]
        assert [v.strip() for v in values.split("|")] == ["50.00", "25.00"]
        assert csv_path.read_text().splitlines() == ["EEG,MFCC", "50.00,25.00"]

    def test_svg_renders_polylines(self, tmp_path):
        path = tmp_path / "curves.svg"
        fileio.render_curves_svg(path, [(1, 0.2, 0.1), (2, 0.9, 0.8)])
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2

    def test_percent_formatting(self):
        assert fileio.format_percent(101 / 180) == "56.11"
        assert fileio.format_percent(86 / 144) == "59.72"
        assert fileio.format_percent(1.0) == "100.00"
