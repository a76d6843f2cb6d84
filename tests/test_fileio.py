import struct

import numpy as np
import pytest

from neurospeaker import fileio, kpca, nn
from neurospeaker.core import SignalRecord, default_channel_labels, make_rng
from neurospeaker.errors import FormatError
from neurospeaker.features import FeatureSequence, Modality


class TestFseq:
    def test_round_trip(self, tmp_path):
        frames = make_rng(0).standard_normal((17, 13)).astype(np.float32)
        seq = FeatureSequence(frames, 100, Modality.MFCC13, "utt0001")
        path = tmp_path / "a.fseq"
        fileio.write_fseq(path, seq)
        loaded = fileio.read_fseq(path, "utt0001")
        np.testing.assert_array_equal(loaded.frames, frames)
        assert loaded.modality is Modality.MFCC13
        assert loaded.rate_hz == 100
        assert loaded.utterance_id == "utt0001"

    def test_header_layout(self, tmp_path):
        seq = FeatureSequence(np.zeros((2, 30), dtype=np.float32), 100, Modality.EEG30, "u")
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
        seq = FeatureSequence(np.zeros((4, 13), dtype=np.float32), 100, Modality.MFCC13, "u")
        path = tmp_path / "c.fseq"
        fileio.write_fseq(path, seq)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            fileio.read_fseq(path)

    @pytest.mark.parametrize("t, d", [(5, 13), (0xFFFFFFFF, 0xFFFFFFFF)])
    def test_header_claiming_more_than_the_file_rejected(self, tmp_path, t, d):
        """One frame more than the payload holds, and a T x D no memory holds."""
        seq = FeatureSequence(np.zeros((4, 13), dtype=np.float32), 100, Modality.MFCC13, "u")
        path = tmp_path / "long.fseq"
        fileio.write_fseq(path, seq)
        raw = bytearray(path.read_bytes())
        raw[9:17] = struct.pack("<II", t, d)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            fileio.read_fseq(path)

    def test_csv_export(self, tmp_path):
        seq = FeatureSequence(np.ones((3, 13), dtype=np.float32), 100, Modality.MFCC13, "u")
        path = tmp_path / "d.csv"
        fileio.write_fseq_csv(path, seq)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "d0"
        assert len(lines) == 4


class TestEeg:
    def test_round_trip(self, tmp_path):
        samples = make_rng(1).standard_normal((31, 500)).astype(np.float32)
        rec = SignalRecord(1000, samples, default_channel_labels(31))
        path = tmp_path / "x.eeg"
        fileio.write_eeg(path, rec)
        loaded = fileio.read_eeg(path)
        assert loaded.sample_rate_hz == 1000
        assert loaded.channels == 31
        np.testing.assert_array_equal(loaded.samples.astype(np.float32), samples)

    def test_header_layout(self, tmp_path):
        rec = SignalRecord(1000, np.zeros((2, 3)), ("a", "b"))
        path = tmp_path / "y.eeg"
        fileio.write_eeg(path, rec)
        raw = path.read_bytes()
        assert raw[:4] == b"EEGR"
        assert raw[4:6] == (1).to_bytes(2, "little")
        assert raw[6:8] == (2).to_bytes(2, "little")
        assert raw[8:12] == (1000).to_bytes(4, "little")

    def test_ragged_payload_rejected(self, tmp_path):
        rec = SignalRecord(1000, np.zeros((3, 4)), ("a", "b", "c"))
        path = tmp_path / "z.eeg"
        fileio.write_eeg(path, rec)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FormatError):
            fileio.read_eeg(path)


class TestWav:
    def test_round_trip(self, tmp_path):
        x = 0.5 * np.sin(2 * np.pi * 440 * np.arange(1600) / 16000.0)
        rec = SignalRecord(16000, x[None, :], ("mono",))
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


class TestManifest:
    def test_round_trip_and_speaker_index(self, tmp_path):
        rows = [
            ("utt0000", "alice", "audio/utt0000.wav", "eeg/utt0000.eeg"),
            ("utt0001", "bob", "audio/utt0001.wav", "eeg/utt0001.eeg"),
            ("utt0002", "alice", "audio/utt0002.wav", "eeg/utt0002.eeg"),
        ]
        path = tmp_path / "manifest.csv"
        fileio.write_manifest(path, rows)
        loaded = fileio.read_manifest(path)
        assert [r["utterance_id"] for r in loaded] == ["utt0000", "utt0001", "utt0002"]
        assert fileio.speaker_index(loaded) == {"alice": 0, "bob": 1}

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("utterance,speaker\nu,s\n")
        with pytest.raises(FormatError):
            fileio.read_manifest(path)


class TestCheckpoint:
    def _params(self):
        return nn.init_classifier(43, 4, make_rng(0), tcn_filters=8, tcn_width=3, gru_hidden=6)

    def test_round_trip_with_extras_and_adam(self, tmp_path):
        params = self._params()
        adam = nn.adam_init(params, lr=2e-3)
        extras = {"norm.mean": np.arange(43, dtype=np.float64)}
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, params, extras, adam)
        loaded, loaded_extras, header = fileio.read_checkpoint(path)
        assert header == {"input_dim": 43, "n_speakers": 4, "tcn_width": 3}
        for (name, a), (_, b) in zip(params.named_arrays(), loaded.named_arrays()):
            np.testing.assert_array_equal(a.astype(np.float32), b)
        np.testing.assert_array_equal(loaded_extras["norm.mean"], np.arange(43, dtype=np.float32))
        assert loaded_extras["adam.lr"].item() == np.float32(2e-3)
        assert loaded_extras["adam.step"].item() == 0.0

    def test_magic_and_header(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params())
        raw = path.read_bytes()
        assert raw[:4] == b"NSPK"
        assert int.from_bytes(raw[6:10], "little") == 43
        assert int.from_bytes(raw[10:14], "little") == 4
        assert int.from_bytes(raw[14:18], "little") == 3

    def test_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            fileio.read_checkpoint(path)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params())
        raw = path.read_bytes()
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

    def test_undecodable_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.nspk"
        fileio.write_checkpoint(path, self._params())
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"tcn.kernels")] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            fileio.read_checkpoint(path)


class TestKpcaContainer:
    def test_round_trip(self, tmp_path):
        rng = make_rng(2)
        x = rng.standard_normal((40, 8))
        model = kpca.fit_kpca(x, kpca.KernelSpec(kind="poly", degree=3, coef0=1.0), 5)
        path = tmp_path / "model.kpca"
        fileio.write_kpca_model(path, model)
        loaded = fileio.read_kpca_model(path)
        assert loaded.kernel == model.kernel
        assert loaded.n_components == 5
        # float32 storage: projections agree to float32 precision
        q = rng.standard_normal(8)
        np.testing.assert_allclose(
            kpca.transform(loaded, q), kpca.transform(model, q), rtol=2e-4, atol=2e-4
        )


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
