import csv
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurospeaker
from neurospeaker import fileio, nn, pipeline
from neurospeaker.cli import main
from neurospeaker.core import SignalRecord, make_rng
from neurospeaker.features import Modality
from neurospeaker.fileio import FEATURE_COLUMNS

from test_fileio import (
    BAD_HEADER_VALUES,
    BAD_TENSORS,
    NON_FINITE_TENSORS,
    norm_extras,
    patch_bytes,
    write_bad_checkpoint,
)

TINY = [
    "--set", "synth.utterances_per_speaker=3",
    "--set", "synth.duration_s=0.6",
    "--set", "kpca.max_fit_frames=400",
]


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """One corpus driven through every stage; shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    clean = root / "clean"
    feats = root / "feats"
    assert main(["synth", "--out", str(corpus), "--seed", "21", *TINY]) == 0
    assert main(["preprocess", "--in", str(corpus), "--out", str(clean), "--seed", "21", *TINY]) == 0
    assert main(["features", "--in", str(clean), "--out", str(feats), "--seed", "21", *TINY]) == 0
    assert main(["kpca", "--features", str(feats), "--seed", "21", *TINY]) == 0
    return root, corpus, clean, feats


class TestSynth:
    def test_file_count_is_two_per_utterance_plus_manifest(self, staged):
        _, corpus, _, _ = staged
        files = [p for p in corpus.rglob("*") if p.is_file()]
        assert len(files) == 12 * 2 + 1

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--seed", "4", "--set", "synth.utterances_per_speaker=2",
                "--set", "synth.duration_s=0.5"]
        assert main(["synth", "--out", str(a), *args]) == 0
        assert main(["synth", "--out", str(b), *args]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_unwritable_destination_exits_2(self):
        assert main(["synth", "--out", "/dev/null/nope", "--seed", "1"]) == 2


class TestStages:
    def test_preprocess_outputs(self, staged):
        _, _, clean, _ = staged
        assert (clean / "manifest.csv").exists()
        assert (clean / "artifact_report.csv").exists()
        rows = fileio.read_manifest(clean / "manifest.csv")
        assert len(rows) == 12
        record = fileio.read_eeg(clean / rows[0]["eeg_path"])
        assert record.channels == 31

    def test_kpca_outputs_thirty_components(self, staged):
        _, _, _, feats = staged
        lines = (feats / "explained_variance.csv").read_text().strip().splitlines()
        assert len(lines) == 31  # header + 30 component rows
        for row in fileio.read_index(feats / "features.csv", FEATURE_COLUMNS):
            seq = fileio.read_fseq(feats / row["eeg30_path"])
            assert seq.modality is Modality.EEG30 and seq.dim == 30

    def test_kpca_writes_only_eeg30_index_and_variance(self, staged, tmp_path):
        _, _, _, feats = staged
        out = tmp_path / "kpca"
        assert main(["kpca", "--features", str(feats), "--out", str(out), "--seed", "21", *TINY]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["eeg30", "explained_variance.csv", "features.csv"]

    def test_train_and_eval_on_a_kpca_out_dir(self, staged, tmp_path):
        """The index ``kpca --out`` writes finds the MFCC13 and EEG155 files
        that stay in the features directory, here a sibling of the output."""
        feats, red, run = tmp_path / "feats", tmp_path / "red", tmp_path / "run"
        shutil.copytree(staged[3], feats)
        assert main(["kpca", "--features", str(feats), "--out", str(red), "--seed", "21", *TINY]) == 0
        row = fileio.read_features_index(red / "features.csv")[0]
        assert row["mfcc_path"].startswith(os.path.join("..", "feats", "mfcc13", ""))
        assert main(["train", "--features", str(red), "--out", str(run),
                     "--seed", "21", "--set", "train.epochs=1"]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.nspk"),
                     "--features", str(red), "--seed", "21"]) == 0

    @pytest.mark.parametrize("modality", [Modality.MFCC13, Modality.EEG30], ids=lambda m: m.name)
    def test_train_and_eval_read_only_the_modality_sources(self, staged, tmp_path, modality):
        """With every other stream's directory gone, train and eval write the
        bytes they write on the intact features."""
        _, _, _, feats = staged
        trimmed = tmp_path / "trimmed"
        shutil.copytree(feats, trimmed)
        for other in fileio.STREAM_COLUMNS.keys() - set(modality.sources):
            shutil.rmtree(trimmed / other.name.lower())
        outputs = []
        for source in (feats, trimmed):
            run, report = tmp_path / f"{source.name}-run", tmp_path / f"{source.name}-eval"
            assert main(["train", "--features", str(source), "--out", str(run), "--modality",
                         modality.name, "--seed", "21", "--set", "train.epochs=2"]) == 0
            assert main(["eval", "--checkpoint", str(run / "checkpoint.nspk"), "--features",
                         str(source), "--out", str(report), "--seed", "21"]) == 0
            outputs.append((tree_digest(run), tree_digest(report)))
        assert outputs[0] == outputs[1]

    def test_kpca_on_a_truncated_mfcc13_file_exits_2(self, staged, tmp_path, capsys):
        """kpca fits on EEG155 alone, but reads every MFCC13 file the index it
        writes names, so train never meets one that kpca passed over."""
        broken = tmp_path / "feats"
        shutil.copytree(staged[3], broken)
        victim = sorted((broken / "mfcc13").glob("*.fseq"))[0]
        victim.write_bytes(victim.read_bytes()[:-4])
        argv = ["kpca", "--features", str(broken), "--out", str(tmp_path / "red"), "--seed", "21"]
        assert main([*argv, *TINY]) == 2
        assert f"{victim}: truncated payload" in capsys.readouterr().err

    def test_train_checkpoint_holds_parameters_and_norm_only(self, staged, tmp_path):
        _, _, _, feats = staged
        run = tmp_path / "run"
        assert main(["train", "--features", str(feats), "--out", str(run),
                     "--modality", "MFCC13", "--seed", "21", "--set", "train.epochs=1"]) == 0
        # read_checkpoint returns every tensor beyond the ten parameters as an extra
        _, extras, _ = fileio.read_checkpoint(run / "checkpoint.nspk")
        assert sorted(extras) == ["norm.mean", "norm.std"]

    def test_train_then_eval(self, staged, tmp_path):
        _, _, _, feats = staged
        run = tmp_path / "run"
        assert main([
            "train", "--features", str(feats), "--out", str(run),
            "--modality", "FUSED43", "--seed", "21", "--set", "train.epochs=6", "--svg",
        ]) == 0
        assert (run / "checkpoint.nspk").exists()
        assert (run / "curves.csv").exists()
        assert (run / "curves.svg").read_text().startswith("<svg")
        out = tmp_path / "eval"
        assert main([
            "eval", "--checkpoint", str(run / "checkpoint.nspk"),
            "--features", str(feats), "--out", str(out), "--seed", "21",
        ]) == 0
        report = (out / "report.txt").read_text()
        assert "test accuracy:" in report
        assert "%" in report

    def test_eval_truncated_checkpoint_exits_2(self, staged, tmp_path):
        _, _, _, feats = staged
        params = nn.init_classifier(43, 4, make_rng(0), tcn_filters=4, tcn_width=3, gru_hidden=4)
        path = tmp_path / "cut.nspk"
        fileio.write_checkpoint(path, params, norm_extras(43))
        raw = path.read_bytes()
        # cut inside the first tensor's shape, after its rank byte
        cut = raw.index(b"tcn.kernels") + len("tcn.kernels") + 3
        path.write_bytes(raw[:cut])
        assert main(["eval", "--checkpoint", str(path), "--features", str(feats), "--seed", "21"]) == 2

    def test_train_on_corrupt_feature_header_exits_2(self, staged, tmp_path):
        _, _, _, feats = staged
        broken = tmp_path / "feats"
        shutil.copytree(feats, broken)
        victim = sorted((broken / "mfcc13").glob("*.fseq"))[0]
        victim.write_bytes(victim.read_bytes()[:9] + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF))
        code = main(["train", "--features", str(broken), "--out", str(tmp_path / "run"),
                     "--modality", "MFCC13", "--seed", "21", "--set", "train.epochs=1"])
        assert code == 2

    def test_train_on_feature_file_with_an_appended_frame_exits_2(self, staged, tmp_path):
        _, _, _, feats = staged
        broken = tmp_path / "feats"
        shutil.copytree(feats, broken)
        victim = sorted((broken / "mfcc13").glob("*.fseq"))[0]
        victim.write_bytes(victim.read_bytes() + bytes(4 * 13))
        code = main(["train", "--features", str(broken), "--out", str(tmp_path / "run"),
                     "--modality", "MFCC13", "--seed", "21", "--set", "train.epochs=1"])
        assert code == 2

    @pytest.mark.parametrize("kind, offset, new", BAD_HEADER_VALUES.values(), ids=list(BAD_HEADER_VALUES))
    def test_stage_on_bad_header_value_exits_2(self, staged, tmp_path, kind, offset, new):
        """preprocess reads .eeg and .wav files; train reads .fseq files, for
        a single stream and for the fused one."""
        _, corpus, _, feats = staged
        if kind == "fseq":
            broken = tmp_path / "feats"
            shutil.copytree(feats, broken)
            patch_bytes(sorted((broken / "mfcc13").glob("*.fseq"))[0], offset, new)
            runs = [["train", "--features", str(broken), "--out", str(tmp_path / "run"),
                     "--modality", modality, "--set", "train.epochs=1"]
                    for modality in ("MFCC13", "FUSED43")]
        else:
            broken = tmp_path / "corpus"
            shutil.copytree(corpus, broken)
            folder = "eeg" if kind == "eeg" else "audio"
            patch_bytes(sorted((broken / folder).glob(f"*.{kind}"))[0], offset, new)
            runs = [["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean")]]
        for argv in runs:
            assert main([*argv, "--seed", "21", *TINY]) == 2

    def test_preprocess_on_mixed_sample_rates_exits_3(self, staged, tmp_path, capsys):
        _, corpus, _, _ = staged
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        patch_bytes(broken / "eeg" / "utt0005.eeg", 8, struct.pack("<I", 500))
        code = main(["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean"), *TINY])
        assert code == 3
        assert "'utt0005' has 500 Hz EEG" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, damage, victims, message", [
        ("eeg", lambda x: SignalRecord(500, x[:, ::2]), slice(None), "has 500 Hz EEG, not 1000 Hz"),
        ("eeg", lambda x: SignalRecord(1000, x[:30]), slice(5, 6), "has 30 EEG channels, not 31"),
        ("eeg", lambda x: SignalRecord(1000, x[:, :50]), slice(5, 6),
         "has 50 EEG samples, fewer than one 100-sample window"),
        ("audio", lambda x: SignalRecord(8000, x[:, ::2]), slice(5, 6), "has 8000 Hz audio, not 16000 Hz"),
        ("audio", lambda x: SignalRecord(16000, x[:, :300]), slice(5, 6),
         "has 300 audio samples, fewer than one 400-sample MFCC window"),
    ], ids=["500Hz", "30ch", "50samples", "8kHz-audio", "short-audio"])
    def test_stage_on_eeg_it_cannot_finish_exits_3(
        self, staged, tmp_path, capsys, kind, damage, victims, message
    ):
        """Rejected by the stage that reads the recording, naming it, rather
        than passing ``preprocess`` and failing a later stage, or giving
        features of another window length."""
        _, corpus, _, _ = staged
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        read, write, suffix = {
            "eeg": (fileio.read_eeg, fileio.write_eeg, "eeg"),
            "audio": (fileio.read_wav, fileio.write_wav, "wav"),
        }[kind]
        paths = sorted((broken / kind).glob(f"*.{suffix}"))[victims]
        for path in paths:
            write(path, damage(read(path).samples))
        for stage in ("preprocess", "features"):
            out = tmp_path / stage
            assert main([stage, "--in", str(broken), "--out", str(out), "--seed", "21", *TINY]) == 3
            assert f"utterance '{paths[0].stem}' {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_features_on_a_moved_corpus_and_cleaned_pair_exits_0(self, staged, tmp_path):
        """The cleaned manifest names the corpus's audio by a relative path,
        so a corpus and its cleaned directory move together."""
        _, corpus, _, _ = staged
        before, after = tmp_path / "before", tmp_path / "after"
        shutil.copytree(corpus, before / "corpus")
        assert main(["preprocess", "--in", str(before / "corpus"), "--out", str(before / "clean"),
                     "--seed", "21", *TINY]) == 0
        before.rename(after)
        rows = fileio.read_manifest(after / "clean" / "manifest.csv")
        assert rows[0]["audio_path"] == os.path.join("..", "corpus", "audio", "utt0000.wav")
        assert not any(os.path.isabs(row["audio_path"]) for row in rows)
        assert main(["features", "--in", str(after / "clean"), "--out", str(after / "feats"),
                     "--seed", "21", *TINY]) == 0

    @pytest.mark.parametrize("modality", ["bogus", "eeg155"])
    def test_train_with_untrainable_modality_exits_1(self, staged, tmp_path, capsys, modality):
        _, _, _, feats = staged
        code = main(["train", "--features", str(feats), "--out", str(tmp_path / "run"),
                     "--modality", modality, "--set", "train.epochs=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err

    def test_train_modality_is_case_insensitive_and_defaults_to_fused43(self, staged, tmp_path, capsys):
        _, _, _, feats = staged
        for flags in (["--modality", "eeg30"], []):
            assert main(["train", "--features", str(feats), "--out", str(tmp_path / "run"),
                         *flags, "--seed", "21", "--set", "train.epochs=1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in out] == ["EEG30", "FUSED43"]

    @pytest.mark.parametrize("name, array", BAD_TENSORS, ids=[name for name, _ in BAD_TENSORS])
    def test_eval_checkpoint_with_misshapen_tensor_exits_2(self, staged, tmp_path, name, array):
        _, _, _, feats = staged
        path = tmp_path / "bad.nspk"
        write_bad_checkpoint(path, name, array)
        assert main(["eval", "--checkpoint", str(path), "--features", str(feats), "--seed", "21"]) == 2

    @pytest.mark.parametrize("name, array", NON_FINITE_TENSORS, ids=[name for name, _ in NON_FINITE_TENSORS])
    def test_eval_checkpoint_with_non_finite_weight_exits_2(self, staged, tmp_path, capsys, name, array):
        """Not a report of 0 % accuracy from a model that cannot score."""
        _, _, _, feats = staged
        path = tmp_path / "bad.nspk"
        write_bad_checkpoint(path, name, array)
        assert main(["eval", "--checkpoint", str(path), "--features", str(feats), "--seed", "21"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and name in err

    @pytest.mark.parametrize("bad", ["mean cut to 5", "std -1", "norm.* dropped"])
    def test_eval_checkpoint_with_unfitting_norm_exits_2(self, staged, tmp_path, capsys, bad):
        """norm.* extras that do not fit the checkpoint's input fail as a
        format error naming the file, not as a broadcast traceback or a
        silently wrong normalisation."""
        _, _, _, feats = staged
        run = tmp_path / "run"
        assert main(["train", "--features", str(feats), "--out", str(run),
                     "--modality", "MFCC13", "--seed", "21", "--set", "train.epochs=1"]) == 0
        params, extras, _ = fileio.read_checkpoint(run / "checkpoint.nspk")
        if bad == "mean cut to 5":
            extras["norm.mean"] = extras["norm.mean"][:5]
        elif bad == "std -1":
            extras["norm.std"] = np.full_like(extras["norm.std"], -1.0)
        else:
            extras = {}
        path = tmp_path / "bad.nspk"
        fileio.write_checkpoint(path, params, extras)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--features", str(feats), "--seed", "21"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "norm." in err

    def test_eval_checkpoint_with_adam_state_exits_0(self, staged, tmp_path):
        """Checkpoints written before optimiser state was dropped still evaluate."""
        _, _, _, feats = staged
        params = nn.init_classifier(43, 4, make_rng(0), tcn_filters=4, tcn_width=3, gru_hidden=4)
        adam = nn.adam_init(params)
        extras = {**norm_extras(43), "adam.step": np.array(6.0)}
        extras.update((f"adam.m.{name}", arr) for name, arr in adam.m.items())
        extras.update((f"adam.v.{name}", arr) for name, arr in adam.v.items())
        path = tmp_path / "old.nspk"
        fileio.write_checkpoint(path, params, extras)
        assert main(["eval", "--checkpoint", str(path), "--features", str(feats), "--seed", "21"]) == 0

    def test_eval_speaker_count_mismatch_exits_3(self, staged, tmp_path):
        _, _, _, feats = staged
        bogus = nn.init_classifier(43, 8, make_rng(0), tcn_filters=4, tcn_width=3, gru_hidden=4)
        path = tmp_path / "bogus.nspk"
        fileio.write_checkpoint(path, bogus, norm_extras(43))
        assert main(["eval", "--checkpoint", str(path), "--features", str(feats), "--seed", "21"]) == 3

    def test_train_on_short_feature_index_row_exits_2(self, staged, tmp_path):
        _, _, _, feats = staged
        broken = tmp_path / "feats"
        shutil.copytree(feats, broken)
        index = broken / "features.csv"
        lines = index.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        index.write_text("\n".join(lines) + "\n")
        code = main(["train", "--features", str(broken), "--out", str(tmp_path / "run"),
                     "--modality", "MFCC13", "--seed", "21", "--set", "train.epochs=1"])
        assert code == 2

    @pytest.mark.parametrize("damage", ["empty wav", "short manifest row", "repeated utterance id"])
    def test_preprocess_on_damaged_corpus_exits_2(self, staged, tmp_path, damage):
        _, corpus, _, _ = staged
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        if damage == "empty wav":
            sorted((broken / "audio").glob("*.wav"))[0].write_bytes(b"")
        else:
            manifest = broken / "manifest.csv"
            lines = manifest.read_text().splitlines()
            if damage == "short manifest row":
                lines[1] = lines[1].rsplit(",", 1)[0]
            else:  # utt0000 listed a second time, under another speaker
                utt, _, paths = lines[1].split(",", 2)
                lines.append(",".join([utt, "spk3", paths]))
            manifest.write_text("\n".join(lines) + "\n")
        assert main(["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean"), *TINY]) == 2

    @pytest.mark.parametrize("index, column", [("features.csv", "mfcc_path"), ("manifest.csv", "audio_path")])
    def test_stage_on_an_empty_path_field_exits_2(self, staged, tmp_path, capsys, index, column):
        """Named as an empty field of the index, not as the index's own
        directory that the empty path opens."""
        _, corpus, _, feats = staged
        broken = tmp_path / "in"
        if index == "features.csv":
            shutil.copytree(feats, broken)
            read, write = fileio.read_features_index, fileio.write_features_index
            argv = ["train", "--features", str(broken), "--out", str(tmp_path / "run"),
                    "--modality", "MFCC13", "--set", "train.epochs=1"]
        else:
            shutil.copytree(corpus, broken)
            read, write = fileio.read_manifest, fileio.write_manifest
            argv = ["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean")]
        rows = read(broken / index)
        rows[1][column] = ""
        write(broken / index, rows)
        assert main([*argv, "--seed", "21", *TINY]) == 2
        assert f"{broken / index}: line 3 has an empty {column}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_preprocess_on_non_finite_eeg_sample_exits_2(self, staged, tmp_path, capsys, value):
        """Rejected on reading, before filtering and ICA see the sample."""
        _, corpus, _, _ = staged
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        victim = broken / "eeg" / "utt0002.eeg"
        patch_bytes(victim, 12 + 4 * 100, struct.pack("<f", value))
        assert main(["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean"), *TINY]) == 2
        assert f"{victim}: non-finite samples" in capsys.readouterr().err

    @pytest.mark.parametrize("column, other, command", [
        ("eeg155_path", "mfcc_path", ["kpca"]),
        ("mfcc_path", "eeg155_path", ["train", "--modality", "MFCC13", "--set", "train.epochs=1"]),
    ], ids=["kpca", "train"])
    def test_stage_on_column_naming_another_modality_exits_2(
        self, staged, tmp_path, capsys, column, other, command
    ):
        _, _, _, feats = staged
        broken = tmp_path / "feats"
        shutil.copytree(feats, broken)
        rows = fileio.read_features_index(broken / fileio.FEATURES_INDEX)
        rows[1][column] = rows[1][other]
        fileio.write_features_index(broken / fileio.FEATURES_INDEX, rows)
        code = main([*command, "--features", str(broken), "--out", str(tmp_path / "out"), "--seed", "21"])
        assert code == 2
        assert f"{broken / rows[1][other]}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, held_out", [("train", "val"), ("eval", "test")])
    def test_stage_on_features_that_overflow_z_scoring_exits_4(
        self, staged, tmp_path, capsys, command, held_out
    ):
        """3e38 is a finite float32, but its z-score under the training
        statistics is not: a numeric error, found where the held-out
        utterance is normalized."""
        _, _, _, feats = staged
        rows = fileio.read_features_index(feats / fileio.FEATURES_INDEX)
        labels = fileio.speaker_index(rows)
        partition = pipeline.split_utterances(
            {row["utterance_id"]: labels[row["speaker_label"]] for row in rows}, 21
        )
        victim = next(row for row in rows if partition[row["utterance_id"]] == held_out)
        broken = tmp_path / "feats"
        shutil.copytree(feats, broken)
        patch_bytes(broken / victim["mfcc_path"], 17, struct.pack("<13f", *[3e38] * 13))  # frame 0
        train = ["train", "--features", str(feats), "--out", str(tmp_path / "run"),
                 "--modality", "MFCC13", "--seed", "21", "--set", "train.epochs=1"]
        if command == "train":
            train[2] = str(broken)
            assert main(train) == 4
        else:
            assert main(train) == 0
            assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.nspk"),
                         "--features", str(broken), "--seed", "21"]) == 4
        err = capsys.readouterr().err
        assert f"numeric error: z-scoring utterance {victim['utterance_id']!r}'s MFCC13 frames" in err

    def test_preprocess_on_wav_with_bad_chunk_size_exits_2(self, staged, tmp_path, capsys):
        """An odd fmt chunk size: the ``wave`` module raises a bare RuntimeError."""
        _, corpus, _, _ = staged
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        victim = sorted((broken / "audio").glob("*.wav"))[0]
        patch_bytes(victim, 16, bytes([victim.read_bytes()[16] ^ 1]))
        assert main(["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean"), *TINY]) == 2
        assert "RIFF chunk" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["manifest.csv", "features.csv"])
    def test_stage_on_index_field_beyond_csv_limit_exits_2(self, staged, tmp_path, index):
        _, corpus, _, feats = staged
        source = corpus if index == "manifest.csv" else feats
        broken = tmp_path / "in"
        shutil.copytree(source, broken)
        lines = (broken / index).read_text().splitlines()
        utt, _, rest = lines[1].partition(",")
        lines[1] = ",".join([utt, "x" * (csv.field_size_limit() + 1), rest.partition(",")[2]])
        (broken / index).write_text("\n".join(lines) + "\n")
        if index == "manifest.csv":
            argv = ["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean")]
        else:
            argv = ["train", "--features", str(broken), "--out", str(tmp_path / "run"),
                    "--modality", "MFCC13", "--set", "train.epochs=1"]
        assert main([*argv, "--seed", "21", *TINY]) == 2

    def test_train_without_kpca_stage_exits_3(self, tmp_path):
        corpus, clean, feats = tmp_path / "c", tmp_path / "cl", tmp_path / "f"
        args = ["--seed", "3", "--set", "synth.utterances_per_speaker=2", "--set", "synth.duration_s=0.5"]
        assert main(["synth", "--out", str(corpus), *args]) == 0
        assert main(["preprocess", "--in", str(corpus), "--out", str(clean), *args]) == 0
        assert main(["features", "--in", str(clean), "--out", str(feats), *args]) == 0
        code = main(["train", "--features", str(feats), "--out", str(tmp_path / "r"),
                     "--modality", "EEG30", "--seed", "3", "--set", "train.epochs=1"])
        assert code == 3


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_config_key_exits_3(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x"), "--set", "no.such=1"]) == 1 + 2

    @pytest.mark.parametrize("assignment", [
        "synth.duration_s=nan", "synth.duration_s=inf", "synth.separability=nan",
        "dsp.notch_q=nan", "train.learning_rate=-inf",
    ])
    def test_non_finite_config_value_exits_3(self, tmp_path, capsys, assignment):
        assert main(["synth", "--out", str(tmp_path / "x"), "--set", assignment]) == 3
        assert not (tmp_path / "x").exists()  # rejected before any work
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, assignment", [
        ("synth", "synth.noise_db=1e300"),
        ("synth", "synth.noise_db=-1e300"),
        ("synth", "features.mfcc_window_ms=0"),
        ("experiment", "features.mfcc_window_ms=0"),
        ("experiment", "features.mfcc_filters=0"),
        ("experiment", "kpca.max_fit_frames=-5"),
        ("experiment", "kpca.max_fit_frames=10"),
        ("experiment", "kpca.max_fit_frames=30"),
        ("experiment", "ica.max_iter=0"),
        ("experiment", "ica.max_iter=-3"),
        ("experiment", "ica.tol=-1"),
        ("experiment", "ica.tol=0"),
        ("experiment", "dsp.bandpass_order=3"),
        ("experiment", "dsp.bandpass_order=0"),
        ("experiment", "dsp.bandpass_high_hz=600"),
        ("experiment", "dsp.notch_hz=600"),
        ("synth", "dsp.notch_hz=600"),
        ("synth", "dsp.frame_length=5"),
        ("experiment", "dsp.frame_length=5"),
        ("experiment", "nn.tcn_filters=0"),
        ("experiment", "nn.tcn_width=0"),
        ("experiment", "nn.gru_hidden=0"),
        ("experiment", "train.beta1=1"),
        ("experiment", "train.beta2=1"),
    ])
    def test_out_of_range_config_value_exits_3(self, tmp_path, capsys, command, assignment):
        # At the small size, a missing check fails in seconds rather than
        # running the default-size pipeline.
        assert main([command, "--out", str(tmp_path / "x"), *TINY, "--set", assignment]) == 3
        assert not (tmp_path / "x").exists()  # rejected before any work
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment, key", [
        ("features.mfcc_window_ms=1000", "features.mfcc_window_ms"),
        ("dsp.frame_length=1000", "dsp.frame_length"),
    ])
    def test_window_longer_than_the_recordings_exits_3_before_synthesis(
        self, tmp_path, capsys, monkeypatch, assignment, key
    ):
        from neurospeaker import pipeline

        calls = []
        monkeypatch.setattr(pipeline, "generate_synthetic", lambda spec: calls.append(spec))
        out = tmp_path / "x"
        argv = ["experiment", "--out", str(out), "--seed", "21", *TINY[:4], "--set", assignment]
        assert main(argv) == 3
        assert not out.exists() and calls == []
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "synth.duration_s=0.6" in err

    def test_non_utf8_config_file_exits_3(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"\xff\xfeseed=3\n")
        assert main(["synth", "--out", str(tmp_path / "x"), "-c", str(conf)]) == 3
        assert "cannot read config file" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["preprocess", "--in", str(tmp_path / "void"), "--out", str(tmp_path / "o")]) == 2

    def test_numeric_errors_exit_4(self, monkeypatch):
        from neurospeaker import cli
        from neurospeaker.errors import NumericError

        def boom(args):
            raise NumericError("NaN in gradients")

        monkeypatch.setitem(cli.COMMANDS, "synth", boom)
        assert main(["synth", "--out", "whatever"]) == 4


class TestExperimentCommand:
    def test_emits_table_and_reruns_identically(self, tmp_path):
        args = [
            "--seed", "17",
            "--set", "synth.utterances_per_speaker=3",
            "--set", "synth.duration_s=0.6",
            "--set", "kpca.max_fit_frames=400",
            "--set", "train.epochs=4",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--out", str(a), *args]) == 0
        table = (a / "table.txt").read_text().splitlines()
        assert [c.strip() for c in table[0].split("|")] == ["MFCC", "EEG", "MFCC+EEG"]
        assert (a / "table.csv").exists()
        for tag in ("mfcc13", "eeg30", "fused43"):
            assert (a / f"checkpoint_{tag}.nspk").exists()
            assert (a / f"curves_{tag}.csv").exists()
        assert main(["experiment", "--out", str(b), *args]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_mfcc_keys_reach_feature_extraction(self, tmp_path, monkeypatch):
        from neurospeaker import pipeline
        from neurospeaker.features import MfccConfig

        seen = []

        class Stop(Exception):
            pass

        def spy(utterances, dsp_config=None, mfcc_config=MfccConfig(), **kwargs):
            seen.append(mfcc_config)
            raise Stop

        monkeypatch.setattr(pipeline, "extract_features", spy)
        with pytest.raises(Stop):
            main([
                "experiment", "--out", str(tmp_path / "x"), "--seed", "2",
                "--set", "synth.utterances_per_speaker=2", "--set", "synth.duration_s=0.5",
                "--set", "features.mfcc_filters=40", "--set", "features.mfcc_preemphasis=0.5",
            ])
        assert [(c.n_filters, c.preemphasis) for c in seen] == [(40, 0.5)]


SCIPY_WORK_PROBE = """
import hashlib, json, sys
import scipy

base = set(sys.modules)  # scipy's own package, which the program's loader imports
if sys.argv[1] == "packages-first":
    import scipy.linalg, scipy.signal
import numpy as np
from neurospeaker import core, kpca, pipeline, synth

corpus = synth.generate_synthetic(synth.SynthSpec(n_speakers=2, utterances_per_speaker=1, duration_s=0.5, seed=27))
cleaned, _ = pipeline.preprocess_eeg(corpus, seed=27)
model = kpca.fit_kpca(core.make_rng(27).standard_normal((200, 155)), kpca.KernelSpec(), 30)
digest = hashlib.sha256()
for utt, clean in zip(corpus, cleaned):
    digest.update(utt.audio.samples.tobytes())
    digest.update(utt.eeg.samples.tobytes())
    digest.update(clean.eeg.samples.tobytes())
digest.update(model.eigenvalues.tobytes())
out = {"added": sorted(m for m in set(sys.modules) - base if m.split(".")[0] == "scipy"), "digest": digest.hexdigest()}
if sys.argv[1] == "packages-first":
    out["same_modules"] = [
        core._scipy_extension("scipy.signal._sosfilt") is scipy.signal._sosfilt,
        core._scipy_extension("scipy.linalg.cython_lapack") is scipy.linalg.cython_lapack,
    ]
else:  # the packages, imported after the modules were loaded, run on them
    import scipy.linalg, scipy.signal
    out["packages_after"] = [
        scipy.signal.sosfilt([[1.0, 0.0, 0.0, 1.0, -0.5, 0.0]], [1.0, 0.0, 0.0]).tolist(),
        scipy.linalg.eigh(np.diag([3.0, 1.0, 2.0]), eigvals_only=True).tolist(),
    ]
print(json.dumps(out))
"""


class TestImportGraph:
    """Corpus generation and EEG filtering run one compiled scipy routine,
    and the KPCA fit another; each loads only the module that holds it: two
    modules in all. Every command starts without scipy."""

    def _run(self, args):
        src = str(Path(neurospeaker.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", *args], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.strip()

    def test_importing_the_cli_loads_no_scipy(self):
        """Without concurrent.futures either (about 9 ms to import), which
        the utterance map does without."""
        probe = (
            "import sys, neurospeaker.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('concurrent.futures')))"
        )
        assert self._run([probe]) == "[]"

    def test_synthesis_filtering_and_kpca_fit_load_two_compiled_modules_only(self):
        """Neither scipy.signal nor scipy.linalg is imported: beyond scipy's
        own package, only the filters' and LAPACK's compiled modules."""
        done = json.loads(self._run([SCIPY_WORK_PROBE, "modules-only"]))
        assert done["added"] == ["scipy.linalg.cython_lapack", "scipy.signal._sosfilt"]
        # and the packages, imported afterwards, run on the loaded modules
        assert done["packages_after"] == [[1.0, 0.5, 0.25], [1.0, 2.0, 3.0]]

    def test_packages_imported_first_give_the_same_bits(self):
        """After ``import scipy.signal, scipy.linalg`` the loader returns
        the packages' own modules, and the corpus, the cleaned EEG and the
        eigenvalues keep their bits."""
        alone = json.loads(self._run([SCIPY_WORK_PROBE, "modules-only"]))
        first = json.loads(self._run([SCIPY_WORK_PROBE, "packages-first"]))
        assert {"scipy.signal", "scipy.linalg"} <= set(first["added"])
        assert first["same_modules"] == [True, True]
        assert first["digest"] == alone["digest"]
