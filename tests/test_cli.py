import hashlib
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from neurospeaker import fileio, nn
from neurospeaker.cli import FEATURE_COLUMNS, main
from neurospeaker.core import make_rng
from neurospeaker.features import Modality

from test_fileio import BAD_HEADER_VALUES, BAD_TENSORS, patch_bytes, write_bad_checkpoint

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
        fileio.write_checkpoint(path, params)
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

    @pytest.mark.parametrize("kind, offset, new", BAD_HEADER_VALUES.values(), ids=list(BAD_HEADER_VALUES))
    def test_stage_on_bad_header_value_exits_2(self, staged, tmp_path, kind, offset, new):
        """preprocess reads .eeg and .wav files, train reads .fseq files."""
        _, corpus, _, feats = staged
        if kind == "fseq":
            broken = tmp_path / "feats"
            shutil.copytree(feats, broken)
            patch_bytes(sorted((broken / "mfcc13").glob("*.fseq"))[0], offset, new)
            argv = ["train", "--features", str(broken), "--out", str(tmp_path / "run"),
                    "--modality", "MFCC13", "--set", "train.epochs=1"]
        else:
            broken = tmp_path / "corpus"
            shutil.copytree(corpus, broken)
            folder = "eeg" if kind == "eeg" else "audio"
            patch_bytes(sorted((broken / folder).glob(f"*.{kind}"))[0], offset, new)
            argv = ["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean")]
        assert main([*argv, "--seed", "21", *TINY]) == 2

    def test_preprocess_on_mixed_sample_rates_exits_3(self, staged, tmp_path, capsys):
        _, corpus, _, _ = staged
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        patch_bytes(broken / "eeg" / "utt0005.eeg", 8, struct.pack("<I", 500))
        code = main(["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean"), *TINY])
        assert code == 3
        assert "'utt0005' has 500 Hz EEG" in capsys.readouterr().err

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

    def test_eval_checkpoint_with_adam_state_exits_0(self, staged, tmp_path):
        """Checkpoints written before optimiser state was dropped still evaluate."""
        _, _, _, feats = staged
        params = nn.init_classifier(43, 4, make_rng(0), tcn_filters=4, tcn_width=3, gru_hidden=4)
        adam = nn.adam_init(params)
        extras = {"norm.mean": np.zeros(43), "norm.std": np.ones(43), "adam.step": np.array(6.0)}
        extras.update((f"adam.m.{name}", arr) for name, arr in adam.m.items())
        extras.update((f"adam.v.{name}", arr) for name, arr in adam.v.items())
        path = tmp_path / "old.nspk"
        fileio.write_checkpoint(path, params, extras)
        assert main(["eval", "--checkpoint", str(path), "--features", str(feats), "--seed", "21"]) == 0

    def test_eval_speaker_count_mismatch_exits_3(self, staged, tmp_path):
        _, _, _, feats = staged
        bogus = nn.init_classifier(43, 8, make_rng(0), tcn_filters=4, tcn_width=3, gru_hidden=4)
        path = tmp_path / "bogus.nspk"
        fileio.write_checkpoint(path, bogus)
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

    @pytest.mark.parametrize("damage", ["empty wav", "short manifest row"])
    def test_preprocess_on_damaged_corpus_exits_2(self, staged, tmp_path, damage):
        _, corpus, _, _ = staged
        broken = tmp_path / "corpus"
        shutil.copytree(corpus, broken)
        if damage == "empty wav":
            sorted((broken / "audio").glob("*.wav"))[0].write_bytes(b"")
        else:
            manifest = broken / "manifest.csv"
            lines = manifest.read_text().splitlines()
            lines[1] = lines[1].rsplit(",", 1)[0]
            manifest.write_text("\n".join(lines) + "\n")
        assert main(["preprocess", "--in", str(broken), "--out", str(tmp_path / "clean"), *TINY]) == 2

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
