"""Command-line entry point.

Stages map onto the processing chain::

    synth -> preprocess -> features -> kpca -> train -> eval
                     experiment  (all of the above in one run)

Exit codes: 0 success, 1 usage, 2 IO, 3 configuration or dimension
contradiction, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio, kpca, pipeline
from .config import RunConfig, load_config, registry_help
from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    InputError,
    NumericError,
    UsageError,
)
from .features import (
    AUDIO_RATE_HZ, EEG_RATE_HZ, FeatureSequence, FeatureStats, Modality, check_recording,
)
from .synth import Utterance, generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

# The streams a classifier trains on, keyed by the checkpoint's input width.
TRAINABLE = {m.dim: m for m in pipeline.MODALITY_COLUMNS}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; our contract says 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="neurospeaker",
        description="Speaker identification from speech, EEG, or fused features.",
        epilog=registry_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-c", "--config", type=Path, default=None, help="key=value config file")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--seed", type=int, default=None, help="override the root seed")

    p = sub.add_parser("synth", help="generate a synthetic corpus on disk")
    common(p)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("preprocess", help="band-pass, notch, and ICA-clean the EEG")
    common(p)
    p.add_argument("--in", dest="in_dir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("features", help="extract MFCC13 and EEG155 feature files")
    common(p)
    p.add_argument("--in", dest="in_dir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("kpca", help="fit KPCA on training EEG features, emit EEG30")
    common(p)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None, help="defaults to the features dir")

    p = sub.add_parser("train", help="train the classifier on one modality")
    common(p)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument(
        "--modality", type=str.upper, default="FUSED43",
        choices=[m.name for m in TRAINABLE.values()], help="case-insensitive (default FUSED43)",
    )
    p.add_argument("--svg", action="store_true", help="also render the accuracy curves as SVG")

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test partition")
    common(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("experiment", help="full three-modality comparison, end to end")
    common(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--svg", action="store_true")
    return parser


def _load_run_config(args) -> RunConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    return load_config(args.config, overrides)


def _ensure_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FormatError(f"cannot create directory {path}: {exc}") from exc
    return path


# ------------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    config = _load_run_config(args)
    out = _ensure_dir(args.out)
    _ensure_dir(out / "audio")
    _ensure_dir(out / "eeg")
    utterances = generate_synthetic(config.synth)
    rows = []
    for utt in utterances:
        audio_rel = f"audio/{utt.utterance_id}.wav"
        eeg_rel = f"eeg/{utt.utterance_id}.eeg"
        fileio.write_wav(out / audio_rel, utt.audio)
        fileio.write_eeg(out / eeg_rel, utt.eeg)
        rows.append(dict(utterance_id=utt.utterance_id, speaker_label=f"spk{utt.speaker}",
                         audio_path=audio_rel, eeg_path=eeg_rel))
    fileio.write_manifest(out / "manifest.csv", rows)
    print(f"wrote {len(rows)} utterances to {out}")
    return EXIT_OK


def _load_corpus(in_dir: Path):
    manifest = fileio.read_manifest(in_dir / "manifest.csv")
    speakers = fileio.speaker_index(manifest)
    utterances = []
    for row in manifest:
        audio = fileio.read_wav(in_dir / row["audio_path"])
        eeg = fileio.read_eeg(in_dir / row["eeg_path"])
        utterances.append(
            Utterance(
                utterance_id=row["utterance_id"],
                speaker=speakers[row["speaker_label"]],
                audio=audio,
                eeg=eeg,
            )
        )
    return utterances, manifest


def cmd_preprocess(args) -> int:
    config = _load_run_config(args)
    utterances, manifest = _load_corpus(args.in_dir)
    for utt in utterances:  # the audio that features reads
        check_recording(utt.audio, "audio", config.mfcc.frame_length, utt.utterance_id)
    cleaned, report_rows = pipeline.preprocess_eeg(
        utterances, config.dsp, config.ica, config.seed
    )
    out = _ensure_dir(args.out)
    _ensure_dir(out / "eeg")
    for row, utt in zip(manifest, cleaned):  # both in corpus order
        eeg_rel = f"eeg/{utt.utterance_id}.eeg"
        fileio.write_eeg(out / eeg_rel, utt.eeg)
        audio_rel = os.path.relpath(args.in_dir / row["audio_path"], out)
        row.update(audio_path=audio_rel, eeg_path=eeg_rel)
    fileio.write_manifest(out / "manifest.csv", manifest)
    fileio.write_artifact_report_csv(out / "artifact_report.csv", report_rows)
    n_rejected = sum(1 for r in report_rows if r[5])
    print(f"cleaned {len(cleaned)} recordings; rejected {n_rejected} components")
    return EXIT_OK


def cmd_features(args) -> int:
    config = _load_run_config(args)
    utterances, manifest = _load_corpus(args.in_dir)
    features = pipeline.extract_features(utterances, config.dsp, config.mfcc)
    out = _ensure_dir(args.out)
    rows = []
    for row in manifest:
        entry = {"utterance_id": row["utterance_id"], "speaker_label": row["speaker_label"]}
        for seq in features[row["utterance_id"]].values():
            _write_stream(out, entry, seq)
        rows.append(entry)
    fileio.write_features_index(out / fileio.FEATURES_INDEX, rows)
    print(f"extracted features for {len(rows)} utterances")
    return EXIT_OK


def _write_stream(out: Path, row: dict[str, str], seq: FeatureSequence) -> None:
    """Write ``seq`` to ``<modality>/<utterance id>.fseq`` under ``out`` and
    name that file in the row's column for its modality."""
    folder = seq.modality.name.lower()
    _ensure_dir(out / folder)
    rel = f"{folder}/{row['utterance_id']}.fseq"
    fileio.write_fseq(out / rel, seq)
    row[fileio.STREAM_COLUMNS[seq.modality]] = rel


def _load_feature_streams(features_dir: Path, rows, modalities: tuple[Modality, ...]):
    """The streams of ``modalities``, by lower-case modality name, and dense
    speaker ids, both keyed by utterance id; no other stream's file is
    opened. A file whose modality is not its column's in
    ``fileio.STREAM_COLUMNS`` is a format error."""
    streams: dict[str, dict[str, FeatureSequence]] = {}
    for row in rows:
        utt_id = row["utterance_id"]
        entry = {}
        for modality in modalities:
            column = fileio.STREAM_COLUMNS[modality]
            if not row[column]:  # only the EEG30 column, which kpca fills, may be empty
                raise ConfigError(
                    f"feature index has no {modality.name.lower()} entry for {utt_id}; "
                    "run the kpca stage first"
                )
            path = features_dir / row[column]
            seq = fileio.read_fseq(path, utt_id)
            if seq.modality is not modality:
                raise FormatError(
                    f"{path}: {seq.modality.name} features in {column}, expected {modality.name}"
                )
            entry[modality.name.lower()] = seq
        streams[utt_id] = entry
    index = fileio.speaker_index(rows)
    speakers = {row["utterance_id"]: index[row["speaker_label"]] for row in rows}
    return streams, speakers


def cmd_kpca(args) -> int:
    config = _load_run_config(args)
    rows = fileio.read_features_index(args.features / fileio.FEATURES_INDEX)
    out = _ensure_dir(args.out or args.features)
    # Both streams the written index names are read, so a file kpca passes
    # over is never first met by train.
    kept = (Modality.MFCC13, Modality.EEG155)
    streams, speakers = _load_feature_streams(args.features, rows, kept)
    partition = pipeline.split_utterances(speakers, config.seed)
    train_ids = [i for i, tag in partition.items() if tag == "train"]
    model = pipeline.reduce_eeg(streams, train_ids, config.kpca, config.seed)
    for row in rows:
        _write_stream(out, row, streams[row["utterance_id"]]["eeg30"])
        # Relative to ``out``, which need not be the features directory.
        for column in (fileio.STREAM_COLUMNS[m] for m in kept):
            row[column] = os.path.relpath(args.features / row[column], out)
    fileio.write_features_index(out / fileio.FEATURES_INDEX, rows)
    fractions = kpca.cumulative_explained_variance(model)
    fileio.write_explained_variance_csv(out / "explained_variance.csv", fractions)
    print(
        f"reduced {len(rows)} utterances to {model.n_components} dims; "
        f"cumulative explained variance {fractions[-1]:.3f}"
    )
    return EXIT_OK


def _assemble_from_dir(features_dir: Path, config: RunConfig, modality: Modality):
    rows = fileio.read_features_index(features_dir / fileio.FEATURES_INDEX)
    streams, speakers = _load_feature_streams(features_dir, rows, modality.sources)
    return pipeline.assemble_dataset(streams, speakers, modality, config.seed)


def _write_trained_model(out: Path, suffix: str, result: pipeline.TrainResult, svg: bool) -> None:
    """checkpoint<suffix>.nspk with the normalization statistics as norm.*
    extras, curves<suffix>.csv and, when asked, curves<suffix>.svg."""
    extras = {"norm.mean": result.stats.mean, "norm.std": result.stats.std}
    fileio.write_checkpoint(out / f"checkpoint{suffix}.nspk", result.params, extras)
    fileio.write_curves_csv(out / f"curves{suffix}.csv", result.curves)
    if svg:
        fileio.render_curves_svg(out / f"curves{suffix}.svg", result.curves)


def cmd_train(args) -> int:
    config = _load_run_config(args)
    modality = Modality[args.modality]
    dataset = _assemble_from_dir(args.features, config, modality)
    result = pipeline.train(dataset, config.train)
    _write_trained_model(_ensure_dir(args.out), "", result, args.svg)
    final = result.curves[-1]
    print(
        f"trained {modality.name} for {final[0]} epochs; "
        f"final train accuracy {final[1]:.4f}, validation accuracy {final[2]:.4f}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_run_config(args)
    params, extras, _ = fileio.read_checkpoint(args.checkpoint)
    if params.input_dim not in TRAINABLE:
        raise DimensionError(f"checkpoint input dim {params.input_dim} matches no modality")
    modality = TRAINABLE[params.input_dim]
    dataset = _assemble_from_dir(args.features, config, modality)
    stats = FeatureStats(
        mean=extras["norm.mean"].astype(np.float64),
        std=extras["norm.std"].astype(np.float64),
        modality=modality,
    )
    report = pipeline.evaluate(params, dataset, stats)
    lines = [
        f"modality: {modality.name}",
        f"test items: {report.n_test}",
        f"test accuracy: {fileio.format_percent(report.test_accuracy)}%",
        "confusion matrix (rows = truth):",
    ]
    for row in report.confusion_matrix:
        lines.append("  " + " ".join(f"{v:4d}" for v in row))
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        out = _ensure_dir(args.out)
        (out / "report.txt").write_text(text + "\n")
        fileio.write_confusion_csv(out / "confusion.csv", report.confusion_matrix)
    return EXIT_OK


def _check_windows_fit(config: RunConfig) -> None:
    """Reject a feature window longer than the recordings ``experiment`` would
    synthesize, before any synthesis or output directory. Staged commands
    check the recordings they read, which ``load_config`` cannot see."""
    spec = config.synth
    for key, window, rate in (
        ("features.mfcc_window_ms", config.mfcc.frame_length, AUDIO_RATE_HZ),
        ("dsp.frame_length", config.dsp.frame_length, EEG_RATE_HZ),
    ):
        n_samples = spec.samples_at(rate)
        if window > n_samples:
            raise ConfigError(
                f"{key} gives a {window}-sample window, longer than the {n_samples}-sample"
                f" recordings of synth.duration_s={spec.duration_s:g}"
            )


def cmd_experiment(args) -> int:
    config = _load_run_config(args)
    _check_windows_fit(config)
    out = _ensure_dir(args.out)
    result = pipeline.run_experiment(
        config.synth,
        config=config.train,
        dsp_config=config.dsp,
        ica_config=config.ica,
        kpca_config=config.kpca,
        mfcc_config=config.mfcc,
    )
    for modality, train_result in result.results.items():
        _write_trained_model(out, f"_{modality.name.lower()}", train_result, args.svg)
    fileio.write_explained_variance_csv(
        out / "explained_variance.csv",
        kpca.cumulative_explained_variance(result.kpca_model),
    )
    fileio.write_comparison_table(out / "table.txt", out / "table.csv", result.accuracies)
    print((out / "table.txt").read_text().rstrip())
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "features": cmd_features,
    "kpca": cmd_kpca,
    "train": cmd_train,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, InputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
