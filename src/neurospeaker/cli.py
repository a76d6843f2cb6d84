"""Command-line entry point.

Stages map onto the processing chain::

    synth -> preprocess -> features -> kpca -> train -> eval
                     experiment  (all of the above in one run)

Exit codes: 0 success, 1 usage, 2 IO, 3 configuration or dimension
contradiction, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
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
from .features import FeatureSequence, FeatureStats, Modality
from .synth import generate_synthetic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

FEATURES_INDEX = "features.csv"
FEATURE_COLUMNS = ("utterance_id", "speaker_label", "mfcc_path", "eeg155_path", "eeg30_path")
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
    utterances = generate_synthetic(config.synth_spec())
    rows = []
    for utt in utterances:
        audio_rel = f"audio/{utt.utterance_id}.wav"
        eeg_rel = f"eeg/{utt.utterance_id}.eeg"
        fileio.write_wav(out / audio_rel, utt.audio)
        fileio.write_eeg(out / eeg_rel, utt.eeg)
        rows.append((utt.utterance_id, f"spk{utt.speaker}", audio_rel, eeg_rel))
    fileio.write_manifest(out / "manifest.csv", rows)
    print(f"wrote {len(rows)} utterances to {out}")
    return EXIT_OK


def _load_corpus(in_dir: Path):
    manifest = fileio.read_manifest(in_dir / "manifest.csv")
    speakers = fileio.speaker_index(manifest)
    from .synth import Utterance

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
    return utterances, manifest, speakers


def cmd_preprocess(args) -> int:
    config = _load_run_config(args)
    utterances, manifest, _ = _load_corpus(args.in_dir)
    cleaned, report_rows = pipeline.preprocess_eeg(
        utterances, config.dsp_config(), config.ica_config(), config.seed
    )
    out = _ensure_dir(args.out)
    _ensure_dir(out / "eeg")
    rows = []
    by_id = {u.utterance_id: u for u in cleaned}
    for row in manifest:
        utt = by_id[row["utterance_id"]]
        eeg_rel = f"eeg/{utt.utterance_id}.eeg"
        fileio.write_eeg(out / eeg_rel, utt.eeg)
        audio_abs = (args.in_dir / row["audio_path"]).resolve()
        try:
            audio_rel = str(audio_abs.relative_to(out.resolve()))
        except ValueError:
            audio_rel = str(audio_abs)
        rows.append((row["utterance_id"], row["speaker_label"], audio_rel, eeg_rel))
    fileio.write_manifest(out / "manifest.csv", rows)
    fileio.write_artifact_report_csv(out / "artifact_report.csv", report_rows)
    n_rejected = sum(1 for r in report_rows if r[5])
    print(f"cleaned {len(cleaned)} recordings; rejected {n_rejected} components")
    return EXIT_OK


def _write_features_index(path: Path, rows: list[dict[str, str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FEATURE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def _read_features_index(path: Path) -> list[dict[str, str]]:
    try:
        return fileio.read_index(path, FEATURE_COLUMNS)
    except OSError as exc:
        raise FormatError(f"cannot read feature index {path}: {exc}") from exc


def cmd_features(args) -> int:
    config = _load_run_config(args)
    utterances, manifest, _ = _load_corpus(args.in_dir)
    features = pipeline.extract_features(utterances, config.dsp_config(), config.mfcc_config())
    out = _ensure_dir(args.out)
    _ensure_dir(out / "mfcc13")
    _ensure_dir(out / "eeg155")
    rows = []
    for row in manifest:
        utt_id = row["utterance_id"]
        streams = features[utt_id]
        mfcc_rel = f"mfcc13/{utt_id}.fseq"
        eeg_rel = f"eeg155/{utt_id}.fseq"
        fileio.write_fseq(out / mfcc_rel, streams["mfcc13"])
        fileio.write_fseq(out / eeg_rel, streams["eeg155"])
        rows.append(
            {
                "utterance_id": utt_id,
                "speaker_label": row["speaker_label"],
                "mfcc_path": mfcc_rel,
                "eeg155_path": eeg_rel,
                "eeg30_path": "",
            }
        )
    _write_features_index(out / FEATURES_INDEX, rows)
    print(f"extracted features for {len(rows)} utterances")
    return EXIT_OK


def _load_feature_streams(features_dir: Path, rows, want_eeg30: bool):
    """Feature streams and dense speaker ids, both keyed by utterance id."""
    streams: dict[str, dict[str, FeatureSequence]] = {}
    for row in rows:
        utt_id = row["utterance_id"]
        entry = {
            "mfcc13": fileio.read_fseq(features_dir / row["mfcc_path"], utt_id),
            "eeg155": fileio.read_fseq(features_dir / row["eeg155_path"], utt_id),
        }
        if want_eeg30:
            if not row["eeg30_path"]:
                raise ConfigError(
                    f"feature index has no eeg30 entry for {utt_id}; run the kpca stage first"
                )
            entry["eeg30"] = fileio.read_fseq(features_dir / row["eeg30_path"], utt_id)
        streams[utt_id] = entry
    index = fileio.speaker_index(rows)
    speakers = {row["utterance_id"]: index[row["speaker_label"]] for row in rows}
    return streams, speakers


def cmd_kpca(args) -> int:
    config = _load_run_config(args)
    rows = _read_features_index(args.features / FEATURES_INDEX)
    out = _ensure_dir(args.out or args.features)
    streams, speakers = _load_feature_streams(args.features, rows, want_eeg30=False)
    partition = pipeline.split_utterances(streams, speakers, config.seed)
    train_ids = [i for i, tag in partition.items() if tag == "train"]
    model = pipeline.reduce_eeg(streams, train_ids, config.kpca_config(), config.seed)
    _ensure_dir(out / "eeg30")
    for row in rows:
        utt_id = row["utterance_id"]
        rel = f"eeg30/{utt_id}.fseq"
        fileio.write_fseq(out / rel, streams[utt_id]["eeg30"])
        row["eeg30_path"] = rel
    _write_features_index(out / FEATURES_INDEX, rows)
    fractions = kpca.cumulative_explained_variance(model)
    fileio.write_explained_variance_csv(out / "explained_variance.csv", fractions)
    print(
        f"reduced {len(rows)} utterances to {model.n_components} dims; "
        f"cumulative explained variance {fractions[-1]:.3f}"
    )
    return EXIT_OK


def _assemble_from_dir(features_dir: Path, config: RunConfig, modality: Modality):
    rows = _read_features_index(features_dir / FEATURES_INDEX)
    want_eeg30 = modality in (Modality.EEG30, Modality.FUSED43)
    streams, speakers = _load_feature_streams(features_dir, rows, want_eeg30)
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
    result = pipeline.train(dataset, config.train_config())
    _write_trained_model(_ensure_dir(args.out), "", result, args.svg)
    final = result.curves[-1]
    print(
        f"trained {modality.name} for {final[0]} epochs; "
        f"final train accuracy {final[1]:.4f}, validation accuracy {final[2]:.4f}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    config = _load_run_config(args)
    params, extras, header = fileio.read_checkpoint(args.checkpoint)
    if header["input_dim"] not in TRAINABLE:
        raise DimensionError(f"checkpoint input dim {header['input_dim']} matches no modality")
    modality = TRAINABLE[header["input_dim"]]
    dataset = _assemble_from_dir(args.features, config, modality)
    if dataset.n_speakers != header["n_speakers"]:
        raise DimensionError(
            f"checkpoint was trained for {header['n_speakers']} speakers but the "
            f"feature set has {dataset.n_speakers}"
        )
    stats = None
    if "norm.mean" in extras and "norm.std" in extras:
        stats = FeatureStats(
            mean=extras["norm.mean"].astype(np.float64),
            std=extras["norm.std"].astype(np.float64),
            modality=modality,
        )
    report = pipeline.evaluate(params, dataset, stats)
    lines = [
        f"modality: {modality.name}",
        f"test items: {report.n_test}",
        f"test accuracy: {report.accuracy_percent()}%",
        "confusion matrix (rows = truth):",
    ]
    for row in report.confusion_matrix:
        lines.append("  " + " ".join(f"{v:4d}" for v in row))
    text = "\n".join(lines)
    print(text)
    if args.out is not None:
        out = _ensure_dir(args.out)
        (out / "report.txt").write_text(text + "\n")
        with open(out / "confusion.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"pred_{i}" for i in range(dataset.n_speakers)])
            writer.writerows(report.confusion_matrix.tolist())
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = _load_run_config(args)
    out = _ensure_dir(args.out)
    result = pipeline.run_experiment(
        config.synth_spec(),
        config=config.train_config(),
        dsp_config=config.dsp_config(),
        ica_config=config.ica_config(),
        kpca_config=config.kpca_config(),
        mfcc_config=config.mfcc_config(),
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
    except (ConfigError, DimensionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
