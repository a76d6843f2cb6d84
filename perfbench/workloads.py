"""The three benchmark workloads, driven through the public API of neurospeaker.

Each workload has a ``setup(seed)`` that builds its inputs from the seed and an
``iteration(state)`` that runs the timed body once, checks the program's
outputs, and returns the timings and the correctness tally. Why each workload
exists is written down in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import csv
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from neurospeaker import cli, fileio, nn, pipeline, synth
from neurospeaker.core import derive_rng, split_dataset
from neurospeaker.features import FeatureStats, Modality, compute_feature_stats, normalize_features

ACCURACY_BAR = 0.95  # held-out accuracy required on the separable corpus
TABLE_COLUMNS = ["MFCC", "EEG", "MFCC+EEG"]

# Input sizes. "full" is what the benchmark measures; "smoke" is the tiny size
# the benchmark's own tests run.
SIZES = {
    "full": {
        "frontend": dict(speakers=4, utterances=2, duration_s=2.0, infer_passes=8),
        "train_fused": dict(speakers=4, utterances=5, duration_s=2.0, epochs=20, infer_passes=4),
        "experiment_cli": dict(speakers=4, utterances=6, duration_s=1.0, epochs=10, infer_passes=6),
    },
    "smoke": {
        "frontend": dict(speakers=2, utterances=3, duration_s=1.0, infer_passes=1),
        "train_fused": dict(speakers=2, utterances=5, duration_s=1.0, epochs=8, infer_passes=1),
        "experiment_cli": dict(speakers=2, utterances=5, duration_s=1.0, epochs=2, infer_passes=1),
    },
}


@dataclass
class Outcome:
    """One iteration: timings in seconds, work counts and the check tally."""

    run_s: float
    utterances: int  # utterances of work done in ``work_s``
    work_s: float  # seconds the throughput rate is taken over
    infer: list[tuple[int, float]] = field(default_factory=list)  # (utterances, seconds) per pass
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _spec(size: dict, seed: int, noise_db: float = -40.0) -> synth.SynthSpec:
    return synth.SynthSpec(
        n_speakers=size["speakers"],
        utterances_per_speaker=size["utterances"],
        duration_s=size["duration_s"],
        noise_db=noise_db,
        seed=seed,
    )


def _train_ids(features, speakers: dict[str, int], seed: int) -> list[str]:
    """Training-partition ids, derived the way ``pipeline.run_experiment`` does."""
    ids = sorted(features)
    split = split_dataset(
        [(features[i]["eeg155"], speakers[i]) for i in ids], rng=derive_rng(seed, "split")
    )
    return [ids[i] for i in split.indices("train")]


def _infer_passes(params, sequences: list[np.ndarray], passes: int, outcome: Outcome):
    """Forward-only classification of every sequence, ``passes`` times.

    Each pass is timed on its own; every pass must give finite probabilities
    and the same predictions as the first.
    """
    first = None
    for _ in range(passes):
        start = time.perf_counter()
        preds = []
        finite = True
        for lo in range(0, len(sequences), 100):
            x, lengths = nn.pad_batch(sequences[lo : lo + 100], dtype=params.tcn.kernels.dtype)
            probs, _, _ = nn.forward_batch(params, x, lengths)
            finite &= bool(np.all(np.isfinite(probs)))
            preds.append(np.argmax(probs, axis=1))
        outcome.infer.append((len(sequences), time.perf_counter() - start))
        preds = np.concatenate(preds)
        first = preds if first is None else first
        outcome.check(finite and np.array_equal(preds, first), "inference pass")
    return first


# ------------------------------------------------------------------ frontend


class Frontend:
    """Whole-corpus EEG conditioning, features and KPCA; nn does no work in
    the timed body."""

    name = "frontend"

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int):
        return {"seed": seed, "utterances": synth.generate_synthetic(_spec(self.size, seed))}

    def iteration(self, state) -> Outcome:
        seed, utterances = state["seed"], state["utterances"]
        start = time.perf_counter()
        cleaned, _ = pipeline.preprocess_eeg(utterances, seed=seed)
        features = pipeline.extract_features(cleaned)
        speakers = {u.utterance_id: u.speaker for u in utterances}
        pipeline.reduce_eeg(features, _train_ids(features, speakers, seed), seed=seed)
        run_s = time.perf_counter() - start

        outcome = Outcome(run_s=run_s, utterances=len(utterances), work_s=run_s)
        for utt in utterances:
            streams = features.get(utt.utterance_id, {})
            ok = all(
                key in streams
                and streams[key].frames.shape[1] == modality.dim
                and streams[key].n_frames > 0
                and bool(np.all(np.isfinite(streams[key].frames)))
                for key, modality in (
                    ("mfcc13", Modality.MFCC13),
                    ("eeg155", Modality.EEG155),
                    ("eeg30", Modality.EEG30),
                )
            )
            outcome.check(ok, f"streams of {utt.utterance_id}")

        # Forward-only classification of the fused streams by a seeded,
        # untrained classifier: the inference cost at this workload's shapes.
        # The streams are z-scored as training does; raw feature scales drive
        # the gates into saturation, and the cost then varied with the seed.
        fused = [pipeline.modality_sequence(features[i], Modality.FUSED43) for i in sorted(features)]
        stats = compute_feature_stats(fused)
        params = nn.init_classifier(Modality.FUSED43.dim, self.size["speakers"], derive_rng(seed, "bench.probe"))
        _infer_passes(params, [normalize_features(stats, s).frames for s in fused], self.size["infer_passes"], outcome)
        return outcome


# --------------------------------------------------------------- train_fused


class TrainFused:
    """Training and inference on a prepared FUSED43 dataset; the frontend
    runs only in setup."""

    name = "train_fused"

    def __init__(self, size: dict):
        self.size = size

    def setup(self, seed: int):
        utterances = synth.generate_synthetic(_spec(self.size, seed))
        speakers = {u.utterance_id: u.speaker for u in utterances}
        cleaned, _ = pipeline.preprocess_eeg(utterances, seed=seed)
        features = pipeline.extract_features(cleaned)
        pipeline.reduce_eeg(features, _train_ids(features, speakers, seed), seed=seed)
        return {"seed": seed, "dataset": pipeline.assemble_dataset(features, speakers, Modality.FUSED43, seed)}

    def iteration(self, state) -> Outcome:
        dataset = state["dataset"]
        config = pipeline.TrainConfig(epochs=self.size["epochs"], seed=state["seed"])
        start = time.perf_counter()
        result = pipeline.train(dataset, config)
        train_s = time.perf_counter() - start
        report = pipeline.evaluate(result.params, dataset, result.stats, result.curves)
        sequences = [normalize_features(result.stats, s).frames for s, _ in dataset.items]
        outcome = Outcome(run_s=0.0, utterances=len(dataset.subset("train")) * config.epochs, work_s=train_s)
        preds = _infer_passes(result.params, sequences, self.size["infer_passes"], outcome)
        outcome.run_s = time.perf_counter() - start

        # The acceptance bar on every held-out item: the test partition and
        # the validation partition at the last epoch.
        held_out = min(report.test_accuracy, result.curves[-1][2])
        curves_finite = all(np.isfinite(v) for row in result.curves for v in row[1:])
        outcome.check(
            held_out >= ACCURACY_BAR and curves_finite,
            f"held-out accuracy {held_out:.4f} < {ACCURACY_BAR} or non-finite curves",
        )
        labels = np.array([y for _, y in dataset.items])
        outcome.data = {
            "test_accuracy": report.test_accuracy,
            "final_train_accuracy": result.curves[-1][1],
            "final_val_accuracy": result.curves[-1][2],
            "inference_accuracy_all_items": float(np.mean(preds == labels)),
        }
        return outcome


# ------------------------------------------------------------ experiment_cli


class ExperimentCli:
    """``neurospeaker experiment`` on a noisy-audio corpus with all three
    modalities, as a user runs it."""

    name = "experiment_cli"
    noise_db = 20.0

    def __init__(self, size: dict, work_dir: Path):
        self.size = size
        self.work_dir = work_dir

    def setup(self, seed: int):
        # The same corpus the command synthesizes, kept for the inference probe.
        utterances = synth.generate_synthetic(_spec(self.size, seed, self.noise_db))
        mfcc = [pipeline.extract_mfcc(u.audio, utterance_id=u.utterance_id) for u in utterances]
        return {"seed": seed, "mfcc": mfcc}

    def argv(self, seed: int, out: Path) -> list[str]:
        sets = {
            "synth.n_speakers": self.size["speakers"],
            "synth.utterances_per_speaker": self.size["utterances"],
            "synth.duration_s": self.size["duration_s"],
            "synth.noise_db": self.noise_db,
            "train.epochs": self.size["epochs"],
        }
        argv = ["experiment", "--out", str(out), "--seed", str(seed)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv

    def iteration(self, state) -> Outcome:
        out = self.work_dir / "experiment"
        shutil.rmtree(out, ignore_errors=True)
        stdout = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(self.argv(state["seed"], out))
            run_s = time.perf_counter() - start
            n_utts = self.size["speakers"] * self.size["utterances"]
            outcome = Outcome(run_s=run_s, utterances=n_utts, work_s=run_s)
            table = _read_table(out / "table.csv")
            outcome.check(
                code == 0 and table is not None,
                f"exit code {code}; table.csv {'ok' if table else 'missing or malformed'}",
            )
            if table:
                outcome.data = {f"test_accuracy_{c}": v / 100.0 for c, v in table.items()}
            checkpoint = out / "checkpoint_mfcc13.nspk"
            if code == 0 and checkpoint.is_file():
                # Forward-only classification with the MFCC13 model the command wrote.
                params, extras, _ = fileio.read_checkpoint(checkpoint)
                stats = FeatureStats(extras["norm.mean"], extras["norm.std"], Modality.MFCC13)
                sequences = [normalize_features(stats, s).frames for s in state["mfcc"]]
                _infer_passes(params, sequences, self.size["infer_passes"], outcome)
            return outcome
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _read_table(path: Path) -> dict[str, float] | None:
    """The three-column accuracy table, or None when it is not one."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 2 or rows[0] != TABLE_COLUMNS or len(rows[1]) != 3:
            return None
        values = [float(v) for v in rows[1]]
    except (OSError, ValueError):
        return None
    if not all(0.0 <= v <= 100.0 for v in values):
        return None
    return dict(zip(TABLE_COLUMNS, values))


def make(name: str, size: str, work_dir: Path):
    sizes = SIZES[size]
    if name == "frontend":
        return Frontend(sizes[name])
    if name == "train_fused":
        return TrainFused(sizes[name])
    return ExperimentCli(sizes[name], work_dir)
