#!/usr/bin/env python3
"""Print a SHA-256 of every output file and of standard output for five
fixed command-line runs, so two checkouts can be compared byte for byte.

    python3 scripts/output_digest.py > a.txt      # in checkout A
    python3 scripts/output_digest.py > b.txt      # in checkout B
    diff a.txt b.txt

The program is imported from ``src/`` next to this script. The scenarios:

- ``determinism``: ``experiment`` with the arguments of the acceptance
  suite's determinism test (seed 31);
- ``staged``: synth -> preprocess -> features -> kpca -> train -> eval at
  seed 21 on a small corpus;
- ``speakers8``: an 8-speaker ``experiment`` with ``train.batch_size=5``;
- ``rbf``: ``kpca`` with the RBF kernel on the ``staged`` features, written
  to a directory of its own;
- ``single``: ``train`` and ``eval``, as in ``staged``, for ``--modality
  MFCC13`` and for ``--modality EEG30``.

Outputs are written under a temporary directory. Some messages on standard
output name it, so its path is replaced by ``<work>`` before hashing. The
program sets its BLAS to one thread itself, so the digest is the same
whatever the BLAS thread variables say and however many CPUs it has.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

DETERMINISM = [
    "--seed", "31",
    "--set", "synth.utterances_per_speaker=4",
    "--set", "synth.duration_s=0.8",
    "--set", "kpca.max_fit_frames=500",
    "--set", "train.epochs=5",
]
STAGED = [
    "--seed", "21",
    "--set", "synth.utterances_per_speaker=3",
    "--set", "synth.duration_s=0.6",
    "--set", "kpca.max_fit_frames=400",
]
SPEAKERS8 = [
    "--seed", "5",
    "--set", "synth.n_speakers=8",
    "--set", "synth.utterances_per_speaker=3",
    "--set", "synth.duration_s=0.6",
    "--set", "kpca.max_fit_frames=400",
    "--set", "train.epochs=4",
    "--set", "train.batch_size=5",
]


def scenarios(w: Path) -> dict[str, list[list[str]]]:
    """Scenario name -> the command lines it runs, in order."""
    corpus, clean, feats = w / "staged/corpus", w / "staged/clean", w / "staged/feats"
    train_args = [*STAGED, "--set", "train.epochs=6"]
    single = []
    for modality in ("MFCC13", "EEG30"):
        run = w / "single" / modality.lower()
        single += [
            ["train", "--features", str(feats), "--out", str(run / "run"),
             "--modality", modality, *train_args],
            ["eval", "--checkpoint", str(run / "run/checkpoint.nspk"),
             "--features", str(feats), "--out", str(run / "eval"), *STAGED],
        ]
    return {
        "determinism": [["experiment", "--out", str(w / "determinism"), *DETERMINISM]],
        "staged": [
            ["synth", "--out", str(corpus), *STAGED],
            ["preprocess", "--in", str(corpus), "--out", str(clean), *STAGED],
            ["features", "--in", str(clean), "--out", str(feats), *STAGED],
            ["kpca", "--features", str(feats), *STAGED],
            ["train", "--features", str(feats), "--out", str(w / "staged/run"), *train_args],
            ["eval", "--checkpoint", str(w / "staged/run/checkpoint.nspk"),
             "--features", str(feats), "--out", str(w / "staged/eval"), *STAGED],
        ],
        "speakers8": [["experiment", "--out", str(w / "speakers8"), *SPEAKERS8]],
        "rbf": [["kpca", "--features", str(feats), "--out", str(w / "rbf"), *STAGED,
                 "--set", "kpca.kernel=rbf"]],
        "single": single,
    }


def _sha(data: bytes, work: bytes) -> str:
    return hashlib.sha256(data.replace(work, b"<work>")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    sys.path.insert(0, str(SRC))
    from neurospeaker.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        tag = str(work).encode()
        for name, commands in scenarios(work).items():
            captured = io.StringIO()
            for argv in commands:
                with contextlib.redirect_stdout(captured):
                    code = cli_main(argv)
                if code != 0:
                    print(f"{name}: {argv[0]} exited {code}", file=sys.stderr)
                    return 1
            print(f"{_sha(captured.getvalue().encode(), tag)}  {name}/<stdout>")
            root = work / name
            for path in sorted(p for p in root.rglob("*") if p.is_file()):
                print(f"{_sha(path.read_bytes(), tag)}  {name}/{path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
