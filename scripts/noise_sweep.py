#!/usr/bin/env python3
"""Sweep the audio noise level and compare per-modality test accuracy.

Probes the regime where EEG-only features overtake noisy acoustic features:
EEG accuracy should stay flat across the sweep while MFCC accuracy decays
toward chance.
"""
import argparse
import sys
import time

from neurospeaker import pipeline
from neurospeaker.synth import SynthSpec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--noise-db", type=float, nargs="+", default=[-40.0, -10.0, 0.0, 10.0, 20.0]
    )
    parser.add_argument("--speakers", type=int, default=4)
    parser.add_argument("--utterances", type=int, default=20, help="per speaker")
    parser.add_argument("--duration", type=float, default=1.0)
    parser.add_argument("--epochs", type=int, default=80)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # A column is as wide as "100.00%" or as its name plus a space; each row
    # looks its cells up by the header's names.
    names = pipeline.MODALITY_COLUMNS.values()
    widths = {name: max(len("100.00%"), len(name) + 1) for name in names}
    print(f"{'noise_db':>9} | " + " | ".join(f"{name:>{w}}" for name, w in widths.items()))
    print("-" * 43)
    for noise_db in args.noise_db:
        spec = SynthSpec(
            n_speakers=args.speakers,
            utterances_per_speaker=args.utterances,
            duration_s=args.duration,
            separability=1.0,
            noise_db=noise_db,
            seed=args.seed,
        )
        start = time.perf_counter()
        result = pipeline.run_experiment(
            spec, config=pipeline.TrainConfig(epochs=args.epochs, seed=args.seed)
        )
        cells = [f"{100 * result.accuracies[name]:>{w - 1}.2f}%" for name, w in widths.items()]
        print(
            f"{noise_db:>9.1f} | " + " | ".join(cells)
            + f"   ({time.perf_counter() - start:.0f}s)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
