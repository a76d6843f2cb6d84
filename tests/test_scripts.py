import os
import re
import subprocess
import sys
from pathlib import Path

import neurospeaker

REPO = Path(__file__).resolve().parents[1]


def test_noise_sweep_prints_its_table():
    """One tiny sweep point: the header, the rule and one row whose cells
    line up under the header's columns."""
    src = str(Path(neurospeaker.__file__).resolve().parents[1])
    done = subprocess.run(
        [
            sys.executable, str(REPO / "scripts" / "noise_sweep.py"),
            "--speakers", "2", "--utterances", "5", "--duration", "0.5",
            "--epochs", "1", "--noise-db", "0",
        ],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    header, rule, row = done.stdout.splitlines()
    assert header == " noise_db |    MFCC |     EEG |  MFCC+EEG"
    assert rule == "-" * 43
    cells = re.fullmatch(
        r"(      0\.0 \| +\d+\.\d\d% \| +\d+\.\d\d% \| +\d+\.\d\d%)   \(\d+s\)", row
    )
    assert cells is not None and len(cells.group(1)) == len(header)
