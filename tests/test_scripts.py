import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and two usable CPUs",
)
def test_output_digest_is_the_same_on_one_cpu_and_on_all():
    """The program sets its BLAS to one thread, so its worker map is as wide
    as the usable CPUs: one CPU runs every map serially, all of them run the
    mapped schedule, and an environment asking for two BLAS threads changes
    neither. All three write the same bytes."""
    one_cpu = min(os.sched_getaffinity(0))

    def digest(preexec_fn=None, **blas) -> list[str]:
        done = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "output_digest.py")],
            env=dict(os.environ, **blas), preexec_fn=preexec_fn,
            capture_output=True, text=True, check=True,
        )
        return done.stdout.splitlines()

    serial = digest(lambda: os.sched_setaffinity(0, {one_cpu}))
    mapped = digest()
    two_threads = digest(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    assert len(serial) == 126
    assert mapped == serial
    assert two_threads == serial
