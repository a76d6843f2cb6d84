"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload frontend --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout; one process, one caller (closed loop), one BLAS thread.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates traced
and untraced iterations and prints the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record (environment,
per-iteration samples, quartiles, accuracies, failures) goes to
``perfbench/results/``, and the traced run's spans next to it.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOADS = ("frontend", "train_fused", "experiment_cli")
SETUP_REPEATS = 3
# On a 2-vCPU machine a second OpenBLAS thread made a fixed matmul loop's
# iteration times spread 8.6% (IQR / median) against 1.0% with one thread.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "utt_per_s": "utt/s",
    "infer_utt_per_s": "utt/s",
    "peak_rss_mb": "MB",
}


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def _summary(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    if len(values) < 2:
        return {"n": len(values), "median": _median(values), "q1": _median(values), "q3": _median(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def _import_probe() -> None:
    """A fresh interpreter imports the command-line module, which imports
    every other module of the program."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import neurospeaker.cli"], env=env, cwd=ROOT, check=True)


def _environment(args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = found.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


def _run_iteration(workload, state, outcomes: list, failures: list) -> None:
    """One iteration; an exception counts as one failed operation."""
    from workloads import Outcome

    try:
        outcomes.append(workload.iteration(state))
    except Exception:  # the measurement loop reports failures and keeps going
        failures.append(traceback.format_exc())
        print(failures[-1], file=sys.stderr)
        outcomes.append(Outcome(run_s=float("nan"), utterances=0, work_s=float("nan"), attempted=1, failed=1))


def measure(workload, seed: int, seconds: float):
    """Untraced run: set-up repeated, then iterations for ``seconds``."""
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _import_probe()
        state = workload.setup(seed)
        setup_samples.append(time.perf_counter() - start)

    outcomes, failures = [], []
    start = time.perf_counter()
    while True:
        _run_iteration(workload, state, outcomes, failures)
        if time.perf_counter() - start >= seconds:
            break

    timed = [o for o in outcomes if not math.isnan(o.run_s)]
    samples = {
        "setup_s": setup_samples,
        "run_s": [o.run_s for o in timed],
        "utt_per_s": [o.utterances / o.work_s for o in timed],
        "infer_utt_per_s": [n / s for o in timed for n, s in o.infer],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    # Passes last tens of milliseconds and the host's speed flips between two
    # states about 1.4x apart, so the median pass follows whichever state held
    # most of the run. Utterances over time across all passes averages them.
    infer_s = sum(s for o in timed for _, s in o.infer)
    metrics["infer_utt_per_s"] = sum(n for o in timed for n, _ in o.infer) / infer_s if infer_s else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, samples, outcomes, failures, None


def measure_traced(workload, seed: int, seconds: float):
    """Traced run: set-up traced once, one untraced warm-up iteration, then
    traced and untraced iterations alternately for ``seconds``. Per-layer
    metrics are the traced set-up plus the median traced iteration; the
    overhead is the difference of the median traced and untraced ``run_s``."""
    import tracer

    tr = tracer.Tracer()
    restore = tracer.install(tr)
    try:
        state = workload.setup(seed)
    finally:
        restore()

    # The first untraced iteration warms caches and is left out of the
    # overhead baseline; its checks still count.
    plain, traced, failures = [], [], []
    _run_iteration(workload, state, plain, failures)
    start = time.perf_counter()
    while True:
        tr.run = f"iteration{len(traced) + 1}"
        restore = tracer.install(tr)
        try:
            _run_iteration(workload, state, traced, failures)
        finally:
            restore()
        _run_iteration(workload, state, plain, failures)
        if time.perf_counter() - start >= seconds:
            break

    per_run = tracer.run_totals(tr)
    setup_totals = per_run.get("setup", {})
    iterations = [per_run.get(f"iteration{i}", {}) for i in range(1, len(traced) + 1)]
    metrics = tracer.layer_metrics(tracer.combine(setup_totals, iterations))
    metrics["trace.overhead_s"] = _median(o.run_s for o in traced if not math.isnan(o.run_s)) - _median(
        o.run_s for o in plain[1:] if not math.isnan(o.run_s)
    )

    # The deterministic counts must also agree between iterations of one run.
    from workloads import Outcome

    repeat = Outcome(run_s=0.0, utterances=0, work_s=0.0)
    per_iteration = [tracer.layer_metrics(tracer.combine(setup_totals, [it])) for it in iterations]
    for name in tracer.DETERMINISTIC:
        repeat.check(len({m[name] for m in per_iteration}) <= 1, f"{name} differs between iterations")
    samples = {"traced_run_s": [o.run_s for o in traced], "untraced_run_s": [o.run_s for o in plain[1:]]}
    return metrics, samples, plain + traced + [repeat], failures, tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "neurospeaker" / "__init__.py").is_file():
        print(f"perfbench: no neurospeaker package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    RESULTS.mkdir(exist_ok=True)
    work_dir = RESULTS / f"work-{os.getpid()}"
    workload = workloads.make(args.workload, args.size, work_dir)
    try:
        run = measure_traced if args.trace else measure
        metrics, samples, outcomes, failures, tr = run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = tracer.LAYER_UNITS if args.trace else E2E_UNITS
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    env = _environment(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "samples": {name: {**_summary(values), "values": values} for name, values in samples.items()},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "accuracy": [o.data for o in outcomes if o.data],
        "errors": [e for o in outcomes for e in o.errors] + failures,
    }
    if tr is not None:
        tr.write(RESULTS / f"{stem}-spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env))
    print("accuracy " + json.dumps(record["accuracy"][:1]))
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
