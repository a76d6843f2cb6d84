"""Span tracing from outside the program.

``install`` replaces public functions of ``neurospeaker`` at the module
attribute each caller resolves (``nn.forward_batch``; ``pipeline.extract_mfcc``
because pipeline imports it by name; ``cli.COMMANDS["experiment"]`` because
``cli.main`` dispatches through that dict) with wrappers that record one span
per call, and returns a function that puts the originals back. Spans are kept
in memory as {name, start, end, parent, run} and written out at the end of a
run. Counters are derived from the arguments and results of the same calls,
so ratios are measured where the work happens.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import time

# Counts that must repeat exactly for a fixed seed and size.
DETERMINISTIC = (
    "ica.iterations",
    "ica.nonconverged",
    "ica.components_rejected",
    "features.frames_truncated",
    "kpca.fit_frames",
    "nn.batches",
    "nn.pad_efficiency",
)

PIPELINE_STAGES = (
    "preprocess_eeg",
    "extract_features",
    "reduce_eeg",
    "assemble_dataset",
    "train",
    "evaluate",
)


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.run = "setup"
        self._stack: list[int] = []

    def add(self, counter: str, value: float) -> None:
        run = self.counters.setdefault(self.run, {})
        run[counter] = run.get(counter, 0) + value

    def wrap(self, name, fn, on_return=None):
        """``name`` is a span name or a function of (args, kwargs) giving one."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {
                "name": name(args, kwargs) if callable(name) else name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run,
            }
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span}) + "\n")


# --------------------------------------------------------------- counters


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_filter(tracer, args, kwargs, result):
    cascade = _arg(args, kwargs, 0, "cascade")
    tracer.add("dsp.samples_filtered", result.channels * result.n_samples * len(cascade.sections))


def _count_ica(tracer, args, kwargs, model):
    tracer.add("ica.iterations", model.n_iterations)
    tracer.add("ica.nonconverged", 0 if model.converged else 1)


def _count_rejected(tracer, args, kwargs, report):
    tracer.add("ica.components_rejected", len(report.rejected))


def _count_frames(tracer, args, kwargs, seq):
    tracer.add("features.frames", seq.n_frames)


def _count_truncated(tracer, args, kwargs, fused):
    mfcc = _arg(args, kwargs, 0, "mfcc")
    eeg = _arg(args, kwargs, 1, "eeg_reduced")
    tracer.add("features.frames_truncated", mfcc.n_frames + eeg.n_frames - 2 * fused.n_frames)


def _count_kpca_fit(tracer, args, kwargs, model):
    tracer.add("kpca.fit_frames", model.support_vectors.shape[0])
    tracer.add("kpca.fits", 1)
    tracer.add("kpca.ev_sum", float(model.eigenvalues.sum() / model.total_positive_mass))


def _count_projected(tracer, args, kwargs, out):
    tracer.add("kpca.frames_projected", out.shape[0])


def _count_pad(tracer, args, kwargs, result):
    x, lengths = result
    tracer.add("nn.valid_frames", int(lengths.sum()))
    tracer.add("nn.padded_frames", x.shape[0] * x.shape[1])


def _shape_flops(params, batch: int, steps: int) -> tuple[float, float]:
    """Matrix-multiply FLOPs (2 per multiply-add) of one forward and one
    backward pass over a padded (batch, steps) input; elementwise work is
    not counted."""
    d, f, k = params.tcn.input_dim, params.tcn.n_filters, params.tcn.width
    h, s = params.gru.hidden, params.dense.n_out
    bt = batch * steps
    forward = 2 * bt * (k * d * f + 3 * h * f + 3 * h * h) + 2 * batch * h * s
    backward = (
        2 * bt * 2 * k * d * f  # TCN kernel and input gradients
        + 2 * bt * 3 * h * h  # recurrent state gradient, per step
        + 2 * bt * 3 * h * (f + h)  # GRU weight gradients
        + 2 * bt * 3 * h * f  # GRU input gradient
        + 2 * 2 * batch * h * s  # dense weight and state gradients
    )
    return float(forward), float(backward)


def _count_forward(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    x = _arg(args, kwargs, 1, "x")
    tracer.add("nn.batches", 1)
    tracer.add("nn.flop", _shape_flops(params, x.shape[0], x.shape[1])[0])


def _count_backward(tracer, args, kwargs, grads):
    cache = _arg(args, kwargs, 0, "cache")
    params = _arg(args, kwargs, 1, "params")
    tracer.add("nn.flop", _shape_flops(params, cache.x.shape[0], cache.x.shape[1])[1])


def _count_bytes(tracer, args, kwargs, result):
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            tracer.add("fileio.bytes_written", os.path.getsize(value))


def _forward_name(args, kwargs):
    labelled = len(args) > 3 and args[3] is not None or kwargs.get("labels") is not None
    return "nn.forward_train" if labelled else "nn.forward_infer"


def install(tracer: Tracer):
    """Wrap the traced functions; returns a callable that restores them."""
    from neurospeaker import cli, dsp, fileio, ica, kpca, nn, pipeline, synth

    targets = [
        (synth, "generate_synthetic", "synth.generate_synthetic", None),
        (pipeline, "generate_synthetic", "synth.generate_synthetic", None),
        (dsp, "apply_filter", "dsp.apply_filter", _count_filter),
        (ica, "fit_ica", "ica.fit_ica", _count_ica),
        (ica, "score_and_reject", "ica.score_and_reject", _count_rejected),
        (pipeline, "extract_mfcc", "features.extract_mfcc", _count_frames),
        (pipeline, "extract_eeg_features", "features.extract_eeg_features", _count_frames),
        (pipeline, "fuse", "features.fuse", _count_truncated),
        (kpca, "fit_kpca", "kpca.fit_kpca", _count_kpca_fit),
        (kpca, "transform_frames", "kpca.transform_frames", _count_projected),
        (nn, "pad_batch", "nn.pad_batch", _count_pad),
        (nn, "forward_batch", _forward_name, _count_forward),
        (nn, "backward", "nn.backward", _count_backward),
        (nn, "adam_step", "nn.adam_step", None),
        (cli.COMMANDS, "experiment", "cli.experiment", None),
    ]
    targets += [(pipeline, stage, f"pipeline.{stage}", None) for stage in PIPELINE_STAGES]
    targets += [
        (fileio, attr, f"fileio.{attr}", _count_bytes)
        for attr in dir(fileio)
        if attr.startswith("write_") and callable(getattr(fileio, attr))
    ]

    originals = []
    for owner, attr, name, on_return in targets:
        get, put = _accessors(owner, attr)
        original = get()
        originals.append((put, original))
        put(tracer.wrap(name, original, on_return))

    def restore():
        for put, original in reversed(originals):
            put(original)

    return restore


def _accessors(owner, attr):
    if isinstance(owner, dict):
        return (lambda: owner[attr]), (lambda value: owner.__setitem__(attr, value))
    return (lambda: getattr(owner, attr)), (lambda value: setattr(owner, attr, value))


# ----------------------------------------------------- per-layer metrics


def run_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Totals keyed by run id. Parent indices are global, so self time is
    computed over all spans and then split by run."""
    per_run: dict[str, dict[str, float]] = {}
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for index, span in enumerate(tracer.spans):
        totals = per_run.setdefault(span["run"], dict(tracer.counters.get(span["run"], {})))
        name, duration = span["name"], span["end"] - span["start"]
        totals[f"{name}:s"] = totals.get(f"{name}:s", 0.0) + duration
        totals[f"{name}:self"] = totals.get(f"{name}:self", 0.0) + duration - child_time[index]
        totals[f"{name}:calls"] = totals.get(f"{name}:calls", 0) + 1
    for run, counters in tracer.counters.items():
        per_run.setdefault(run, dict(counters))
    return per_run


def combine(setup: dict[str, float], iterations: list[dict[str, float]]) -> dict[str, float]:
    """Setup totals plus the median over (at least one) traced iteration,
    key by key."""
    keys = set(setup).union(*iterations)
    return {key: setup.get(key, 0.0) + statistics.median(it.get(key, 0.0) for it in iterations) for key in keys}


LAYER_UNITS = {
    "synth.generate_synthetic_s": "s",
    "dsp.apply_filter_s": "s",
    "dsp.apply_filter_calls": "count",
    "dsp.samples_filtered": "count",
    "ica.fit_ica_s": "s",
    "ica.fit_ica_calls": "count",
    "ica.iterations": "count",
    "ica.nonconverged": "count",
    "ica.components_rejected": "count",
    "ica.score_and_reject_s": "s",
    "features.extract_eeg_features_s": "s",
    "features.extract_mfcc_s": "s",
    "features.frames": "count",
    "features.frames_truncated": "count",
    "kpca.fit_kpca_s": "s",
    "kpca.fit_frames": "count",
    "kpca.transform_frames_s": "s",
    "kpca.frames_projected": "count",
    "kpca.explained_variance_30": "fraction",
    "nn.forward_train_s": "s",
    "nn.forward_infer_s": "s",
    "nn.backward_s": "s",
    "nn.adam_step_s": "s",
    "nn.pad_batch_s": "s",
    "nn.batches": "count",
    "nn.pad_efficiency": "fraction",
    "nn.gflop": "GFLOP",
    "nn.gflop_per_s": "GFLOP/s",
    **{f"pipeline.{stage}{suffix}": "s" for stage in PIPELINE_STAGES for suffix in ("_s", "_self_s")},
    "fileio.write_checkpoint_s": "s",
    "fileio.bytes_written": "bytes",
    "cli.experiment_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Map combined totals onto the per-layer metric names of BENCHMARK.json."""
    t = lambda key: float(totals.get(key, 0.0))  # noqa: E731
    nn_seconds = t("nn.forward_train:s") + t("nn.forward_infer:s") + t("nn.backward:s")
    metrics = {
        "synth.generate_synthetic_s": t("synth.generate_synthetic:s"),
        "dsp.apply_filter_s": t("dsp.apply_filter:s"),
        "dsp.apply_filter_calls": t("dsp.apply_filter:calls"),
        "dsp.samples_filtered": t("dsp.samples_filtered"),
        "ica.fit_ica_s": t("ica.fit_ica:s"),
        "ica.fit_ica_calls": t("ica.fit_ica:calls"),
        "ica.iterations": t("ica.iterations"),
        "ica.nonconverged": t("ica.nonconverged"),
        "ica.components_rejected": t("ica.components_rejected"),
        "ica.score_and_reject_s": t("ica.score_and_reject:s"),
        "features.extract_eeg_features_s": t("features.extract_eeg_features:s"),
        "features.extract_mfcc_s": t("features.extract_mfcc:s"),
        "features.frames": t("features.frames"),
        "features.frames_truncated": t("features.frames_truncated"),
        "kpca.fit_kpca_s": t("kpca.fit_kpca:s"),
        "kpca.fit_frames": t("kpca.fit_frames"),
        "kpca.transform_frames_s": t("kpca.transform_frames:s"),
        "kpca.frames_projected": t("kpca.frames_projected"),
        "kpca.explained_variance_30": t("kpca.ev_sum") / t("kpca.fits") if t("kpca.fits") else 0.0,
        "nn.forward_train_s": t("nn.forward_train:s"),
        "nn.forward_infer_s": t("nn.forward_infer:s"),
        "nn.backward_s": t("nn.backward:s"),
        "nn.adam_step_s": t("nn.adam_step:s"),
        "nn.pad_batch_s": t("nn.pad_batch:s"),
        "nn.batches": t("nn.batches"),
        "nn.pad_efficiency": t("nn.valid_frames") / t("nn.padded_frames") if t("nn.padded_frames") else 0.0,
        "nn.gflop": t("nn.flop") / 1e9,
        "nn.gflop_per_s": t("nn.flop") / 1e9 / nn_seconds if nn_seconds else 0.0,
    }
    for stage in PIPELINE_STAGES:
        metrics[f"pipeline.{stage}_s"] = t(f"pipeline.{stage}:s")
        metrics[f"pipeline.{stage}_self_s"] = t(f"pipeline.{stage}:self")
    metrics["fileio.write_checkpoint_s"] = t("fileio.write_checkpoint:s")
    metrics["fileio.bytes_written"] = t("fileio.bytes_written")
    metrics["cli.experiment_s"] = t("cli.experiment:s")
    return metrics
