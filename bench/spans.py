"""In-memory span tracing around calls into binsense's public functions.

A :class:`Tracer` swaps module attributes for timing wrappers, so every
call that resolves the name through that module records a span: name,
start, end, parent span, the trial it belongs to, and an exact work count
(samples drawn, matrix rows, MLE candidates).  Nothing under ``src/`` is
edited; the originals are restored when the ``patched`` block exits.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    trial: int | None
    work: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.attr`` recorded under ``name``.

    ``work`` maps the call's positional arguments to its exact work count;
    ``trial_arg`` is the position of the trial index, for the span that
    opens a trial.
    """

    module: object
    attr: str
    name: str
    work: object = None
    trial_arg: int | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, target: Target, fn):
        def traced(*args, **kwargs):
            parent, trial = self._stack[-1] if self._stack else (None, None)
            if target.trial_arg is not None:
                trial = args[target.trial_arg]
            work = target.work(*args) if target.work is not None else 0
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in on return
            self._stack.append((span_id, trial))
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[span_id] = Span(span_id, target.name, start, end, parent, trial, work)

        return traced

    @contextmanager
    def patched(self, targets):
        originals = [(t.module, t.attr, getattr(t.module, t.attr)) for t in targets]
        try:
            for t, (_, _, fn) in zip(targets, originals):
                setattr(t.module, t.attr, self.wrap(t, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent's and merged first, so
    overlapping children are not subtracted twice.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for s in spans:
        covered = 0
        cursor = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.duration - covered)
    return out


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


STAGES = {
    "signal": ("model.random_signal",),
    "matrix": ("model.gen_sensing_matrix",),
    "noise": ("model.measure",),
    "decode": (
        "decode.topk_correlation_decode",
        "decode.quantize_then_decode",
        "decode.mle_decode_linear",
    ),
}


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced workload unit (values only, no units).

    A layer the workload never calls reports 0 for its time and count:
    every per-layer metric is printed for every workload, and only the
    end-to-end metrics are required to be non-zero.
    """
    by_name = {}
    for s, own in zip(spans, self_times(spans)):
        by_name.setdefault(s.name, []).append((s, own))

    def calls(name):
        return len(by_name.get(name, ()))

    def busy_ns(name):
        return sum(s.duration for s, _ in by_name.get(name, ()))

    def work(name):
        return sum(s.work for s, _ in by_name.get(name, ()))

    trial_ns = busy_ns("harness.run_trial")
    trial_ms = sorted(s.duration / 1e6 for s, _ in by_name.get("harness.run_trial", ()))
    if len(trial_ms) >= 2:
        p50 = statistics.median(trial_ms)
        p99 = statistics.quantiles(trial_ms, n=100, method="inclusive")[98]
    else:
        p50 = p99 = trial_ms[0] if trial_ms else 0.0
    sampler, matrix, mle = "numerics.sample_gaussian", "model.gen_sensing_matrix", "decode.mle_decode_linear"
    out = {
        f"{sampler}.ns_per_sample": _per(busy_ns(sampler), work(sampler)),
        f"{sampler}.samples": work(sampler),
        f"{sampler}.trial_share": _per(busy_ns(sampler), trial_ns),
        f"{matrix}.rows": work(matrix),
        f"{matrix}.self_ms": sum(own for _, own in by_name.get(matrix, ())) / 1e6,
        f"{mle}.us_per_candidate": _per(busy_ns(mle), work(mle)) / 1e3,
        f"{mle}.candidates": work(mle),
        "harness.run_trial.ms_p50": p50,
        "harness.run_trial.ms_p99": p99,
        "harness.run_trial.count": calls("harness.run_trial"),
        "harness.run_trial.self_frac": _per(
            sum(own for _, own in by_name.get("harness.run_trial", ())), trial_ns
        ),
        "harness.count_successes.calls": calls("harness.count_successes"),
    }
    for name in ("model.measure", "decode.topk_correlation_decode", "decode.quantize_then_decode"):
        out[f"{name}.us_per_call"] = _per(busy_ns(name), calls(name)) / 1e3
    for stage, names in STAGES.items():
        out[f"harness.stage_share.{stage}"] = _per(sum(busy_ns(n) for n in names), trial_ns)
    return out


def binsense_targets() -> list:
    """The calls a trial makes, patched where their caller resolves them."""
    from binsense import harness, model

    return [
        Target(harness, "count_successes", "harness.count_successes"),
        Target(harness, "run_trial", "harness.run_trial", trial_arg=1),
        Target(harness, "random_signal", "model.random_signal"),
        Target(harness, "gen_sensing_matrix", "model.gen_sensing_matrix", work=lambda m, *_: m),
        Target(harness, "measure", "model.measure"),
        Target(harness, "topk_correlation_decode", "decode.topk_correlation_decode"),
        Target(harness, "quantize_then_decode", "decode.quantize_then_decode"),
        Target(
            harness, "mle_decode_linear", "decode.mle_decode_linear",
            work=lambda A, y, k, *_: math.comb(A.n, k),
        ),
        Target(model, "sample_gaussian", "numerics.sample_gaussian", work=lambda _, count: count),
    ]
