"""Spans around promptreg's public functions, recorded from outside the package.

``Tracer.install`` swaps each traced function for a wrapper at the name its
callers look up (``promptreg.loop.evaluate``, ``promptreg.templates.
render_asset``, ``Gateway.complete`` ...), and ``uninstall`` puts the
originals back. Spans are kept in memory as
``(id, parent, name, start, end, run_id, attrs)``; a span's layer is the part
of its name before the dot. A span opened on an executor thread with nothing
open on that thread takes the innermost open ``evaluation.evaluate`` span as
its parent.

``layer_metrics`` turns the spans of one workload run into the per-layer
table. A layer's self time is its spans' durations minus the part of each
interval its child spans cover.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run_id: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _role(args, kwargs, result) -> dict:
    return {"role": args[1].role.value}


def _samples(args, kwargs, result) -> dict:
    return {"samples": len(args[1])}


def _accepted(args, kwargs, result) -> dict:
    return {"accepted": result is not None}


def _persisted(args, kwargs, result) -> dict:
    # save_rulebank(bank, path) runs just before state.json is rewritten, so
    # the state.json seen here is the one the previous save wrote.
    bank_path = Path(args[1])
    state_path = bank_path.with_name("state.json")
    return {"bank_bytes": bank_path.stat().st_size,
            "prev_state_bytes": state_path.stat().st_size
            if state_path.exists() else 0}


def targets(backend_class: type) -> list[tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, attrs function) for every traced call."""
    from promptreg import (evaluation, gateway, loop, purification,
                           regularization, rulebank, templates)

    return [
        (gateway.Gateway, "complete", "gateway.complete", _role),
        (gateway.Gateway, "complete_json", "gateway.complete_json", None),
        (gateway, "parse_json_object", "gateway.parse_json_object", None),
        (backend_class, "complete", "backend.complete", _role),
        (evaluation, "evaluate", "evaluation.evaluate", _samples),
        (loop, "evaluate", "evaluation.evaluate", _samples),
        (loop, "run_purification_stage", "purification.run_purification_stage",
         None),
        (purification, "forward_eval", "purification.forward_eval", None),
        (purification, "generate_raw_gradient",
         "purification.generate_raw_gradient", None),
        (purification, "purify", "purification.purify", _accepted),
        (purification, "canonicalize_and_match",
         "rulebank.canonicalize_and_match", None),
        (purification, "apply_ops", "rulebank.apply_ops", None),
        (purification, "summarize", "rulebank.summarize", None),
        (regularization, "summarize", "rulebank.summarize", None),
        (rulebank, "summarize", "rulebank.summarize", None),
        (loop, "save_rulebank", "rulebank.save_rulebank", _persisted),
        (loop, "load_rulebank", "rulebank.load_rulebank", None),
        (loop, "semantic_diff", "regularization.semantic_diff", None),
        (loop, "diagnose", "regularization.diagnose", None),
        (loop, "synthesize_reg_gradient",
         "regularization.synthesize_reg_gradient", None),
        (loop, "apply_update", "updater.apply_update", None),
        (templates, "render_asset", "templates.render_asset", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, Optional[int], list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not threading.main_thread():
            parent = self._adopters[-1] if self._adopters else None
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    @contextmanager
    def span(self, name: str, **attrs):
        span_id, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end,
                                   self.run_id, attrs))

    def _wrap(self, original: Callable, name: str,
              attrs_fn: Optional[Callable]) -> Callable:
        adopts = name == "evaluation.evaluate"

        def traced(*args, **kwargs):
            span_id, parent, stack = self._open()
            if adopts:
                self._adopters.append(span_id)
            start = time.perf_counter()
            result = None
            error = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if adopts:
                    self._adopters.remove(span_id)
                attrs = {"error": error} if error else (
                    attrs_fn(args, kwargs, result) if attrs_fn else {})
                self.spans.append(Span(span_id, parent, name, start, end,
                                       self.run_id, attrs))

        traced.__wrapped__ = original
        return traced

    def install(self, backend_class: type) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs_fn in targets(backend_class):
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs_fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class SpanTree:
    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        self.children: dict[Optional[int], list[Span]] = defaultdict(list)
        for span in spans:
            self.children[span.parent].append(span)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy_ms(self, name: str) -> float:
        return 1000 * sum(s.duration for s in self.named(name))

    def exclusive(self, span: Span) -> float:
        kids = [(c.start, c.end) for c in self.children[span.id]]
        return span.duration - _covered(kids, span.start, span.end)

    def self_ms(self, layer: str) -> float:
        return 1000 * sum(self.exclusive(s) for s in self.spans if s.layer == layer)

    def descendants(self, span: Span, name: str) -> list[Span]:
        found, todo = [], list(self.children[span.id])
        while todo:
            child = todo.pop()
            if child.name == name:
                found.append(child)
            todo.extend(self.children[child.id])
        return found

    def calls_under(self, name: str) -> int:
        return sum(len(self.descendants(s, "gateway.complete"))
                   for s in self.named(name))


STAGES = ("regularization.semantic_diff", "purification.run_purification_stage")

# Unit of every per-layer metric the runner reports.
UNITS = {
    "gateway.backend_ms": "ms",
    "gateway.self_ms": "ms",
    "gateway.parse_ms": "ms",
    "gateway.transcript_bytes": "bytes",
    "gateway.json_reasks": "count",
    "gateway.http_connections": "count",
    "gateway.requests_per_connection": "ratio",
    "gateway.http_overhead_ms_per_call": "ms",
    "evaluation.calls": "count",
    "evaluation.samples": "count",
    "evaluation.busy_ms": "ms",
    "evaluation.self_ms": "ms",
    "evaluation.overlap": "ratio",
    "purification.busy_ms": "ms",
    "purification.self_ms": "ms",
    "purification.path_calls": "call-latencies",
    "purification.forward_overlap": "ratio",
    "purification.accept_ratio": "ratio",
    "regularization.busy_ms": "ms",
    "regularization.path_calls": "call-latencies",
    "regularization.diff_calls": "count",
    "regularization.generator_calls": "count",
    "rulebank.canonicalize_ms": "ms",
    "rulebank.summarize_calls": "count",
    "rulebank.summarize_ms": "ms",
    "rulebank.save_ms": "ms",
    "rulebank.load_ms": "ms",
    "rulebank.entries": "count",
    "updater.busy_ms": "ms",
    "updater.path_calls": "call-latencies",
    "updater.tag_reasks": "count",
    "templates.render_calls": "count",
    "templates.render_ms": "ms",
    "loop.self_ms": "ms",
    "loop.persist_bytes_per_step": "bytes/step",
    "loop.resume_ms": "ms",
    "loop.gate_ms": "ms",
    "loop.gate_path_calls": "call-latencies",
    "loop.init_path_calls": "call-latencies",
    "loop.gate_accept_ratio": "ratio",
    "loop.val_calls_rejected": "count",
    "loop.unaccounted_path_calls": "call-latencies",
    "critical_path_calls_traced": "call-latencies",
    "run_s": "s",
    "critical_path_calls": "call-latencies",
    "bench.trace_overhead_s": "s",
    "calls_gradient": "calls/run",
    "calls_regularization": "calls/run",
    "calls_optimizer": "calls/run",
}


def layer_metrics(spans: list[Span], rep_s: float, delay_ms: Optional[float],
                  facts: dict) -> dict[str, float]:
    """Per-layer metrics of one workload run.

    ``facts`` holds what the output check read from the run directory:
    ``steps``, ``rules``, ``transcript_bytes``, ``final_state_bytes``,
    ``appended_bytes``, ``candidates``, ``gate_accepted``, ``val_size`` and,
    for the HTTP workload, ``http_connections`` and ``http_requests``.
    """
    tree = SpanTree(spans)
    per_delay = (lambda ms: ms / delay_ms) if delay_ms else (lambda ms: 0.0)
    m: dict[str, float] = {}

    completes = tree.named("gateway.complete")
    m["gateway.backend_ms"] = tree.busy_ms("backend.complete")
    m["gateway.self_ms"] = 1000 * sum(tree.exclusive(s) for s in completes)
    m["gateway.parse_ms"] = tree.busy_ms("gateway.parse_json_object")
    m["gateway.transcript_bytes"] = facts["transcript_bytes"]
    m["gateway.json_reasks"] = sum(
        len(tree.descendants(s, "gateway.complete")) - 1
        for s in tree.named("gateway.complete_json"))
    connections = facts.get("http_connections", 0)
    m["gateway.http_connections"] = connections
    m["gateway.requests_per_connection"] = (
        facts["http_requests"] / connections if connections else 0.0)
    if connections:
        backend = tree.named("backend.complete")
        m["gateway.http_overhead_ms_per_call"] = (
            1000 * sum(s.duration for s in backend) / len(backend)
            - facts["stub_delay_ms"])
    else:
        m["gateway.http_overhead_ms_per_call"] = 0.0

    evaluates = tree.named("evaluation.evaluate")
    eval_ms = tree.busy_ms("evaluation.evaluate")
    forward_ms = 1000 * sum(
        c.duration for s in evaluates for c in tree.descendants(s, "gateway.complete"))
    m["evaluation.calls"] = len(evaluates)
    m["evaluation.samples"] = sum(s.attrs.get("samples", 0) for s in evaluates)
    m["evaluation.busy_ms"] = eval_ms
    m["evaluation.self_ms"] = tree.self_ms("evaluation")
    m["evaluation.overlap"] = forward_ms / eval_ms if eval_ms else 0.0

    stage_ms = tree.busy_ms("purification.run_purification_stage")
    batch_evals = tree.named("purification.forward_eval")
    batch_ms = tree.busy_ms("purification.forward_eval")
    batch_forward_ms = 1000 * sum(
        c.duration for s in batch_evals
        for c in tree.descendants(s, "gateway.complete"))
    raw = len(tree.named("purification.generate_raw_gradient"))
    m["purification.busy_ms"] = stage_ms
    m["purification.self_ms"] = tree.self_ms("purification")
    m["purification.path_calls"] = per_delay(stage_ms)
    m["purification.forward_overlap"] = batch_forward_ms / batch_ms if batch_ms else 0.0
    m["purification.accept_ratio"] = (
        sum(bool(s.attrs.get("accepted")) for s in tree.named("purification.purify"))
        / raw if raw else 0.0)

    reg_ms = sum(tree.busy_ms(n) for n in (
        "regularization.semantic_diff", "regularization.diagnose",
        "regularization.synthesize_reg_gradient"))
    m["regularization.busy_ms"] = reg_ms
    m["regularization.path_calls"] = per_delay(reg_ms)
    m["regularization.diff_calls"] = tree.calls_under("regularization.semantic_diff")
    m["regularization.generator_calls"] = tree.calls_under(
        "regularization.synthesize_reg_gradient")

    saves = tree.named("rulebank.save_rulebank")
    m["rulebank.canonicalize_ms"] = tree.busy_ms("rulebank.canonicalize_and_match")
    m["rulebank.summarize_calls"] = len(tree.named("rulebank.summarize"))
    m["rulebank.summarize_ms"] = tree.busy_ms("rulebank.summarize")
    m["rulebank.save_ms"] = tree.busy_ms("rulebank.save_rulebank")
    m["rulebank.load_ms"] = tree.busy_ms("rulebank.load_rulebank")
    m["rulebank.entries"] = facts.get("rules", 0)

    update_ms = tree.busy_ms("updater.apply_update")
    m["updater.busy_ms"] = update_ms
    m["updater.path_calls"] = per_delay(update_ms)
    m["updater.tag_reasks"] = sum(
        len(tree.descendants(s, "gateway.complete")) - 1
        for s in tree.named("updater.apply_update"))

    m["templates.render_calls"] = len(tree.named("templates.render_asset"))
    m["templates.render_ms"] = tree.busy_ms("templates.render_asset")

    # Initial evaluation: an evaluate inside loop.run before its first stage.
    init_ms = gate_ms = 0.0
    for run in tree.named("loop.run"):
        kids = tree.children[run.id]
        first_stage = min((k.start for k in kids if k.name in STAGES),
                          default=run.end)
        for kid in kids:
            if kid.name == "evaluation.evaluate":
                if kid.start < first_stage:
                    init_ms += 1000 * kid.duration
                else:
                    gate_ms += 1000 * kid.duration
    resume_ms = 0.0
    stage_starts = sorted(s.start for s in spans if s.name in STAGES)
    for restart in tree.named("loop.restart"):
        if restart.attrs.get("resumed"):
            i = bisect.bisect_left(stage_starts, restart.start)
            first = min(stage_starts[i], restart.end) if i < len(stage_starts) \
                else restart.end
            resume_ms += 1000 * (first - restart.start)
    steps = facts.get("steps", 0)
    persisted = (sum(s.attrs.get("bank_bytes", 0) + s.attrs.get("prev_state_bytes", 0)
                     for s in saves)
                 + facts.get("final_state_bytes", 0) + facts.get("appended_bytes", 0))
    candidates = facts.get("candidates", 0)
    loop_self = tree.self_ms("loop")
    m["loop.self_ms"] = loop_self
    m["loop.persist_bytes_per_step"] = persisted / steps if steps else 0.0
    m["loop.resume_ms"] = resume_ms
    m["loop.gate_ms"] = gate_ms
    m["loop.gate_path_calls"] = per_delay(gate_ms)
    m["loop.init_path_calls"] = per_delay(init_ms)
    m["loop.gate_accept_ratio"] = (
        facts["gate_accepted"] / candidates if candidates else 0.0)
    m["loop.val_calls_rejected"] = (
        (candidates - facts.get("gate_accepted", 0)) * facts.get("val_size", 0))

    # Outside the loop (the HTTP workload) evaluate is called directly.
    direct_eval_ms = 1000 * sum(
        s.duration for s in evaluates
        if s.parent is not None and tree.by_id[s.parent].name == "bench.rep")
    traced_path = per_delay(1000 * rep_s)
    m["critical_path_calls_traced"] = traced_path
    m["loop.unaccounted_path_calls"] = traced_path - sum(
        m[k] for k in ("purification.path_calls", "regularization.path_calls",
                       "updater.path_calls", "loop.gate_path_calls",
                       "loop.init_path_calls")) - per_delay(loop_self + direct_eval_ms)
    return m
