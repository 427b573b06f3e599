"""The four benchmark workloads, driven through promptreg's public API.

Importing this module imports promptreg, so the runner times the import as
part of set-up. Constructing a workload is the rest of set-up: fixture parse,
dataset load, engine and ``OptimizationRun`` construction, and for the HTTP
workload the stub listening and a warm-up call that pays ``HttpBackend``'s
lazy ``import requests``. ``run`` is one timed workload run into a fresh
directory; ``check`` verifies its output and returns the facts the metrics
are computed from.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import Optional

from promptreg import evaluation
from promptreg.evaluation import load_dataset
from promptreg.gateway import (ChatRequest, EngineConfig, Gateway, HttpBackend,
                               Role, RoleAssignment, ScriptedBackend)
from promptreg.loop import (RULEBANK_FILE, STATE_FILE, TRACE_FILE,
                            TRANSCRIPT_FILE, OptimizationRun, RunConfig)
from promptreg.metrics import PromptVersion

from stub import StubServer

SCRIPTED = RoleAssignment.uniform(EngineConfig(name="scripted"))
GOLDEN_CALLS = {"FORWARD": 136, "GRADIENT": 33, "REGULARIZATION": 12,
                "OPTIMIZER": 9}


def no_span(name: str, **attrs) -> nullcontext:
    """The span factory of an untraced run."""
    return nullcontext()


class CheckFailed(Exception):
    """A workload run produced output that does not match its expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class DelayedBackend:
    """A scripted backend that answers after a fixed per-call latency."""

    def __init__(self, inner: ScriptedBackend, delay_s: float) -> None:
        self.inner = inner
        self.delay_s = delay_s

    def complete(self, request: ChatRequest, engine: EngineConfig) -> str:
        time.sleep(self.delay_s)
        return self.inner.complete(request, engine)


def transcript_facts(path: Path) -> dict:
    """Calls per role and request tokens (whitespace split of system + user)."""
    calls = {role.value: 0 for role in Role}
    tokens = 0
    # Streamed line by line so that the check adds little to peak_rss_mb.
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            calls[entry["role"]] += 1
            tokens += len(entry["system"].split()) + len(entry["user"].split())
    return {"calls": calls, "request_tokens": tokens,
            "transcript_bytes": path.stat().st_size}


def run_dir_facts(run_dir: Path, summary: dict, val_size: int) -> dict:
    """Decision counts and persisted sizes read back from a run directory."""
    with open(run_dir / TRACE_FILE, encoding="utf-8") as handle:
        trace = [json.loads(line) for line in handle]
    appended = sum(p.stat().st_size for p in run_dir.iterdir()
                   if p.name not in (STATE_FILE, RULEBANK_FILE, TRANSCRIPT_FILE))
    return {
        "steps": len(trace),
        "rules": summary["rules"],
        "candidates": sum(t["accepted"] is not None for t in trace),
        "gate_accepted": sum(t["accepted"] is True for t in trace),
        "val_size": val_size,
        "final_state_bytes": (run_dir / STATE_FILE).stat().st_size,
        "appended_bytes": appended,
    }


class LoopWorkload:
    """Shared plumbing for the workloads that run the optimization loop."""

    delay_s: Optional[float] = None
    backend_class: type = ScriptedBackend

    def __init__(self, config: RunConfig, backend) -> None:
        self.config = config
        self.backend = backend
        # Validates the config and loads both datasets once, as the first
        # construction of a real run would.
        self.val_size = len(OptimizationRun(config, self._gateway(None)).val)

    def _gateway(self, transcript: Optional[Path]) -> Gateway:
        return Gateway(engines=SCRIPTED,
                       backends={role: self.backend for role in Role},
                       transcript_path=transcript)

    def warm_up(self, work: Path) -> None:
        pass

    def run(self, rep_dir: Path, span) -> dict:
        with span("loop.construct"):
            run = OptimizationRun(replace(self.config, run_dir=str(rep_dir)),
                                  self._gateway(rep_dir / TRANSCRIPT_FILE))
        with span("loop.run"):
            return run.run()

    def facts(self, rep_dir: Path, summary: dict) -> dict:
        facts = transcript_facts(rep_dir / TRANSCRIPT_FILE)
        facts.update(run_dir_facts(rep_dir, summary, self.val_size))
        return facts

    def close(self) -> None:
        pass


class GoldenLatency(LoopWorkload):
    """The frozen 12-step golden scenario at cap 2, 20 ms per call.

    The scenario is fixed, so the seed does not change its inputs.
    """

    delay_s = 0.020
    backend_class = DelayedBackend

    def __init__(self, root: Path, work: Path, seed: int, plan: dict) -> None:
        data = root / "tests" / "data"
        self.golden = (data / "golden_trace.jsonl").read_bytes()
        config = RunConfig(
            train_path=str(data / "train.jsonl"), val_path=str(data / "val.jsonl"),
            run_dir=str(work / "unused"), batch_size=3, iterations=12, seed=7,
            concurrency_cap=2,
        )
        backend = DelayedBackend(
            ScriptedBackend.from_jsonl(data / "fixtures.jsonl"), self.delay_s)
        super().__init__(config, backend)

    def check(self, rep_dir: Path, summary: dict) -> dict:
        facts = self.facts(rep_dir, summary)
        expect((rep_dir / TRACE_FILE).read_bytes() == self.golden,
               "trace differs from tests/data/golden_trace.jsonl")
        expect(facts["calls"] == GOLDEN_CALLS,
               f"calls per role {facts['calls']} != {GOLDEN_CALLS}")
        return facts


def check_plan(trace_path: Path, plan: dict) -> None:
    """Every planned decision appears in the trace, step by step."""
    lines = 0
    with open(trace_path, encoding="utf-8") as handle:
        for planned, line in zip(plan["steps"], handle):
            lines += 1
            record = json.loads(line)
            for key, value in planned.items():
                actual = record[key]
                if key == "ser":
                    actual = {k: actual.get(k) for k in value}
                expect(actual == value, f"step {planned['step']}: {key} is "
                                        f"{actual!r}, planned {value!r}")
        lines += sum(1 for _ in handle)
    expect(lines == len(plan["steps"]),
           f"{lines} trace lines for {len(plan['steps'])} planned steps")


class HarnessScale(LoopWorkload):
    """A generated ~200-step scenario at zero delay and cap 1."""

    def __init__(self, root: Path, work: Path, seed: int, plan: dict) -> None:
        self.plan = plan
        self.fixtures_path = work / "fixtures.jsonl"
        self.reference: Optional[bytes] = None
        config = RunConfig(
            train_path=str(work / "train.jsonl"), val_path=str(work / "val.jsonl"),
            run_dir=str(work / "unused"), batch_size=plan["batch_size"],
            iterations=plan["iterations"], tau_c=plan["tau_c"], seed=seed,
            initial_prompt=plan["initial_prompt"], concurrency_cap=1,
        )
        super().__init__(config, ScriptedBackend.from_jsonl(self.fixtures_path))

    def check(self, rep_dir: Path, summary: dict) -> dict:
        facts = self.facts(rep_dir, summary)
        trace = (rep_dir / TRACE_FILE).read_bytes()
        if self.reference is None:
            check_plan(rep_dir / TRACE_FILE, self.plan)
            self.reference = trace
        expect(trace == self.reference, "trace differs from the first run's")
        expect(facts["calls"] == self.plan["calls"],
               f"calls per role {facts['calls']} != planned {self.plan['calls']}")
        expect(summary["rules"] == self.plan["final_rules"],
               f"{summary['rules']} rules, planned {self.plan['final_rules']}")
        return facts


class ResumeChurn(HarnessScale):
    """The harness-scale scenario, restarted with a fresh Gateway and
    OptimizationRun before every step, as a restarted ``promptreg optimize``."""

    def warm_up(self, work: Path) -> None:
        # The reference is one uninterrupted run of the same scenario.
        ref_dir = work / "uninterrupted"
        summary = LoopWorkload.run(self, ref_dir, no_span)
        HarnessScale.check(self, ref_dir, summary)

    def run(self, rep_dir: Path, span) -> dict:
        config = replace(self.config, run_dir=str(rep_dir))
        transcript = rep_dir / TRANSCRIPT_FILE
        for step in range(config.iterations):
            with span("loop.restart", resumed=step > 0):
                with span("gateway.load_fixtures"):
                    gateway = Gateway.scripted(self.fixtures_path,
                                               transcript_path=transcript)
                with span("loop.construct"):
                    run = OptimizationRun(config, gateway)
                with span("loop.run"):
                    summary = run.run(stop_after_step=step)
        return summary

    def check(self, rep_dir: Path, summary: dict) -> dict:
        expect(self.reference is not None, "no uninterrupted reference run")
        return super().check(rep_dir, summary)


class EvaluateHttp:
    """``evaluate()`` of one prompt at cap 2 through ``HttpBackend`` and the
    loopback stub, which answers after a fixed delay."""

    delay_s = 0.004
    backend_class = HttpBackend
    WARM_UP = "warm-up request"

    def __init__(self, root: Path, work: Path, seed: int, plan: dict) -> None:
        self.plan = plan
        self.samples = load_dataset(work / "questions.jsonl")
        answers = json.loads((work / "stub_answers.json").read_text(encoding="utf-8"))
        answers[self.WARM_UP] = "Answer: 0"
        self.stub = StubServer(answers, self.delay_s).start()
        try:
            engine = EngineConfig(name="stub", endpoint=self.stub.url,
                                  model_id="stub")
            self.engines = RoleAssignment.uniform(engine)
            self.backend = HttpBackend(timeout=30.0)
            self.backend.complete(
                ChatRequest(role=Role.FORWARD, system="", user=self.WARM_UP, step=0),
                engine)
        except BaseException:
            self.stub.stop()
            raise
        self.prompt = PromptVersion.create(plan["prompt"])
        self._counters = self.stub.counters()

    def warm_up(self, work: Path) -> None:
        pass

    def run(self, rep_dir: Path, span):
        self._counters = self.stub.counters()
        gateway = Gateway(engines=self.engines,
                          backends={role: self.backend for role in Role},
                          transcript_path=rep_dir / TRANSCRIPT_FILE)
        return evaluation.evaluate(self.prompt, self.samples, gateway,
                                   concurrency_cap=2, dataset_name="questions",
                                   engine_name="stub")

    def check(self, rep_dir: Path, report) -> dict:
        facts = transcript_facts(rep_dir / TRANSCRIPT_FILE)
        connections, requests = self.stub.counters()
        facts["http_connections"] = connections - self._counters[0]
        facts["http_requests"] = requests - self._counters[1]
        facts["stub_delay_ms"] = 1000 * self.delay_s
        expected = self.plan["expected"]
        expect(report.accuracy == self.plan["accuracy"],
               f"accuracy {report.accuracy} != planned {self.plan['accuracy']}")
        got = [{"extracted": r.extracted, "correct": r.correct}
               for r in report.per_sample]
        expect(got == expected, "per-sample extractions differ from the plan")
        expect(facts["http_requests"] == len(expected),
               f"stub served {facts['http_requests']} requests for "
               f"{len(expected)} questions")
        return facts

    def close(self) -> None:
        self.stub.stop()


WORKLOADS = {
    "golden-latency": GoldenLatency,
    "harness-scale": HarnessScale,
    "resume-churn": ResumeChurn,
    "evaluate-http": EvaluateHttp,
}
