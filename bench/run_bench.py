"""Benchmark for promptreg: LLM-call critical path, harness cost, resume path
and HTTP transport.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload harness-scale --seed 1 --seconds 25 --trace 0

Each workload is a closed loop in this one process: the next workload run
starts when the previous one has finished and been checked. Inputs come from
``--seed`` (see scenario.py); promptreg sees only the generated files.

``--trace 0`` measures with tracing off and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics (see tracing.py), the critical path in call-latencies and the tracing
overhead (median traced run minus median untraced run). The spans of the
first traced run and the per-layer table are written under ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts runs
that raised or failed their output check (fail_rate = failed / attempted).
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import logging
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import scenario
import stub  # noqa: F401 - imported here so set-up timing excludes http.server
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("golden-latency", "harness-scale", "resume-churn", "evaluate-http")
SETUP_SAMPLES = 12  # set-ups timed in fresh interpreters
MIN_RUNS = 3
# Thread CPU seconds calibrate() takes on the reference machine (x86-64
# 2-vCPU VM, CPython 3.11). It fixes the scale of run_scaled_s and setup_s.
CALIBRATION_REF_S = 0.04
_NUMBER = re.compile(r"\d+")


def calibrate() -> float:
    """Thread CPU seconds of a fixed loop of JSON, string and regex work.

    The machine is shared, and other tenants slow CPU-bound Python by 20-30%
    for minutes at a time. This loop is timed just before and just after
    every timed run or set-up; their mean says how fast the CPU ran during it.
    """
    started = time.thread_time()
    total = 0
    for i in range(3000):
        record = {"step": i, "role": "FORWARD",
                  "user": " ".join(scenario.VOCAB[i % 40:i % 40 + 20])}
        text = json.dumps(record, sort_keys=True)
        total += len(json.loads(text)["user"].split()) + len(_NUMBER.findall(text))
    return time.thread_time() - started


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_inputs(name: str, seed: int, work: Path) -> dict:
    """Generate the workload's inputs under ``work`` and return its plan."""
    if name == "golden-latency":
        data = ROOT / "tests" / "data"
        for file in ("fixtures.jsonl", "train.jsonl", "val.jsonl",
                     "golden_trace.jsonl"):
            if not (data / file).is_file():
                raise SystemExit(f"golden scenario file missing: {data / file}")
        plan: dict = {}
    elif name == "evaluate-http":
        plan = scenario.build_http_scenario(seed, work)
    else:
        plan = scenario.build_loop_scenario(seed, work)
    work.mkdir(parents=True, exist_ok=True)
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process, all threads.

    ``process_time`` reads the clock at nanosecond resolution; ``os.times``
    counts 10 ms ticks, a fifth of a set-up.
    """
    return time.process_time()


def set_up(name: str, seed: int, work: Path, plan: dict):
    """Import promptreg and build the workload.

    Returns the workload and the wall and CPU seconds the set-up took.
    """
    cpu_started = cpu_seconds()
    started = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](ROOT, work, seed, plan)
    return workload, time.perf_counter() - started, cpu_seconds() - cpu_started


def probe_setup(args: argparse.Namespace) -> None:
    """Child mode: time one set-up in a fresh interpreter and print it.

    Prints the set-up's wall and CPU seconds and the calibration time around
    it as one JSON list.
    """
    plan = json.loads((args.setup_probe / "plan.json").read_text(encoding="utf-8"))
    before = calibrate()
    workload, seconds, cpu = set_up(args.workload, args.seed, args.setup_probe, plan)
    calibration = (before + calibrate()) / 2
    workload.close()
    print(json.dumps([seconds, cpu, calibration]))


def setup_in_child(args: argparse.Namespace, work: Path) -> tuple[float, float, float]:
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, cpu, calibration = json.loads(result.stdout.strip().splitlines()[-1])
    return seconds, cpu, calibration


class Measurement:
    """Timed, checked workload runs; the traced ones also give per-layer metrics.

    Each run is kept as (wall seconds, process CPU seconds, calibration
    seconds around it).
    """

    def __init__(self, workload, trace: bool) -> None:
        import workloads

        self.workload = workload
        self.trace = trace
        self.tracer = tracing.Tracer() if trace else None
        self.no_span = workloads.no_span
        self.check_failed = workloads.CheckFailed
        self.attempted = 0
        self.failed = 0
        self.untraced: list[tuple[float, float, float]] = []
        self.traced: list[tuple[float, float, float]] = []
        self.facts: dict | None = None
        self.layers: list[dict] = []
        self.first_spans: list = []

    def run_once(self, rep_dir: Path, traced: bool) -> None:
        """One workload run: timed, then checked; failures are counted."""
        self.attempted += 1
        rep_dir.mkdir(parents=True)
        tracer = self.tracer if traced else None
        span = tracer.span if tracer else self.no_span
        try:
            if tracer:
                tracer.spans = []
                tracer.run_id = self.attempted
                tracer.install(self.workload.backend_class)
            before = calibrate()
            try:
                cpu_started = cpu_seconds()
                started = time.perf_counter()
                with span("bench.rep"):
                    result = self.workload.run(rep_dir, span)
                seconds = time.perf_counter() - started
                cpu = cpu_seconds() - cpu_started
            finally:
                if tracer:
                    tracer.uninstall()
            calibration = (before + calibrate()) / 2
            facts = self.workload.check(rep_dir, result)
            if self.facts is not None and (
                    facts["calls"] != self.facts["calls"]
                    or facts["request_tokens"] != self.facts["request_tokens"]):
                raise self.check_failed("calls or tokens differ between runs")
            self.facts = self.facts or facts
            timing = (seconds, cpu, calibration)
            if tracer:
                self.traced.append(timing)
                self.layers.append(tracing.layer_metrics(
                    tracer.spans, seconds,
                    1000 * self.workload.delay_s if self.workload.delay_s else None,
                    facts))
                self.first_spans = self.first_spans or tracer.spans
            else:
                self.untraced.append(timing)
        except Exception:  # a failed run is counted and reported, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def loop(self, work: Path, seconds: float) -> None:
        started = time.perf_counter()
        last = 0.0
        index = 0
        while True:
            enough = len(self.untraced) >= MIN_RUNS and (
                not self.trace or len(self.traced) >= MIN_RUNS)
            elapsed = time.perf_counter() - started
            if enough and elapsed + last > seconds:
                break
            if not enough and self.failed > 2 * MIN_RUNS:
                break
            begun = time.perf_counter()
            self.run_once(work / f"run-{index}", self.trace and index % 2 == 1)
            last = time.perf_counter() - begun
            index += 1


def wall(runs: list[tuple[float, float, float]]) -> list[float]:
    return [run[0] for run in runs]


def scaled(runs: list[tuple[float, float, float]], waits: bool) -> list[float]:
    """Run or set-up times with their CPU seconds rescaled to the reference speed.

    The CPU seconds of each run are multiplied by CALIBRATION_REF_S over the
    calibration time taken around that run. With ``waits`` the run's
    off-CPU time (simulated LLM latency, the stub's delay) is added as
    measured. Without it the time is CPU only: a zero-delay run and a set-up
    have nothing to wait for, and their off-CPU time is the host taking the
    virtual CPU away, up to a third of a run for minutes at a time.
    """
    return [cpu * CALIBRATION_REF_S / calibration + (seconds - cpu if waits else 0.0)
            for seconds, cpu, calibration in runs]


def end_to_end(m: Measurement, setup_probes: list[tuple[float, float, float]]) -> dict:
    calls = m.facts["calls"]
    return {
        # Set-up is CPU work (imports, fixture and dataset parsing); the
        # median is over SETUP_SAMPLES fresh interpreters.
        "setup_s": (statistics.median(scaled(setup_probes, waits=False)), "s"),
        # Other tenants of the machine slow CPU-bound runs by up to 60% for
        # seconds and 20-30% for minutes. Rescaling each run by the
        # calibration around it cancels most of that; the summary lines print
        # the plain wall-time median and quartiles.
        "run_scaled_s": (statistics.median(
            scaled(m.untraced, waits=m.workload.delay_s is not None)), "s"),
        "calls_total": (sum(calls.values()), "calls/run"),
        "calls_forward": (calls["FORWARD"], "calls/run"),
        "request_tokens_total": (m.facts["request_tokens"], "tokens/run"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(m: Measurement) -> dict:
    delay = m.workload.delay_s
    table = {name: statistics.median(run[name] for run in m.layers)
             for name in m.layers[0]}
    untraced = statistics.median(wall(m.untraced))
    traced = statistics.median(wall(m.traced))
    table["run_s"] = untraced
    table["critical_path_calls"] = untraced / delay if delay else 0.0
    table["bench.trace_overhead_s"] = traced - untraced
    for role in ("GRADIENT", "REGULARIZATION", "OPTIMIZER"):
        table[f"calls_{role.lower()}"] = m.facts["calls"][role]
    return {name: (value, tracing.UNITS[name]) for name, value in table.items()}


def report(args: argparse.Namespace, m: Measurement, metrics: dict) -> dict:
    for label, runs in (("untraced", m.untraced), ("traced", m.traced)):
        if runs:
            q1, q2, q3 = statistics.quantiles(wall(runs), n=4)
            print(f"{args.workload} seed={args.seed} {label} run_s: median {q2:.4f} "
                  f"q1 {q1:.4f} q3 {q3:.4f} n={len(runs)}")
    calibrations = [run[2] for run in m.untraced + m.traced]
    print(f"calibration median {statistics.median(calibrations):.4f}s "
          f"(reference {CALIBRATION_REF_S}s)")
    print(f"fail_rate {m.failed}/{m.attempted} runs attempted")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def write_trace(args: argparse.Namespace, m: Measurement, metrics: dict) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(out / f"spans-{stem}.jsonl", "w", encoding="utf-8") as handle:
        for span in m.first_spans:
            handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    (out / f"layers-{stem}.json").write_text(
        json.dumps({k: v for k, (v, _) in metrics.items()}, indent=2, sort_keys=True)
        + "\n", encoding="utf-8")


def isolate_from_proxies() -> None:
    """Keep HTTP traffic on the loopback interface whatever the environment says."""
    for key in list(os.environ):
        if key.lower() in ("http_proxy", "https_proxy", "all_proxy"):
            del os.environ[key]
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "promptreg" / "__init__.py").is_file():
        print(f"promptreg sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("promptreg")
    if not Path(spec.origin).resolve().is_relative_to(src.resolve()):
        print(f"promptreg resolves outside the checkout: {spec.origin}",
              file=sys.stderr)
        return 2
    isolate_from_proxies()
    # promptreg logs a warning for every scripted re-ask; drop the records
    # instead of printing thousands of lines per run.
    logging.getLogger("promptreg").addHandler(logging.NullHandler())
    if args.setup_probe is not None:
        probe_setup(args)
        return 0

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = prepare_inputs(args.workload, args.seed, work)
        workload = set_up(args.workload, args.seed, work, plan)[0]
        setup_probes = []
        try:
            if not args.trace:
                setup_probes = [setup_in_child(args, work)
                                for _ in range(SETUP_SAMPLES)]
            m = Measurement(workload, bool(args.trace))
            workload.warm_up(work)
            m.run_once(work / "warm-up", traced=False)
            m.untraced.clear()
            m.loop(work, args.seconds)
        finally:
            workload.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if not m.untraced or (args.trace and not m.traced) or m.facts is None:
        print("no workload run succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(m)
        write_trace(args, m, metrics)
    else:
        metrics = end_to_end(m, setup_probes)
        print("set-up probes (wall, cpu, calibration): " + ", ".join(
            "(%.4f, %.4f, %.4f)" % tuple(probe) for probe in setup_probes))
    print(json.dumps(report(args, m, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
