"""Measure every workload over several seeds and write a baseline file.

    python3 bench/baseline.py --seeds 1-10 --seconds 25 --out bench/baseline.json

For each workload it runs ``run_bench.py`` once per seed with tracing off and
records each end-to-end metric's median, quartiles and spread (interquartile
range over median) across the seeds, then makes one traced run on the first
seed for the per-layer table. The output also states, for each per-layer
metric, which metric it is expected to move, on which workloads, and the
bounded end-to-end metric of BENCHMARK.json that move shows up in.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GOLDEN = ["golden-latency"]
HARNESS = ["harness-scale"]
RESUME = ["resume-churn"]
HTTP = ["evaluate-http"]
LOOP = GOLDEN + HARNESS + RESUME
DELAYED = GOLDEN + HTTP
ALL = LOOP + HTTP
# per-layer metric -> [(metric it should move, workloads it moves it on)], as
# planned for the benchmark. run_s, critical_path_calls and the GRADIENT,
# REGULARIZATION and OPTIMIZER call counts are per-layer in BENCHMARK.json;
# BOUNDED names the bounded end-to-end metric each of them shows up in.
EXPECTED_MOVES = {
    **{name: [("run_s", HARNESS + RESUME)] for name in (
        "gateway.backend_ms", "gateway.self_ms", "gateway.parse_ms",
        "gateway.transcript_bytes")},
    "gateway.json_reasks": [("calls_total", ALL)],
    **{name: [("run_s", HTTP), ("critical_path_calls", HTTP)] for name in (
        "gateway.http_connections", "gateway.requests_per_connection",
        "gateway.http_overhead_ms_per_call")},
    **{name: [("critical_path_calls", DELAYED)] for name in (
        "evaluation.calls", "evaluation.samples", "evaluation.busy_ms",
        "evaluation.overlap")},
    "evaluation.self_ms": [("critical_path_calls", DELAYED), ("run_s", HARNESS)],
    **{name: [("critical_path_calls", GOLDEN)] for name in (
        "purification.busy_ms", "purification.self_ms",
        "purification.path_calls", "purification.forward_overlap")},
    "purification.accept_ratio": [("calls_optimizer", LOOP),
                                  ("calls_forward", LOOP)],
    **{name: [("critical_path_calls", GOLDEN), ("calls_regularization", LOOP)]
       for name in ("regularization.busy_ms", "regularization.path_calls",
                    "regularization.diff_calls", "regularization.generator_calls")},
    **{name: [("run_s", HARNESS)] for name in (
        "rulebank.canonicalize_ms", "rulebank.summarize_calls",
        "rulebank.summarize_ms", "rulebank.save_ms", "rulebank.entries")},
    "rulebank.load_ms": [("run_s", RESUME)],
    **{name: [("critical_path_calls", GOLDEN), ("calls_optimizer", LOOP)]
       for name in ("updater.busy_ms", "updater.path_calls", "updater.tag_reasks")},
    **{name: [("run_s", HARNESS)] for name in (
        "templates.render_calls", "templates.render_ms", "loop.self_ms",
        "loop.persist_bytes_per_step")},
    "loop.resume_ms": [("run_s", RESUME)],
    **{name: [("critical_path_calls", GOLDEN + HARNESS),
              ("calls_forward", GOLDEN + HARNESS)]
       for name in ("loop.gate_ms", "loop.gate_path_calls", "loop.init_path_calls",
                    "loop.gate_accept_ratio", "loop.val_calls_rejected")},
    # Metrics the benchmark adds to the planned table.
    "loop.unaccounted_path_calls": [("critical_path_calls", GOLDEN)],
    "run_s": [("run_s", ALL)],
    "critical_path_calls": [("critical_path_calls", DELAYED)],
    "critical_path_calls_traced": [("critical_path_calls_traced", DELAYED)],
    # The tracer's own cost: it moves only traced figures, none of them bounded.
    "bench.trace_overhead_s": [("critical_path_calls_traced", DELAYED)],
    **{name: [("calls_total", LOOP)] for name in (
        "calls_gradient", "calls_regularization", "calls_optimizer")},
}
BOUNDED = {
    "run_s": "run_scaled_s",
    "critical_path_calls": "run_scaled_s",
    "calls_total": "calls_total",
    "calls_forward": "calls_forward",
    "calls_regularization": "calls_total",
    "calls_optimizer": "calls_total",
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "run_bench.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    out: dict = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}",
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
        "expected_moves": {
            name: [{"moves": metric, "on": on, "bounded_by": BOUNDED.get(metric)}
                   for metric, on in moves]
            for name, moves in EXPECTED_MOVES.items()},
    }
    for name in names:
        runs = []
        for seed in seeds:
            started = time.perf_counter()
            runs.append(run(name, seed, args.seconds, 0))
            print(f"{name} seed {seed}: {time.perf_counter() - started:.1f}s "
                  f"run_scaled_s={runs[-1]['metrics']['run_scaled_s']['value']:.4f}", flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                metric: summarize([r["metrics"][metric]["value"] for r in runs])
                for metric in runs[0]["metrics"]
            },
        }
        traced = run(name, seeds[0], args.seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        out["workloads"][name] = entry
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
