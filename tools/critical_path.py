"""Measure the golden run's critical path in call-latencies at given caps.

    python3 tools/critical_path.py --caps 2 3 8 10 --delay-ms 20 --runs 3
    python3 tools/critical_path.py --checkout ../parent --caps 2 3

Each run is the frozen 12-step golden run of ``tests/data`` (seed 7, batch
size 3), into a fresh directory, behind a scripted backend that sleeps
``--delay-ms`` before each reply, and records a transcript as a real run
does. Its trace must be ``golden_trace.jsonl`` byte for byte. A run's
length is the wall time of ``OptimizationRun.run`` divided by the delay:
the sequential call-latencies on its critical path, plus the harness's own
time in the same unit. Per cap, in the order given, the script makes
``--runs`` runs and prints one line: the cap, the median length and every
run's length. ``--checkout`` times another checkout's ``src`` on its own
``tests/data``, this one's by default, so a change and its parent can be
compared with one script.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--caps", type=int, nargs="+", default=[2, 3, 8, 10])
    parser.add_argument("--delay-ms", type=float, default=20.0)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--checkout", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.delay_ms <= 0:
        parser.error("--delay-ms must be positive")
    return args


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path.insert(0, str(checkout / "src"))
    from promptreg.gateway import (EngineConfig, Gateway, Role,
                                   RoleAssignment, ScriptedBackend)
    from promptreg.loop import (TRACE_FILE, TRANSCRIPT_FILE, OptimizationRun,
                                RunConfig)

    data = checkout / "tests" / "data"
    golden = (data / "golden_trace.jsonl").read_bytes()
    scripted = ScriptedBackend.from_jsonl(data / "fixtures.jsonl")
    delay_s = args.delay_ms / 1000

    class Delayed:
        def complete(self, request, engine):
            time.sleep(delay_s)
            return scripted.complete(request, engine)

    backends = dict.fromkeys(Role, Delayed())
    engines = RoleAssignment.uniform(EngineConfig(name="scripted"))
    with tempfile.TemporaryDirectory() as scratch:
        for cap in args.caps:
            lengths = []
            for index in range(args.runs):
                run_dir = Path(scratch) / f"cap{cap}-{index}"
                run = OptimizationRun(RunConfig(
                    train_path=str(data / "train.jsonl"),
                    val_path=str(data / "val.jsonl"),
                    run_dir=str(run_dir), batch_size=3, iterations=12,
                    seed=7, concurrency_cap=cap,
                ), Gateway(engines, backends, run_dir / TRANSCRIPT_FILE))
                started = time.perf_counter()
                run.run()
                lengths.append((time.perf_counter() - started) / delay_s)
                if (run_dir / TRACE_FILE).read_bytes() != golden:
                    raise SystemExit(
                        f"cap {cap}: trace differs from {data}/golden_trace.jsonl"
                    )
            print(f"cap {cap}: {statistics.median(lengths):.1f} call-latencies"
                  f" (runs: {' '.join(f'{x:.1f}' for x in lengths)})",
                  flush=True)


if __name__ == "__main__":
    main()
