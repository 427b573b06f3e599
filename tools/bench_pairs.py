"""Run the benchmark in two checkouts as alternating pairs and summarize them.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload harness-scale --pairs 10 --out BENCH_name.json

Pair k runs ``bench/run_bench.py --workload W --seed k --trace 0`` from the
root of each checkout, the parent first in odd pairs and the change first in
even ones; ``--first-seed`` shifts k, so pairs on seeds not used while a
change was written can be added later. The last line of each run's standard
output is its result. The output file holds every run, and per workload and
seed range, each metric's values per side, medians, quartiles and the pairs
in which the change reads better or worse, by the direction BENCHMARK.json
gives it. Runs of another workload or seed range already in the file are
kept, so one file can collect several invocations. Each run lasts as long
as run_bench.py's default, BENCHMARK.json's ``run_seconds``.

Both checkouts must be git clones. Each summary records, per side, the
commit and the SHA-256 of the code the benchmark runs, uncommitted changes
included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


# The files the benchmark builds what it runs from.
CODE = ("src", "bench", "pyproject.toml")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True, check=True).stdout


def revision(checkout: Path) -> dict:
    """The commit a git clone is at, and the SHA-256 of the code in its work
    tree (each file under CODE that git does not ignore: its path, then its
    bytes), which also tells uncommitted changes apart."""
    if not (checkout / ".git").exists():
        raise SystemExit(f"{checkout} is not a git clone")
    digest = hashlib.sha256()
    listed = git(checkout, "ls-files", "-z", "--cached", "--others",
                 "--exclude-standard", "--", *CODE)
    for name in sorted(set(filter(None, listed.split("\0")))):
        path = checkout / name
        if path.is_file():
            digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {"commit": git(checkout, "rev-parse", "HEAD").strip(),
            "code_sha256": digest.hexdigest()}


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "bench/run_bench.py", "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return {"command": " ".join(["python3", *command[1:]]),
            "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float]:
    """The quartiles as bench/baseline.py computes them."""
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's values in pair order, their medians and
    quartiles, and in how many pairs the change reads better or worse."""
    by_side = {side: sorted((r for r in runs if r["side"] == side),
                            key=lambda r: r["pair"]) for side in SIDES}
    pairs = len(by_side["change"])
    names = by_side["change"][0]["result"]["metrics"]
    summary: dict = {}
    for name in names:
        values = {side: [r["result"]["metrics"][name]["value"]
                         for r in by_side[side]] for side in SIDES}
        sign = -1 if better.get(name, "lower") == "lower" else 1
        gaps = [sign * (new - old)
                for old, new in zip(values["parent"], values["change"])]
        entry = dict(values)
        for side in SIDES:
            low, high = quartiles(values[side])
            entry[f"{side}_median"] = statistics.median(values[side])
            entry[f"{side}_quartiles"] = [low, high]
            entry[f"{side}_iqr"] = high - low
        entry["better"] = better.get(name, "lower")
        entry["change_better_in"] = f"{sum(g > 0 for g in gaps)} of {pairs}"
        entry["change_worse_in"] = f"{sum(g < 0 for g in gaps)} of {pairs}"
        summary[name] = entry
    for key in ("failed", "attempted"):
        summary[key] = {side: [r["result"][key] for r in by_side[side]]
                        for side in SIDES}
    return summary


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", default=None,
                        help="What the change claims; kept if omitted.")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: list[str] | None = None) -> None:
    args = parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    declared = json.loads((change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}
    last = args.first_seed + args.pairs - 1
    key = f"{args.workload} seeds {args.first_seed}-{last}"

    document = (json.loads(args.out.read_text()) if args.out.exists()
                else {"summary": {}, "runs": []})
    checkouts = {"parent": revision(parent), "change": revision(change)}
    document.update(
        procedure=__doc__.split("\n\n")[2].replace("\n", " "),
        machine=f"{platform.machine()}, {os.cpu_count()} CPUs, "
                f"{platform.python_implementation()} "
                f"{platform.python_version()}",
    )
    if args.claim is not None:
        document["claim"] = args.claim

    runs = []
    for pair in range(1, args.pairs + 1):
        seed = args.first_seed + pair - 1
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            checkout = parent if side == "parent" else change
            run = run_once(checkout, args.workload, seed)
            runs.append({"workload": args.workload, "side": side,
                         "pair": pair, "seed": seed, **run})
            value = run["result"]["metrics"].get("run_scaled_s", {})
            print(f"{key} pair {pair} {side}: run_scaled_s "
                  f"{value.get('value')}", file=sys.stderr, flush=True)

    document["runs"] = [
        r for r in document["runs"]
        if not (r["workload"] == args.workload
                and args.first_seed <= r.get("seed", r["pair"]) <= last)
    ] + runs
    document["summary"][key] = {"checkouts": checkouts,
                                **summarize(runs, better)}
    args.out.write_text(json.dumps(document, indent=1) + "\n")


if __name__ == "__main__":
    main()
