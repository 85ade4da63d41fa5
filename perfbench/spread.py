#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, per metric, the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread (Q3 - Q1) / median. Runs
that fail a correctness check are counted in, named at the end, and make
the script exit 1.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads fp2-exhaust --seeds 1-5 --trace 1

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    incorrect = []
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s", file=sys.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}, no result", file=sys.stderr)
                sys.exit(1)
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result["correct"]:
                # A failed check still measured the run; keep its figures.
                incorrect.append(f"{workload} seed {seed}")
                for line in proc.stderr.splitlines():
                    if line.startswith("perfbench:"):
                        print(f"{workload} seed {seed}: {line}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        print(f"\n{workload} ({len(args.seeds)} seeds, {args.seconds} s)")
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {name:<34} median {q2:14.3f}  q1 {q1:14.3f}  q3 {q3:14.3f}  spread {spread:6.3f}{flag}")
            summary[workload][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps(summary))
    if incorrect:
        print(f"{len(incorrect)} runs failed a correctness check: {', '.join(incorrect)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
