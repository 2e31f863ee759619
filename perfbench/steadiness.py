#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs every workload of BENCHMARK.json once per seed with tracing off and
prints, per end-to-end metric and workload, the median over the runs and
the quartile spread (the distance between the first and third quartiles,
as statistics.quantiles gives them, over the median). A spread at or
above a third of the metric's bound is marked '*', at or above the bound
'!'. Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 --first-seed 101
    python3 perfbench/steadiness.py --workload paper-flare --seeds 5

With --save DIR every run's standard output is kept as DIR/<workload>-<seed>.out;
--load DIR prints the report from such files without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def last_json(text):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    if not lines:
        raise ValueError("no result line")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append", help="limit to these workloads")
    ap.add_argument("--save", help="keep each run's output in this directory")
    ap.add_argument("--load", help="report from outputs saved with --save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    values = {}  # (workload, metric) -> [value per run]
    for w in workloads:
        for s in seeds:
            name = f"{w}-{s}.out"
            if args.load:
                path = os.path.join(args.load, name)
                if not os.path.exists(path):
                    continue
                with open(path) as f:
                    out = f.read()
            else:
                cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                out = proc.stdout
                if args.save:
                    os.makedirs(args.save, exist_ok=True)
                    with open(os.path.join(args.save, name), "w") as f:
                        f.write(out)
                if proc.returncode != 0:
                    print(f"{w} seed {s}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}", file=sys.stderr)
                    continue
            try:
                res = last_json(out)
            except ValueError:
                print(f"{w} seed {s}: no result line", file=sys.stderr)
                continue
            if not res.get("correct"):
                print(f"{w} seed {s}: incorrect result", file=sys.stderr)
            for k, v in res["metrics"].items():
                values.setdefault((w, k), []).append(v["value"])

    print("| metric (bound) | " + " | ".join(f"{w}: median (spread)" for w in workloads) + " |")
    print("|---|" + "---|" * len(workloads))
    for m in bench["end_to_end"]:
        cells = []
        for w in workloads:
            v = values.get((w, m["name"]), [])
            if len(v) < 2:
                cells.append("n/a")
                continue
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med if med else 0.0
            mark = "!" if spread >= m["bound"] else "*" if spread >= m["bound"] / 3 else ""
            cells.append(f"{med:.4g} ({spread:.3f}){mark}")
        print(f"| `{m['name']}` ({m['bound']}) | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
