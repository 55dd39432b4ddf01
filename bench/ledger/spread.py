"""Run-to-run spread of the ledger's metrics.

Runs the BENCHMARK.json command once per seed for each workload and
prints, per metric, the median and the quartile spread (Q3 - Q1) as a
share of the median, next to the metric's bound.

    python3 bench/ledger/spread.py [--runs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1] [--json OUT] [WORKLOAD ...]

Run it from the repository root. With no workloads named it runs all of
them; --json also writes every raw result line to OUT.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    section = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    raw = {}
    for name in names:
        raw[name] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            raw[name].append(result)
            print("%s seed %d: %d of %d failed %s" % (
                name, seed, result["failed"], result["attempted"],
                out.stderr.strip()[-300:]), file=sys.stderr)
    if args.json:
        json.dump(raw, open(args.json, "w"), indent=1)
    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in raw[name]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[metric]
            print("| %s | %s | %.6g | %.6g | %.6g | %.3f | %s |" % (
                name, metric, med, q1, q3, spread,
                "-" if bound is None else bound))


if __name__ == "__main__":
    main()
