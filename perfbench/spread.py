#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, as the acceptance check computes it.

Runs `bash perfbench/run.sh` once per seed for each workload and prints,
per end-to-end metric, the median and the quartile spread (q3 - q1) /
median over the runs, next to the metric's bound from BENCHMARK.json,
and the same for the unscaled host time and the host-speed probe's
slowdown (see README.md).
With --save the raw results go to a JSON file; --compare checks a second
set against a saved one: medians within each bound, exact metrics equal.

    python3 perfbench/spread.py --runs 10 --save set1.json
    python3 perfbench/spread.py --runs 10 --compare set1.json
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {res}")
    values = {k: v["value"] for k, v in res["metrics"].items()}
    # The unscaled host time and the probe's slowdown, for comparison.
    raw = re.search(r"^measured host_s: .* median=(\S+)", out, re.M)
    slow = re.search(r"^probe_s: .* slowdown=(\S+)", out, re.M)
    if raw and slow:
        values["measured_host_s"] = float(raw.group(1))
        values["probe_slowdown"] = float(slow.group(1))
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.runs + 1)
    results = {w: [run_once(w, s, bench["run_seconds"], 0) for s in seeds] for w in workloads}
    ok = True
    old = json.load(open(args.compare)) if args.compare else {}
    for w, runs in results.items():
        print(w)
        for name, bound in bounds.items():
            med, sp = spread([r[name] for r in runs])
            line = f"  {name:24s} median {med:14.6g}  spread {sp:7.4f}  bound {bound}"
            if name != "setup_s" and sp > bound:
                line += "  SPREAD OVER BOUND"
                ok = False
            if w in old:
                prev = statistics.median([r[name] for r in old[w]])
                line += f"  vs saved {med / prev - 1:+.4f}"
                if med > prev * (1 + bound):
                    line += "  WORSE THAN BOUND"
                    ok = False
                if name.startswith("sim_cycles") and [r[name] for r in runs] != [r[name] for r in old[w]]:
                    line += "  NOT EXACT"
                    ok = False
            print(line)
        if all("measured_host_s" in r for r in runs):
            for name in ("measured_host_s", "probe_slowdown"):
                med, sp = spread([r[name] for r in runs])
                print(f"  {name:24s} median {med:14.6g}  spread {sp:7.4f}  (unscaled, not a metric)")
    if args.save:
        json.dump(results, open(args.save, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
