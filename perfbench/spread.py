#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workload serve-mix --seeds 1-10 --trace 0

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json. Raw results go to
.bench_build/spread-<workload>-trace<n>.json; with --record the summary is
also stored in perfbench/baseline.json under "<workload>/trace<n>", with
the host it ran on.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--record", action="store_true",
                    help="store the summary in perfbench/baseline.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        started = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        elapsed = time.monotonic() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        res = json.loads(lines[-1])
        res["seed"] = seed
        res["report"] = lines[:-1]
        runs.append(res)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: {elapsed:.1f}s correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals}", flush=True)

    os.makedirs(".bench_build", exist_ok=True)
    with open(f".bench_build/spread-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump(runs, f, indent=1)
    if len(runs) < 2:
        sys.exit("fewer than two runs succeeded")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    summary = {}
    for name in sorted(bounds):
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if len(values) < 2:
            print(f"{name:28} missing")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds[name]
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3" if spread <= bound else "  > BOUND"
        print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}{flag}")
    if args.record:
        record(args, seconds, runs, summary)


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"cpu": model, "nproc": os.cpu_count(), "os": platform.platform(), "go": go}


def record(args, seconds, runs, summary):
    path = "perfbench/baseline.json"
    try:
        with open(path) as f:
            base = json.load(f)
    except FileNotFoundError:
        base = {}
    base[f"{args.workload}/trace{args.trace}"] = {
        "host": host(),
        "seconds": seconds,
        "seeds": [r["seed"] for r in runs],
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": summary,
    }
    with open(path, "w") as f:
        json.dump(base, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
