#!/usr/bin/env python3
"""Steadiness proof for the end-to-end benchmark.

Runs each workload once per seed, each run in a process of its own, and
prints for every end-to-end metric its median and quartiles across the runs
and their spread, (q3 - q1) / median, against the metric's bound from
BENCHMARK.json. A spread below a third of its bound is steady; setup_s is
judged like every other metric.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--out s.json]
    python3 perfbench/steady.py --compare first.json second.json

--compare checks that no metric's median in the second summary is worse than
in the first by more than the metric's bound. Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, trace):
    command = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("run failed (exit %d): %s" % (done.returncode, " ".join(command)))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("incorrect output: " + " ".join(command))
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "values": values}


def prove(bench, workloads, seeds, trace):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(bench, workload, seed, trace))
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        rows = {}
        print("\n%s (%d runs, seeds %s)" % (workload, len(runs), seeds))
        print("  %-24s %12s %12s %12s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, metric in runs[0]["metrics"].items():
            row = summarize([r["metrics"][name]["value"] for r in runs])
            row["unit"] = metric["unit"]
            rows[name] = row
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif row["spread"] < bound / 3:
                verdict = "steady"
            elif row["spread"] <= bound:
                verdict = "within bound, above a third"
                steady = False
            else:
                verdict = "TOO NOISY"
                steady = False
            print("  %-24s %12.6g %12.6g %12.6g %8.4f %6s  %s" % (
                name, row["median"], row["q1"], row["q3"], row["spread"],
                "" if bound is None else bound, verdict))
        attempted = [r["attempted"] for r in runs]
        failed = [r["failed"] for r in runs]
        print("  ops per run: %s; failed: %s" % (attempted, failed))
        summary[workload] = {"seeds": seeds, "metrics": rows,
                             "attempted": attempted, "failed": failed}
    return summary, steady


def compare(bench, first, second):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in sorted(set(first) & set(second)):
        for name, metric in metrics.items():
            a = first[workload]["metrics"][name]["median"]
            b = second[workload]["metrics"][name]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= metric["bound"] else "WORSE THAN BOUND"
            ok = ok and worse <= metric["bound"]
            print("%-16s %-14s %12.6g %12.6g %+8.4f  %s" % (
                workload, name, a, b, worse, verdict))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    bench = load_benchmark()
    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        sys.exit(0 if compare(bench, first, second) else 1)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    summary, steady = prove(bench, workloads, parse_seeds(args.seeds), args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
