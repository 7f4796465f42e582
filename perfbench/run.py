#!/usr/bin/env python3
"""End-to-end benchmark of the k-center system.

Builds the library and the benchmark runner from this checkout's sources
(Release, into .bench_build/), checks the benchmark's own arithmetic, then
runs one workload in a process of its own and relays its result, which is
the last line of standard output:

    python3 perfbench/run.py --workload csv-gau-1m --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
(spans go to .bench_build/traces/). BENCHMARK.json lists the workloads and
every metric with its unit; a per-layer metric the workload does not
exercise reads 0. Seeds, thread budgets and the ledger are in
perfbench/reference.json. Run from the repository root.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
WORKLOADS = ("csv-gau-1m", "panel-d10-200k", "svc-closed-4k")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    sources = os.path.join(HERE, "..")
    for required in ("CMakeLists.txt", os.path.join("src", "api", "solver.hpp")):
        if not os.path.exists(os.path.join(sources, required)):
            fail("no k-center sources next to perfbench/ (missing %s)" % required)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "perfbench_runner", "perfbench_selftest"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))
    done = subprocess.run([SELFTEST], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("the benchmark's self-test failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    command = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--spans", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if process.returncode != 0:
        fail("%s exited with code %d" % (args.workload, process.returncode))
    lines = output.strip().splitlines()
    result = json.loads(lines[-1])
    result["metrics"] = listed_metrics(result["metrics"], args.trace == "1")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


def listed_metrics(measured, trace):
    """Orders the runner's metrics as BENCHMARK.json lists them and checks
    each unit against the list. A traced run prints every per-layer
    metric; those the workload does not exercise read 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        if name in measured:
            value = measured.pop(name)
        elif trace:
            value = {"value": 0.0, "unit": unit}
        else:
            fail("end-to-end metric %s was not measured" % name)
        if value["unit"] != unit:
            fail("metric %s is in %s, BENCHMARK.json says %s"
                 % (name, value["unit"], unit))
        metrics[name] = value
    if measured:
        fail("metrics outside BENCHMARK.json: " + ", ".join(sorted(measured)))
    return metrics


if __name__ == "__main__":
    main()
