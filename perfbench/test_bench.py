#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/test_bench.py

Checks BENCHMARK.json against its format, then runs every workload at
tiny sizes in both modes through run.py and checks that the printed
metric names are exactly the ones BENCHMARK.json lists (end_to_end for
--trace 0, per_layer for --trace 1), with the listed units, and that
every check passed.  Last, checks that run.py refuses a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on
the first failure.
"""

import json
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RUNNER = ["python3", "perfbench/run.py"]
SCRATCH = os.path.join(".perfbench_out", "test")


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def check_format(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not (1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and ".." not in p.split("/")
                                                   for p in spec["paths"])):
        fail("paths")
    if not (len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])):
        fail("command")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        fail("run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("workload count")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200 \
                or "\n" in w["why"]:
            fail(f"workload {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per_layer {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                or m["better"] not in ("higher", "lower"):
            fail(f"metric {m}")
        names.append(m["name"])
    if len(names) != len(set(names)):
        fail("a name is used twice")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        fail("metric counts")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower" \
            or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must be listed, in s, lower, with the largest bound")


def check_run(spec, workload, trace):
    cmd = RUNNER + ["--workload", workload, "--seed", "7", "--seconds", "0",
                    "--trace", str(trace), "--tiny"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        fail(f"{workload} trace={trace} exited {r.returncode}: {r.stderr[-2000:]}"
             f"{r.stdout[-2000:]}")
    out = json.loads(r.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(out)}")
    if out["correct"] is not True or out["failed"] != 0 or out["attempted"] < 1:
        fail(f"{workload}: {out['correct']} {out['attempted']} {out['failed']}")
    listed = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    if set(printed) != set(listed):
        fail(f"{workload} trace={trace}: printed but not listed "
             f"{sorted(set(printed) - set(listed))}, listed but not printed "
             f"{sorted(set(listed) - set(printed))}")
    for name, unit in listed.items():
        if printed[name] != unit:
            fail(f"{workload}: {name} printed in {printed[name]}, listed in {unit}")
        if not isinstance(out["metrics"][name]["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
        if trace == 0 and out["metrics"][name]["value"] <= 0:
            fail(f"{workload}: end-to-end metric {name} is not positive")
    print(f"ok {workload} trace={trace}: {len(printed)} metrics")


def check_bare_directory(spec):
    """run.py must fail, printing no result, without the simulator sources."""
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(p, os.path.join(bare, p))
    r = subprocess.run(RUNNER + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if r.returncode == 0 or r.stdout.strip():
        fail(f"bare directory: exit {r.returncode}, stdout {r.stdout!r}")
    print(f"ok bare directory refused with exit {r.returncode}")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    check_format(spec)
    print("ok BENCHMARK.json format")
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_directory(spec)


if __name__ == "__main__":
    main()
