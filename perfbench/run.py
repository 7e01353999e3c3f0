#!/usr/bin/env python3
"""Host-side benchmark of the fence-scoping simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 12 --trace 0

Builds perfbench/fsbench.exe with dune (the shared dune cache is turned
off, so everything stays inside the checkout), then runs it and passes
its standard output through.  The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones; BENCHMARK.json at
the root lists both.  Spans of a traced run go to .perfbench_out/.

Exit codes: 0 when every check passed, 1 when a correctness check
failed, 2 when the checkout or the build is unusable, 3 on timeout.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "fsbench.exe")
OUT_DIR = ".perfbench_out"
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["lib", "bin", "perfbench"]


def die(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources, so a result always names the code it measured."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in SOURCE_DIRS + ["dune-project"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes (the benchmark's own tests)")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die(2, "run from the root of a fence-scoping checkout (no dune-project and lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/fsbench.exe"],
                           env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.isfile(EXE):
        die(2, "building perfbench/fsbench.exe failed")

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))), "--commit", source_id(),
           "--spans-dir", OUT_DIR]
    if args.tiny:
        cmd.append("--tiny")
    # A terminated runner takes the benchmark process down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=sys.stdout, stderr=sys.stderr)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        die(3, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
