#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload compute --seed 1 --seconds 10 --trace 0

The OCaml driver (perfbench/bench.ml) is built with dune into
.bench_build/ and run with the same arguments; its last stdout line is
the JSON result. Exit codes: the driver's own (0 correct, 1 a
correctness check failed, 2 usage), or 3 if the checkout is not a
buildable repository, the build fails, or the driver prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(3)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run me from the root of a repository checkout (no dune-project or lib/ here)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # no shared dune cache: the build reads and writes only this checkout
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--cache=disabled", "./perfbench/bench.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    build()
    env = dict(os.environ)
    # the runtime's event ring file (traced runs) lives next to the spans
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.join("perfbench", "out")
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    proc = subprocess.Popen([EXE] + sys.argv[1:], stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("driver timed out after %d s" % TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode == 2:
        sys.exit(2)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result (exit %d)" % proc.returncode)
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
