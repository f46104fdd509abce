#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload alloy --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the solver library from
src/ plus the perfbench executable) into the directory named by
CARGO_TARGET_DIR, or .bench_build by default. Each call then runs one
workload in a child process group and relays its output. perfbench's
last line is the result with bare metric values; run.py checks that it
holds exactly the metrics BENCHMARK.json lists for the run, each a
finite number (and no end-to-end one 0), prints it again with each
metric's unit from BENCHMARK.json, and exits with perfbench's code (0
only when every op passed). A result that fails these checks is not
printed, and the exit code is 5.
--self-test builds and runs the benchmark's own unit tests instead.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "BENCHMARK.json")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout), 4)
    return proc.returncode, out


def build(build_dir, targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets]
    for cmd in steps:
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("build step failed: " + " ".join(cmd), 3)


def result_with_units(line, trace):
    """perfbench's result line, checked and with units from BENCHMARK.json."""
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON", 5)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(res), 5)
    with open(SPEC) as f:
        spec = json.load(f)
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = res["metrics"]
    names = [m["name"] for m in want]
    missing = sorted(set(names) - set(got))
    extra = sorted(set(got) - set(names))
    if missing or extra:
        fail("metrics missing %s, not in BENCHMARK.json %s" % (missing, extra),
             5)
    for name in names:
        v = got[name]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s is %r" % (name, v), 5)
        if not trace and v == 0:
            fail("end-to-end metric %s is 0" % name, 5)
    res["metrics"] = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                      for m in want}
    return json.dumps(res)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    if not os.path.isdir(os.path.join(HERE, os.pardir, "src")):
        fail("no solver sources next to perfbench/", 3)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if args.self_test:
        build(build_dir, ["perfbench_tests"])
        code, _ = run_group([os.path.join(build_dir, "perfbench_tests")],
                            RUN_TIMEOUT_S)
        sys.exit(code)

    build(build_dir, ["perfbench"])
    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        code, out = run_group(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code == 2 or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("perfbench exited with code %d and no result" % code, code or 5)
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    sys.stdout.flush()
    print(result_with_units(lines[-1], args.trace))
    sys.exit(code)


if __name__ == "__main__":
    main()
