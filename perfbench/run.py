#!/usr/bin/env python3
"""The repository benchmark: one command per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds gcon_cli and the benchmark's
load program from source into the build directory (CARGO_TARGET_DIR when
set, else .bench_build), checks the benchmark's own arithmetic with its unit
test, then runs the load program, which prints one line per metric and the
environment stamp; the last line of this script's output is one JSON object
{"correct", "attempted", "failed", "metrics"} holding exactly the metrics
BENCHMARK.json declares for the mode: its end_to_end metrics untraced, its
per_layer metrics traced. The exit status is 0 only when every correctness
check passed and every declared metric was measured.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOAD_DEADLINE_S = 165  # the whole command must end within 180 s
BUILD_TIMEOUT_S = 840    # a first build in a fresh checkout may take long


def fail(phase, message):
    sys.stderr.write("perfbench: FAILED in phase '%s': %s\n" % (phase, message))
    sys.exit(1)


def run_quiet(cmd, phase, timeout):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(phase, "timed out after %d s: %s" % (timeout, " ".join(cmd)))
    if proc.returncode != 0:
        tail = proc.stdout.decode(errors="replace")[-3000:]
        fail(phase, "exit status %d: %s\n%s" % (proc.returncode, " ".join(cmd),
                                                tail))


def build(build_dir):
    """Configures once, then builds (a no-op when nothing changed)."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("build", "no %s at the checkout root %s: the benchmark builds "
                 "the repository from source" % (needed, ROOT))
    pkg_build = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(pkg_build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _has("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", pkg_build,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator,
                  "build: configure", BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "--build", pkg_build, "-j", jobs, "--target",
               "gcon_cli", "perfbench_load", "perfbench_math_test"],
              "build: compile", BUILD_TIMEOUT_S)
    run_quiet([os.path.join(pkg_build, "perfbench_math_test"),
               "--gtest_brief=1"], "build: benchmark math test", 120)
    return pkg_build


def _has(program):
    return any(os.access(os.path.join(p, program), os.X_OK)
               for p in os.environ.get("PATH", "").split(os.pathsep))


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
        sha = out.stdout.decode().strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("arguments", "unknown workload '%s'" % args.workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    pkg_build = build(build_dir)

    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(pkg_build, "perfbench_load"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(pkg_build, "gcon", "gcon_cli"),
           "--work-root", os.path.join(build_dir, "runs"),
           "--git-sha", git_sha(), "--deadline", str(LOAD_DEADLINE_S),
           "--spans-out", os.path.join(
               spans_dir, "%s.tsv" % args.workload)]
    # Own process group, so a timeout takes the server child down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=LOAD_DEADLINE_S + 8)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("load program",
             "did not finish within %d s" % (LOAD_DEADLINE_S + 8))
    lines = out.decode(errors="replace").splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail("load program", "exit status %d (see the lines above and stderr)"
             % proc.returncode)
    result = json.loads(lines[-1])

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("report", "metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            fail("report", "metric %s in %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
