#!/usr/bin/env python3
"""Runs the dquag benchmark: builds the program from source, then one workload.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run from the repository root. The first run configures and builds into
.bench_build (the dquag library, the `dquag` CLI whose `serve` subcommand is
the daemon under test, the harness and its self-tests); later runs rebuild
only what changed. Every run first executes the harness self-tests.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric of BENCHMARK.json
with --trace 0, every per-layer metric with --trace 1. The exit code is 0
only when every correctness check passed. Results, with the environment and
provenance block, are also kept in .bench_out/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve_small", "serve_large", "batch")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path, timeout):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    with open(log_path, "ab") as log:
        result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                timeout=timeout,
                                env=dict(os.environ, TMPDIR=tmp))
    return result.returncode


def build():
    """Configures once, then builds the three targets; returns binary paths."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S):
            fail("configure failed; see " + log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                   "dquag_cli", "perfbench", "perfbench_selftest"],
                  log, BUILD_TIMEOUT_S):
        fail("build failed; see " + log)
    dquag = os.path.join(BUILD_DIR, "dquag", "tools", "dquag")
    harness = os.path.join(BUILD_DIR, "perfbench")
    selftest = os.path.join(BUILD_DIR, "perfbench_selftest")
    for path in (dquag, harness, selftest):
        if not os.access(path, os.X_OK):
            fail("missing build output " + path)
    return dquag, harness, selftest


def provenance():
    """The git sha when run from a git checkout, and a digest of the sources."""
    sha = "unknown"
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_harness(cmd):
    """Runs the harness in its own process group, so a timeout also stops the
    daemon it started; returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    # The harness stops its daemon itself; this only guards against a crash
    # that left one behind in the group.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        while True:
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    return proc.returncode, lines


def check_result(line, trace):
    """The harness's result must name exactly BENCHMARK.json's metrics."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("result metrics do not match BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))
    return result


def run_workload(args, workload, binaries, sha, digest):
    dquag, harness, _ = binaries
    work_dir = os.path.join(OUT_DIR, "work", "%s-%d" % (workload, os.getpid()))
    results_dir = os.path.join(OUT_DIR, "results")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        code, lines = run_harness([
            harness, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--dquag-binary", dquag, "--work-dir", work_dir,
            "--results-dir", results_dir, "--git-sha", sha,
            "--source-digest", digest])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not lines or not lines[-1].startswith("{"):
        fail("%s printed no result (exit %d)" % (workload, code))
    return code, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if not (os.path.isfile("CMakeLists.txt") and
            os.path.isfile(os.path.join("src", "CMakeLists.txt")) and
            os.path.isfile("BENCHMARK.json")):
        fail("run from the repository root: dquag sources not found")

    binaries = build()
    if subprocess.run([binaries[2]], stdout=subprocess.DEVNULL,
                      timeout=60).returncode != 0:
        fail("harness self-tests failed")
    sha, digest = provenance()

    if args.workload != "all":
        code, line = run_workload(args, args.workload, binaries, sha, digest)
        check_result(line, args.trace)
        print(line)
        sys.exit(code)

    # Every workload in turn; the combined line namespaces the metrics.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, line = run_workload(args, workload, binaries, sha, digest)
        result = check_result(line, args.trace)
        print(workload + ": " + line)
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
