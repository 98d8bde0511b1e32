#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload offline_mix --seed 1 --seconds 10 --trace 0

--workload takes one name, a comma-separated list, or "all". --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. Optional:
--dataset-seed N (the city and serve_mix's arrival realization; default 1).

The first run configures and builds the repository's libraries and the
benchmark binary in .bench_build (Release). Host context is printed before
the result; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A failed build, run or correctness
check exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["offline_mix", "serve_mix", "cluster_mix"]

# Per-workload wall-clock cap for the benchmark binary.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; output goes to a log."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("repository sources not found (%s is missing)" % required)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log, cwd=ROOT) != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("cmake configure failed")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        status = subprocess.call(
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
            stdout=log, stderr=log, cwd=ROOT)
    if status != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail("build failed; see .bench_build/build.log")


def source_digest():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources:" + digest.hexdigest()[:16]


def run_workload(workload, args):
    """Runs the binary for one workload; returns its parsed result line."""
    tmp_dir = os.path.join(".bench_build", "tmp")
    os.makedirs(os.path.join(ROOT, tmp_dir), exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(args.seed),
               "--dataset-seed", str(args.dataset_seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ)
    # Worker sockets live under the checkout; a relative directory keeps the
    # socket paths short.
    env["TMPDIR"] = tmp_dir
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        # The cluster's workers share the binary's process group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except OSError:
            pass
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if process.returncode != 0 or not lines:
        fail("%s failed (exit code %d)" % (workload, process.returncode))
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        fail("%s: outputs failed the correctness check" % workload)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared_metrics(args.trace):
        fail("%s: metric names or units differ from BENCHMARK.json" % workload)
    return result


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"]
            for m in declared["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dataset-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else args.workload.split(",")
    for workload in workloads:
        if workload not in WORKLOADS:
            fail("unknown workload '%s' (one of %s, or all)" % (
                workload, ", ".join(WORKLOADS)))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    print("host: " + json.dumps({
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "source": source_digest()}), flush=True)

    results = {w: run_workload(w, args) for w in workloads}
    if len(results) == 1:
        combined = next(iter(results.values()))
    else:
        combined = {"correct": True,
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {"%s.%s" % (w, name): value
                                for w, r in results.items()
                                for name, value in r["metrics"].items()}}
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
