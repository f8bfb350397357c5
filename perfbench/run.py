#!/usr/bin/env python3
"""Runs the SACK repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]
    python3 perfbench/run.py --selftest

Run from the repository root. The first call builds the SACK libraries and
the benchmark binary from source into .bench_build/perfbench (Release).

A workload run prints a stamp line (host, nproc, build type, compiler,
commit, the workload's detail report) and, as its last line, the result:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones; the names and units are
those BENCHMARK.json lists, and a per-layer metric the workload does not
measure reads 0. It exits non-zero when an output check fails. --all runs
every workload both ways; --selftest runs the harness self-test.
perfbench/layers.json maps each per-layer metric to the end-to-end metric
and workload it should move.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sack_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no SACK source tree at %s (src/CMakeLists.txt missing)" % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    command = [cmake, "--build", BUILD, "--target", "sack_perfbench",
               "--parallel", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        die("build failed")


def commit():
    """The git commit when there is one, and a digest of the sources."""
    head = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            head = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return head, digest.hexdigest()[:16]


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (SPEC, e))


def listed_metrics(result, listed, fill):
    """The result's metrics checked against BENCHMARK.json's list: an
    unlisted metric or a unit that differs is a benchmark error. A listed
    metric the run did not measure is an error too, unless `fill`, when it
    reads 0 (a layer the workload does not exercise)."""
    measured = result["metrics"]
    for name, metric in measured.items():
        if name not in listed:
            die("unlisted metric %s" % name)
        if metric["unit"] != listed[name]:
            die("%s: unit %s, BENCHMARK.json says %s"
                % (name, metric["unit"], listed[name]))
    metrics = {}
    for name, unit in listed.items():
        if name in measured:
            metrics[name] = measured[name]
        elif fill:
            metrics[name] = {"value": 0, "unit": unit}
        elif result["correct"]:
            die("metric %s not measured" % name)
    return metrics


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; prints the stamp and result lines. Returns the
    exit status (0 when every output check passed)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        sys.stderr.write(out.stderr)
        die("%s exited %d without a result" % (workload, out.returncode))
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result["metrics"] = listed_metrics(result, listed, trace)

    head, source = commit()
    stamp = {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "build_type": detail["build"]["type"],
        "compiler": detail["build"]["compiler"],
        "commit": head,
        "source_sha256": source,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": 1 if trace else 0,
    }
    print(json.dumps({"stamp": stamp, "report": detail["report"],
                      "errors": detail["errors"]}))
    print(json.dumps(result))
    sys.stdout.flush()
    if not result["correct"]:
        return 1
    return out.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in workloads:
        parser.error("--workload must be one of %s" % ", ".join(workloads))
    if not (args.workload or args.all or args.selftest):
        parser.error("one of --workload, --all, --selftest is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"]).returncode
    if args.all:
        status = 0
        for workload in workloads:
            for trace in (False, True):
                status |= run_workload(spec, workload, args.seed,
                                       args.seconds, trace)
        return status
    return run_workload(spec, args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
