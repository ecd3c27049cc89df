#!/usr/bin/env python3
"""Build and run the lzssd benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload compress-default --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest

The harness is built from src/ with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
carries the host fingerprint and the drift probe.
"""
import argparse
import ctypes
import fcntl
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def die_with_parent():
    """Child processes get SIGKILL if this script dies first."""
    libc = ctypes.CDLL("libc.so.6", use_errno=True)
    libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def build(bdir):
    if not (ROOT / "src" / "server" / "service.hpp").is_file():
        sys.exit("perfbench: no lzss sources under src/ (run from a full checkout)")
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, preexec_fn=die_with_parent).returncode:
                sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bdir / "lzssd_bench"


def run_harness(exe, args):
    proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, preexec_fn=die_with_parent)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: harness exited with code %d" % proc.returncode)
    return proc.stdout.strip().splitlines()


def catalogue(exe):
    return json.loads(run_harness(exe, ["--list-metrics"])[-1])


def check_result(line, expected):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(result))
    names = {m["name"] for m in expected}
    if set(result["metrics"]) != names:
        raise ValueError("metric names differ: %s" % sorted(set(result["metrics"]) ^ names))
    return result


def selftest(exe, workdir):
    """The harness's own tests, then BENCHMARK.json against the harness."""
    failures = 0
    proc = subprocess.run([str(exe), "--selftest", "--workdir", str(workdir)],
                          timeout=RUN_TIMEOUT_S, preexec_fn=die_with_parent)
    failures += proc.returncode != 0
    cat = catalogue(exe)

    def expect(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what)
        failures += not ok

    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        expect([w["name"] for w in spec["workloads"]] == cat["workloads"],
               "BENCHMARK.json lists the harness's workloads")
        for key in ("end_to_end", "per_layer"):
            expect([(m["name"], m["unit"]) for m in spec[key]] ==
                   [(m["name"], m["unit"]) for m in cat[key]],
                   "BENCHMARK.json %s matches the harness's names and units" % key)
    # Short runs: an untraced run makes at least 10 passes whatever --seconds says.
    for workload in cat["workloads"]:
        for trace, key, seconds in (("0", "end_to_end", "3"), ("1", "per_layer", "3")):
            lines = run_harness(exe, ["--workload", workload, "--seed", "1", "--seconds", seconds,
                                      "--trace", trace, "--workdir", str(workdir)])
            try:
                result = check_result(lines[-1], cat[key])
                ok = result["correct"] and result["failed"] == 0
            except ValueError as err:
                print(err)
                ok = False
            expect(ok, "%s --trace %s prints every %s metric, all calls correct"
                   % (workload, trace, key))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    workdir = bdir / "work"
    if args.selftest:
        return selftest(exe, workdir)
    if not args.workload:
        ap.error("--workload is required")
    lines = run_harness(exe, ["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--workdir", str(workdir)])
    cat = catalogue(exe)
    check_result(lines[-1], cat["per_layer" if args.trace else "end_to_end"])
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
