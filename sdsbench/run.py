#!/usr/bin/env python3
"""Build sdsbench from this checkout and run one workload (or all four).

    python3 sdsbench/run.py --workload live_flat_tcp --seed 1 --seconds 45 --trace 0
    python3 sdsbench/run.py --workload all            # every workload in turn
    python3 sdsbench/run.py --selftest                # the benchmark's own tests

The build goes to .bench_build/ (CMake, Release). The last line of
standard output of a single-workload run is the JSON result object; build
output goes to standard error. See sdsbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / "sdsbench-out"
WORKLOADS = ["sim_hier_20k", "sim_flat_churn", "live_flat_tcp", "live_hier_inproc"]
# Every run, build included after the first, must end within 180 s.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target="sdsbench"):
    """Configure (once) and build `target`; returns False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"sdsbench: build step failed: {' '.join(step)}")
            return False
    return True


def source_digest():
    """SHA-256 over the sources the benchmark builds (provenance when the
    checkout is not a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "sdsbench", "CMakeLists.txt"):
        base = ROOT / top
        files = sorted(p for p in base.rglob("*") if p.is_file()) if base.is_dir() else [base]
        for path in files:
            if path.exists():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload, seed, seconds, trace):
    """Run one workload; echo its output. Returns (exit code, result or None)."""
    env = dict(os.environ)
    env.pop("SDSCALE_SIM_LANES", None)  # lanes stay at the library default
    env.setdefault("SDS_LOG_LEVEL", "ERROR")  # teardown warnings are expected
    sha = git_sha() or f"none(source-sha256:{source_digest()})"
    cmd = [str(BUILD_DIR / "sdsbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--fingerprints", str(BENCH_DIR / "fingerprints.txt"),
           "--out-dir", str(OUT_DIR), "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        out = expired.stdout or ""
        print(out if isinstance(out, str) else out.decode(), end="")
        log(f"sdsbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    # Hold back the result line until it is validated.
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(lines[-1])
        log(f"sdsbench: {workload} printed no result line (exit {proc.returncode})")
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    if args.selftest:
        if not build("sdsbench_test"):
            return 1
        return subprocess.run([str(BUILD_DIR / "sdsbench_test")]).returncode

    if not build():
        return 1
    if args.workload != "all":
        code, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        if result is not None:
            print(json.dumps(result))
        return code

    # Every workload in its own process, so peak_rss_mb is that workload's.
    summary = []
    for workload in WORKLOADS:
        code, result = run_workload(workload, args.seed, args.seconds, args.trace)
        status = "skipped" if code == 3 else ("ok" if code == 0 else "FAILED")
        summary.append((workload, status, result))
        print()
    print("summary:")
    for workload, status, result in summary:
        metrics = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                            for k, v in (result or {}).get("metrics", {}).items())
        print(f"  {workload:18s} {status:8s} {metrics}")
    return 0 if all(status == "ok" for _, status, _ in summary) else 1


if __name__ == "__main__":
    sys.exit(main())
