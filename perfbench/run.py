#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-c1355 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

The first run configures and builds perfbench/CMakeLists.txt (the
repository's library plus perfbench_driver, Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. Build output goes to stderr. The driver's report goes
to stdout; its last line is the JSON result (see driver.cpp). In a
directory without the repository sources the build fails and the script
exits non-zero without printing a result.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["evolve-c880", "campaign-c1355", "scale-synth100k"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = ROOT / "BENCH_bench_campaign.json"
DRIVER_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (bdir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "perfbench_driver", "-j", "4"],
                   check=True, stdout=sys.stderr)
    return bdir / "perfbench_driver"


def commit_id():
    """The git commit, or a hash of the sources when there is no git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run_workload(driver, workload, args, commit):
    cmd = [str(driver), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_dir() / "work"), "--commit", commit]
    reference = args.reference or (str(REFERENCE) if REFERENCE.exists() else "")
    if reference:
        cmd += ["--reference", reference]
    if args.circuit:
        cmd += ["--circuit", args.circuit]
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        raise RuntimeError(f"{workload}: driver exited {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", default="",
                        help="campaign report whose rows seed 1 must match")
    parser.add_argument("--circuit", default="",
                        help="replace the workload's circuit (smoke tests)")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    try:
        driver = build(build_dir())
        commit = commit_id()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for workload in workloads:
            report, results[workload] = run_workload(driver, workload, args,
                                                     commit)
            print("\n".join(report), flush=True)
    except (OSError, RuntimeError, ValueError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1

    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": metric
                        for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
