#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on c432-sized variants of each workload.

    python3 perfbench/smoke_test.py

For every workload it runs the untraced and the traced mode with the
workload's circuit replaced by c432 and checks that
  - the result reports exactly the metric names and units BENCHMARK.json
    lists (end_to_end untraced, per_layer traced), with no failed check;
  - the traced run wrote a Chrome trace whose spans carry name, start,
    duration, parent and run id.
Then it alters one c432 row of the campaign reference report and checks that
the campaign workload counts the mismatch as a failed check.
Exits 0 when every check holds, 1 otherwise.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (build_dir and the workload list)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--circuit", "c432", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def expect(ok, what, failures):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main():
    failures = []
    work = run.build_dir() / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            trace_file = work / f"{workload}.trace.json"
            result = bench(workload, trace, "--trace-out", str(trace_file))
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: {section} names "
                   "and units", failures)
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{workload} trace={trace}: all "
                   f"{result['attempted']} checks pass", failures)
            if trace:
                events = json.loads(trace_file.read_text())["traceEvents"]
                spans = [e for e in events if e.get("ph") == "X"]
                expect(bool(spans) and all(
                    {"name", "ts", "dur"} <= e.keys()
                    and {"span", "parent", "run"} <= e["args"].keys()
                    for e in spans), f"{workload}: Chrome trace spans",
                    failures)

    lines = run.REFERENCE.read_text().split("\n")
    row = next(i for i, line in enumerate(lines)
               if line.startswith('    {"circuit": "c432"') and '"attack"' in line)
    lines[row] = lines[row].replace('"accuracy": ', '"accuracy": 1', 1)
    altered = work / "altered_reference.json"
    altered.write_text("\n".join(lines))
    result = bench("campaign-c1355", 0, "--reference", str(altered))
    expect(result["failed"] >= 1 and not result["correct"],
           "altered reference row raises fail_frac "
           f"({result['failed']}/{result['attempted']})", failures)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
