#!/usr/bin/env python3
"""Lists the src/ functions that the production entry points never call.

Build a coverage tree first (GCC's gcov ships with the compiler):

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
      "-DCMAKE_CXX_FLAGS=--coverage -fno-early-inlining" \
      -DCMAKE_EXE_LINKER_FLAGS=--coverage
    cmake --build build-cov -j --target bench_campaign bench_scale \
      bench_sat_attack quickstart lock_file_tool
    python3 scripts/production_unexecuted.py build-cov

GCC places the coverage counters after its early inliner has run, so in the
files built at -O3 (gnn.cpp, solver.cpp, cnf.cpp) a function inlined early
would read as never called. -fno-early-inlining gives every function its
own counters; the later inlining still runs, which keeps those files fast
(with -fno-inline instead, quickstart alone ran for over ten minutes on a
4-core host).

The script runs the entry points in a temporary directory: the full
campaign at --threads 4, the quick, scope and heuristics specs,
bench_scale --quick, bench_sat_attack --quick, quickstart and every
lock_file_tool command. It then reads the .gcda files of the library with
`gcov --json-format` and prints every function defined in src/**/*.cpp
whose call count is zero, with the reason docs/production_unexecuted.txt
gives for it, as a Markdown table (CI appends it to the step summary).
Functions missing from that list, and entries of the list that were
called, are flagged. It always exits 0 unless a run fails: the list
informs, it does not gate.

Usage: production_unexecuted.py BUILD_DIR
"""
import argparse
import gzip
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
C17 = ROOT / "tests" / "data" / "c17.bench"
REASONS = ROOT / "docs" / "production_unexecuted.txt"


def entry_points(build):
    """(argv, expected exit code) of every production run, in order."""
    tool = str(build / "lock_file_tool")
    runs = [
        ([str(build / "bench_campaign"), "--threads", "4"], 0),
        ([str(build / "bench_campaign"), "--spec", "quick"], 0),
        ([str(build / "bench_campaign"), "--spec", "scope"], 0),
        ([str(build / "bench_campaign"), "--spec", "heuristics"], 0),
        ([str(build / "bench_scale"), "--quick"], 0),
        ([str(build / "bench_sat_attack"), "--quick"], 0),
        ([str(build / "quickstart")], 0),
        ([tool, "gen", "c432", "c432.bench", "3"], 0),
        ([tool, "stats", "c432.bench"], 0),
    ]
    for scheme, key_bits in [("dmux", "8"), ("rll", "8"), ("antisat", "8"),
                             ("compound", "4"), ("autolock", "4")]:
        runs.append(([tool, "lock", "c432.bench", f"{scheme}.bench", key_bits,
                      scheme, "5"], 0))
    runs += [
        ([tool, "attack", "dmux.bench"], 0),
        ([tool, "report", "dmux.bench", "c432.bench"], 0),
        ([tool, "attacks"], 0),
        ([tool, "lock", str(C17), "out.bench", "4", "bogus"], 2),
        ([tool], 1),
    ]
    return runs


def run_entry_points(build):
    with tempfile.TemporaryDirectory() as work:
        for argv, expect in entry_points(build):
            print("$", " ".join(Path(argv[0]).name if i == 0 else a
                                for i, a in enumerate(argv)),
                  file=sys.stderr, flush=True)
            status = subprocess.run(argv, cwd=work, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL).returncode
            if status != expect:
                sys.exit(f"{argv[0]} exited {status}, expected {expect}")


def gcov_functions(build):
    """{(source, demangled name): call count} over the library's objects."""
    objects = build / "CMakeFiles" / "autolock.dir"
    counts = {}
    for gcda in sorted(objects.rglob("*.gcda")):
        with tempfile.TemporaryDirectory() as out:
            subprocess.run(["gcov", "--json-format", "--demangled-names",
                            "--object-directory", str(gcda.parent),
                            str(gcda)],
                           cwd=out, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            for report in Path(out).glob("*.gcov.json.gz"):
                with gzip.open(report, "rt") as f:
                    doc = json.load(f)
                for entry in doc["files"]:
                    source = Path(entry["file"])
                    if not source.is_absolute():
                        source = (Path(doc["current_working_directory"]) /
                                  source)
                    try:
                        source = source.resolve().relative_to(ROOT)
                    except ValueError:
                        continue
                    if source.parts[0] != "src" or source.suffix != ".cpp":
                        continue
                    for fn in entry["functions"]:
                        key = (str(source), fn["demangled_name"])
                        counts[key] = max(counts.get(key, 0),
                                          fn["execution_count"])
    return counts


def read_reasons():
    """{(source, function): reason} from the committed list."""
    reasons = {}
    for line in REASONS.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        source, function, reason = (part.strip()
                                    for part in line.split(" | ", 2))
        reasons[(source, function)] = reason
    return reasons


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build", type=Path)
    build = parser.parse_args().build.resolve()

    run_entry_points(build)
    counts = gcov_functions(build)
    if not counts:
        sys.exit(f"no coverage data for src/ under {build}")
    unexecuted = sorted(key for key, count in counts.items() if count == 0)
    reasons = read_reasons()
    called = sorted(key for key in reasons
                    if key in counts and counts[key] > 0)
    gone = sorted(key for key in reasons if key not in counts)

    print("## src/ functions the production entry points never call\n")
    print(f"{len(unexecuted)} of {len(counts)} function records in "
          f"src/*.cpp.\n")
    print("| source | function | reason |")
    print("|---|---|---|")
    for source, function in unexecuted:
        reason = reasons.get((source, function), "**not in the list**")
        print(f"| {source} | `{function}` | {reason} |")
    for source, function in called:
        print(f"| {source} | `{function}` | **listed, but called** |")
    for source, function in gone:
        print(f"| {source} | `{function}` | **listed, but not built** |")


if __name__ == "__main__":
    main()
