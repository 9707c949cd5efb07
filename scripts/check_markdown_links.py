#!/usr/bin/env python3
"""Markdown link checker for the docs CI job (stdlib only).

Scans the curated documentation set (README.md, ROADMAP.md, docs/,
bench/README.md) for inline markdown links and verifies that every
relative link resolves to an existing file or directory in the repo.
External links (http/https/mailto) and pure in-page anchors are skipped —
CI has no business depending on the network, and anchor drift is caught in
review. It also checks that the coverage map in tests/README.md has
exactly one row per tests/test_*.cpp file. Exits non-zero listing every
broken link and every coverage-map mismatch.

Usage: python3 scripts/check_markdown_links.py [repo_root]
"""

import re
import sys
from pathlib import Path

# [text](target) — excluding images is unnecessary; image paths must exist
# too. Nested parens in URLs are not used in this repo's docs.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# A coverage-map row in tests/README.md: | `test_name` | what it pins |
COVERAGE_ROW_RE = re.compile(r"^\| `(test_\w+)` \|", re.MULTILINE)

DOC_GLOBS = [
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/**/*.md",
    "bench/README.md",
    "tests/README.md",
]


def doc_files(root: Path):
    seen = set()
    for pattern in DOC_GLOBS:
        for path in sorted(root.glob(pattern)):
            if path.is_file() and path not in seen:
                seen.add(path)
                yield path


def check_file(root: Path, path: Path):
    broken = []
    text = path.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            continue  # in-page anchor
        target = target.split("#", 1)[0]  # strip cross-file anchors
        if not target:
            continue
        resolved = (path.parent / target).resolve()
        try:
            resolved.relative_to(root.resolve())
        except ValueError:
            broken.append((target, "escapes the repository"))
            continue
        if not resolved.exists():
            broken.append((target, "does not exist"))
    return broken


def check_test_map(root: Path):
    """Mismatches between tests/README.md rows and tests/test_*.cpp files."""
    readme = root / "tests" / "README.md"
    if not readme.is_file():
        return ["tests/README.md is missing"]
    rows = COVERAGE_ROW_RE.findall(readme.read_text(encoding="utf-8"))
    files = {path.stem for path in (root / "tests").glob("test_*.cpp")}
    problems = [f"tests/{name}.cpp has no row in tests/README.md"
                for name in sorted(files - set(rows))]
    problems += [f"tests/README.md row `{name}` has no tests/{name}.cpp"
                 for name in sorted(set(rows) - files)]
    problems += [f"tests/README.md has {rows.count(name)} rows for `{name}`"
                 for name in sorted(set(rows)) if rows.count(name) > 1]
    return problems


def main():
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    failures = 0
    checked = 0
    for path in doc_files(root):
        checked += 1
        for target, reason in check_file(root, path):
            failures += 1
            print(f"BROKEN {path.relative_to(root)}: ({target}) {reason}")
    if checked == 0:
        print("no documentation files found — wrong root?")
        return 1
    map_problems = check_test_map(root)
    for problem in map_problems:
        print(f"COVERAGE MAP {problem}")
    if failures or map_problems:
        print(f"{failures} broken link(s) across {checked} files, "
              f"{len(map_problems)} coverage-map mismatch(es)")
        return 1
    print(f"ok: {checked} files, no broken relative links, "
          f"tests/README.md lists every tests/test_*.cpp")
    return 0


if __name__ == "__main__":
    sys.exit(main())
