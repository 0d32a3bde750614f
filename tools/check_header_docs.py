#!/usr/bin/env python3
"""Checks the doc-comment contract on public headers.

Every header under the directories listed in CHECKED_DIRS must carry:

  1. a file-level doc comment (a block starting with `/**` that contains
     `@file`) before any declaration,
  2. an explicit threading contract: the file-level comment or a class
     comment must mention thread-safety (one of the THREADING_MARKERS
     phrases) — these are the headers whose types are shared across
     request, worker and comparator threads, so "is this safe to call
     concurrently?" must never require reading the .cc,
  3. a doc comment (`/** ... */` or a run of `///`/`//` comment lines)
     immediately above every namespace-scope class/struct definition.

Pure mechanics (regex over the header text), no compiler needed: the
check is cheap enough for the formatting CI job and catches the common
rot mode — a new public type landing without its contract written down.

Exit status 0 when every header passes, 1 with a per-file report
otherwise.  Run from the repository root:  python3 tools/check_header_docs.py
"""

import re
import sys
from pathlib import Path

CHECKED_DIRS = ["src/serve", "src/model", "src/autotune", "src/asm", "src/uarch"]

THREADING_MARKERS = [
    "thread-safe",
    "thread-safety",
    "thread safety",
    "threading contract",
    "not thread-safe",
    "single-threaded",
    "concurrently",
]

# A class/struct DEFINITION at namespace scope: line starts without
# indentation, ends the declarator with `{` (possibly after a base
# list). Forward declarations (`class Foo;`) and nested types (indented)
# are exempt.
CLASS_RE = re.compile(
    r"^(?:class|struct)\s+(\w+)[^;{]*\{", re.MULTILINE)


def doc_comment_above(text: str, offset: int) -> bool:
    """True when the lines right above `offset` end a doc comment."""
    lines = text[:offset].splitlines()
    # Walk past attribute/template lines to the comment candidate.
    i = len(lines) - 1
    while i >= 0 and (not lines[i].strip()
                      or lines[i].strip().startswith("template")
                      or lines[i].strip().startswith("GRANITE_")):
        i -= 1
    if i < 0:
        return False
    line = lines[i].strip()
    return line.endswith("*/") or line.startswith("//")


def check_header(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    problems = []

    file_doc = re.search(r"/\*\*.*?\*/", text, re.DOTALL)
    if not (file_doc and "@file" in file_doc.group(0)
            and file_doc.start() < text.find("#ifndef")
            if "#ifndef" in text else file_doc):
        problems.append("missing file-level `/** @file ... */` comment")

    lowered = text.lower()
    if not any(marker in lowered for marker in THREADING_MARKERS):
        problems.append(
            "no threading contract: the file or class comments must "
            "state thread-safety (e.g. 'Thread-safe', 'not thread-safe',"
            " 'single-threaded')")

    for match in CLASS_RE.finditer(text):
        if not doc_comment_above(text, match.start()):
            problems.append(
                f"type '{match.group(1)}' has no doc comment above its "
                "definition")
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    failures = 0
    headers = []
    for directory in CHECKED_DIRS:
        headers.extend(sorted((root / directory).glob("*.h")))
    if not headers:
        print("check_header_docs: no headers found (wrong directory?)",
              file=sys.stderr)
        return 1
    for header in headers:
        problems = check_header(header)
        if problems:
            failures += 1
            rel = header.relative_to(root)
            for problem in problems:
                print(f"{rel}: {problem}", file=sys.stderr)
    if failures:
        print(f"check_header_docs: {failures} header(s) failed "
              f"(of {len(headers)} checked)", file=sys.stderr)
        return 1
    print(f"check_header_docs: {len(headers)} header(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
