#!/usr/bin/env python3
"""Repo-specific lint rules clang-tidy cannot express.

Rules (see docs/static-analysis.md for rationale and waiver workflow):

  container        No std::unordered_map / std::unordered_set / std::map /
                   std::set (types or includes) in the hot-path layers
                   src/aig, src/cut, src/opt.  The packed-AIG design exists
                   to avoid node-based containers on traversal paths; use
                   aig::EpochMarks / EpochMap, flat vectors, or the
                   open-addressing StrashMap instead.
  raw-fanin        No legacy literal-encoding fanin accessors (.fanin0( /
                   .fanin1() outside src/aig and src/io.  Traversal code
                   must go through the NodeRef accessors (fanin0_ref /
                   fanin1_ref / fanin_refs); the serializers in src/io
                   deliberately emit the AIGER literal encoding.
  mutex-in-foreach No mutex acquisition inside ThreadPool::for_each bodies
                   in src/opt: parallel checks must stay lock-free
                   (read-only against a shared graph) — a lock in such a
                   body is either a data-race bandage or a scalability bug.

Waivers: a finding is suppressed when the matching line, or the line
directly above it, contains `bg-lint: allow(<rule>)`.  Keep a short
justification after the marker, e.g.
    // bg-lint: allow(container): window-sized value-returned map

Exit status: 0 when clean, 1 when findings remain, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

CONTAINER_DIRS = ("src/aig", "src/cut", "src/opt")
RAW_FANIN_EXEMPT = ("src/aig", "src/io")
MUTEX_DIRS = ("src/opt",)

CONTAINER_RE = re.compile(
    r"\bstd::(unordered_map|unordered_set|map|set)\s*<"
    r"|^\s*#\s*include\s*<(unordered_map|unordered_set|map|set)>"
)
RAW_FANIN_RE = re.compile(r"(\.|->)fanin[01]\(")
MUTEX_RE = re.compile(
    r"\bstd::mutex\b|\block_guard\b|\bunique_lock\b|\bscoped_lock\b"
    r"|\.lock\(\)"
)
FOR_EACH_RE = re.compile(r"(\.|->)for_each\(")
WAIVER_RE = re.compile(r"bg-lint:\s*allow\((?P<rule>[\w-]+)\)")


def strip_comment(line: str) -> str:
    """Code part of a line (everything before a // comment).

    Good enough for lint purposes; block comments spanning lines are rare
    in this codebase and never contain banned constructs mid-block.
    """
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def waived(lines: list[str], idx: int, rule: str) -> bool:
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = WAIVER_RE.search(lines[probe])
        if m and m.group("rule") == rule:
            return True
    return False


def in_dirs(rel: str, dirs: tuple[str, ...]) -> bool:
    return any(rel.startswith(d + "/") for d in dirs)


def for_each_body_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) line-index spans of for_each(...) statement bodies.

    Brace-counts from the first '{' after each for_each( occurrence to its
    matching '}' — which covers the lambda body (and nothing after the
    statement).
    """
    spans = []
    for m in FOR_EACH_RE.finditer(text):
        open_idx = text.find("{", m.end())
        if open_idx < 0:
            continue
        depth = 0
        end_idx = open_idx
        for i in range(open_idx, len(text)):
            c = text[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    end_idx = i
                    break
        start_line = text.count("\n", 0, open_idx)
        end_line = text.count("\n", 0, end_idx)
        spans.append((start_line, end_line))
    return spans


def lint_file(path: pathlib.Path, findings: list[str]) -> None:
    rel = path.relative_to(REPO).as_posix()
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    if in_dirs(rel, CONTAINER_DIRS):
        for i, line in enumerate(lines):
            if CONTAINER_RE.search(strip_comment(line)) and not waived(
                lines, i, "container"
            ):
                findings.append(
                    f"{rel}:{i + 1}: node-based std container in a hot-path "
                    f"layer (use EpochMarks/EpochMap or flat vectors) "
                    f"[container]"
                )

    if rel.startswith("src/") and not in_dirs(rel, RAW_FANIN_EXEMPT):
        for i, line in enumerate(lines):
            if RAW_FANIN_RE.search(strip_comment(line)) and not waived(
                lines, i, "raw-fanin"
            ):
                findings.append(
                    f"{rel}:{i + 1}: legacy literal fanin accessor outside "
                    f"src/aig|src/io (use fanin0_ref/fanin1_ref/fanin_refs) "
                    f"[raw-fanin]"
                )

    if in_dirs(rel, MUTEX_DIRS):
        spans = for_each_body_spans(text)
        for start, end in spans:
            for i in range(start, min(end + 1, len(lines))):
                if MUTEX_RE.search(strip_comment(lines[i])) and not waived(
                    lines, i, "mutex-in-foreach"
                ):
                    findings.append(
                        f"{rel}:{i + 1}: mutex acquisition inside a "
                        f"ThreadPool::for_each body (parallel checks must "
                        f"stay lock-free) [mutex-in-foreach]"
                    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths",
        nargs="*",
        help="files to lint (default: every tracked .hpp/.cpp under src/)",
    )
    args = parser.parse_args()

    if args.paths:
        files = [pathlib.Path(p).resolve() for p in args.paths]
        for f in files:
            if not f.is_file():
                print(f"bg_lint: no such file: {f}", file=sys.stderr)
                return 2
    else:
        files = sorted(
            p
            for p in (REPO / "src").rglob("*")
            if p.suffix in (".hpp", ".cpp")
        )

    findings: list[str] = []
    for f in files:
        lint_file(f, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"bg_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"bg_lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
