"""Statement reach: which statements in ``src/repro`` function bodies run.

Usage (from the repository root, with ``PYTHONPATH=src``):

    python tools/reach.py run OUT.json -- (-m MODULE | SCRIPT) [ARGS...]
    python tools/reach.py report OUT.json... [--max-unreached PCT]

``run`` executes one command in this interpreter, as ``python -m MODULE``
or ``python SCRIPT`` would, with a line tracer installed on every thread
(``sys.settrace``/``threading.settrace``).  It adds every executed line of
``src/repro`` to ``OUT.json`` (created or merged, so several runs
accumulate) and exits with the command's own exit status, so a traced
drill still gates.  Child processes are not traced.

``report`` counts the statements in function bodies, leaving out
docstrings and other bare constants and the ``global``/``nonlocal``
declarations, which compile to no code.  A statement is reached when any
line of its header (the whole statement, for a simple one) ran in any of
the given runs.  It prints the unreached count per module and exits 1 when
the unreached share exceeds ``--max-unreached`` percent.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import runpy
import sys
import threading
import traceback
from typing import Dict, Iterator, List, Optional, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
USAGE = __doc__.split("\n\n")[2]


def _line_tracer():
    """A global trace function and the per-file line sets it fills."""
    hits: "Dict[str, Set[int]]" = {}
    local_for = {}  # co_filename -> its local tracer, None outside PACKAGE
    prefix = PACKAGE + os.sep

    def local_tracer(lines: "Set[int]"):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_for[filename]
        except KeyError:
            path = os.path.abspath(filename)
            local = None
            if path.startswith(prefix):
                rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
                local = local_tracer(hits.setdefault(rel, set()))
            local_for[filename] = local
            return local

    return trace, hits


def _run_target(target: "List[str]") -> int:
    """Run ``-m MODULE ARGS`` or ``SCRIPT ARGS`` as ``__main__``."""
    try:
        if target[0] == "-m":
            sys.argv = [target[1], *target[2:]]
            sys.path[0] = os.getcwd()
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(target)
            sys.path[0] = os.path.dirname(os.path.abspath(target[0]))
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as done:
        code = done.code
        if code is None or isinstance(code, int):
            return code or 0
        print(code, file=sys.stderr)
        return 1
    except Exception:  # the command's own crash: report it, keep the hits
        traceback.print_exc()
        return 1
    return 0


def run(out: str, target: "List[str]") -> int:
    trace, hits = _line_tracer()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = _run_target(target)
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    merged = _load([out]) if os.path.exists(out) else {}
    for path, lines in hits.items():
        merged.setdefault(path, set()).update(lines)
    with open(out, "w") as handle:
        json.dump({path: sorted(lines) for path, lines in merged.items()},
                  handle, sort_keys=True)
    return status


def _load(paths: "List[str]") -> "Dict[str, Set[int]]":
    merged: "Dict[str, Set[int]]" = {}
    for path in paths:
        with open(path) as handle:
            for name, lines in json.load(handle).items():
                merged.setdefault(name, set()).update(lines)
    return merged


def _header(stmt: ast.stmt) -> "range":
    """The lines whose execution means ``stmt`` ran."""
    first = min([stmt.lineno] + [d.lineno for d in
                                 getattr(stmt, "decorator_list", ())])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(stmt.lineno, body[0].lineno - 1) + 1)
    return range(first, (stmt.end_lineno or stmt.lineno) + 1)


def _statements(body: "List[ast.stmt]") -> "Iterator[ast.stmt]":
    """Statements of one function body, nested defs' own bodies excluded."""
    for stmt in body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstrings and ``...`` compile to nothing
        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for name in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, name, None) or [])
        for handler in getattr(stmt, "handlers", ()):
            yield from _statements(handler.body)
        for case in getattr(stmt, "cases", ()):
            yield from _statements(case.body)


def function_statements(source: str) -> "List[range]":
    """Header line ranges of every statement in every function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(_header(stmt) for stmt in _statements(node.body))
    return found


def report(paths: "List[str]", max_unreached: "Optional[float]") -> int:
    hits = _load(paths)
    total = unreached = 0
    rows = []
    for folder, __, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
            ran = hits.get(rel, set())
            with open(path) as handle:
                headers = function_statements(handle.read())
            missed = sum(1 for lines in headers if ran.isdisjoint(lines))
            total += len(headers)
            unreached += missed
            if missed:
                rows.append((missed, len(headers), rel))
    for missed, count, rel in sorted(rows, key=lambda r: (-r[0], r[2])):
        print(f"{missed:5d} / {count:5d}  {rel}")
    share = 100.0 * unreached / total if total else 0.0
    print(f"unreached: {unreached} of {total} statements ({share:.1f} %)")
    if max_unreached is not None and share > max_unreached:
        print(f"above the {max_unreached:g} % bound", file=sys.stderr)
        return 1
    return 0


def _percent(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 100:  # also refuses NaN
        raise argparse.ArgumentTypeError(f"not a percentage: {text}")
    return value


def main(argv: "Optional[List[str]]" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["run"] and argv[2:3] == ["--"] and argv[3:] not in ([], ["-m"]):
        return run(argv[1], argv[3:])
    if argv[:1] != ["report"]:
        print("usage:\n" + USAGE, file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="reach.py report")
    parser.add_argument("files", nargs="+", help="run outputs to combine")
    parser.add_argument("--max-unreached", type=_percent, metavar="PCT",
                        help="exit 1 above this share of statements")
    args = parser.parse_args(argv[1:])
    return report(args.files, args.max_unreached)


if __name__ == "__main__":
    sys.exit(main())
