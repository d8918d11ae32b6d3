"""No module in ``src/repro`` edits ``sys.path``.

The package must run from an installed copy of ``src/repro`` alone, so a
module may not reach for files beside it in a checkout (the benches under
``benchmarks/``, the tests) by putting their directory on the import path.
The check parses each module and fails on a call that mutates
``sys.path`` or an assignment to it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _is_sys_path(node: "ast.expr") -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "path"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def sys_path_edits(source: str) -> "List[int]":
    """Lines that mutate ``sys.path``: a method call on it, or an
    (augmented) assignment to it or to one of its items."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and _is_sys_path(func.value):
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if _is_sys_path(target):
                    lines.append(node.lineno)
    return sorted(lines)


def test_checker_sees_calls_and_assignments():
    source = (
        "import sys\n"
        "sys.path.insert(0, 'x')\n"
        "sys.path = ['y']\n"
        "sys.path[0:0] = ['z']\n"
        "sys.path += ['w']\n"
        "print(sys.path)\n"
        "path = list(sys.path)\n"
    )
    assert sys_path_edits(source) == [2, 3, 4, 5]


def test_no_module_in_src_edits_sys_path():
    edits = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in sys_path_edits(path.read_text())
    ]
    assert edits == []
