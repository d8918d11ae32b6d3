"""Every module-level import in ``src/repro`` is used.

No linter ships with the project, so this test is the check: it parses
each non-package module and fails on an import binding that the module
never references, neither as a name nor inside a string annotation, and
that it does not re-export through ``__all__``.  Package ``__init__``
modules are skipped: importing names to re-export them is their job.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def module_imports(tree: ast.Module) -> "Iterator[Tuple[str, int]]":
    """(bound name, line) of each import at module level, including those
    under a top-level ``if`` (``TYPE_CHECKING``) or ``try``."""
    pending: "List[ast.stmt]" = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body + node.orelse)
            pending.extend(getattr(node, "finalbody", []))
            for handler in getattr(node, "handlers", []):
                pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def annotation_names(annotation: "ast.expr") -> "Set[str]":
    """Names an annotation mentions, parsing any string parts."""
    names: "Set[str]" = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= annotation_names(parsed.body)
    return names


def referenced_names(tree: ast.Module) -> "Set[str]":
    names: "Set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations: "List[ast.expr]" = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            names |= annotation_names(annotation)
    return names


def exported_names(tree: ast.Module) -> "Set[str]":
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts  # type: ignore[attr-defined]
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> "List[Tuple[str, int]]":
    tree = ast.parse(source)
    used = referenced_names(tree) | exported_names(tree)
    return [(name, line) for name, line in module_imports(tree)
            if name not in used]


def test_checker_sees_names_string_annotations_and_all():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "from x import exported, unused\n"
        "__all__ = ['exported']\n"
        "def f(a: 'Optional[int]') -> 'Dict[str, int]':\n"
        "    return {}\n"
    )
    assert unused_imports(source) == [("List", 1), ("os", 2), ("unused", 3)]


def test_no_module_in_src_has_an_unused_import():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, line in unused_imports(path.read_text()):
            unused.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert unused == []
