"""Every top-level function and class of curvswim has a use outside the tests.

A definition passes when it is exported by curvswim or listed in its module's
__all__, registered with the checks.invariant decorator, a [project.scripts]
entry, or referenced by name in src/, scripts/ or perfbench/ outside its own
definition (a string holding exactly the name counts, as getattr and the
benchmark's tracer look names up that way).  Tests do not count as callers.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import curvswim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvswim"
CALLER_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def _names_used(node: ast.AST) -> set:
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            used.add(n.value)
    return used


def _referenced() -> set:
    """Names used anywhere in the caller directories, each definition's own body aside."""
    used = set()
    for d in CALLER_DIRS:
        for path in sorted(d.rglob("*.py")):
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
                names = _names_used(stmt)
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.discard(stmt.name)
                used |= names
    return used


def _script_entries() -> set:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r":(\w+)\"", section))


def _is_registered_invariant(stmt: ast.AST) -> bool:
    for dec in getattr(stmt, "decorator_list", ()):
        func = dec.func if isinstance(dec, ast.Call) else dec
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "invariant":
            return True
    return False


def test_every_top_level_definition_has_a_caller():
    used = _referenced()
    entries = _script_entries()
    exported = set(vars(curvswim))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"curvswim.{path.stem}") if path.stem != "__init__" else curvswim
        listed = set(getattr(module, "__all__", ()))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name in exported or name in listed or name in entries or name in used:
                continue
            if not _is_registered_invariant(stmt):
                dead.append(f"{path.stem}.{name}")
    assert dead == [], f"definitions with no caller outside the tests: {dead}"
