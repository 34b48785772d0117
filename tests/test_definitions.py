"""Every top-level function and class of curvswim, and every public method
and property of its classes, has a use outside the tests.

A top-level definition passes when it is referenced by name in src/ or
perfbench/ outside its own definition (a string holding exactly
the name counts, as getattr and the benchmark's tracer look names up that
way), registered with the checks.invariant decorator, or a [project.scripts]
entry.  An export (exported by curvswim or listed in its module's __all__)
passes too when README.md names it: the README is its caller.  Membership of
__all__ alone is no use, and __all__ lists and imports reference nothing.  A
public method or property passes when it is referenced by name there outside
its own class.  Tests do not count as callers.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import curvswim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curvswim"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench")
README = ROOT / "README.md"


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


def _is_all(stmt: ast.AST) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _listed(source: str) -> set:
    """The names of the source's __all__ list."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign) and _is_all(stmt):
            return set(ast.literal_eval(stmt.value))
    return set()


def _own_uses(stmt: ast.AST) -> set:
    """Names a top-level statement uses, the name it defines aside; an __all__ list uses none."""
    if _is_all(stmt):
        return set()
    names = _names_used(stmt)
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names.discard(stmt.name)
    return names


def _uses(sources) -> Counter:
    """For each name, how many top-level statements of the sources use it."""
    return Counter(name for text in sources for stmt in ast.parse(text).body for name in _own_uses(stmt))


def _caller_sources() -> list:
    return [path.read_text(encoding="utf-8") for d in CALLER_DIRS for path in sorted(d.rglob("*.py"))]


def _dead_members(source: str, uses: Counter) -> list:
    """Class.member for each public method or property of the source's classes
    that no top-level statement other than its own class uses."""
    dead = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            own = _own_uses(stmt)
            dead += [
                f"{stmt.name}.{m.name}"
                for m in stmt.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not m.name.startswith("_")
                and uses[m.name] == (m.name in own)
            ]
    return dead


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


def _named_in(text: str, name: str) -> bool:
    return re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", text) is not None


def _dead_definitions(sources: dict, uses: Counter, exported: set, readme: str, entries=frozenset()) -> list:
    """module.name for each top-level function or class of the sources (module
    name to text) that has no use: no caller among uses, no invariant
    registration or script entry, and no README mention of an export."""
    dead = []
    for module, source in sources.items():
        listed = _listed(source)
        for stmt in ast.parse(source).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name in uses or name in entries or _is_registered_invariant(stmt):
                continue
            if (name in exported or name in listed) and _named_in(readme, name):
                continue
            dead.append(f"{module}.{name}")
    return dead


def test_every_top_level_definition_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    dead = _dead_definitions(sources, _uses(_caller_sources()), set(vars(curvswim)),
                             README.read_text(encoding="utf-8"), _script_entries())
    assert dead == [], f"definitions with no caller outside the tests: {dead}"


def test_the_check_sees_an_exported_but_unused_function():
    source = (
        '__all__ = ["documented", "orphan"]\n'
        "def documented():\n"
        "    return 1\n"
        "def orphan():\n"
        "    return orphan()\n"
        "def exported_only():\n"
        "    return 2\n"
        "def helper():\n"
        "    return 3\n"
        "class Caller:\n"
        "    def run(self):\n"
        "        return helper()\n"
    )
    readme = "Call `documented()` or `Caller().run()`; `planted.orphan` is not a mention."
    dead = _dead_definitions({"planted": source}, _uses([source]), {"exported_only", "Caller"}, readme)
    assert dead == ["planted.orphan", "planted.exported_only"]


def test_every_public_method_has_a_caller_outside_its_class():
    uses = _uses(_caller_sources())
    dead = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in _dead_members(path.read_text(encoding="utf-8"), uses)]
    assert dead == [], f"methods and properties with no caller outside their class and the tests: {dead}"


def test_the_check_sees_a_dead_method():
    source = (
        "class Square:\n"
        "    def area(self):\n"
        "        return self.side() ** 2\n"
        "    def side(self):\n"
        "        return 1.0\n"
        "    @property\n"
        "    def perimeter(self):\n"
        "        return 4.0\n"
        "    def _hidden(self):\n"
        "        return 0.0\n"
        "def report(s):\n"
        "    return s.area()\n"
    )
    assert _dead_members(source, _uses([source])) == ["Square.side", "Square.perimeter"]
