"""The Killing Gram system is solved in one place: body.solve_gram.

Every np.linalg call in src/curvswim other than norm sits inside
solve_gram, so the formula route and the oracle route share one solve and
one refusal rule.  Importing linalg under another name would hide a call
from this check, so no module of the package imports it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "curvswim"
ALLOWED = {"norm"}


def _linalg_attr(func: ast.AST):
    """X for a call target np.linalg.X or numpy.linalg.X, else None."""
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg":
        owner = func.value.value
        if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
            return func.attr
    return None


def _outside_solve_gram(source: str):
    """(line, what) of every linalg call outside solve_gram, and of every linalg import."""
    tree = ast.parse(source)
    inside = {
        id(n)
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef) and f.name == "solve_gram"
        for n in ast.walk(f)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            attr = _linalg_attr(node.func)
            if attr is not None and attr not in ALLOWED:
                found.append((node.lineno, f"linalg.{attr}"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if "linalg" in a.name]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
            if any("linalg" in n for n in names):
                found.append((node.lineno, f"from {node.module} import ..."))
    return found


def test_only_solve_gram_calls_linalg():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        hits = _outside_solve_gram(path.read_text(encoding="utf-8"))
        if hits:
            found[path.name] = hits
    assert found == {}, f"linalg calls outside body.solve_gram: {found}"


def test_solve_gram_is_defined_once_in_body():
    homes = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for f in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(f, ast.FunctionDef) and f.name == "solve_gram"
    ]
    assert homes == ["body.py"]


def test_the_check_sees_solves_and_imports():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import lu_solve\n"
        "def solve_gram(g, r):\n"
        "    return np.linalg.solve(g, r)\n"
        "def other(g, r):\n"
        "    return np.linalg.eigvalsh(g), np.linalg.norm(r)\n"
    )
    assert _outside_solve_gram(source) == [(2, "from scipy.linalg import ..."), (6, "linalg.eigvalsh")]
