"""The Killing Gram system is solved in one place: body.solve_gram.

Every np.linalg call in src/curvswim other than norm sits inside
solve_gram, so the formula route and the oracle route share one solve and
one refusal rule.  Importing linalg under another name would hide a call
from this check, so no module of the package imports it.  Both routes also
solve one system: the same Gram matrix against the same momentum pairing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from curvswim.body import linear_momentum_map, solve_gram
from curvswim.checks import random_balanced_body
from curvswim.deformation import gauge_coefficients
from curvswim.fields import linear_field
from curvswim.geometry import Surface

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


@pytest.mark.parametrize("R", [1.0, -1.0, 0.25, -0.25, 0.0])
def test_both_routes_solve_one_gram_system(R):
    # The formula's gauge coefficients c, G c = <xi|f>, and the oracle's connection
    # at the rest shape, G tau = -<xi|B x>, solve one system for f = B x: c = -tau
    # to round-off (these 1,000 cases read at most 3.7e-14), and both read the one
    # Gram matrix that _position_rows forms.
    rng = np.random.default_rng(30)
    s = Surface(R)
    for _ in range(200):
        body = random_balanced_body(rng, int(rng.integers(3, 31)))
        B = rng.normal(size=(2, 2))
        x = body.positions
        gram, mom, _ = linear_momentum_map(body, s, x, B[None])
        tau, _ = solve_gram(gram, -mom[0])
        c = gauge_coefficients(body, s, linear_field(B).coefficients[None])[0]
        assert np.array_equal(gram, body.frame(s).gram)
        assert np.max(np.abs(c + tau)) <= 1e-12 * np.max(np.abs(tau))
