"""An independent oracle for the metric tables: sympy.

For each metric spec (the metric corpus files, and h3 and diag3 of
``test_golden.py``) the Christoffel symbols, the coordinate curvature and
its covariant derivative are built here from the spec's JSON with sympy's
own parser and differentiation, by the textbook formulas, and compared
with cartankit's ``christoffel``, ``curvature_tm`` and
``tensor_cov_deriv``.  A kernel fault that the section-level test
references share with the tables (a ``diff`` rule, a sign in a formula)
shows here.

Both sides are evaluated exactly at a few points: rational coordinates,
and for a coordinate that the metric holds only inside sin and cos,
angles whose sine and cosine are rational.  cartankit's entries reach
sympy through their printed text.  The module needs sympy (CI pins
1.14.0) and is skipped when it is not installed.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

sympy = pytest.importorskip(
    "sympy", reason="sympy, the oracle of the metric tables, is not installed"
)
from sympy.parsing.sympy_parser import (  # noqa: E402
    convert_xor,
    parse_expr,
    standard_transformations,
)

from cartankit.cli import GeometrySpec, Workspace  # noqa: E402
from cartankit.connections import (  # noqa: E402
    christoffel,
    curvature_tm,
    tensor_cov_deriv,
)
from cartankit.symcore import ZeroPolicy, to_text  # noqa: E402
from test_golden import METRIC_SPECS  # noqa: E402

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

SPECS = {
    path.name: json.loads(path.read_text())
    for path in sorted(CORPUS.glob("*.json"))
    if "metric" in json.loads(path.read_text())
}
SPECS.update(METRIC_SPECS["metric3d"])

# (sin, cos) pairs of three angles, and three rational positions in a box
_ANGLES = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
           (Fraction(8, 17), Fraction(15, 17)))
_FRACTIONS = (Fraction(1, 3), Fraction(3, 5), Fraction(5, 7))

_TRANSFORMATIONS = standard_transformations + (convert_xor,)


def _sympy(text, symbols):
    return parse_expr(text, local_dict=dict(symbols), transformations=_TRANSFORMATIONS)


def _oracle(doc):
    """Gamma[i][a][b], R[i][j][a][b] and DR[i][j][a][b][z] of the spec's
    metric, in sympy, with the conventions of ``cartankit.connections``:
    the derivative of e_a along d/dx^i is Gamma[i][a][b] e_b, and
    R(d_i, d_j) e_a = R[i][j][a][b] e_b."""
    xs = [sympy.Symbol(name) for name in doc["chart"]["coords"]]
    symbols = {x.name: x for x in xs}
    n = len(xs)
    g = sympy.Matrix(n, n, lambda i, j: _sympy(doc["metric"][i][j], symbols))
    ginv = g.inv()
    gamma = [
        [
            [
                sympy.Rational(1, 2) * sum(
                    ginv[b, l]
                    * (g[a, l].diff(xs[i]) + g[i, l].diff(xs[a]) - g[i, a].diff(xs[l]))
                    for l in range(n)
                )
                for b in range(n)
            ]
            for a in range(n)
        ]
        for i in range(n)
    ]
    # nabla_i nabla_j e_a - nabla_j nabla_i e_a, with G_i[a, b] = Gamma[i][a][b]
    G = [sympy.Matrix(gamma[i]) for i in range(n)]
    R = [
        [G[j].diff(xs[i]) - G[i].diff(xs[j]) + G[j] * G[i] - G[i] * G[j] for j in range(n)]
        for i in range(n)
    ]

    def nabla_R(i, j, a, b, z):
        # three lower slots lose Gamma, the upper one gains it
        return (
            R[i][j][a, b].diff(xs[z])
            - sum(G[z][i, m] * R[m][j][a, b] for m in range(n))
            - sum(G[z][j, m] * R[i][m][a, b] for m in range(n))
            - sum(G[z][a, m] * R[i][j][m, b] for m in range(n))
            + sum(G[z][m, b] * R[i][j][a, m] for m in range(n))
        )

    return xs, gamma, R, nabla_R


def _points(doc, xs, g_entries):
    """Three substitutions, each a dict that makes an entry a rational:
    sin and cos of a coordinate the metric holds only inside them, the
    coordinate itself otherwise, inside the box."""
    out = [{} for _ in range(3)]
    for k, x in enumerate(xs):
        trig = {sympy.sin(x): sympy.Symbol("s"), sympy.cos(x): sympy.Symbol("c")}
        angle = not any(e.xreplace(trig).has(x) for e in g_entries)
        lo, hi = (Fraction(v) for v in doc["chart"]["box"][k])
        for p, point in enumerate(out):
            if angle:
                s, c = _ANGLES[(p + k) % 3]
                point[sympy.sin(x)] = sympy.Rational(s.numerator, s.denominator)
                point[sympy.cos(x)] = sympy.Rational(c.numerator, c.denominator)
            else:
                v = lo + (hi - lo) * _FRACTIONS[(p + k) % 3]
                point[x] = sympy.Rational(v.numerator, v.denominator)
    return out


def _exact(e, point):
    trig = {k: v for k, v in point.items() if not k.is_Symbol}
    value = e.xreplace(trig).xreplace(point)
    assert value.is_Rational, value
    return value


@pytest.mark.parametrize("name", sorted(SPECS))
def test_metric_tables_match_the_sympy_oracle(name):
    doc = SPECS[name]
    ws = Workspace(GeometrySpec(doc), ZeroPolicy())
    conn = christoffel(ws.metric_tensor())
    R = curvature_tm(conn)
    DR = tensor_cov_deriv(conn, R)
    xs, gamma, R_oracle, nabla_R = _oracle(doc)
    symbols = {x.name: x for x in xs}
    g_entries = [_sympy(v, symbols) for row in doc["metric"] for v in row]
    points = _points(doc, xs, g_entries)
    n = len(xs)

    def agree(label, ours, theirs):
        ours = _sympy(to_text(ours), symbols)
        for point in points:
            assert _exact(ours, point) == _exact(theirs, point), (name, label, point)

    for i, a, b in ((i, a, b) for i in range(n) for a in range(n) for b in range(n)):
        agree(f"gamma[{i},{a},{b}]", conn.gamma[i, a, b], gamma[i][a][b])
        for j in range(n):
            agree(f"R[{i},{j},{a},{b}]", R[i, j, a, b], R_oracle[i][j][a, b])
            for z in range(n):
                agree(f"DR[{i},{j},{a},{b},{z}]", DR[i, j, a, b, z], nabla_R(i, j, a, b, z))
