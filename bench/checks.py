"""Checks of request outputs against known answers and properties.

Nothing here compares with a stored copy of a report.  Statuses follow
from the mathematics of the corpus; curvature comes from sympy, computed
from each file's own tables; structural identities must pass on every
file.  ``judge`` returns (failure, problems): a failure is a request that
did not do its job (crash, wrong status); problems are wrong outputs of a
request that did its job, and make the run incorrect.
"""

from __future__ import annotations

import json
import math

import numpy as np
import sympy as sp

from workloads import chart_box

# children of every identities report that the battery runs unconditionally
STRUCTURAL = ("anchor_equivariance", "dual_round_trip", "dual_curvature_exchange",
              "route_agreement")
HOLONOMY_REL_ERR_PER_SIDE = 5.0  # |log H + side^2 R| <= 5 * side * |side^2 R|
FLAT_ABS_TOL = 1e-9


class Geometry:
    """sympy view of one corpus file: box, tangent connection, curvature."""

    def __init__(self, name: str):
        with open(f"corpus/{name}.json") as f:
            doc = json.load(f)
        chart = doc["chart"]
        self.coords = sp.symbols(chart["coords"], real=True)
        self.box = chart_box(name)
        self.doc = doc
        self._gamma = None
        self._riemann = {}
        self._grad_k = None

    def _expr(self, text):
        names = {c.name: c for c in self.coords}
        names.update(sin=sp.sin, cos=sp.cos, tan=sp.tan, exp=sp.exp, log=sp.log,
                     sqrt=sp.sqrt)
        return sp.sympify(str(text).replace("^", "**"), locals=names)

    def _matrix(self, table):
        return sp.Matrix([[self._expr(v) for v in row] for row in table])

    def gamma(self):
        """gamma[i][j][k]: d_k-coefficient of nabla_{d_i} d_j."""
        if self._gamma is None:
            x, n = self.coords, len(self.coords)
            if "metric" in self.doc:  # Levi-Civita
                g = self._matrix(self.doc["metric"])
                ginv = g.inv()
                self._gamma = [[[sum(ginv[k, l] * (sp.diff(g[j, l], x[i])
                                                   + sp.diff(g[i, l], x[j])
                                                   - sp.diff(g[i, j], x[l]))
                                     for l in range(n)) / 2
                                 for k in range(n)] for j in range(n)] for i in range(n)]
            else:  # the connection whose parallel frame is dual to the coframe
                omega = self._matrix(self.doc["parallelism"]["omega"])
                inv = omega.inv()
                self._gamma = [[[sum(inv[k, a] * sp.diff(omega[a, j], x[i]) for a in range(n))
                                 for k in range(n)] for j in range(n)] for i in range(n)]
        return self._gamma

    def curvature_matrix(self, i: int, j: int):
        """Numeric function p -> matrix of R(d_i, d_j), entry [b][a] the
        d_b-coefficient of R(d_i, d_j) d_a, R(X, Y) = [nabla_X, nabla_Y]."""
        if (i, j) not in self._riemann:
            G, x, n = self.gamma(), self.coords, len(self.coords)
            R = sp.Matrix(n, n, lambda b, a: (
                sp.diff(G[j][a][b], x[i]) - sp.diff(G[i][a][b], x[j])
                + sum(G[i][c][b] * G[j][a][c] - G[j][c][b] * G[i][a][c] for c in range(n))))
            self._riemann[(i, j)] = sp.lambdify(x, R.tolist(), modules="math")
        f = self._riemann[(i, j)]
        return lambda p: np.array(f(*p), dtype=float)

    def gaussian_curvature_gradient(self, point):
        """Gradient of the Gaussian curvature of a 2-d metric at a point."""
        if self._grad_k is None:
            x = self.coords
            g = self._matrix(self.doc["metric"])
            G = self.gamma()
            # <R(d_0, d_1) d_1, d_0> / det g
            r_1 = [sp.diff(G[1][1][b], x[0]) - sp.diff(G[0][1][b], x[1])
                   + sum(G[0][c][b] * G[1][1][c] - G[1][c][b] * G[0][1][c] for c in range(2))
                   for b in range(2)]
            K = sum(g[0, b] * r_1[b] for b in range(2)) / g.det()
            self._grad_k = sp.lambdify(x, [sp.diff(K, c) for c in x], modules="math")
        return np.array(self._grad_k(*point), dtype=float)

    def contains(self, point) -> bool:
        return len(point) == len(self.box) and all(
            lo <= float(v) <= hi for v, (lo, hi) in zip(point, self.box))


def _failing_witnesses(check: dict):
    if check.get("status") not in ("pass", "locally_symmetric") and "witness" in check:
        yield check["witness"]
    for child in check.get("children", ()):
        yield from _failing_witnesses(child)


def _check_identities(report, problems):
    (battery,) = report["checks"]
    children = {c["name"]: c for c in battery.get("children", ())}
    for name in STRUCTURAL:
        status = children.get(name, {}).get("status")
        if status != "pass":
            problems.append(f"structural identity {name} is {status}")


def _check_ellipsoid_witness(report, geo, problems):
    (verdict,) = report["checks"]
    grad = geo.gaussian_curvature_gradient(verdict["witness"])
    if not np.linalg.norm(grad) > 1e-8:
        problems.append(f"Gaussian curvature is stationary at the witness {verdict['witness']}")


def _check_holonomy(req, report, geo, problems):
    (check,) = report["checks"]
    side = req.side
    term = np.array(check["curvature_term"], dtype=float)
    log_h = np.array(check["log_holonomy"], dtype=float)
    expected = side * side * geo.curvature_matrix(*req.plane)(req.point)
    scale = np.abs(expected).max()
    if np.abs(term - expected).max() > 1e-9 * max(scale, 1e-3 * side * side):
        problems.append(f"curvature_term {term.tolist()} != side^2 R {expected.tolist()}")
    defect = np.linalg.norm(log_h + term)
    allowed = HOLONOMY_REL_ERR_PER_SIDE * side * np.linalg.norm(term) + FLAT_ABS_TOL
    if not defect <= allowed:
        problems.append(f"log_holonomy misses -curvature_term by {defect:.3e} > {allowed:.3e}")
    if not math.isclose(check["value"], defect, rel_tol=1e-9, abs_tol=1e-15):
        problems.append(f"reported defect {check['value']} != |log H + side^2 R| {defect}")
    bound = max(report["tol"], side ** 3)
    if not math.isclose(check["third_order_bound"], bound, rel_tol=1e-12):
        problems.append(f"third_order_bound {check['third_order_bound']} != {bound}")


def judge(req, result, geo):
    """(failure reason or None, list of problems) for one request."""
    if result.get("error"):
        return "crashed: " + result["error"].strip().splitlines()[-1], []
    try:
        report = json.loads(result["stdout"])
    except ValueError:
        return "no JSON report on stdout", []
    status = report.get("status")
    failure = None
    if status != req.expect:
        failure = f"status {status}, the mathematics says {req.expect}"
        if not req.bound_holds:
            failure += " (false fail: defect above the third-order bound side^3)"
        # a false holonomy fail is still a verdict, whose numbers are checked
        if req.command != "holonomy" or status != "fail":
            return failure, []
    problems = []
    if result["exit_code"] != (0 if status == "pass" else 1):
        problems.append(f"exit code {result['exit_code']} with status {status}")
    for key, want in (("command", req.command), ("input", req.path), ("seed", req.seed)):
        if report.get(key) != want:
            problems.append(f"report {key} is {report.get(key)!r}, requested {want!r}")
    if problems:
        return failure, problems
    for check in report["checks"]:
        for witness in _failing_witnesses(check):
            if not geo.contains(witness):
                problems.append(f"witness {witness} outside the box")
    if req.command == "validate":
        for check in report["checks"]:
            if check["status"] != "pass":
                problems.append(f"validate check {check['name']} is {check['status']}")
    elif req.command == "identities":
        _check_identities(report, problems)
    elif req.command == "check" and req.name == "ellipsoid":
        _check_ellipsoid_witness(report, geo, problems)
    elif req.command == "holonomy":
        _check_holonomy(req, report, geo, problems)
    return failure, problems
