"""Lie algebroids over a chart, their axioms, and builder families.

An algebroid is stored as raw frame data: anchor components rho[i][a]
(the vector field attached to frame section e_a has components rho[:,a])
and structure functions structure[a][b][c] with [e_a, e_b] = c^c_{ab} e_c.
Antisymmetry, the anchor homomorphism and Jacobi are *checked*, not
assumed: ``validate`` decides them from the anchor and structure tables
and returns a :class:`~cartankit.bundles.Verdict` with one child per
axiom, so that deliberately broken inputs can be diagnosed instead of
rejected at construction.  Leibniz holds by construction, because
``bracket`` is the Leibniz extension of the frame brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .bundles import (
    Section,
    TensorField,
    Verdict,
    _aggregate,
    _along,
    _battery,
    _component_array,
    _directions,
    _require_zero,
    _skew_table,
)
from .symcore import (
    BoxWitness,
    Chart,
    Const,
    DegenerateError,
    ZeroPolicy,
    _quotient,
    cmul,
    cneg,
    csum,
    divisor_factors,
    diff,
    evaluate_batch,
    sym_det,
)

__all__ = [
    "LieAlgebra",
    "Algebroid",
    "OrbitScan",
    "bracket",
    "anchor_apply",
    "validate",
    "tangent_algebroid",
    "build_action_algebroid",
    "build_poisson_algebroid",
    "build_foliation_algebroid",
    "orbit_scan",
]


class LieAlgebra:
    """Finite-dimensional Lie algebra by structure constants.

    ``structure[a][b][c]`` is the rational coefficient of the c-th basis
    vector in [e_a, e_b].  Antisymmetry and the Jacobi identity are
    verified exactly at construction, on whole ``Fraction`` arrays: the
    first failing index in C order is rejected as a ``symbolic``
    :class:`DegenerateError`.
    """

    def __init__(self, dim: int, structure):
        if dim < 1:
            raise ValueError("dimension must be positive")
        f = np.array(structure, dtype=object)
        if f.shape != (dim,) * 3:
            raise ValueError(f"structure must have shape {(dim,) * 3}, got {f.shape}")
        f = np.frompyfunc(Fraction, 1, 1)(f)
        # ff[a,b,c,d] = sum_m c^m_ab c^d_mc, the d-th component of [[e_a,e_b],e_c]
        ff = np.tensordot(f, f, axes=1)
        jacobi = ff + ff.transpose(2, 0, 1, 3) + ff.transpose(1, 2, 0, 3)
        for what, defect in (
            ("structure constants not antisymmetric", f + f.transpose(1, 0, 2)),
            ("Jacobi identity fails", jacobi),
        ):
            bad = np.argwhere(defect != 0)
            if len(bad):
                at = ",".join(str(i) for i in bad[0])
                raise DegenerateError(f"{what} at ({at})", None, None, "symbolic")
        self.dim = dim
        self.structure = f

    def __repr__(self):
        return f"<lie-algebra dim={self.dim}>"


class Algebroid:
    """Chart-level Lie algebroid data.

    Construction checks only shapes; use :func:`validate` for the axioms.
    ``rho`` and ``structure`` are read-only.
    ``origin`` records which builder produced the object ("tangent",
    "action", "poisson", "foliation", or "direct") so that downstream
    verdicts can specialise their commentary.
    """

    def __init__(
        self,
        chart: Chart,
        rank: int,
        rho,
        structure,
        origin: str = "direct",
    ):
        if rank < 1:
            raise ValueError("rank must be positive")
        rho = np.array(rho, dtype=object)
        if rho.shape != (chart.dim, rank):
            raise ValueError(
                f"rho must have shape ({chart.dim}, {rank}), got {rho.shape}"
            )
        structure = np.array(structure, dtype=object)
        if structure.shape != (rank, rank, rank):
            raise ValueError(
                f"structure must have shape ({rank}, {rank}, {rank}), "
                f"got {structure.shape}"
            )
        self.chart = chart
        self.rank = rank
        self.rho = _component_array(chart, rho)
        self.structure = _component_array(chart, structure)
        self.origin = origin

    def frame_section(self, a: int) -> Section:
        comps = [Const(1) if b == a else Const(0) for b in range(self.rank)]
        return Section(self.chart, comps, "g")

    def zero_section(self) -> Section:
        return Section(self.chart, [Const(0)] * self.rank, "g")

    def __repr__(self):
        return (
            f"<algebroid rank={self.rank} dim={self.chart.dim} "
            f"origin={self.origin}>"
        )


def _check_section(g: Algebroid, X: Section, who: str):
    if X.chart != g.chart:
        raise ValueError(f"{who}: chart mismatch")
    if X.rank != g.rank:
        raise ValueError(
            f"{who}: section rank {X.rank} does not match algebroid rank {g.rank}"
        )
    if X.frame == "tm*" and g.origin != "poisson":
        raise ValueError(f"{who}: one-form section on a non-cotangent algebroid")


def bracket(g: Algebroid, X: Section, Y: Section) -> Section:
    """Algebroid bracket in components.

    [X,Y]^c = rho^i_a X^a d_i Y^c - rho^i_a Y^a d_i X^c + c^c_{ab} X^a Y^b,
    the unique Leibniz extension of the frame brackets.
    """
    _check_section(g, X, "bracket")
    _check_section(g, Y, "bracket")
    chart = g.chart
    xs, ys = X.components, Y.components
    out = []
    for c in range(g.rank):
        terms = []
        for a in range(g.rank):
            for i, name in enumerate(chart.coords):
                terms.append(cmul(cmul(g.rho[i, a], xs[a]), diff(ys[c], name)))
                terms.append(cneg(cmul(cmul(g.rho[i, a], ys[a]), diff(xs[c], name))))
            for b in range(g.rank):
                terms.append(cmul(cmul(g.structure[a, b, c], xs[a]), ys[b]))
        out.append(csum(terms))
    return Section(chart, out, X.frame if X.frame == Y.frame else "g")


def anchor_apply(g: Algebroid, X: Section) -> Section:
    """The vector field rho^i_a X^a attached to a section."""
    _check_section(g, X, "anchor_apply")
    out = [
        csum([cmul(g.rho[i, a], X.components[a]) for a in range(g.rank)])
        for i in range(g.chart.dim)
    ]
    return Section(g.chart, out, "tm")


def _jacobiator(g: Algebroid, a: int, b: int, c: int) -> list:
    """Components of [[e_a,e_b],e_c] + [[e_b,e_c],e_a] + [[e_c,e_a],e_b],
    from the tables: [[e_p,e_q],e_s]^d = c^e_{pq} c^d_{es} - rho^i_s d_i c^d_{pq}."""
    directions = _directions(g.chart.coords, g.rho)
    out = []
    for d in range(g.rank):
        terms = []
        for p, q, s in ((a, b, c), (b, c, a), (c, a, b)):
            for e in range(g.rank):
                terms.append(cmul(g.structure[p, q, e], g.structure[e, s, d]))
            terms += [cneg(t) for t in _along(directions[s], g.structure[p, q, d])]
        out.append(csum(terms))
    return out


def validate(g: Algebroid, policy: Optional[ZeroPolicy] = None) -> Verdict:
    """Per-axiom verdicts, aggregated: antisymmetry, anchor homomorphism,
    Jacobi, Leibniz.

    The first three are checked on frames, from ``rho`` and ``structure``;
    Leibniz holds by construction of :func:`bracket` and is reported
    ``symbolic``.  Failures come back as verdicts with witnesses rather
    than exceptions, so perturbed/broken inputs can be reported cleanly.
    """
    policy = policy or ZeroPolicy()
    chart = g.chart
    r, n = g.rank, chart.dim

    anti = []
    for a in range(r):
        for b in range(a, r):
            for c in range(r):
                anti.append(
                    (
                        f"c^{c}_({a},{b}) + c^{c}_({b},{a})",
                        csum((g.structure[a, b, c], g.structure[b, a, c])),
                    )
                )

    directions = _directions(chart.coords, g.rho)
    hom = []
    for a, b in combinations(range(r), 2):
        for j in range(n):
            terms = [cmul(g.rho[j, c], g.structure[a, b, c]) for c in range(r)]
            terms += [cneg(t) for t in _along(directions[a], g.rho[j, b])]
            terms += _along(directions[b], g.rho[j, a])
            hom.append((f"anchor-hom defect ({a},{b}) component {j}", csum(terms)))

    jac = [
        (f"jacobi ({a},{b},{c}) component {d}", component)
        for a, b, c in combinations(range(r), 3)
        for d, component in enumerate(_jacobiator(g, a, b, c))
    ]

    return _aggregate(
        "algebroid_axioms",
        [
            _battery("antisymmetry", anti, chart, policy),
            _battery("anchor_hom", hom, chart, policy),
            _battery("jacobi", jac, chart, policy),
            # bracket is the Leibniz extension of the frame brackets, so
            # [X, fY] = f[X, Y] + rho(X)(f) Y holds for any rho and c
            Verdict("leibniz", "pass"),
        ],
    )


# ------------------------------------------------------------------ builders


def tangent_algebroid(chart: Chart) -> Algebroid:
    """TM as an algebroid: identity anchor, vanishing structure functions."""
    n = chart.dim
    rho = [[Const(1) if i == a else Const(0) for a in range(n)] for i in range(n)]
    zero = [[[Const(0)] * n for _ in range(n)] for _ in range(n)]
    return Algebroid(chart, n, rho, zero, origin="tangent")


def build_action_algebroid(
    algebra: LieAlgebra,
    action_fields: Sequence[Section],
    policy: Optional[ZeroPolicy] = None,
) -> Algebroid:
    """Action algebroid of an infinitesimal Lie algebra action.

    ``action_fields[a]`` is the vector field through which basis vector
    e_a acts; the assignment must send algebra brackets to vector-field
    brackets, which is verified and rejected with a witness otherwise.
    A field with a pole inside the box raises :class:`DegenerateError`
    with the witness: the sampled bracket test skips the points where a
    field is undefined, so it cannot see the pole.
    """
    from .bundles import vf_bracket

    policy = policy or ZeroPolicy()
    if len(action_fields) != algebra.dim:
        raise ValueError(
            f"need {algebra.dim} action fields, got {len(action_fields)}"
        )
    chart = action_fields[0].chart
    for V in action_fields:
        if V.frame != "tm" or V.chart != chart:
            raise ValueError("action fields must be vector fields on one chart")
    for a, V in enumerate(action_fields):
        for factor in divisor_factors(V.components):
            bad = chart.vanishing_witness(factor, policy.samples, policy.seed)
            if bad is None:
                continue
            if bad.near_zero:
                message = (
                    f"action field {a} has a pole at {bad.point}: {factor} = {bad.value}"
                )
            else:
                message = f"divisor {factor} of action field {a} changes sign inside the box"
            raise DegenerateError(message, bad.point, bad.value)

    def bracket_defects():
        for a, b in combinations(range(algebra.dim), 2):
            lhs = vf_bracket(action_fields[a], action_fields[b])
            for j in range(chart.dim):
                # [V_a, V_b]^j - c^c_ab V_c^j
                rhs = csum(
                    cmul(Const(algebra.structure[a, b, c]), V.components[j])
                    for c, V in enumerate(action_fields)
                )
                yield (
                    f"not an infinitesimal action: bracket defect for pair "
                    f"({a},{b}) component {j}",
                    csum((lhs.components[j], cneg(rhs))),
                )

    _require_zero(bracket_defects(), chart, policy)
    n, r = chart.dim, algebra.dim
    rho = [[action_fields[a].components[i] for a in range(r)] for i in range(n)]
    structure = [
        [[Const(algebra.structure[a, b, c]) for c in range(r)] for b in range(r)]
        for a in range(r)
    ]
    return Algebroid(chart, r, rho, structure, origin="action")


def build_poisson_algebroid(
    pi: TensorField, policy: Optional[ZeroPolicy] = None
) -> Algebroid:
    """Cotangent algebroid of a Poisson bivector.

    Frame {dx^a}; anchor fixed by <alpha, #beta> = Pi(alpha, beta), so
    (#dx^a)^i = Pi^{ai}; structure functions c^k_{ab} = d_k Pi^{ab}.
    The Schouten (Jacobi) condition is verified first and violations are
    rejected with the failing triple and a witness point.
    """
    policy = policy or ZeroPolicy()
    chart = pi.chart
    n = chart.dim
    if pi.slots != (("upper", "tm"), ("upper", "tm")):
        raise ValueError("poisson tensor must be a (2,0) tangent tensor")
    _require_zero(
        (
            (
                f"poisson tensor not antisymmetric at ({i},{j})",
                csum((pi[i, j], pi[j, i])),
            )
            for i in range(n)
            for j in range(i, n)
        ),
        chart,
        policy,
    )

    # the cyclic Jacobi sum is alternating in (i,j,k), so strict triples
    # suffice; for n <= 2 every antisymmetric bivector is Poisson
    def jacobi_defects():
        for i, j, k in combinations(range(n), 3):
            total = csum(
                cmul(pi[p, l], diff(pi[q, s], name))
                for l, name in enumerate(chart.coords)
                for p, q, s in ((i, j, k), (j, k, i), (k, i, j))
            )
            yield f"Pi not Poisson: Jacobi defect for triple ({i},{j},{k})", total

    _require_zero(jacobi_defects(), chart, policy)
    rho = [[pi[a, i] for a in range(n)] for i in range(n)]
    structure = [
        [[diff(pi[a, b], chart.coords[k]) for k in range(n)] for b in range(n)]
        for a in range(n)
    ]
    return Algebroid(chart, n, rho, structure, origin="poisson")


def build_foliation_algebroid(
    frame: Sequence[Section], policy: Optional[ZeroPolicy] = None
) -> Algebroid:
    """Algebroid of an integrable regular distribution spanned by ``frame``.

    The frame must be independent on the sample box: the n x k table of
    its components has full rank k by :meth:`Chart.rank_witness`, else
    the build is rejected with the witness and the determinant there.
    Each pairwise bracket must lie in the frame's span: coefficients are
    found by a symbolic Cramer solve on the k rows whose minor is largest
    at the midpoint, and the remaining rows are verified as residuals.
    """
    from .bundles import vf_bracket

    policy = policy or ZeroPolicy()
    if not frame:
        raise ValueError("empty frame")
    chart = frame[0].chart
    k = len(frame)
    n = chart.dim
    if k > n:
        raise ValueError("more frame fields than chart dimensions")
    for V in frame:
        if V.frame != "tm" or V.chart != chart:
            raise ValueError("frame entries must be vector fields on one chart")

    cols = [[V.components[i] for V in frame] for i in range(n)]
    bad = chart.rank_witness(cols, policy.samples, policy.seed)
    if bad is not None:
        message = f"frame degenerate at point {tuple(round(x, 6) for x in bad.point)}"
        raise DegenerateError(message, bad.point, bad.value)

    # the solve uses the k rows whose minor is largest at the midpoint,
    # the first such; the rank scan kept the minors' sum of squares above
    # 1e-9 there, so that minor is not zero
    choices = list(combinations(range(n), k))
    minors = [sym_det([cols[i] for i in rows]) for rows in choices]
    at_mid = evaluate_batch(minors, chart.coords, [chart.midpoint()]).values
    best = max(range(len(minors)), key=lambda j: abs(at_mid[j][0]))
    best_rows, det = choices[best], minors[best]
    sub = [cols[i] for i in best_rows]

    structure = {}

    # fills in the structure functions pair by pair; the fold runs it to
    # its end unless a residual is not zero
    def residuals():
        for a, b in combinations(range(k), 2):
            w = vf_bracket(frame[a], frame[b])
            coeffs = []
            for col in range(k):
                replaced = [
                    [
                        w.components[best_rows[r]] if cc == col else sub[r][cc]
                        for cc in range(k)
                    ]
                    for r in range(k)
                ]
                coeffs.append(_quotient(sym_det(replaced), det))
            # verify the rows not used in the solve
            for i in range(n):
                residual = csum(
                    [w.components[i]]
                    + [cneg(cmul(coeffs[c], cols[i][c])) for c in range(k)]
                )
                yield (
                    f"not integrable / brackets do not close: pair "
                    f"({a},{b}) leaves the span in component {i}",
                    residual,
                )
            for c in range(k):
                structure[a, b, c] = coeffs[c]

    _require_zero(residuals(), chart, policy)

    structure = _skew_table((k,) * 3, 2, structure)
    return Algebroid(chart, k, cols, structure, origin="foliation")


# ------------------------------------------------------------------- orbits


@dataclass(frozen=True)
class OrbitScan:
    """Whether the box lies in one orbit: ``transitive`` when the anchor
    has the chart's dimension as its rank on the box.  ``witness`` is
    :meth:`Chart.rank_witness`'s for the anchor table: where its rank
    drops below min(dim, rank), or None."""

    transitive: bool
    witness: Optional[BoxWitness]


def orbit_scan(g: Algebroid, policy: ZeroPolicy) -> OrbitScan:
    """The anchor's rank on the policy's samples and the midpoint.

    An anchor with fewer columns than the chart's dimension is not
    transitive.  Otherwise the pair is transitive exactly when
    :meth:`Chart.rank_witness` finds no witness for the anchor table.
    An anchor undefined at a sample raises the :class:`DomainError` of
    the first such sample, even for an entry that cancels out of the
    determinant.
    """
    witness = g.chart.rank_witness(g.rho, policy.samples, policy.seed)
    return OrbitScan(g.rank >= g.chart.dim and witness is None, witness)
