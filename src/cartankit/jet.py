"""First-jet calculus for algebroid sections.

A jet section is kept in split form: a base section X together with a
correction matrix phi mapping tangent vectors into the algebroid,
``phi[b][i]`` being the e_b-component of phi(d/dx^i).  The prolongation
of X is (X, 0); purely vertical elements are (0, phi).  The bracket is
the semidirect-product formula: fiberwise commutator of the corrections
through the anchor, plus the derivative action of each base on the other
correction.

This module is one of two independent routes to the compatibility
defect of a connection (the other lives in :mod:`cartankit.cartan`).  On
frames, :func:`frame_lift_curvature` derives the jet-lift curvature in
closed form from the anchor, structure and connection tables; the
direct route derives the bracket defect from the same tables by its own
formula, and the two are compared against each other in the acceptance
battery.  They must never be merged.

The section-level calculus (:class:`JetSection`, :func:`jet_bracket`,
:func:`jet_scale`, :func:`splitting_from_connection`) is also the test
reference for the metric's isometry algebroid, whose structure functions
:mod:`cartankit.cartan` builds from the Christoffel table.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .algebroid import Algebroid, anchor_apply, bracket
from .bundles import UP, Section, _component_array, _derivative, _directions, as_expr
from .connections import TMConnection
from .symcore import ZERO, cmul, cneg, csum, diff

__all__ = [
    "JetSection",
    "jet_scale",
    "kappa",
    "jet_bracket",
    "splitting_from_connection",
    "frame_lift_curvature",
]


class JetSection:
    """Split-form jet of an algebroid section: (base, correction)."""

    def __init__(self, g: Algebroid, base: Section, correction):
        if base.chart != g.chart or base.rank != g.rank:
            raise ValueError("base section does not fit the algebroid")
        corr = np.array(correction, dtype=object)
        if corr.shape != (g.rank, g.chart.dim):
            raise ValueError(
                f"correction must have shape ({g.rank}, {g.chart.dim}), "
                f"got {corr.shape}"
            )
        self.g = g
        self.base = base
        self.correction = _component_array(g.chart, corr)

    @classmethod
    def vertical(cls, g: Algebroid, correction) -> "JetSection":
        return cls(g, g.zero_section(), correction)

    def __add__(self, other: "JetSection") -> "JetSection":
        if other.g is not self.g and (
            other.g.chart != self.g.chart or other.g.rank != self.g.rank
        ):
            raise ValueError("jet sections of different algebroids")
        corr = np.empty(self.correction.shape, dtype=object)
        for idx in np.ndindex(*corr.shape):
            corr[idx] = csum((self.correction[idx], other.correction[idx]))
        return JetSection(self.g, self.base + other.base, corr)

    def __neg__(self) -> "JetSection":
        corr = np.empty(self.correction.shape, dtype=object)
        for idx in np.ndindex(*corr.shape):
            corr[idx] = cneg(self.correction[idx])
        return JetSection(self.g, -self.base, corr)

    def __sub__(self, other: "JetSection") -> "JetSection":
        return self + (-other)

    def __repr__(self):
        return f"<jet base={self.base!r}>"


def jet_scale(J: JetSection, f) -> JetSection:
    """Module structure: f (X, phi) = (f X, f phi - df (x) X).

    The df-term keeps split forms honest: scaling the prolongation of X
    by a non-constant function is no longer a prolongation, and the
    correction absorbs exactly the discrepancy.
    """
    g = J.g
    f = as_expr(f, g.chart)
    corr = np.empty(J.correction.shape, dtype=object)
    for b in range(g.rank):
        for i, name in enumerate(g.chart.coords):
            corr[b, i] = csum(
                (cmul(f, J.correction[b, i]), cneg(cmul(diff(f, name), J.base.components[b])))
            )
    return JetSection(g, J.base.scale(f), corr)


def kappa(g: Algebroid, X: Section, phi) -> np.ndarray:
    """Derivative action of a section on a correction matrix.

    (kappa_X phi)(V) = [X, phi(V)] + phi([V, #X]); returned columnwise
    over the coordinate fields V = d/dx^i.
    """
    phi = np.array(phi, dtype=object)
    if phi.shape != (g.rank, g.chart.dim):
        raise ValueError("phi has the wrong shape")
    chart = g.chart
    phi = _component_array(chart, phi)
    anchor_X = anchor_apply(g, X)
    out = np.empty(phi.shape, dtype=object)
    for i, name in enumerate(chart.coords):
        col = Section(chart, [phi[b, i] for b in range(g.rank)], "g")
        first = bracket(g, X, col)
        for b in range(g.rank):
            # [d/dx^i, #X]^k = d_i (#X)^k
            out[b, i] = csum(
                [first.components[b]]
                + [
                    cmul(phi[b, k], diff(anchor_X.components[k], name))
                    for k in range(chart.dim)
                ]
            )
    return out


def _bob_bracket(g: Algebroid, phi1, phi2) -> np.ndarray:
    """Fiberwise bracket phi2 o # o phi1 - phi1 o # o phi2."""
    r, n = g.rank, g.chart.dim
    out = np.empty((r, n), dtype=object)
    for b in range(r):
        for i in range(n):
            terms = []
            for j in range(n):
                for c in range(r):
                    terms.append(cmul(cmul(phi2[b, j], g.rho[j, c]), phi1[c, i]))
                    terms.append(cneg(cmul(cmul(phi1[b, j], g.rho[j, c]), phi2[c, i])))
            out[b, i] = csum(terms)
    return out


def jet_bracket(J1: JetSection, J2: JetSection) -> JetSection:
    """Semidirect-product bracket on split jets.

    ([X1,X2], [phi1,phi2]_fib + kappa_{X1} phi2 - kappa_{X2} phi1).
    """
    g = J1.g
    if J2.g is not g and (J2.g.chart != g.chart or J2.g.rank != g.rank):
        raise ValueError("jet sections of different algebroids")
    base = bracket(g, J1.base, J2.base)
    fib = _bob_bracket(g, J1.correction, J2.correction)
    k12 = kappa(g, J1.base, J2.correction)
    k21 = kappa(g, J2.base, J1.correction)
    corr = np.empty(fib.shape, dtype=object)
    for idx in np.ndindex(*fib.shape):
        corr[idx] = csum((fib[idx], k12[idx], cneg(k21[idx])))
    return JetSection(g, base, corr)


def splitting_from_connection(
    g: Algebroid, conn: TMConnection, X: Section
) -> JetSection:
    """The jet lift determined by a connection: correction = -(nabla X).

    phi[b][i] = -(d_i X^b + gamma[i,a,b] X^a); parallel sections lift to
    zero-correction jets.
    """
    if conn.chart != g.chart or conn.rank != g.rank:
        raise ValueError("connection does not target the algebroid")
    nabla = _derivative(
        X.components,
        _directions(g.chart.coords),
        [(UP, conn.gamma)],
    )
    corr = np.empty(nabla.shape, dtype=object)
    for idx in np.ndindex(*nabla.shape):
        corr[idx] = cneg(nabla[idx])
    return JetSection(g, X, corr)


def frame_lift_curvature(g: Algebroid, conn: TMConnection) -> np.ndarray:
    """Bracket defect of the connection's jet lift on frames, from the
    anchor, structure and connection tables.

    L[a, b, d, i] (for a < b; entries with a >= b are None) is the
    e_d-component of [s e_a, s e_b] - s[e_a, e_b] applied to d/dx^i, where
    s X = (X, -(nabla X)) is :func:`splitting_from_connection`.  The base
    part, [e_a, e_b] - [e_a, e_b], vanishes identically.  With the
    corrections phi_a[d, i] = -gamma[i, a, d] and the frame bracket
    B^d = c^d_{ab}, the correction part fib + kappa_12 - kappa_21 - s[X, Y]
    of :func:`jet_bracket` reads

        sum_{j,c} (phi_b[d,j] rho^j_c phi_a[c,i] - phi_a[d,j] rho^j_c phi_b[c,i])
        + rho^j_a d_j phi_b[d,i] + c^d_{ae} phi_b[e,i] + phi_b[d,k] d_i rho^k_a
        - rho^j_b d_j phi_a[d,i] - c^d_{be} phi_a[e,i] - phi_a[d,k] d_i rho^k_b
        + d_i B^d + gamma[i,e,d] B^e

    summed over repeated indices.  Each entry is one flat sum of these
    products.
    """
    if conn.chart != g.chart or conn.rank != g.rank:
        raise ValueError("connection does not target the algebroid")
    chart = g.chart
    n, r = chart.dim, g.rank
    rho, c, gamma = g.rho, g.structure, conn.gamma
    coords = chart.coords
    # phi[a][d, i]: the lift's correction; dphi[a][j][d, i] = d_j phi[a][d, i]
    phi = np.empty((r, r, n), dtype=object)
    for a in range(r):
        for d in range(r):
            for i in range(n):
                phi[a, d, i] = cneg(gamma[i, a, d])
    dphi = np.empty((r, n, r, n), dtype=object)
    for idx in np.ndindex(r, n, r, n):
        a, j, d, i = idx
        dphi[idx] = diff(phi[a, d, i], coords[j])
    # d_i of the anchor's frame vector fields, as kappa differentiates them
    drho = np.empty((r, n, n), dtype=object)
    for a in range(r):
        for k in range(n):
            for i in range(n):
                drho[a, i, k] = diff(rho[k, a], coords[i])
    # anchored[j]: the frames whose vector field has a d/dx^j component
    anchored = [[e for e in range(r) if rho[j, e] is not ZERO] for j in range(n)]
    out = np.empty((r, r, r, n), dtype=object)
    for a, b in combinations(range(r), 2):
        B = c[a, b]
        for d in range(r):
            dB = [diff(B[d], x) for x in coords]
            for i in range(n):
                terms = [dB[i]]
                for e in range(r):
                    terms.append(cmul(gamma[i, e, d], B[e]))
                    terms.append(cmul(c[a, e, d], phi[b, e, i]))
                    terms.append(cneg(cmul(c[b, e, d], phi[a, e, i])))
                for j in range(n):
                    terms.append(cmul(rho[j, a], dphi[b, j, d, i]))
                    terms.append(cneg(cmul(rho[j, b], dphi[a, j, d, i])))
                    terms.append(cmul(phi[b, d, j], drho[a, i, j]))
                    terms.append(cneg(cmul(phi[a, d, j], drho[b, i, j])))
                    for e in anchored[j]:
                        terms.append(cmul(cmul(phi[b, d, j], rho[j, e]), phi[a, e, i]))
                        terms.append(
                            cneg(cmul(cmul(phi[a, d, j], rho[j, e]), phi[b, e, i]))
                        )
                out[a, b, d, i] = csum(terms)
    return out
