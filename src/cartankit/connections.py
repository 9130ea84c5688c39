"""Connections on trivialized bundles and their invariants.

Two kinds of differentiation live here.  A :class:`TMConnection`
differentiates along coordinate directions (an affine connection on a
trivialized bundle, the target being either TM itself or an algebroid).
A :class:`GConnection` differentiates along algebroid sections through
the anchor; a flat one is a representation.  The two interact through
the induced representations and the duality/torsion calculus.

Index conventions (fixed across the package):
  gamma[i][a][b]  = coefficient of e_b in (d/dx^i-derivative of e_a)
  A[a][al][be]    = coefficient of f_be in (e_a-derivative of f_al)
  curvature R[i,j,a,b] / R[a,b,al,be]: first two slots are the plane,
  third the argument, last the value index.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from .algebroid import Algebroid
from .bundles import (
    LOW,
    TM,
    UP,
    G,
    Section,
    TensorField,
    Verdict,
    _along,
    _battery,
    _component_array,
    _derivative,
    _directions,
    _nonzero,
    _require_zero,
    _skew_table,
    _tensor_battery,
    as_expr,
)
from .symcore import (
    ZERO,
    Chart,
    Const,
    ZeroPolicy,
    adjugate_inverse,
    cmul,
    cneg,
    csum,
    diff,
    sym_det,
)

__all__ = [
    "TMConnection",
    "GConnection",
    "cov_deriv_tm",
    "tensor_cov_deriv",
    "curvature_tm",
    "cov_deriv_g",
    "g_tensor_deriv",
    "curvature_g",
    "is_flat_g",
    "dual_connection",
    "torsion_g",
    "dual_pair_defect",
    "induced_rep_on_g",
    "induced_rep_on_tm",
    "check_anchor_equivariance",
    "morphism_curvature",
    "metric_inverse",
    "christoffel",
]


class TMConnection:
    """Affine connection on a trivialized bundle over the chart.

    ``gamma[i][a][b]`` holds the e_b-coefficient of the derivative of
    frame section e_a in coordinate direction i.  ``target`` tags the
    bundle the connection acts on: "tm" for the tangent bundle (so the
    frame is the coordinate frame) or "g" for an algebroid.  ``gamma`` is
    read-only, so what is derived from it once stays true: for each
    algebroid it is paired with, the connection keeps the induced
    representations (:func:`induced_rep_on_g`, :func:`induced_rep_on_tm`)
    and the frame defects of :func:`cartankit.cartan.frame_defects`.
    """

    def __init__(self, chart: Chart, gamma, target: str = "g"):
        if target not in ("tm", "g"):
            raise ValueError(f"unknown target {target!r}")
        gamma = np.array(gamma, dtype=object)
        if gamma.ndim != 3 or gamma.shape[0] != chart.dim:
            raise ValueError("gamma must have shape (dim, rank, rank)")
        if gamma.shape[1] != gamma.shape[2]:
            raise ValueError("gamma must be square in the frame indices")
        if target == "tm" and gamma.shape[1] != chart.dim:
            raise ValueError("tangent-target connection must have rank = dim")
        self.chart = chart
        self.gamma = _component_array(chart, gamma)
        self.rank = gamma.shape[1]
        self.target = target
        self._pairs = {}  # Algebroid -> {key: what was derived}

    def kept(self, g: Algebroid, key, build):
        """What ``build()`` derives from the pair (``g``, this connection),
        built on the first request and kept for every later one.  ``key``
        names the table."""
        tables = self._pairs.setdefault(g, {})
        if key not in tables:
            tables[key] = build()
        return tables[key]

    @classmethod
    def flat(cls, chart: Chart, rank: int, target: str = "g") -> "TMConnection":
        zero = np.empty((chart.dim, rank, rank), dtype=object)
        zero[...] = Const(0)
        return cls(chart, zero, target)

    def __repr__(self):
        return f"<tm-connection rank={self.rank} target={self.target}>"


class GConnection:
    """Derivative along algebroid sections (anchored operator).

    ``A[a][al][be]`` holds the f_be-coefficient of the e_a-derivative of
    target frame section f_al; on sections the operator is
    X^a (rho^i_a d_i s^be + A^be_{a al} s^al).  ``target`` is "self"
    (the algebroid acting on itself) or "tm".

    ``A`` is read-only, so what is derived from it once stays true: the
    connection keeps its curvature (:func:`curvature_g`), its flatness
    verdict per zero-test policy (:func:`is_flat_g`) and, for a
    self-target connection, its torsion (:func:`torsion_g`) and its dual
    (:func:`dual_connection`).
    """

    def __init__(self, g: Algebroid, A, target: str = "self"):
        if target not in ("self", "tm"):
            raise ValueError(f"unknown target {target!r}")
        m = g.rank if target == "self" else g.chart.dim
        A = np.array(A, dtype=object)
        if A.shape != (g.rank, m, m):
            raise ValueError(
                f"A must have shape ({g.rank}, {m}, {m}), got {A.shape}"
            )
        self.g = g
        self.A = _component_array(g.chart, A)
        self.target = target
        self.target_rank = m
        self._kept = {}  # key -> what was derived

    def kept(self, key, build):
        """What ``build()`` derives from this connection, built on the
        first request and kept for every later one.  ``key`` names it,
        with the zero-test policy for a verdict."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    @classmethod
    def zero(cls, g: Algebroid, target: str = "self") -> "GConnection":
        m = g.rank if target == "self" else g.chart.dim
        A = np.empty((g.rank, m, m), dtype=object)
        A[...] = Const(0)
        return cls(g, A, target)

    @property
    def target_tag(self) -> str:
        return G if self.target == "self" else TM

    def __repr__(self):
        return f"<g-connection rank={self.g.rank} target={self.target}>"


# ------------------------------------------------------------ differentiation
#
# A connection along TM is the tangent-algebroid case of one along an
# algebroid: identity anchor, zero bracket.  So both kinds share one
# derivative kernel (``bundles._derivative``) and one curvature kernel
# (:func:`_curvature`); the public functions only check their inputs and
# choose the anchor, bracket and action tables.


def _section_derivative(directions, sigma: Section, A, X: Section) -> Section:
    """X^z (directions[z] sigma + A[z] sigma): the tensor derivative of
    ``sigma``, contracted with the direction section ``X``."""
    D = _derivative(sigma.components, directions, [(UP, A)])
    out = [
        csum([cmul(X.components[z], D[be, z]) for z in range(X.rank)])
        for be in range(sigma.rank)
    ]
    return Section(sigma.chart, out, sigma.frame)


def _curvature(directions, structure, A) -> np.ndarray:
    """R[a,b,al,be] of the derivative along ``directions`` with action
    ``A`` (see :func:`curvature_g`); ``structure`` is None for a zero
    bracket.  This is the one curvature loop.  It builds a < b only, and
    :func:`~cartankit.bundles._skew_table` mirrors it."""
    r, m = A.shape[0], A.shape[1]
    rows = [[_nonzero(A[a, al]) for al in range(m)] for a in range(r)]
    built = {}
    for a, b in combinations(range(r), 2):
        # the nonzero structure functions c^c_{ab}
        brackets = [] if structure is None else _nonzero(structure[a, b])
        for al, be in np.ndindex(m, m):
            terms = _along(directions[a], A[b, al, be])
            terms += [cneg(t) for t in _along(directions[b], A[a, al, be])]
            for ga, f in rows[b][al]:
                if A[a, ga, be] is not ZERO:
                    terms.append(cmul(A[a, ga, be], f))
            for ga, f in rows[a][al]:
                if A[b, ga, be] is not ZERO:
                    terms.append(cneg(cmul(A[b, ga, be], f)))
            for c, coeff in brackets:
                terms.append(cneg(cmul(coeff, A[c, al, be])))
            built[a, b, al, be] = csum(terms)
    return _skew_table((r, r, m, m), 2, built)


def cov_deriv_tm(conn: TMConnection, V: Section, sigma: Section) -> Section:
    """V^i (d_i sigma^b + gamma[i,a,b] sigma^a) e_b."""
    if V.frame != "tm":
        raise ValueError("direction must be a vector field")
    if V.chart != conn.chart or sigma.chart != conn.chart:
        raise ValueError("chart mismatch")
    if sigma.rank != conn.rank:
        raise ValueError(
            f"section rank {sigma.rank} does not match connection rank {conn.rank}"
        )
    return _section_derivative(_directions(conn.chart.coords), sigma, conn.gamma, V)


def tensor_cov_deriv(conn: TMConnection, T: TensorField) -> TensorField:
    """Covariant derivative of a tangent tensor; new lower TM slot last.

    Requires a tangent-target connection and a tensor with only
    TM-tagged slots.
    """
    if conn.target != "tm":
        raise ValueError("tensor_cov_deriv needs a tangent-target connection")
    if T.chart != conn.chart:
        raise ValueError("chart mismatch")
    for variance, tag in T.slots:
        if tag != TM:
            raise ValueError("tensor_cov_deriv only handles tangent-tagged slots")
    D = _derivative(
        T.components,
        _directions(conn.chart.coords),
        [(variance, conn.gamma) for variance, _ in T.slots],
    )
    return TensorField(conn.chart, T.slots + ((LOW, TM),), D)


def curvature_tm(conn: TMConnection) -> TensorField:
    """R[i,j,a,b]: curvature of the coordinate-direction connection.

    R(d_i, d_j) e_a = R[i,j,a,b] e_b with
    R[i,j,a,b] = d_i gamma[j,a,b] - d_j gamma[i,a,b]
                 + sum_c (gamma[i,c,b] gamma[j,a,c] - gamma[j,c,b] gamma[i,a,c]),
    :func:`curvature_g` for the tangent algebroid.
    """
    tag = TM if conn.target == "tm" else G
    R = _curvature(_directions(conn.chart.coords), None, conn.gamma)
    return TensorField(conn.chart, ((LOW, TM), (LOW, TM), (LOW, tag), (UP, tag)), R)


def cov_deriv_g(conn: GConnection, X: Section, sigma: Section) -> Section:
    """X^a (rho^i_a d_i sigma^be + A[a,al,be] sigma^al) f_be."""
    g = conn.g
    if X.chart != g.chart or sigma.chart != g.chart:
        raise ValueError("chart mismatch")
    if X.rank != g.rank:
        raise ValueError("direction section has wrong rank")
    if sigma.rank != conn.target_rank:
        raise ValueError(
            f"section rank {sigma.rank} does not match target rank "
            f"{conn.target_rank}"
        )
    return _section_derivative(_directions(g.chart.coords, g.rho), sigma, conn.A, X)


def g_tensor_deriv(
    T: TensorField,
    rep_g: Optional[GConnection] = None,
    rep_tm: Optional[GConnection] = None,
) -> TensorField:
    """Algebroid-direction covariant derivative of a tensor.

    G-tagged slots are differentiated through ``rep_g`` (target "self"),
    TM-tagged slots through ``rep_tm`` (target "tm"); a new lower G slot
    is appended last.  Whichever representation a slot needs must be
    supplied, and they must share one algebroid.
    """
    base = rep_g or rep_tm
    if base is None:
        raise ValueError("need at least one representation")
    g = base.g
    if rep_g is not None and rep_g.target != "self":
        raise ValueError("rep_g must have target 'self'")
    if rep_tm is not None and rep_tm.target != "tm":
        raise ValueError("rep_tm must have target 'tm'")
    if rep_g is not None and rep_tm is not None and rep_tm.g is not rep_g.g:
        raise ValueError("representations act for different algebroids")
    if T.chart != g.chart:
        raise ValueError("chart mismatch")
    for variance, tag in T.slots:
        if tag == G and rep_g is None:
            raise ValueError("tensor has algebroid slots but rep_g is missing")
        if tag == TM and rep_tm is None:
            raise ValueError("tensor has tangent slots but rep_tm is missing")
    D = _derivative(
        T.components,
        _directions(g.chart.coords, g.rho),
        [(variance, (rep_g if tag == G else rep_tm).A) for variance, tag in T.slots],
    )
    return TensorField(g.chart, T.slots + ((LOW, G),), D)


def curvature_g(conn: GConnection) -> TensorField:
    """R[a,b,al,be]: obstruction to ``conn`` being a representation.

    R(e_a, e_b) f_al = R[a,b,al,be] f_be with
    R[a,b,al,be] = rho^i_a d_i A[b,al,be] - rho^i_b d_i A[a,al,be]
                   + sum_ga (A[a,ga,be] A[b,al,ga] - A[b,ga,be] A[a,al,ga])
                   - sum_c c^c_{ab} A[c,al,be].

    Computed once per connection and kept on it.
    """
    return conn.kept("curvature", lambda: _curvature_g(conn))


def _curvature_g(conn: GConnection) -> TensorField:
    g = conn.g
    tag = conn.target_tag
    return TensorField(
        g.chart,
        ((LOW, G), (LOW, G), (LOW, tag), (UP, tag)),
        _curvature(_directions(g.chart.coords, g.rho), g.structure, conn.A),
    )


def is_flat_g(conn: GConnection, policy: Optional[ZeroPolicy] = None) -> Verdict:
    """The ``flatness`` battery over the curvature of ``conn``: its detail
    names the first component that is not zero.  Decided once per
    connection and policy."""
    policy = policy or ZeroPolicy()
    return conn.kept(
        ("flatness", policy),
        lambda: _tensor_battery("flatness", curvature_g(conn), policy, skew=2),
    )


# --------------------------------------------------------------------- duality


def _require_self_target(conn: GConnection, who: str):
    if conn.target != "self":
        raise ValueError(f"{who} needs a self-target connection")


def dual_connection(conn: GConnection) -> GConnection:
    """The dual: derivative of X along Y plus their bracket.

    Coefficients A*[a,b,c] = A[b,a,c] + c^c_{ab}; applying twice gives
    back the original coefficients exactly (an algebraic identity, used
    as a regression elsewhere).  Built once per connection and kept on
    it; the dual of the dual is built from the dual's own coefficients,
    never handed back as ``conn``, so that round trip stays a real check.
    """
    _require_self_target(conn, "dual_connection")
    return conn.kept("dual", lambda: _dual_connection(conn))


def _dual_connection(conn: GConnection) -> GConnection:
    g = conn.g
    r = g.rank
    out = np.empty((r, r, r), dtype=object)
    for a, b, c in np.ndindex(r, r, r):
        out[a, b, c] = csum((conn.A[b, a, c], g.structure[a, b, c]))
    return GConnection(g, out, "self")


def torsion_g(conn: GConnection) -> TensorField:
    """T[a,b,c] = A[a,b,c] - A[b,a,c] - c^c_{ab}; antisymmetric in (a,b).

    Computed once per connection and kept on it.
    """
    _require_self_target(conn, "torsion_g")
    return conn.kept("torsion", lambda: _torsion_g(conn))


def _torsion_g(conn: GConnection) -> TensorField:
    g = conn.g
    r = g.rank
    out = np.empty((r, r, r), dtype=object)
    for a, b, c in np.ndindex(r, r, r):
        out[a, b, c] = csum(
            (conn.A[a, b, c], cneg(conn.A[b, a, c]), cneg(g.structure[a, b, c]))
        )
    return TensorField(g.chart, ((LOW, G), (LOW, G), (UP, G)), out)


def dual_pair_defect(conn: GConnection) -> TensorField:
    """Defect of the curvature exchange identity for a dual pair.

    For D the dual of ``conn``, with R, R* the two curvatures and T* the
    dual torsion:
      defect[a,b,c,d] = R[a,b,c,d] - (D T*)[a,b,d,c]
                        - R*[a,c,b,d] - R*[c,b,a,d]
    which must vanish for every self-target connection.  The defect is
    antisymmetric in (a, b): it is built for a < b, and
    :func:`~cartankit.bundles._skew_table` mirrors it.
    """
    _require_self_target(conn, "dual_pair_defect")
    g = conn.g
    r = g.rank
    dual = dual_connection(conn)
    R = curvature_g(conn)
    Rs = curvature_g(dual)
    DTs = g_tensor_deriv(torsion_g(dual), rep_g=dual)
    built = {}
    for a, b in combinations(range(r), 2):
        for c, d in np.ndindex(r, r):
            exchanged = (cneg(Rs[a, c, b, d]), cneg(Rs[c, b, a, d]))
            built[a, b, c, d] = csum((R[a, b, c, d], cneg(DTs[a, b, d, c])) + exchanged)
    return TensorField(
        g.chart, ((LOW, G), (LOW, G), (LOW, G), (UP, G)), _skew_table((r,) * 4, 2, built)
    )


# ------------------------------------------------------ induced representations


def _require_g_target(conn: TMConnection, g: Algebroid, who: str):
    if conn.chart != g.chart:
        raise ValueError(f"{who}: chart mismatch")
    if conn.rank != g.rank:
        raise ValueError(f"{who}: connection rank does not match algebroid")


def induced_rep_on_g(g: Algebroid, conn: TMConnection) -> GConnection:
    """Derivative of X along the anchor of Y, plus the bracket.

    Coefficients Abar[a,b,c] = sum_i rho[i,b] gamma[i,a,c] + c^c_{ab}.
    Built once per pair and kept on ``conn``.
    """
    _require_g_target(conn, g, "induced_rep_on_g")
    return conn.kept(g, "induced_rep_on_g", lambda: _induced_rep_on_g(g, conn))


def _induced_rep_on_g(g: Algebroid, conn: TMConnection) -> GConnection:
    r = g.rank
    out = np.empty((r, r, r), dtype=object)
    for a, b, c in np.ndindex(r, r, r):
        out[a, b, c] = csum(
            [g.structure[a, b, c]]
            + [cmul(g.rho[i, b], conn.gamma[i, a, c]) for i in range(g.chart.dim)]
        )
    return GConnection(g, out, "self")


def induced_rep_on_tm(g: Algebroid, conn: TMConnection) -> GConnection:
    """Companion action on vector fields: push the derivative through
    the anchor and correct by the flow of the anchored direction.

    Coefficients Atm[a,j,k] = sum_b rho[k,b] gamma[j,a,b] - d_j rho[k,a].
    Built once per pair and kept on ``conn``.
    """
    _require_g_target(conn, g, "induced_rep_on_tm")
    return conn.kept(g, "induced_rep_on_tm", lambda: _induced_rep_on_tm(g, conn))


def _induced_rep_on_tm(g: Algebroid, conn: TMConnection) -> GConnection:
    chart = g.chart
    n, r = chart.dim, g.rank
    out = np.empty((r, n, n), dtype=object)
    for a, j, k in np.ndindex(r, n, n):
        out[a, j, k] = csum(
            [cneg(diff(g.rho[k, a], chart.coords[j]))]
            + [cmul(g.rho[k, b], conn.gamma[j, a, b]) for b in range(r)]
        )
    return GConnection(g, out, "tm")


def check_anchor_equivariance(
    g: Algebroid, conn: TMConnection, policy: Optional[ZeroPolicy] = None
) -> Verdict:
    """Self-test: the anchor intertwines the two induced representations.

    That is, the anchor, as the tensor rho[k, b] with an upper tangent
    and a lower algebroid slot, is parallel for them: its
    :func:`g_tensor_deriv` through the pair vanishes.  Returns the
    ``anchor_equivariance`` battery; must pass for *every* input, so a
    failure signals an implementation bug, not bad data.
    """
    anchor = TensorField(g.chart, ((UP, TM), (LOW, G)), g.rho)
    D = g_tensor_deriv(
        anchor, rep_g=induced_rep_on_g(g, conn), rep_tm=induced_rep_on_tm(g, conn)
    )
    return _battery(
        "anchor_equivariance",
        (
            (f"pair ({a},{b}) component {k}", D[k, b, a])
            for a, b, k in np.ndindex(g.rank, g.rank, g.chart.dim)
        ),
        g.chart,
        policy or ZeroPolicy(),
    )


# ------------------------------------------------------------------- morphisms


def morphism_curvature(
    phi,
    g: Algebroid,
    h: Algebroid,
    policy: Optional[ZeroPolicy] = None,
) -> TensorField:
    """Bracket defect of an anchored fiberwise map between algebroids.

    ``phi[al][a]`` maps the g-frame into h.  The anchors must agree
    through phi (checked; rejected with :class:`DegenerateError` and its
    witness).  The result has
    components ([phi e_a, phi e_b]_h - phi [e_a, e_b]_g)^al.
    """
    from .algebroid import bracket

    policy = policy or ZeroPolicy()
    if g.chart != h.chart:
        raise ValueError("algebroids live on different charts")
    chart = g.chart
    phi = np.array(phi, dtype=object)
    if phi.shape != (h.rank, g.rank):
        raise ValueError(f"phi must have shape ({h.rank}, {g.rank})")
    phi = _component_array(chart, phi)

    def anchor_defects():
        for a in range(g.rank):
            for i in range(chart.dim):
                defect = csum(
                    [cneg(g.rho[i, a])]
                    + [cmul(h.rho[i, al], phi[al, a]) for al in range(h.rank)]
                )
                yield f"anchor incompatibility at frame {a} component {i}", defect

    _require_zero(anchor_defects(), chart, policy)
    r = g.rank
    out = np.empty((r, r, h.rank), dtype=object)
    for a in range(r):
        for b in range(r):
            phi_a = Section(chart, [phi[al, a] for al in range(h.rank)], "g")
            phi_b = Section(chart, [phi[al, b] for al in range(h.rank)], "g")
            lhs = bracket(h, phi_a, phi_b)
            for al in range(h.rank):
                pushed = csum([cmul(g.structure[a, b, c], phi[al, c]) for c in range(r)])
                out[a, b, al] = csum((lhs.components[al], cneg(pushed)))
    return TensorField(chart, ((LOW, G), (LOW, G), (UP, G)), out)


# ------------------------------------------------------------------ riemannian


def metric_inverse(sigma: TensorField) -> TensorField:
    """Pointwise inverse of a (0,2) tensor via the adjugate.

    Entries are unevaluated quotients cofactor/det; the caller is
    responsible for the determinant being bounded away from zero on the
    box (the pipelines check this and report a witness otherwise).
    """
    if sigma.slots != ((LOW, TM), (LOW, TM)):
        raise ValueError("metric_inverse expects a (0,2) tangent tensor")
    chart = sigma.chart
    n = chart.dim
    M = [[sigma[i, j] for j in range(n)] for i in range(n)]
    return TensorField(chart, ((UP, TM), (UP, TM)), adjugate_inverse(M, sym_det(M)))


def christoffel(sigma: TensorField) -> TMConnection:
    """Levi-Civita coefficients of a metric by the standard formula.

    gamma[i][j][k] = (1/2) g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}).
    """
    inv = metric_inverse(sigma)
    chart = sigma.chart
    n = chart.dim
    half = as_expr("1/2", chart)
    out = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = [
                    cmul(
                        inv[k, l],
                        csum(
                            (
                                diff(sigma[j, l], chart.coords[i]),
                                diff(sigma[i, l], chart.coords[j]),
                                cneg(diff(sigma[i, j], chart.coords[l])),
                            )
                        ),
                    )
                    for l in range(n)
                ]
                out[i, j, k] = cmul(half, csum(terms))
    return TMConnection(chart, out, target="tm")
