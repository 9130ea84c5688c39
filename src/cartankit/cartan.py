"""Verdict pipelines: bracket compatibility, symmetry classification,
reductive constructions, the metric and Poisson reports, invariant
calculus on flat representations, coframe geometries, and a numeric
holonomy cross-check.

Every verdict here is a :class:`Verdict` folded from batteries of zero
tests by :mod:`cartankit.bundles`.

The compatibility check is deliberately computed twice, by two routes
that share no code: once from the bracket/derivative defect
C(d/dx^i, e_a, e_b) written out directly, once from the jet-lift
curvature in :mod:`cartankit.jet`.  Both are independent closed-form
derivations on frames from the anchor, structure and connection tables
(:func:`frame_defects`, built once per pair and kept on the connection).
``check_cartan`` runs both and treats any disagreement as an internal
bug, not as a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Tuple

import numpy as np

from .algebroid import Algebroid, LieAlgebra, orbit_scan
from .bundles import (
    LOW,
    TM,
    UP,
    G,
    TensorField,
    Verdict,
    _aggregate,
    _along,
    _battery,
    _built_entries,
    _component_array,
    _derivative,
    _directions,
    _nonzero,
    _require_zero,
    _skew_table,
    _tensor_battery,
    as_expr,
)
from .connections import (
    GConnection,
    TMConnection,
    _curvature,
    christoffel,
    curvature_tm,
    g_tensor_deriv,
    induced_rep_on_g,
    induced_rep_on_tm,
    is_flat_g,
    metric_inverse,
    tensor_cov_deriv,
    torsion_g,
)
from .jet import frame_lift_curvature
from .symcore import (
    Chart,
    Const,
    DegenerateError,
    DomainError,
    ZERO,
    ZeroPolicy,
    adjugate_inverse,
    cmul,
    cneg,
    csum,
    diff,
    evaluate_batch,
    sym_det,
)

__all__ = [
    "Verdict",
    "DegenerateError",
    "FrameDefects",
    "frame_defects",
    "check_cartan",
    "theorem_a_verdict",
    "transitive_symmetry_check",
    "abba_defect",
    "reductive_connection",
    "MetricChecks",
    "metric_checks",
    "RiemannReport",
    "riemann_pipeline",
    "metric_pair",
    "cotangent_connection",
    "PoissonReport",
    "poisson_report",
    "fundamental_operator",
    "exterior_derivative",
    "dtheta_decomposition",
    "Parallelism",
    "ParallelismReport",
    "parallelism_report",
    "HolonomyResult",
    "holonomy_check",
    "principal_log",
    "identity_battery",
]


# ---------------------------------------------------------------------------
# Bracket compatibility, two routes
# ---------------------------------------------------------------------------


def _frame_compat_defect(g: Algebroid, conn: TMConnection) -> np.ndarray:
    """Defect of the connection against the bracket on frames, from the
    anchor, structure and connection tables.

    C(V, X, Y) = D_V [X,Y] - [D_V X, Y] - [X, D_V Y]
                 - D_{B_Y V} X + D_{B_X V} Y

    where D is the connection and B the companion action of sections on
    vector fields, Atm = ``induced_rep_on_tm``.  The defect is tensorial in
    all three arguments, so vanishing on frames means vanishing
    everywhere.  On V = d/dx^i, X = e_a, Y = e_b, with gamma[i,a,d] the
    components of D_i e_a and B^d = c^d_{ab}, the five terms are

        t1 = d_i B^d + gamma[i,e,d] B^e
        t2 = -rho^j_b d_j gamma[i,a,d] + c^d_{eb} gamma[i,a,e]
        t3 = rho^j_a d_j gamma[i,b,d] + c^d_{ae} gamma[i,b,e]
        t4 = Atm[b,i,k] gamma[k,a,d]    t5 = Atm[a,i,k] gamma[k,b,d]

    summed over repeated indices.  C[i, a, b, d] (for a < b; entries with
    a >= b are None) is t1 - t2 - t3 - t4 + t5, one canonical sum of these
    products.
    """
    if conn.chart != g.chart or conn.rank != g.rank:
        raise ValueError("connection does not target the algebroid")
    chart = g.chart
    n, r = chart.dim, g.rank
    rho, c, gamma = g.rho, g.structure, conn.gamma
    coords = chart.coords
    Atm = induced_rep_on_tm(g, conn).A  # components of B_{e_a} d/dx^i
    dG = np.empty((n, n, r, r), dtype=object)  # dG[j, i, a, d] = d_j gamma[i, a, d]
    for idx in np.ndindex(n, n, r, r):
        dG[idx] = diff(gamma[idx[1:]], coords[idx[0]])
    out = np.empty((n, r, r, r), dtype=object)
    for a, b in combinations(range(r), 2):
        B = c[a, b]
        for d in range(r):
            dB = [diff(B[d], x) for x in coords]
            for i in range(n):
                terms = [dB[i]]
                for e in range(r):
                    terms.append(cmul(gamma[i, e, d], B[e]))
                    terms.append(cneg(cmul(c[e, b, d], gamma[i, a, e])))
                    terms.append(cneg(cmul(c[a, e, d], gamma[i, b, e])))
                for j in range(n):
                    terms.append(cmul(rho[j, b], dG[j, i, a, d]))
                    terms.append(cneg(cmul(rho[j, a], dG[j, i, b, d])))
                    terms.append(cneg(cmul(Atm[b, i, j], gamma[j, a, d])))
                    terms.append(cmul(Atm[a, i, j], gamma[j, b, d]))
                out[i, a, b, d] = csum(terms)
    return out


@dataclass(frozen=True)
class FrameDefects:
    """Both routes' compatibility defects on frames, for pairs a < b.

    ``direct[i, a, b, d]`` is C(d/dx^i, e_a, e_b)^d and ``lifted[a, b, d, i]``
    the jet-lift curvature [s e_a, s e_b] - s[e_a, e_b] at d/dx^i, e_d
    component; for a compatible pair both vanish, and entry for entry
    they are equal.
    """

    direct: np.ndarray
    lifted: np.ndarray


def frame_defects(g: Algebroid, conn: TMConnection) -> FrameDefects:
    """The two routes' frame tables, built once per pair and kept on
    ``conn``: the bracket compatibility battery, the jet battery and the
    route agreement identity all read these."""
    return conn.kept(
        g,
        "frame_defects",
        lambda: FrameDefects(
            _frame_compat_defect(g, conn), frame_lift_curvature(g, conn)
        ),
    )


def _compat_battery(g: Algebroid, conn: TMConnection, policy) -> Verdict:
    C = frame_defects(g, conn).direct
    items = [
        (f"C(d_{i}, e_{a}, e_{b}) component {c}", C[i, a, b, c])
        for i in range(g.chart.dim)
        for a, b in combinations(range(g.rank), 2)
        for c in range(g.rank)
    ]
    return _battery("bracket_compatibility", items, g.chart, policy)


def _jet_battery(g: Algebroid, conn: TMConnection, policy) -> Verdict:
    L = frame_defects(g, conn).lifted
    items = [
        (f"lift curvature (e_{a}, e_{b})[{c},{i}]", L[a, b, c, i])
        for a, b in combinations(range(g.rank), 2)
        for c in range(g.rank)
        for i in range(g.chart.dim)
    ]
    return _battery("jet_splitting", items, g.chart, policy)


def check_cartan(
    g: Algebroid, conn: TMConnection, policy: Optional[ZeroPolicy] = None
) -> Verdict:
    """Is the connection compatible with the bracket?

    Runs the direct defect battery and the independent jet-lift
    curvature battery over the frame tables that :func:`frame_defects`
    keeps on ``conn``.  The two must agree; a split decision can only
    come from a bug in one of the routes and is raised, loudly, rather
    than reported as a property of the input.  The verdict itself is not
    kept: a request asks for it once.
    """
    policy = policy or ZeroPolicy()
    direct = _compat_battery(g, conn, policy)
    lifted = _jet_battery(g, conn, policy)
    if "undecidable" not in (direct.status, lifted.status):
        if direct.ok != lifted.ok:
            raise RuntimeError(
                "internal consistency failure: the bracket-defect route says "
                f"{direct.status} but the jet-lift route says {lifted.status} "
                f"(defect witness {direct.witness or lifted.witness}); this is "
                "an implementation bug, please report it"
            )
    return _aggregate("cartan", [direct, lifted])


def theorem_a_verdict(
    g: Algebroid, conn: TMConnection, policy: Optional[ZeroPolicy] = None
) -> Verdict:
    """Classify: not_cartan, locally_symmetric (flat), or curved."""
    policy = policy or ZeroPolicy()
    cart = check_cartan(g, conn, policy)
    if cart.status == "undecidable":
        return Verdict(
            "theorem_a", "undecidable", "undecidable", children=(cart,)
        )
    if not cart.ok:
        return Verdict(
            "theorem_a",
            "not_cartan",
            cart.path,
            witness=cart.witness,
            value=cart.value,
            detail=cart.detail,
            children=(cart,),
        )
    flatness = _tensor_battery("flatness", curvature_tm(conn), policy, skew=2)
    if flatness.status == "undecidable":
        return Verdict(
            "theorem_a", "undecidable", "undecidable", children=(cart, flatness)
        )
    if flatness.ok:
        notes = []
        if g.origin == "action" and all(
            conn.gamma[idx] is ZERO
            for idx in np.ndindex(*conn.gamma.shape)
        ):
            notes.append(
                "constant sections are parallel: the acting algebra itself "
                "realizes the local symmetry"
            )
        path = "probabilistic" if "probabilistic" in (cart.path, flatness.path) else "symbolic"
        return Verdict(
            "theorem_a",
            "locally_symmetric",
            path,
            children=(cart, flatness),
            notes=tuple(notes),
        )
    return Verdict(
        "theorem_a",
        "curved",
        flatness.path,
        witness=flatness.witness,
        value=flatness.value,
        detail=flatness.detail,
        children=(cart, flatness),
    )


# ---------------------------------------------------------------------------
# Transitive instances
# ---------------------------------------------------------------------------


def transitive_symmetry_check(
    g: Algebroid, conn: TMConnection, policy: Optional[ZeroPolicy] = None
) -> Verdict:
    """Local symmetry through the self-action torsion.

    For a transitive algebroid the connection induces an action B of
    sections on sections; the instance is locally symmetric exactly when
    the torsion of B is B-parallel.  Intransitive input is an error, not
    a failing verdict: the criterion is meaningless off a full orbit.
    """
    policy = policy or ZeroPolicy()
    scan = orbit_scan(g, policy)
    if not scan.transitive:
        n, bad = g.chart.dim, scan.witness
        if g.rank < n:
            why = f"its rank {g.rank} is below the chart dimension {n}"
        else:
            where = "at" if bad.near_zero else "between the midpoint and"
            why = f"anchor rank drops below {n} {where} {bad.point}"
        raise ValueError(f"algebroid is not transitive on the sampling box: {why}")
    rep = induced_rep_on_g(g, conn)
    DT = g_tensor_deriv(torsion_g(rep), rep_g=rep)
    items = [
        (f"(B_{z} torsion)(e_{a}, e_{b}) component {c}", DT[a, b, c, z])
        for a, b in combinations(range(g.rank), 2)
        for c in range(g.rank)
        for z in range(g.rank)
    ]
    return _battery("transitive_symmetry", items, g.chart, policy)


def abba_defect(g: Algebroid, conn: TMConnection) -> TensorField:
    """Curvature through anchored directions vs. the torsion derivative.

    defect[a,b,z,d] = rho^i_a rho^j_b R[i,j,z,d] - (B_z T_B)(e_a,e_b)^d

    with R the coordinate curvature of the connection and B the induced
    self-action.  Vanishes identically whenever the pair passes
    ``check_cartan``; exposed so the identity can be exercised directly.
    The defect is antisymmetric in (a, b): it is built for a < b, from the
    nonzero anchor products only, and
    :func:`~cartankit.bundles._skew_table` mirrors it.
    """
    if conn.chart != g.chart or conn.rank != g.rank:
        raise ValueError("connection does not target the algebroid")
    R = curvature_tm(conn)
    rep = induced_rep_on_g(g, conn)
    DT = g_tensor_deriv(torsion_g(rep), rep_g=rep)
    r = g.rank
    anchored = [_nonzero(g.rho[:, a]) for a in range(r)]
    built = {}
    for a, b in combinations(range(r), 2):
        products = [
            (i, j, cmul(ra, rb)) for i, ra in anchored[a] for j, rb in anchored[b]
        ]
        for z, d in np.ndindex(r, r):
            terms = [cneg(DT[a, b, d, z])]
            for i, j, coeff in products:
                if R[i, j, z, d] is not ZERO:
                    terms.append(cmul(coeff, R[i, j, z, d]))
            built[a, b, z, d] = csum(terms)
    return TensorField(
        g.chart, ((LOW, G), (LOW, G), (LOW, G), (UP, G)), _skew_table((r,) * 4, 2, built)
    )


# ---------------------------------------------------------------------------
# Reductive construction
# ---------------------------------------------------------------------------


def reductive_connection(
    g: Algebroid,
    t,
    rep_tm: GConnection,
    policy: Optional[ZeroPolicy] = None,
) -> TMConnection:
    """Connection assembled from a splitting and a flat tangent action.

    ``t[b][i]`` gives the e_b-component of the splitting applied to
    d/dx^i; it must be a right inverse of the anchor.  ``rep_tm`` is a
    flat algebroid connection on the tangent bundle.  The result is

        D_V X = t(rep_tm_X V) + [t V, X]

    read off on coordinate directions and frames
    (:func:`_reductive_connection`).  Any splitting combined with any
    flat action yields a compatible connection whose induced tangent
    action is ``rep_tm`` again; both facts hold by construction, and the
    tests gate them.  Different splittings change only the vertical part
    of the coefficients.

    Raises :class:`DegenerateError` when ``t`` is not a splitting of the
    anchor or ``rep_tm`` is not flat, or either cannot be decided, and
    ``ValueError`` when ``rep_tm`` is not a tangent-target action of
    ``g``.
    """
    policy = policy or ZeroPolicy()
    chart = g.chart
    n, r = chart.dim, g.rank
    t = np.array(t, dtype=object)
    if t.shape != (r, n):
        raise ValueError(f"t must have shape ({r}, {n}), got {t.shape}")
    t = _component_array(chart, t)
    _require_zero(
        (
            (
                f"t is not a splitting of the anchor: component ({k},{i})",
                csum(
                    [Const(-1) if k == i else ZERO]
                    + [cmul(g.rho[k, b], t[b, i]) for b in range(r)]
                ),
            )
            for k in range(n)
            for i in range(n)
        ),
        chart,
        policy,
    )
    if rep_tm.target != "tm" or rep_tm.g is not g:
        raise ValueError("rep_tm must be a tangent-target action of this algebroid")
    flatness = is_flat_g(rep_tm, policy)
    if not flatness.ok:
        raise DegenerateError.from_verdict(
            f"rep_tm must be flat: curvature {flatness.detail}", flatness
        )
    return _reductive_connection(g, t, rep_tm.A)


def _reductive_connection(g: Algebroid, t: np.ndarray, A: np.ndarray) -> TMConnection:
    """D_V X = t(A_X V) + [t V, X] on V = d/dx^i and X = e_a, from the
    tables: canonical ``t[b, i]`` and tangent action ``A[a, i, k]``.

    With e_a constant, [t V, e_a]^b = c[d,a,b] t[d,i] - rho[j,a] d_j t[b,i],
    so

        gamma[i,a,b] = -rho[j,a] d_j t[b,i] + c[d,a,b] t[d,i] + A[a,i,k] t[b,k].
    """
    chart = g.chart
    n, r = chart.dim, g.rank
    directions = _directions(chart.coords, g.rho)
    gamma = np.empty((n, r, r), dtype=object)
    for i, a, b in np.ndindex(n, r, r):
        terms = [cneg(d) for d in _along(directions[a], t[b, i])]
        terms += [cmul(g.structure[d, a, b], t[d, i]) for d in range(r)]
        terms += [cmul(A[a, i, k], t[b, k]) for k in range(n)]
        gamma[i, a, b] = csum(terms)
    return TMConnection(chart, gamma, target="g")


# ---------------------------------------------------------------------------
# Metric pipeline
# ---------------------------------------------------------------------------


def _skew_basis(sigma: TensorField):
    """Default metric-skew endomorphism frame E_(i,j), i < j.

    (E_(i,j))^k_l = sigma_{li} d^k_j - sigma_{lj} d^k_i; spans the
    skew algebra pointwise wherever sigma is nondegenerate, and is skew
    by construction (a test gates it with :func:`_check_skew`).
    """
    n = sigma.chart.dim
    frames = []
    for i, j in combinations(range(n), 2):
        E = np.empty((n, n), dtype=object)
        E[...] = ZERO
        for l in range(n):
            E[j, l] = sigma[l, i]
            E[i, l] = cneg(sigma[l, j])
        frames.append(E)
    return frames


def _check_skew(sigma: TensorField, E, label: str, policy):
    """sigma(EV, W) + sigma(V, EW) = 0, componentwise."""
    n = sigma.chart.dim
    _require_zero(
        (
            (
                f"{label} is not metric-skew: component ({k},{l})",
                csum(
                    [cmul(sigma[k, m], E[m, l]) for m in range(n)]
                    + [cmul(sigma[l, m], E[m, k]) for m in range(n)]
                ),
            )
            for k in range(n)
            for l in range(n)
        ),
        sigma.chart,
        policy,
    )


def _coerce_endo(mat, chart: Chart):
    arr = np.array(mat, dtype=object)
    if arr.shape != (chart.dim, chart.dim):
        raise ValueError("endomorphism field has the wrong shape")
    return _component_array(chart, arr)


def _riemann_algebroid(sigma: TensorField, lc: TMConnection, skew):
    """Tangent-plus-skew algebroid carried by a metric.

    Frames: the jet lifts u_i of the coordinate fields through the
    metric connection, followed by the skew basis E_p
    (:func:`_skew_basis`) embedded vertically.  Both are jets with a
    constant base on the tangent algebroid, so each is its correction
    C: C_i[b, j] = -gamma[j, i, b]
    for u_i (:func:`~cartankit.jet.splitting_from_connection`) and E_p
    itself for E_p.  The jet bracket of two such frames has zero base
    and the correction

        psi = d_al C_be - d_be C_al + C_be C_al - C_al C_be,

    where d_al is d/dx^al for a lift and is left out for a skew frame:
    the curvature (:func:`~cartankit.connections._curvature`) of the
    action A[al, b, i] = C_al[b, i] along those directions, with no
    bracket.  psi is metric-skew by construction (a curvature of the
    metric connection, a covariant derivative of an E_p, or a commutator
    of two E_p), so it lies in the span of the E_p, and its coefficient
    on E_p, for the pair p = (i, j), is psi^j_m sigma^{mi}.  These are
    the structure functions; the tangent components are zero.  Neither
    the span nor the axioms are re-checked here: the tests compare the
    table with the jet brackets of :mod:`cartankit.jet` and validate it.
    """
    chart = sigma.chart
    n = chart.dim
    inv = metric_inverse(sigma)
    rank = n + len(skew)

    A = np.empty((rank, n, n), dtype=object)
    for i, b, j in np.ndindex(n, n, n):
        A[i, b, j] = cneg(lc.gamma[j, i, b])
    for p, E in enumerate(skew):
        A[n + p] = E
    psi = _curvature(_directions(chart.coords) + [[]] * len(skew), None, A)

    built = {}
    for al, be in combinations(range(rank), 2):
        for p, (i, j) in enumerate(combinations(range(n), 2)):
            terms = [cmul(psi[al, be, j, m], inv[m, i]) for m in range(n)]
            built[al, be, n + p] = csum(terms)
    structure = _skew_table((rank,) * 3, 2, built)

    rho = np.empty((n, rank), dtype=object)
    rho[...] = ZERO
    for i in range(n):
        rho[i, i] = Const(1)
    return Algebroid(chart, rank, rho, structure, origin="metric")


@dataclass(frozen=True)
class RiemannReport:
    metric: TensorField
    connection: TMConnection
    curvature: TensorField
    h_frame: tuple
    verdict: Verdict


@dataclass(frozen=True)
class MetricChecks:
    """The two checks on a metric table, as ``validate`` reports them, and
    ``rejection``: the error of the first that fails or is undecidable,
    which :func:`_check_metric` raises, or None."""

    symmetric: Verdict
    nondegenerate: Verdict
    rejection: Optional[Exception]


def metric_checks(sigma: TensorField, policy: ZeroPolicy) -> MetricChecks:
    """Symmetry of a (0,2) tangent tensor, entry by entry, and
    nondegeneracy over the sampling box, from its determinant.

    A failing or undecidable symmetry item rejects the metric with a
    :class:`DegenerateError` carrying the witness; a determinant that
    vanishes or changes sign on the box, with one carrying the witness;
    and a determinant undefined at a sample, with the
    :class:`DomainError`, which makes the nondegeneracy verdict
    undecidable.
    """
    chart = sigma.chart
    n = chart.dim
    symmetric = _battery(
        "metric_symmetric",
        (
            (f"({i},{j}) vs ({j},{i})", csum((sigma[i, j], cneg(sigma[j, i]))))
            for i, j in combinations(range(n), 2)
        ),
        chart,
        policy,
    )
    rejections = []
    if not symmetric.ok:
        rejections.append(
            DegenerateError.from_verdict(
                f"metric is not symmetric: {symmetric.detail}", symmetric
            )
        )

    # pointwise nondegeneracy over the sampling box
    det = sym_det([[sigma[i, j] for j in range(n)] for i in range(n)])
    name = "metric_nondegenerate"
    try:
        bad = chart.vanishing_witness(det, policy.samples, policy.seed)
    except DomainError as exc:
        nondegenerate = Verdict(name, "undecidable", "undecidable")
        rejections.append(exc)
    else:
        if bad is None:
            nondegenerate = Verdict(name, "pass", "probabilistic")
        else:
            nondegenerate = Verdict(name, "fail", "probabilistic", witness=bad.point)
            p, val = bad.point, bad.value
            rejections.append(
                DegenerateError(f"degenerate metric at {p}: det = {val}", p, val)
                if bad.near_zero
                else DegenerateError("metric changes signature inside the box", p, val)
            )
    return MetricChecks(symmetric, nondegenerate, rejections[0] if rejections else None)


def _check_metric(sigma: TensorField, policy: ZeroPolicy) -> None:
    """Reject a metric that is not a symmetric (0,2) tangent tensor,
    nondegenerate over the sampling box.

    Raises ``ValueError`` on the wrong slots, and else the rejection of
    :func:`metric_checks`: :class:`DegenerateError` (with the witness) on
    a degenerate or non-symmetric metric and :class:`DomainError` when
    its determinant is undefined at a sample.
    """
    if sigma.slots != ((LOW, TM), (LOW, TM)):
        raise ValueError("metric must be a (0,2) tangent tensor")
    rejection = metric_checks(sigma, policy).rejection
    if rejection is not None:
        raise rejection


def riemann_pipeline(
    sigma: TensorField,
    h_frame: Optional[Sequence] = None,
    policy: Optional[ZeroPolicy] = None,
) -> RiemannReport:
    """Metric homogeneity verdict: connection, curvature and batteries.

    The metric connection is the unique torsion-free compatible one; the
    verdict asks whether its curvature is both invariant under the
    metric-skew frame action and parallel.  A custom ``h_frame`` (list
    of endomorphism coefficient matrices) replaces the default skew
    basis in the invariance battery.  The verdict reads neither the
    isometry algebroid nor its Cartan connection; :func:`metric_pair`
    builds those.  The connection's metricity and the jet-lift curvature
    identity hold by construction, so they are gated in the tests and
    not re-checked here.

    Raises as :func:`_check_metric` does on a bad metric, and
    :class:`DegenerateError` on an ``h_frame`` that is not skew or cannot
    be decided to be.
    """
    policy = policy or ZeroPolicy()
    _check_metric(sigma, policy)
    chart = sigma.chart
    n = chart.dim
    lc = christoffel(sigma)
    R = curvature_tm(lc)

    if h_frame is None:
        frames = _skew_basis(sigma)
    else:
        frames = [_coerce_endo(matrix, chart) for matrix in h_frame]
        for p, E in enumerate(frames):
            _check_skew(sigma, E, f"h_frame[{p}]", policy)

    # (E_p . R): the derivation of R along each frame, whose action on
    # the coordinate frame is E_p transposed
    actions = np.empty((len(frames), n, n), dtype=object)
    for p, E in enumerate(frames):
        actions[p] = E.T
    ER = _derivative(R.components, [[]] * len(frames), [(v, actions) for v, _ in R.slots])
    invariance_items = [
        (f"(E_{p} . R)[{i},{j},{a},{b}]", ER[i, j, a, b, p])
        for p in range(len(frames))
        for i, j in combinations(range(n), 2)
        for a, b in np.ndindex(n, n)
    ]
    invariance = _battery("h_invariance", invariance_items, chart, policy)

    parallel = _tensor_battery(
        "curvature_parallel", tensor_cov_deriv(lc, R), policy
    )

    verdict = _aggregate(
        "riemann",
        [invariance, parallel],
        notes=(
            ()
            if not (invariance.ok and parallel.ok)
            else ("curvature is frame-invariant and parallel: locally "
                  "maximally homogeneous",)
        ),
    )
    return RiemannReport(
        metric=sigma,
        connection=lc,
        curvature=R,
        h_frame=tuple(frames),
        verdict=verdict,
    )


def metric_pair(
    sigma: TensorField, policy: Optional[ZeroPolicy] = None
) -> Tuple[Algebroid, TMConnection]:
    """The metric's algebroid of infinitesimal isometries (tangent plus
    skew endomorphisms, :func:`_riemann_algebroid`) and its Cartan
    connection, built by the reductive construction
    (:func:`_reductive_connection`) from the identity splitting and the
    tangent action of :func:`_riemann_tangent_action`.  The splitting
    and the action's flatness hold by construction, so neither is
    re-checked here; the tests gate both, and the connection's
    compatibility.

    Rejects a bad metric as :func:`riemann_pipeline` does.
    """
    policy = policy or ZeroPolicy()
    _check_metric(sigma, policy)
    n = sigma.chart.dim
    lc = christoffel(sigma)
    skew = _skew_basis(sigma)
    g_red = _riemann_algebroid(sigma, lc, skew)
    t = np.empty((g_red.rank, n), dtype=object)
    t[...] = ZERO
    for i in range(n):
        t[i, i] = Const(1)
    return g_red, _reductive_connection(g_red, t, _riemann_tangent_action(lc, skew))


def _riemann_tangent_action(lc: TMConnection, skew) -> np.ndarray:
    """Action A[a, m, k] of the metric algebroid on vector fields.

    Lifted coordinate fields act through the metric connection; vertical
    skew frames act by minus their endomorphism.  This is the flat
    action fed to the reductive construction.
    """
    n = lc.chart.dim
    A = np.empty((n + len(skew), n, n), dtype=object)
    A[:n] = lc.gamma
    for p, E in enumerate(skew):
        for mm, k in np.ndindex(n, n):
            A[n + p, mm, k] = cneg(E[k, mm])
    return A


# ---------------------------------------------------------------------------
# Poisson pipeline
# ---------------------------------------------------------------------------


def cotangent_connection(conn: TMConnection) -> TMConnection:
    """Induced connection on coordinate one-forms.

    star[i][a][b] = -gamma[i][b][a]: differentiating dx^a picks up minus
    the transposed coefficients.  Tagged "g" because the cotangent frame
    is an algebroid frame in the Poisson pipeline.
    """
    if conn.target != "tm":
        raise ValueError("cotangent_connection starts from a tangent connection")
    n = conn.chart.dim
    star = np.empty((n, n, n), dtype=object)
    for i, a, b in np.ndindex(n, n, n):
        star[i, a, b] = cneg(conn.gamma[i, b, a])
    return TMConnection(conn.chart, star, target="g")


@dataclass(frozen=True)
class PoissonReport:
    poisson: TensorField
    algebroid: Algebroid
    connection: TMConnection
    cotangent: TMConnection
    nabla_pi: TensorField
    verdict: Verdict


def poisson_report(
    pi: TensorField,
    conn: TMConnection,
    policy: Optional[ZeroPolicy] = None,
) -> PoissonReport:
    """Does the bivector plus connection look locally like a dual algebra?

    Sub-verdicts, in order: coefficient symmetry of the connection, the
    mixed curvature/second-derivative identity that characterizes
    bracket compatibility for torsion-free connections, flatness, the
    parallelism of the bivector derivative, and the bracket rewriting
    identity on the cotangent frame.  All five passing is the local
    action-algebroid verdict.
    """
    from .algebroid import build_poisson_algebroid

    policy = policy or ZeroPolicy()
    chart = pi.chart
    n = chart.dim
    if conn.target != "tm" or conn.chart != chart:
        raise ValueError("need a tangent connection on the same chart")
    g = build_poisson_algebroid(pi, policy)
    star = cotangent_connection(conn)

    # torsion freedom: coefficient symmetry
    sym_items = [
        (
            f"gamma[{i},{j},{k}] - gamma[{j},{i},{k}]",
            csum((conn.gamma[i, j, k], cneg(conn.gamma[j, i, k]))),
        )
        for i, j in combinations(range(n), 2)
        for k in range(n)
    ]
    torsion_free = _battery("torsion_free", sym_items, chart, policy)

    nabla_pi = tensor_cov_deriv(conn, pi)
    nabla2_pi = tensor_cov_deriv(conn, nabla_pi)

    Rstar = curvature_tm(star)
    sx_items = []
    for k in range(n):
        for a, b in combinations(range(n), 2):
            for mm in range(n):
                total = [cneg(nabla2_pi[a, b, mm, k])]
                for j in range(n):
                    total.append(cmul(g.rho[j, a], Rstar[k, j, b, mm]))
                    total.append(cneg(cmul(g.rho[j, b], Rstar[k, j, a, mm])))
                sx_items.append(
                    (f"sx defect V=d_{k}, ({a},{b}) component {mm}", csum(total))
                )
    lemma_sx = _battery("lemma_sx", sx_items, chart, policy)

    flat = _tensor_battery("flat", curvature_tm(conn), policy, skew=2)
    parallel = _tensor_battery("nabla_pi_parallel", nabla2_pi, policy)

    p2_items = []
    for a, b in combinations(range(n), 2):
        for k in range(n):
            total = [nabla_pi[a, b, k], cneg(g.structure[a, b, k])]
            for i in range(n):
                total.append(cmul(g.rho[i, a], star.gamma[i, b, k]))
                total.append(cneg(cmul(g.rho[i, b], star.gamma[i, a, k])))
            p2_items.append(
                (f"bracket rewriting ({a},{b}) component {k}", csum(total))
            )
    p2 = _battery("p2_identity", p2_items, chart, policy)

    verdict = _aggregate(
        "locally_action_algebroid",
        [torsion_free, lemma_sx, flat, parallel, p2],
        notes=(
            ("all sub-verdicts pass: the cotangent algebroid is locally an "
             "action algebroid of its parallel frame",)
            if all(v.ok for v in (torsion_free, lemma_sx, flat, parallel, p2))
            else ()
        ),
    )
    return PoissonReport(
        poisson=pi,
        algebroid=g,
        connection=conn,
        cotangent=star,
        nabla_pi=nabla_pi,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Invariant calculus for flat actions
# ---------------------------------------------------------------------------


def _require_flat(rep: GConnection, policy, who: str):
    flatness = is_flat_g(rep, policy)
    if not flatness.ok:
        raise DegenerateError.from_verdict(
            f"{who} needs a flat action: curvature {flatness.detail}", flatness
        )


def fundamental_operator(
    rep: GConnection,
    tau,
    rep_tm: Optional[GConnection] = None,
    policy: Optional[ZeroPolicy] = None,
) -> TensorField:
    """Frame-indexed derivative of an equivariant quantity.

    Accepts a section of the action's target, or any tensor whose slots
    the supplied actions cover; the new lower algebroid slot comes
    first, so contracting a frame into slot 0 recovers the directional
    derivative.  Requires flat actions — for curved ones the answer
    would depend on the frame, which is exactly what this operator is
    not allowed to do.
    """
    policy = policy or ZeroPolicy()
    _require_flat(rep, policy, "fundamental_operator")
    if rep_tm is not None:
        _require_flat(rep_tm, policy, "fundamental_operator")
    rep_g_arg = rep if rep.target == "self" else None
    rep_tm_arg = rep_tm if rep_tm is not None else (
        rep if rep.target == "tm" else None
    )
    val = g_tensor_deriv(tau, rep_g=rep_g_arg, rep_tm=rep_tm_arg)
    moved = np.moveaxis(val.components, -1, 0)
    return TensorField(
        tau.chart, ((LOW, G),) + tau.slots, np.ascontiguousarray(moved)
    )


def _form_degree(rep: GConnection, theta: TensorField) -> int:
    """Validate the slot pattern (k lower algebroid slots, one value
    slot matching the action target) and return k."""
    if theta.ndim == 0:
        raise ValueError("forms carry at least the value slot")
    *args, value = theta.slots
    if value != (UP, rep.target_tag):
        raise ValueError(
            f"value slot {value} does not match the action target "
            f"{rep.target_tag!r}"
        )
    for s in args:
        if s != (LOW, G):
            raise ValueError("argument slots must be lower algebroid slots")
    return len(args)


def _argument_pairs(k: int) -> tuple:
    """Adjacent argument slots of a k-form; swaps of these generate all."""
    return tuple((i, i + 1) for i in range(k - 1))


def _alternating_sum(
    rep: GConnection, theta: TensorField, lead, K, sign: int, r: int
) -> dict:
    """The defining entries of the (k+1)-form, with values in ``rep``'s target,

        sum_i (-1)^i L(a_i; rest)
          + sign * sum_{i<j} (-1)^(i+j) sum_d K[a_i, a_j, d] theta[d, rest]

    of a k-form ``theta`` on a rank-``r`` algebroid; ``lead(a, rest)``
    returns L as a list over the value index, each entry the list of
    canonical terms whose sum it is.  A lead with a plus sign is spliced
    into the entry's sum and one with a minus sign is the negation of its
    sum.  The formula is evaluated on strictly increasing argument tuples
    only, and these entries are returned, keyed by index in ``np.ndindex``
    order.  ``sign`` multiplies each K term rather than K itself, so K
    terms collect exactly when K is a sum.
    """
    k, w = theta.ndim - 1, rep.target_rank
    brackets = {(a, b): _nonzero(K[a, b]) for a, b in combinations(range(r), 2)}
    built = {}
    for args in combinations(range(r), k + 1):
        terms = [[] for _ in range(w)]
        for i, a in enumerate(args):
            for be, ts in enumerate(lead(a, args[:i] + args[i + 1 :])):
                if i % 2 == 0:
                    terms[be] += ts
                else:
                    terms[be].append(cneg(csum(ts)))
        for (i, a), (j, b) in combinations(enumerate(args), 2):
            rest = tuple(c for c in args if c not in (a, b))
            plus = (-1) ** (i + j) * sign > 0
            for d, coeff in brackets[a, b]:
                for be in range(w):
                    t = cmul(coeff, theta[(d,) + rest + (be,)])
                    terms[be].append(t if plus else cneg(t))
        for be in range(w):
            built[args + (be,)] = csum(terms[be])
    return built


def _form(rep: GConnection, degree: int, built: dict) -> TensorField:
    """The ``degree``-form of :func:`_alternating_sum`'s ``built`` entries."""
    shape = (rep.g.rank,) * degree + (rep.target_rank,)
    slots = ((LOW, G),) * degree + ((UP, rep.target_tag),)
    return TensorField(rep.g.chart, slots, _skew_table(shape, degree, built))


def exterior_derivative(
    rep: GConnection,
    theta: TensorField,
    policy: Optional[ZeroPolicy] = None,
) -> TensorField:
    """Alternating derivative of a form with values in a flat action.

    One frame formula for every degree: each argument acts on theta at
    the remaining ones, alternated, minus theta at the brackets of
    argument pairs.  Inputs of degree 0, 1 and 2 only -- that is all the
    downstream identities need.  The output is antisymmetric by
    construction.  Squares to zero precisely because the action is flat,
    which is checked on entry.
    """
    policy = policy or ZeroPolicy()
    _require_flat(rep, policy, "exterior_derivative")
    k = _form_degree(rep, theta)
    if k > 2:
        raise ValueError("degree > 2 is not supported")
    theta.check_pairs(antisymmetric=_argument_pairs(k), policy=policy)
    return _form(rep, k + 1, _exterior_derivative(rep, theta))


def _exterior_derivative(rep: GConnection, theta: TensorField) -> dict:
    """The defining entries of :func:`exterior_derivative` of a form whose
    checks have passed, or that the package built alternating."""
    g = rep.g
    w = rep.target_rank
    directions = _directions(g.chart.coords, g.rho)

    # act is the covariant derivative of the value slot along frame a,
    # which bundles._derivative also computes, but it keeps its own loop:
    # _alternating_sum asks only for the increasing argument tuples, so a
    # 2-form on a rank-r algebroid is differentiated at r(r-1)(r-2)/2
    # entry-directions per value component, where _derivative would take
    # all r^2(r-1) off-diagonal ones: 6x the work at rank 3, 2.3x at 15.
    columns = [[_nonzero(rep.A[a, :, be]) for be in range(w)] for a in range(g.rank)]

    def act(a: int, rest: tuple) -> list:
        """Derivative of theta[rest] along frame a, per value component,
        as the list of its terms."""
        comps = [theta[rest + (be,)] for be in range(w)]
        return [
            _along(directions[a], comps[be])
            + [cmul(coeff, comps[ga]) for ga, coeff in columns[a][be]]
            for be in range(w)
        ]

    return _alternating_sum(rep, theta, act, g.structure, 1, g.rank)


def dtheta_decomposition(
    rep: GConnection,
    theta: TensorField,
    rep_on_g: GConnection,
    policy: Optional[ZeroPolicy] = None,
) -> TensorField:
    """The exterior derivative reassembled from the frame derivative.

    Wedge of the tautological form with the fundamental derivative of
    theta, plus the torsion insertion term.  Must agree with
    :func:`exterior_derivative` entry for entry; the comparison is one
    of the battery identities.  Algebroid-valued forms must use the
    self-action itself (``rep is rep_on_g`` in spirit: the coefficient
    tables must coincide).
    """
    policy = policy or ZeroPolicy()
    if rep_on_g.target != "self":
        raise ValueError("rep_on_g must act on the algebroid itself")
    k = _form_degree(rep, theta)
    if k not in (1, 2):
        raise ValueError("decomposition applies to degree 1 and 2 forms")
    theta.check_pairs(antisymmetric=_argument_pairs(k), policy=policy)
    if rep.target == "self" and rep is not rep_on_g:
        same = all(
            csum((rep.A[idx], cneg(rep_on_g.A[idx]))) is ZERO
            for idx in np.ndindex(*rep.A.shape)
        )
        if not same:
            raise ValueError(
                "algebroid-valued forms need the self-action itself as the "
                "value action"
            )
    return _form(rep, k + 1, _decomposition(rep, theta, rep_on_g))


def _decomposition(rep: GConnection, theta: TensorField, rep_on_g: GConnection) -> dict:
    """The defining entries of :func:`dtheta_decomposition`, whose checks
    have passed."""
    if rep.target == "self":
        D = g_tensor_deriv(theta, rep_g=rep_on_g)
    else:
        D = g_tensor_deriv(theta, rep_g=rep_on_g, rep_tm=rep)

    def derivative(a: int, rest: tuple) -> list:
        return [[D[rest + (be, a)]] for be in range(rep.target_rank)]

    T = torsion_g(rep_on_g)
    return _alternating_sum(rep, theta, derivative, T, -1, rep_on_g.g.rank)


# ---------------------------------------------------------------------------
# Coframe geometries
# ---------------------------------------------------------------------------


class Parallelism:
    """A chart together with a model algebra and an invertible coframe.

    ``omega[a][i]`` is the a-th model component of the coframe applied
    to d/dx^i.  Pointwise invertibility over the sampling box is part of
    construction: the determinant is scanned at ``policy``'s samples and
    seed, and a singular coframe is rejected with a
    :class:`DegenerateError` carrying the witness.
    """

    def __init__(
        self, chart: Chart, algebra: LieAlgebra, omega, policy: Optional[ZeroPolicy] = None
    ):
        policy = policy or ZeroPolicy()
        if algebra.dim != chart.dim:
            raise ValueError(
                f"model algebra dimension {algebra.dim} does not match the "
                f"chart dimension {chart.dim}"
            )
        om = np.array(omega, dtype=object)
        if om.shape != (chart.dim, chart.dim):
            raise ValueError("omega must be a square coefficient matrix")
        self.chart = chart
        self.algebra = algebra
        self.omega = _component_array(chart, om)

        n = chart.dim
        M = [[self.omega[a, i] for i in range(n)] for a in range(n)]
        det = sym_det(M)
        bad = chart.vanishing_witness(det, policy.samples, policy.seed)
        if bad is not None:
            p, val = bad.point, bad.value
            if bad.near_zero:
                raise DegenerateError(f"coframe is singular at {p}: det = {val}", p, val)
            raise DegenerateError(
                f"coframe is singular inside the box: det = {val} at {p} has "
                f"the opposite sign to the midpoint's",
                p,
                val,
            )
        self._inverse = adjugate_inverse(M, det)

    @property
    def inverse(self):
        """(omega^{-1})[i][a]: coefficient matrix of the dual frame."""
        return self._inverse

    def connection(self) -> TMConnection:
        """Flat connection whose parallel frame is the dual frame:
        gamma[i][j][k] = (omega^{-1})^k_a d_i omega^a_j."""
        n = self.chart.dim
        gamma = np.empty((n, n, n), dtype=object)
        for i, j, k in np.ndindex(n, n, n):
            gamma[i, j, k] = csum(
                cmul(self._inverse[k, a], diff(self.omega[a, j], self.chart.coords[i]))
                for a in range(n)
            )
        return TMConnection(self.chart, gamma, target="tm")

    def curvature_form(self) -> np.ndarray:
        """Model-valued structure defect of the coframe.

        Omega[a][i][j] = d_i omega^a_j - d_j omega^a_i
                         + f^a_{bc} omega^b_i omega^c_j.
        """
        n = self.chart.dim
        f = self.algebra.structure
        out = np.empty((n, n, n), dtype=object)
        for a, i, j in np.ndindex(n, n, n):
            terms = [
                diff(self.omega[a, j], self.chart.coords[i]),
                cneg(diff(self.omega[a, i], self.chart.coords[j])),
            ]
            for b, c in np.ndindex(n, n):
                if f[b, c, a] != 0:
                    coeff = as_expr(f[b, c, a], self.chart)
                    terms.append(cmul(coeff, cmul(self.omega[b, i], self.omega[c, j])))
            out[a, i, j] = csum(terms)
        return out

    def __repr__(self):
        return f"<parallelism dim={self.chart.dim}>"


@dataclass(frozen=True)
class ParallelismReport:
    parallelism: Parallelism
    connection: TMConnection
    curvature_form: np.ndarray
    curvature_tensor: TensorField
    verdict: Verdict

    @property
    def model_flat(self) -> bool:
        return self.verdict.child("model_equation").ok


def parallelism_report(
    P: Parallelism, policy: Optional[ZeroPolicy] = None
) -> ParallelismReport:
    """Coframe pipeline: the symmetry verdict for the pulled-back
    curvature (theorem C).

    The induced connection is flat, and its torsion is the pulled-back
    d(omega), by construction, so neither is re-checked here; the tests
    gate both.  The verdict is theorem C's: locally_symmetric exactly
    when the frame-valued curvature is parallel for the induced
    connection, curved when it is not, and undecidable, with
    ``theorem_c`` as detail, when that battery cannot be decided.  When
    the curvature vanishes outright a note records that the coframe
    satisfies its model structure equation.
    """
    policy = policy or ZeroPolicy()
    chart = P.chart
    n = chart.dim
    D = P.connection()
    Om = P.curvature_form()

    tilde = np.empty((n, n, n), dtype=object)
    for i, j, k in np.ndindex(n, n, n):
        tilde[i, j, k] = csum(cmul(P.inverse[k, a], Om[a, i, j]) for a in range(n))
    curvature_tensor = TensorField(chart, ((LOW, TM), (LOW, TM), (UP, TM)), tilde)
    transported = tensor_cov_deriv(D, curvature_tensor)
    parallel = _tensor_battery("curvature_parallel", transported, policy)

    model_flat = _battery(
        "model_equation",
        (
            (f"Omega[{a},{i},{j}]", Om[a, i, j])
            for a in range(n)
            for i, j in combinations(range(n), 2)
        ),
        chart,
        policy,
    )

    notes = []
    if model_flat.ok:
        notes.append(
            "curvature form vanishes: the coframe satisfies the structure "
            "equation of its model algebra (a local model chart)"
        )
    if parallel.ok:
        status = "locally_symmetric"
    elif parallel.status == "undecidable":
        status = "undecidable"
    else:
        status = "curved"
    theorem_c = Verdict(
        "theorem_c",
        status,
        parallel.path,
        witness=parallel.witness,
        value=parallel.value,
        detail=parallel.detail,
        children=(parallel,),
    )

    verdict = Verdict(
        "parallelism",
        status,
        theorem_c.path,
        witness=theorem_c.witness,
        value=theorem_c.value,
        detail="theorem_c" if status == "undecidable" else theorem_c.detail,
        children=(model_flat, theorem_c),
        notes=tuple(notes),
    )
    return ParallelismReport(
        parallelism=P,
        connection=D,
        curvature_form=Om,
        curvature_tensor=curvature_tensor,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Numeric holonomy cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HolonomyResult:
    holonomy: np.ndarray
    log_holonomy: np.ndarray
    curvature_term: np.ndarray
    defect: np.ndarray

    @property
    def defect_norm(self) -> float:
        return float(np.linalg.norm(self.defect))


def holonomy_check(
    conn: TMConnection,
    point,
    plane: Tuple[int, int],
    side: float,
    steps: int = 64,
) -> HolonomyResult:
    """Transport a frame around a small coordinate square and compare
    the log of the resulting matrix with the symbolic curvature.

    The loop runs from the base point along +e_i, then +e_j, then back;
    for that orientation log(holonomy) approaches -side^2 R(d_i, d_j),
    so the returned defect log(H) + side^2 R is third order in the side
    length.  Fixed-step RK4; the loops this is meant for are tiny and
    the coefficients smooth, so adaptivity would buy nothing.

    Each RK4 step multiplies the frame by I + E_s, and the step
    increments E_s of all four sides are built in batched products and
    composed pairwise (:func:`_compose_increments`), in ceil(log2(4*steps))
    batched products, with rounding that grows like the log of the step
    count, not like the step count.  A flat connection's
    increments are zero, so its holonomy is exactly the identity.
    """
    if conn.target != "tm":
        raise ValueError("holonomy transport needs a tangent connection")
    chart = conn.chart
    n = chart.dim
    i, j = plane
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"bad plane {plane}")
    if steps < 1:
        raise ValueError("steps must be positive")
    p = np.array([float(x) for x in point], dtype=float)
    if p.shape != (n,):
        raise ValueError("point has the wrong dimension")
    h = float(side)

    e_i = np.zeros(n)
    e_i[i] = 1.0
    e_j = np.zeros(n)
    e_j[j] = 1.0
    corners = [p, p + h * e_i, p + h * e_i + h * e_j, p + h * e_j, p]
    for corner in corners:
        for k in range(n):
            lo, hi = chart.box[k]
            if not (float(lo) <= corner[k] <= float(hi)):
                raise ValueError(
                    f"loop exits the sampling box at {tuple(corner.tolist())}"
                )

    dt = 1.0 / steps
    # RK4 needs the generator at the side's 2*steps+1 nodes start + direction
    # * ((s + frac) * dt), frac in {0, 1/2, 1}; s + frac = node/2 exactly
    times = np.arange(2 * steps + 1) * 0.5 * dt
    increments = []
    for start, end in zip(corners[:-1], corners[1:]):
        direction = end - start
        nodes = start + direction * times[:, None]
        minus_K = -_transport_generators(conn, direction, nodes)
        # dM/dt = A(t) M is linear, so step s of RK4 is M <- (I + E_s) M,
        # with k1..k4 = A0 M, B2 M, B3 M, B4 M for the generators A0, A1,
        # A2 at the step's start, midpoint and end.  All E_s of a side
        # come from three batched products.
        A0, A1, A2 = minus_K[0:-1:2], minus_K[1::2], minus_K[2::2]
        B2 = A1 + 0.5 * dt * (A1 @ A0)
        B3 = A1 + 0.5 * dt * (A1 @ B2)
        B4 = A2 + dt * (A2 @ B3)
        increments.append(dt / 6.0 * (A0 + 2 * B2 + 2 * B3 + B4))
    M = np.eye(n) + _compose_increments(np.concatenate(increments))

    R = curvature_tm(conn)
    batch = evaluate_batch(
        [R[i, j, a, b] for a in range(n) for b in range(n)], chart.coords, [p]
    )
    if batch.invalid[0]:
        raise ValueError(
            f"curvature undefined at the base point {tuple(p.tolist())}: "
            f"{batch.domain_error(0)}"
        )
    curv = np.array([v[0] for v in batch.values]).reshape(n, n).T

    try:
        log_h = principal_log(M)
    except ValueError as exc:
        raise ValueError(f"the loop's holonomy has no real logarithm: {exc}") from None
    defect = log_h + h * h * curv
    return HolonomyResult(
        holonomy=M,
        log_holonomy=log_h,
        curvature_term=h * h * curv,
        defect=defect,
    )


def _compose_increments(E: np.ndarray) -> np.ndarray:
    """F with I + F = (I + E[-1]) ... (I + E[1]) (I + E[0]).

    The product is associative, so it is reduced pairwise, a tree of
    depth ceil(log2(len(E))) with one batched product per level
    (Blelloch 1990).  Its rounding error grows like the log of the
    number of factors, as pairwise summation's does (Higham 2002,
    section 4.2).  Adjacent factors combine in increment form,
    (I + b)(I + a) = I + (a + b + b a), which keeps the small increments
    apart from I: zero increments compose to exactly zero.
    """
    while len(E) > 1:
        odd = len(E) % 2
        a, b = E[0 : len(E) - odd : 2], E[1::2]
        pairs = a + b + b @ a
        E = np.concatenate((pairs, E[-1:])) if odd else pairs
    return E[0]


def principal_log(M) -> np.ndarray:
    """Principal logarithm of a real square matrix, by inverse scaling
    and squaring (Higham, *Functions of Matrices*, 2008, ch. 11).

    Denman-Beavers square roots bring A = M^(1/2^k) to ||A - I||_1 <= 1/4;
    then log A = 2 artanh(Z) with Z = (A - I)(A + I)^-1, whose odd
    series is summed until a term no longer changes the sum, and
    log M = 2^k log A.  Raises ``ValueError`` when M is not finite or
    has an eigenvalue on the closed negative real axis, where no real
    principal logarithm exists: zero to working precision, or within
    sqrt(eps) of the branch cut in argument, where rounding alone would
    pick the side.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("principal_log needs a square matrix")
    if not np.isfinite(A).all():
        raise ValueError("the matrix has non-finite entries")
    n = A.shape[0]
    eps = np.finfo(float).eps
    lam = np.linalg.eigvals(A)
    norm1 = np.abs(A).sum(axis=0).max()
    if (
        (np.abs(lam) <= n * eps * norm1)
        | (np.abs(np.angle(lam)) >= np.pi - np.sqrt(eps))
    ).any():
        raise ValueError("an eigenvalue lies on the closed negative real axis")
    eye = np.eye(n)
    roots = 0
    while np.abs(A - eye).sum(axis=0).max() > 0.25:
        A = _sqrtm_denman_beavers(A)
        roots += 1
    Z = np.linalg.solve(A + eye, A - eye)
    Z2 = Z @ Z
    total = Z.copy()
    power = Z
    k = 1
    while True:
        power = power @ Z2
        k += 2
        term = power / k
        if np.abs(term).max() <= eps * np.abs(total).max():
            break
        total += term
    return 2.0 ** (roots + 1) * total


def _sqrtm_denman_beavers(A: np.ndarray) -> np.ndarray:
    """Principal square root of A, which has no eigenvalue on the closed
    negative real axis, by the Denman-Beavers iteration."""
    Y, Z = A, np.eye(A.shape[0])
    for _ in range(64):
        Y_next = 0.5 * (Y + np.linalg.inv(Z))
        Z = 0.5 * (Z + np.linalg.inv(Y))
        change = np.abs(Y_next - Y).max() / np.abs(Y_next).max()
        Y = Y_next
        if change <= np.sqrt(np.finfo(float).eps):
            # convergence is quadratic: one more step reaches rounding level
            return 0.5 * (Y + np.linalg.inv(Z))
    raise ValueError("square root iteration did not converge")


def _transport_generators(conn: TMConnection, direction, nodes) -> np.ndarray:
    """K[q, b, m] = direction^i gamma[i][m][b] at each node q: the
    entries along the zero components of ``direction`` are not needed."""
    n = conn.chart.dim
    axes = [i for i in range(n) if direction[i] != 0.0]
    entries = [conn.gamma[i, m, b] for i in axes for m in range(n) for b in range(n)]
    batch = evaluate_batch(entries, conn.chart.coords, nodes)
    if batch.invalid.any():
        q = int(np.argmax(batch.invalid))
        raise ValueError(
            f"connection undefined on the loop at {tuple(nodes[q].tolist())}: "
            f"{batch.domain_error(q)}"
        )
    out = np.zeros((len(nodes), n, n))
    values = iter(batch.values)
    for i in axes:
        for m in range(n):
            for b in range(n):
                out[:, b, m] += direction[i] * next(values)
    return out


# ---------------------------------------------------------------------------
# Identity battery (shared by the command line and the test suite)
# ---------------------------------------------------------------------------


#: how many seeded one-forms the flat-action batteries run on
_BATTERY_FORMS = 3


def _random_one_form(g: Algebroid, seed: int) -> TensorField:
    """Seeded degree-<=1 polynomial one-form valued in the algebroid:
    entry (a, b) is c_0 + c_1 x^1 + ... + c_n x^n, each c drawn from
    -2..2."""
    rng = np.random.default_rng([seed, g.rank, g.chart.dim])
    # one draw of every coefficient: the stream of one draw per coefficient
    coeffs = rng.choice([-2, -1, 0, 1, 2], size=(g.rank, g.rank, 1 + g.chart.dim))
    coords = [as_expr(name, g.chart) for name in g.chart.coords]
    comps = np.empty((g.rank, g.rank), dtype=object)
    for a, be in np.ndindex(g.rank, g.rank):
        constant, *linear = coeffs[a, be].tolist()
        comps[a, be] = csum(
            [Const(constant)] + [cmul(Const(c), x) for c, x in zip(linear, coords)]
        )
    return TensorField(g.chart, ((LOW, G), (UP, G)), comps)


def identity_battery(
    g: Algebroid,
    conn: TMConnection,
    policy: Optional[ZeroPolicy] = None,
) -> Verdict:
    """Structural identities for one algebroid/connection pair.

    Always runs: anchor equivariance of the induced actions, the dual
    round trip, the dual curvature-exchange identity, and entrywise
    agreement of the two compatibility routes.  When the pair is
    compatible, also runs the flat-action batteries (squared exterior
    derivative and the derivative decomposition on three seeded
    one-forms) and, if additionally transitive, the anchored-curvature
    identity.  Each battery scans the entries its kernel built
    (:func:`~cartankit.bundles._built_entries`); no table of d² or of d1 -
    decomposition is filled.
    """
    from .connections import check_anchor_equivariance, dual_connection, dual_pair_defect

    policy = policy or ZeroPolicy()
    chart = g.chart
    children = []

    children.append(check_anchor_equivariance(g, conn, policy))

    rep = induced_rep_on_g(g, conn)
    dual = dual_connection(rep)
    # built afresh from the dual's coefficients, not handed back as rep
    dd = dual_connection(dual)
    round_items = [
        (f"double dual A[{idx}]", csum((dd.A[idx], cneg(rep.A[idx]))))
        for idx in np.ndindex(*rep.A.shape)
    ]
    T = torsion_g(rep)
    Ts = torsion_g(dual)
    round_items += [
        (f"torsion mirror [{idx}]", csum((T.components[idx], Ts.components[idx])))
        for idx in np.ndindex(*T.shape)
    ]
    children.append(_battery("dual_round_trip", round_items, chart, policy))

    children.append(
        _tensor_battery("dual_curvature_exchange", dual_pair_defect(rep), policy, skew=2)
    )

    defects = frame_defects(g, conn)
    agreement_items = [
        (
            f"route difference (e_{a},e_{b}) d_{i} comp {c}",
            csum((defects.direct[i, a, b, c], cneg(defects.lifted[a, b, c, i]))),
        )
        for a, b in combinations(range(g.rank), 2)
        for i in range(chart.dim)
        for c in range(g.rank)
    ]
    children.append(_battery("route_agreement", agreement_items, chart, policy))

    cart = check_cartan(g, conn, policy)
    children.append(cart)
    notes = []
    if cart.ok:
        for s in range(_BATTERY_FORMS):
            theta = _random_one_form(g, seed=s)
            d1 = exterior_derivative(rep, theta, policy)
            # d1 is alternating by construction (a test gates that), so
            # the core skips the input checks
            d2 = _exterior_derivative(rep, d1)
            # theta, a one-form of the self-action, passes
            # dtheta_decomposition's input checks
            decomp = _decomposition(rep, theta, rep)
            batteries = {
                "d_squared": _built_entries((g.rank,) + d1.shape, d2.__getitem__, 3),
                # each entry of d1 - decomp as TensorField.__sub__ builds it
                "d_decomposition": _built_entries(
                    d1.shape, lambda idx: csum((d1[idx], cneg(decomp[idx]))), 2
                ),
            }
            for name, items in batteries.items():
                children.append(_battery(f"{name}_form_{s}", items, chart, policy))
        try:
            scan = orbit_scan(g, policy)
        except DomainError as exc:
            children.append(
                Verdict(
                    "anchored_curvature",
                    "undecidable",
                    "undecidable",
                    detail=f"anchor undefined inside the box: {exc}",
                )
            )
        else:
            if scan.transitive:
                abba = abba_defect(g, conn)
                children.append(
                    _tensor_battery("anchored_curvature", abba, policy, skew=2)
                )
            else:
                notes.append(
                    "anchored-curvature identity skipped: algebroid is not "
                    "transitive on the box"
                )
    else:
        notes.append(
            "flat-action batteries skipped: the pair is not compatible"
        )
    return _aggregate("identities", children, notes=notes)
