import sys
from collections import Counter
from functools import partial, reduce
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from cartankit.algebroid import (
    Algebroid,
    LieAlgebra,
    bracket,
    build_action_algebroid,
    build_poisson_algebroid,
    tangent_algebroid,
    validate,
)
from cartankit import bundles, cartan, symcore
from cartankit.bundles import (
    LOW,
    TM,
    UP,
    G,
    Section,
    TensorField,
    _battery,
    _tensor_battery,
    as_expr,
)
from cartankit.cartan import (
    Parallelism,
    Verdict,
    abba_defect,
    check_cartan,
    cotangent_connection,
    frame_defects,
    dtheta_decomposition,
    exterior_derivative,
    fundamental_operator,
    holonomy_check,
    identity_battery,
    metric_checks,
    metric_pair,
    parallelism_report,
    principal_log,
    poisson_report,
    reductive_connection,
    riemann_pipeline,
    theorem_a_verdict,
    transitive_symmetry_check,
)
from cartankit.connections import (
    GConnection,
    TMConnection,
    christoffel,
    cov_deriv_g,
    cov_deriv_tm,
    curvature_g,
    curvature_tm,
    dual_connection,
    dual_pair_defect,
    g_tensor_deriv,
    induced_rep_on_g,
    induced_rep_on_tm,
    is_flat_g,
    metric_inverse,
    torsion_g,
)
from cartankit.cli import GeometrySpec, Workspace, load_spec
from cartankit.jet import (
    JetSection,
    frame_lift_curvature,
    jet_bracket,
    splitting_from_connection,
)
from test_golden import METRIC_SPECS
from test_jet import _reference_splitting_curvature
from cartankit.symcore import (
    ZERO,
    Call,
    Chart,
    Const,
    DegenerateError,
    DomainError,
    Sym,
    ZeroPolicy,
    canon,
    cmul,
    cneg,
    csum,
    diff,
    evaluate,
    is_zero,
)
from test_algebroid import so3_algebra

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

R2 = Chart(("x", "y"), [(-1, 1), (-1, 1)])
R3 = Chart(("x", "y", "z"), [(-1, 1), (-1, 1), (-1, 1)])
SPHERE = Chart(
    ("theta", "phi"),
    [("1/2", "5/2"), (0, 3)],
    guards=[Call("sin", Sym("theta"))],
)
POLICY = ZeroPolicy()


def so3_pair():
    fields = [
        Section(R3, ("0", "z", "-y"), "tm"),
        Section(R3, ("-z", "0", "x"), "tm"),
        Section(R3, ("y", "-x", "0"), "tm"),
    ]
    g = build_action_algebroid(so3_algebra(), fields)
    return g, TMConnection.flat(R3, 3, target="g")


def euclid_metric():
    sigma = TensorField(R2, ((LOW, TM), (LOW, TM)), [["1", "0"], ["0", "1"]])
    sigma.check_pairs(symmetric=((0, 1),))
    return sigma


def sphere_metric():
    sigma = TensorField(
        SPHERE,
        ((LOW, TM), (LOW, TM)),
        [["1", "0"], ["0", "sin(theta)^2"]],
    )
    sigma.check_pairs(symmetric=((0, 1),))
    return sigma


def ellipsoid_metric():
    sigma = TensorField(
        SPHERE,
        ((LOW, TM), (LOW, TM)),
        [["1", "0"], ["0", "(1 + (3/10)*sin(theta)^2)*sin(theta)^2"]],
    )
    sigma.check_pairs(symmetric=((0, 1),))
    return sigma


def symplectic_pair():
    pi = TensorField(R2, ((UP, TM), (UP, TM)), [["0", "1"], ["-1", "0"]])
    pi.check_pairs(antisymmetric=((0, 1),))
    g = build_poisson_algebroid(pi)
    return pi, g, TMConnection.flat(R2, 2, target="tm")


def so3_dual_poisson():
    pi = TensorField(
        R3,
        ((UP, TM), (UP, TM)),
        [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]],
    )
    pi.check_pairs(antisymmetric=((0, 1),))
    return pi, TMConnection.flat(R3, 3, target="tm")


def flat_but_incompatible():
    """Flat coefficients that still fail the bracket compatibility."""
    g = tangent_algebroid(R2)
    gamma = np.empty((2, 2, 2), dtype=object)
    gamma[...] = Const(0)
    gamma[0, 1, 1] = "-2*x"
    return g, TMConnection(R2, gamma, target="g")


def affine_parallelism():
    chart = Chart(("a", "b"), [("1/2", 2), (-1, 1)])
    st = np.zeros((2, 2, 2), dtype=object)
    st[...] = 0
    st[0, 1, 1] = 1
    st[1, 0, 1] = -1
    return Parallelism(chart, LieAlgebra(2, st), [["1/a", "0"], ["0", "1/a"]])


def sheared_parallelism():
    """A coframe on the same model whose curvature form is not zero."""
    chart = Chart(("x", "y"), [(0, 1), (0, 1)])
    st = np.zeros((2, 2, 2), dtype=int)
    st[0, 1, 1], st[1, 0, 1] = 1, -1
    return Parallelism(chart, LieAlgebra(2, st), [["1", "x"], ["y", "1+x"]])


# --------------------------------------------------------------- verdicts


def test_failing_verdict_requires_witness():
    with pytest.raises(ValueError):
        Verdict("broken", "fail")


def test_verdict_as_dict_round_trips_children():
    leaf = Verdict("leaf", "fail", "probabilistic", witness=(0.5, 0.5), value=1e-3)
    parent = Verdict("parent", "pass", children=(leaf,), notes=("hello",))
    d = parent.as_dict()
    assert d["children"][0]["witness"] == [0.5, 0.5]
    assert d["notes"] == ["hello"]
    assert parent.child("leaf") is leaf
    with pytest.raises(KeyError):
        parent.child("nope")


# ------------------------------------------------- compatibility, two ways


def _reference_compat_defect(g, conn, V, X, Y):
    """Defect of the connection against the bracket, built from sections:
    the reference for the direct route of ``frame_defects``.

    C(V, X, Y) = D_V [X,Y] - [D_V X, Y] - [X, D_V Y]
                 - D_{B_Y V} X + D_{B_X V} Y

    where D is the connection and B the companion action of sections on
    vector fields (``induced_rep_on_tm``).
    """
    if conn.chart != g.chart or conn.rank != g.rank:
        raise ValueError("connection does not target the algebroid")
    if V.frame != "tm":
        raise ValueError("first argument must be a vector field")
    rep_tm = induced_rep_on_tm(g, conn)
    t1 = cov_deriv_tm(conn, V, bracket(g, X, Y))
    t2 = bracket(g, cov_deriv_tm(conn, V, X), Y)
    t3 = bracket(g, X, cov_deriv_tm(conn, V, Y))
    t4 = cov_deriv_tm(conn, cov_deriv_g(rep_tm, Y, V), X)
    t5 = cov_deriv_tm(conn, cov_deriv_g(rep_tm, X, V), Y)
    out = [
        canon(
            t1.components[c]
            - t2.components[c]
            - t3.components[c]
            - t4.components[c]
            + t5.components[c]
        )
        for c in range(g.rank)
    ]
    return Section(g.chart, out, "g")


def _coordinate_field(chart, i):
    return Section(chart, ["1" if k == i else "0" for k in range(chart.dim)], "tm")


def assert_same_zero_test(mine, ref, chart, where, policy=POLICY):
    """Same zero test: zero, path and witness exactly, the value to the
    last places (the same function can reach two canonical forms)."""
    got, want = is_zero(mine, chart, policy), is_zero(ref, chart, policy)
    assert (got.zero, got.path, got.witness) == (want.zero, want.path, want.witness), where
    if want.value is None:
        assert got.value is None, where
    else:
        assert got.value == pytest.approx(want.value, rel=1e-12), where


def assert_frame_defects_match_references(g, conn, policy=POLICY):
    """Each closed-form table against its section-level reference, entry
    for entry; returns the number of entries compared."""
    defects = frame_defects(g, conn)
    chart = g.chart
    count = 0
    for a, b in combinations(range(g.rank), 2):
        X, Y = g.frame_section(a), g.frame_section(b)
        lifted = _reference_splitting_curvature(g, conn, X, Y)
        for i in range(chart.dim):
            direct = _reference_compat_defect(g, conn, _coordinate_field(chart, i), X, Y)
            for c in range(g.rank):
                where = (a, b, i, c)
                assert_same_zero_test(
                    defects.direct[i, a, b, c], direct.components[c], chart, where, policy
                )
                assert_same_zero_test(
                    defects.lifted[a, b, c, i], lifted[c, i], chart, where, policy
                )
                count += 1
    return count


def test_so3_pair_is_compatible():
    g, conn = so3_pair()
    v = check_cartan(g, conn, POLICY)
    assert v.ok
    assert {c.name for c in v.children} == {"bracket_compatibility", "jet_splitting"}
    assert all(c.ok for c in v.children)


def test_flat_but_incompatible_fails_both_routes():
    g, conn = flat_but_incompatible()
    v = check_cartan(g, conn, POLICY)
    assert not v.ok
    assert v.witness is not None
    assert all(not c.ok for c in v.children)


def test_frame_defects_reject_rank_mismatch():
    g, _ = so3_pair()
    wrong = TMConnection.flat(R3, 2, target="g")
    with pytest.raises(ValueError, match="does not target"):
        frame_defects(g, wrong)


def test_defect_matches_jet_curvature_entrywise_with_sign():
    # the two routes must agree entry for entry, not merely both vanish
    g, conn = flat_but_incompatible()
    defects = frame_defects(g, conn)
    C = [defects.direct[0, 0, 1, c] for c in range(2)]
    for c in range(2):
        assert canon(C[c] - defects.lifted[0, 1, c, 0]) == Const(0)
    # and the defect is honestly nonzero for this pair
    assert any(canon(C[c]) != Const(0) for c in range(2))


def test_frame_defects_are_kept_per_pair():
    g, conn = flat_but_incompatible()
    assert frame_defects(g, conn) is frame_defects(g, conn)
    other = tangent_algebroid(R2)
    assert frame_defects(other, conn) is not frame_defects(g, conn)


@pytest.mark.parametrize("seed,rank", [(0, 2), (1, 3), (2, 3), (3, 3)])
def test_closed_form_frame_defects_match_section_references(seed, rank):
    # seeded random anchor, structure and connection tables, axioms or
    # not: the closed forms must make the same zero test as the routes
    # built from sections, and the two routes must agree with each other
    rng = np.random.default_rng([seed, rank])
    pool = ["0", "0", "1", "-2", "x", "y", "x*y", "x^2 - y", "(x + y)^2", "1/(2 + x)"]
    pick = lambda: str(rng.choice(pool))  # noqa: E731
    rho = [[pick() for _ in range(rank)] for _ in range(2)]
    c = [[["0"] * rank for _ in range(rank)] for _ in range(rank)]
    for a, b in combinations(range(rank), 2):
        for d in range(rank):
            c[a][b][d] = pick()
            c[b][a][d] = f"-({c[a][b][d]})"
    g = Algebroid(R2, rank, rho, c)
    gamma = [[[pick() for _ in range(rank)] for _ in range(rank)] for _ in range(2)]
    conn = TMConnection(R2, gamma, target="g")
    assert assert_frame_defects_match_references(g, conn) == 2 * rank * rank * (rank - 1) // 2
    defects = frame_defects(g, conn)
    for a, b in combinations(range(rank), 2):
        for i in range(2):
            for d in range(rank):
                assert is_zero(
                    defects.direct[i, a, b, d] - defects.lifted[a, b, d, i], R2, POLICY
                ).zero


def test_frame_lift_curvature_matches_reference_on_metric_lift():
    for metric in (sphere_metric(), ellipsoid_metric()):
        g = tangent_algebroid(metric.chart)
        lc = christoffel(metric)
        L = frame_lift_curvature(g, lc)
        ref = _reference_splitting_curvature(g, lc, g.frame_section(0), g.frame_section(1))
        for c in range(2):
            for i in range(2):
                assert L[0, 1, c, i] == canon(ref[c, i])
    # the lift-curvature identity, which holds by construction and so is
    # not re-checked by the metric verdict: on the tangent algebroid, the
    # jet curvature of the metric connection's lift is minus its
    # coordinate curvature, entry for entry
    for name in METRIC_NAMES:
        sigma = named_metric(name)
        n = sigma.chart.dim
        lc = christoffel(sigma)
        L = frame_lift_curvature(tangent_algebroid(sigma.chart), lc)
        R = curvature_tm(lc)
        items = [
            (f"L[{i},{j},{b},{k}] + R[{i},{j},{k},{b}]", csum((L[i, j, b, k], R[i, j, k, b])))
            for i, j in combinations(range(n), 2)
            for b, k in np.ndindex(n, n)
        ]
        verdict = _battery("lift_curvature_identity", items, sigma.chart, POLICY)
        assert verdict.ok, (name, verdict)


def test_defect_vanishes_on_non_frame_sections_too():
    # tensoriality: passing on frames must mean passing everywhere
    g, conn = so3_pair()
    X = Section(R3, ("x", "1 - y", "x*z"), "g")
    Y = Section(R3, ("y^2", "3", "x + z"), "g")
    V = Section(R3, ("z", "x*y", "1"), "tm")
    C = _reference_compat_defect(g, conn, V, X, Y)
    for c in range(3):
        assert is_zero(C.components[c], R3, POLICY).zero


def test_defect_scales_tensorially_on_incompatible_pair():
    g, conn = flat_but_incompatible()
    V = Section(R2, ("1", "0"), "tm")
    X, Y = g.frame_section(0), g.frame_section(1)
    f, h, k = (as_expr(s, R2) for s in ("x + 2", "y^2 + 1", "x*y + 3"))
    lhs = _reference_compat_defect(g, conn, V.scale(f), X.scale(h), Y.scale(k))
    base = _reference_compat_defect(g, conn, V, X, Y)
    for c in range(2):
        assert is_zero(
            lhs.components[c] - f * h * k * base.components[c], R2, POLICY
        ).zero


# ------------------------------------------------------------- theorem A


def test_theorem_a_rotation_action_is_locally_symmetric():
    g, conn = so3_pair()
    v = theorem_a_verdict(g, conn, POLICY)
    assert v.status == "locally_symmetric"
    assert v.ok
    assert any("constant sections are parallel" in n for n in v.notes)


def test_theorem_a_not_cartan_branch():
    g, conn = flat_but_incompatible()
    v = theorem_a_verdict(g, conn, POLICY)
    assert v.status == "not_cartan"
    assert not v.ok
    assert v.witness is not None


def test_theorem_a_symplectic_cotangent_pair():
    _, g, conn = symplectic_pair()
    v = theorem_a_verdict(g, cotangent_connection(conn), POLICY)
    assert v.status == "locally_symmetric"


def test_theorem_a_matches_riemann_verdict_on_sphere_and_ellipsoid():
    # flat reductive connection exactly when the metric verdict passes
    g, nabla = metric_pair(sphere_metric(), POLICY)
    v = theorem_a_verdict(g, nabla, POLICY)
    assert v.status == "locally_symmetric"

    g2, nabla2 = metric_pair(ellipsoid_metric(), POLICY)
    v2 = theorem_a_verdict(g2, nabla2, POLICY)
    assert v2.status == "curved"
    assert v2.witness is not None


# ------------------------------------------------- transitive instances


def test_transitive_check_rejects_intransitive_algebroid():
    g, conn = so3_pair()  # anchor drops rank at the origin
    with pytest.raises(ValueError, match="not transitive"):
        transitive_symmetry_check(g, conn, POLICY)


def test_transitive_check_passes_on_symplectic_pair():
    _, g, conn = symplectic_pair()
    v = transitive_symmetry_check(g, cotangent_connection(conn), POLICY)
    assert v.ok


def test_transitive_check_fails_on_incompatible_pair():
    g, conn = flat_but_incompatible()
    v = transitive_symmetry_check(g, conn, POLICY)
    assert not v.ok
    assert v.witness is not None


def test_abba_defect_vanishes_on_transitive_compatible_pair():
    _, g, conn = symplectic_pair()
    defect = abba_defect(g, cotangent_connection(conn))
    assert _tensor_battery("anchored_curvature", defect, POLICY).ok


def test_abba_defect_shape_and_rank_guard():
    g, _ = so3_pair()
    with pytest.raises(ValueError):
        abba_defect(g, TMConnection.flat(R3, 2, target="g"))


# ------------------------------------------------- reductive construction


def euclid_reductive():
    return metric_pair(euclid_metric(), POLICY)


def test_euclid_cartan_connection_frozen_coefficients():
    _, nabla = euclid_reductive()
    gamma = nabla.gamma
    expected = {(0, 2, 1): Const(-1), (1, 2, 0): Const(1)}
    for idx in np.ndindex(2, 3, 3):
        want = expected.get(idx, Const(0))
        assert canon(gamma[idx] - want) == Const(0), idx


def test_reductive_rejects_non_splitting():
    g, nabla = euclid_reductive()
    t = np.empty((3, 2), dtype=object)
    t[...] = Const(0)
    rep_tm = induced_rep_on_tm(g, nabla)
    with pytest.raises(ValueError, match="not a splitting"):
        reductive_connection(g, t, rep_tm, POLICY)


def test_reductive_rejects_curved_action():
    g, _ = euclid_reductive()
    t = np.empty((3, 2), dtype=object)
    t[...] = Const(0)
    t[0, 0] = t[1, 1] = Const(1)
    A = np.empty((3, 2, 2), dtype=object)
    A[...] = Const(0)
    A[0, 0, 1] = "y"  # curvature does not cancel
    bad = GConnection(g, A, target="tm")
    with pytest.raises(ValueError, match="curvature"):
        reductive_connection(g, t, bad, POLICY)


def test_reductive_reports_undecidable_checks_as_undecidable():
    # sqrt(x - 5) is undefined on the whole box, so neither the splitting
    # nor the flatness can be decided: each rejection carries the
    # undecidable path and no witness
    g, nabla = euclid_reductive()
    rep_tm = induced_rep_on_tm(g, nabla)
    t = np.empty((3, 2), dtype=object)
    t[...] = Const(0)
    t[0, 0] = t[1, 1] = Const(1)
    unsure_t = t.copy()
    unsure_t[0, 0] = as_expr("1 + sqrt(x-5)", R2)
    A = np.empty((3, 2, 2), dtype=object)
    A[...] = Const(0)
    A[0, 0, 1] = "y*sqrt(x-5)"
    for args, message in (
        ((unsure_t, rep_tm), "not a splitting"),
        ((t, GConnection(g, A, target="tm")), "must be flat"),
    ):
        with pytest.raises(DegenerateError, match=message) as caught:
            reductive_connection(g, *args, POLICY)
        assert (caught.value.path, caught.value.point) == ("undecidable", None)


def test_reductive_rejects_wrong_target():
    g, nabla = euclid_reductive()
    t = np.empty((3, 2), dtype=object)
    t[...] = Const(0)
    t[0, 0] = t[1, 1] = Const(1)
    with pytest.raises(ValueError, match="tangent-target"):
        reductive_connection(g, t, induced_rep_on_g(g, nabla), POLICY)


def test_changing_splitting_moves_only_vertical_coefficients():
    g, nabla = euclid_reductive()
    rep_tm = induced_rep_on_tm(g, nabla)
    t2 = np.empty((3, 2), dtype=object)
    t2[...] = Const(0)
    t2[0, 0] = t2[1, 1] = Const(1)
    t2[2, 0], t2[2, 1] = "y", "x^2"
    other = reductive_connection(g, t2, rep_tm, POLICY)
    diff_seen = False
    for idx in np.ndindex(2, 3, 3):
        delta = canon(other.gamma[idx] - nabla.gamma[idx])
        if idx[2] < 2:  # tangent components must be untouched
            assert delta == Const(0), idx
        elif delta != Const(0):
            diff_seen = True
    assert diff_seen
    # and the induced tangent action is unchanged
    back = induced_rep_on_tm(g, other)
    for idx in np.ndindex(3, 2, 2):
        assert canon(back.A[idx] - rep_tm.A[idx]) == Const(0)


def test_self_action_rebuild_is_splitting_independent():
    # rebuilding from the induced self-action is independent of the
    # splitting and reproduces the connection exactly
    g, nabla = euclid_reductive()
    D = induced_rep_on_g(g, nabla)

    def rebuild(t):
        out = np.empty((2, 3, 3), dtype=object)
        for i in range(2):
            t_i = Section(R2, [t[b, i] for b in range(3)], "g")
            for al in range(3):
                val = cov_deriv_g(D, g.frame_section(al), t_i) + bracket(
                    g, t_i, g.frame_section(al)
                )
                for be in range(3):
                    out[i, al, be] = canon(val.components[be])
        return out

    t1 = np.empty((3, 2), dtype=object)
    t1[...] = Const(0)
    t1[0, 0] = t1[1, 1] = Const(1)
    t2 = t1.copy()
    t2[2, 0], t2[2, 1] = as_expr("y", R2), as_expr("x^2", R2)
    f1, f2 = rebuild(t1), rebuild(t2)
    for idx in np.ndindex(2, 3, 3):
        assert canon(f1[idx] - f2[idx]) == Const(0)
        assert canon(f1[idx] - nabla.gamma[idx]) == Const(0)


# ----------------------------------------------------------- metric pipeline


def test_euclid_pipeline_passes_symbolically():
    rep = riemann_pipeline(euclid_metric(), policy=POLICY)
    assert rep.verdict.ok
    assert rep.verdict.path == "symbolic"
    assert [c.name for c in rep.verdict.children] == ["h_invariance", "curvature_parallel"]
    assert metric_pair(euclid_metric(), POLICY)[0].rank == 3


# the corpus metrics and those of the golden specs
METRIC_NAMES = ["sphere", "hyperbolic", "ellipsoid", "euclid", "h3", "diag3", "h4", "h5"]


def named_metric(name):
    """A corpus metric, or h3, diag3, h4 or h5 from the golden specs."""
    if (CORPUS / f"{name}.json").exists():
        spec = load_spec(CORPUS / f"{name}.json")
    else:
        [doc] = [
            specs[f"{name}.json"]
            for specs in METRIC_SPECS.values()
            if f"{name}.json" in specs
        ]
        spec = GeometrySpec(doc)
    return Workspace(spec, POLICY).metric_tensor()


@pytest.mark.parametrize(
    "name", ["sphere", "hyperbolic", "ellipsoid", "euclid", "h3", "diag3", "h4"]
)
def test_isometry_algebroid_matches_jet_brackets(name):
    # reference route: the jet bracket of each pair of frames (lifts of
    # the coordinate fields through the metric connection, then the skew
    # basis embedded vertically), read off in the skew frame
    sigma = named_metric(name)
    chart = sigma.chart
    n = chart.dim
    lc = christoffel(sigma)
    skew = cartan._skew_basis(sigma)
    g = cartan._riemann_algebroid(sigma, lc, skew)
    tm = tangent_algebroid(chart)
    inv = metric_inverse(sigma)
    jets = [splitting_from_connection(tm, lc, tm.frame_section(i)) for i in range(n)]
    jets += [JetSection.vertical(tm, E) for E in skew]
    assert g.rank == len(jets) == n + n * (n - 1) // 2
    for al, be in combinations(range(g.rank), 2):
        J = jet_bracket(jets[al], jets[be])
        assert all(canon(c) is ZERO for c in J.base.components)
        psi = J.correction
        lam = [
            csum([cmul(psi[j, m], inv[m, i]) for m in range(n)])
            for i, j in combinations(range(n), 2)
        ]
        assert list(g.structure[al, be]) == [ZERO] * n + lam
        assert list(g.structure[be, al]) == [ZERO] * n + [cneg(c) for c in lam]
        for k in range(n):
            for l in range(n):
                residual = psi[k, l] - sum(
                    (c * E[k, l] for c, E in zip(lam, skew)), Const(0)
                )
                assert is_zero(residual, chart, POLICY).zero, (al, be, k, l)
    assert all(e is ZERO for al in range(g.rank) for e in g.structure[al, al])
    assert validate(g, POLICY).ok


def _section_level_reductive_gamma(g, t, A):
    # reference route: D_V e_a = [t V, e_a] + t(A_a V), with one
    # section-level algebroid bracket per coordinate direction and frame
    chart = g.chart
    n, r = chart.dim, g.rank
    gamma = np.empty((n, r, r), dtype=object)
    for i in range(n):
        t_i = Section(chart, [t[b, i] for b in range(r)], "g")
        for a in range(r):
            br = bracket(g, t_i, g.frame_section(a))
            for b in range(r):
                gamma[i, a, b] = csum(
                    [br.components[b]] + [cmul(A[a, i, k], t[b, k]) for k in range(n)]
                )
    return gamma


@pytest.mark.parametrize(
    "name", ["sphere", "hyperbolic", "ellipsoid", "h3", "diag3", "h4", "euclid-t2"]
)
def test_reductive_core_matches_section_level_construction(name):
    # metric_pair's inputs, or euclid's with the non-constant splitting
    # t2: the default skew basis is skew, the identity splitting (and t2)
    # splits the anchor and the tangent action is flat, so the public
    # reductive_connection accepts them.  Its connection's entries are
    # the section-level reference's canonical forms themselves (each form
    # is one object, however it was built), it induces the tangent action
    # back and is compatible: all by construction, none re-checked at run
    # time
    sigma = named_metric(name.removesuffix("-t2"))
    n = sigma.chart.dim
    lc = christoffel(sigma)
    skew = cartan._skew_basis(sigma)
    for p, E in enumerate(skew):
        cartan._check_skew(sigma, E, f"skew[{p}]", POLICY)
    g = cartan._riemann_algebroid(sigma, lc, skew)
    A = cartan._riemann_tangent_action(lc, skew)
    t = np.empty((g.rank, n), dtype=object)
    t[...] = ZERO
    for i in range(n):
        t[i, i] = Const(1)
    if name == "euclid-t2":
        t[2, 0], t[2, 1] = as_expr("y", sigma.chart), as_expr("x^2", sigma.chart)
    nabla = reductive_connection(g, t, GConnection(g, A, target="tm"), POLICY)
    reference = _section_level_reductive_gamma(g, t, A)
    built = [nabla] if name == "euclid-t2" else [nabla, metric_pair(sigma, POLICY)[1]]
    for conn in built:
        assert all(conn.gamma[idx] is reference[idx] for idx in np.ndindex(*reference.shape))
    back = induced_rep_on_tm(g, nabla)
    for idx in np.ndindex(*A.shape):
        assert is_zero(back.A[idx] - A[idx], sigma.chart, POLICY).zero, idx
    assert check_cartan(g, nabla, POLICY).ok


def test_metric_pair_makes_no_bracket_flatness_or_compatibility_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("metric_pair re-derived what holds by construction")

    # every module's binding, wherever a caller imported the name from
    modules = [m for key, m in sys.modules.items() if key.startswith("cartankit")]
    for module in modules:
        for name in ("bracket", "is_flat_g", "_compat_battery", "_jet_battery"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for name in ("sphere", "h4"):
        metric_pair(named_metric(name), POLICY)


def test_sphere_pipeline_passes_with_frozen_curvature():
    rep = riemann_pipeline(sphere_metric(), policy=POLICY)
    assert rep.verdict.ok
    env = SPHERE.env((1.2, 0.7))
    # unit sphere: R[0,1,1,0] = sin^2(theta), R[0,1,0,1] = -1
    assert evaluate(rep.curvature[0, 1, 1, 0], env) == pytest.approx(
        np.sin(1.2) ** 2, abs=1e-12
    )
    assert evaluate(rep.curvature[0, 1, 0, 1], env) == pytest.approx(-1.0, abs=1e-12)


def test_hyperbolic_pipeline_passes():
    chart = Chart(("x", "y"), [(-1, 1), ("1/2", 2)], guards=[Sym("y")])
    sigma = TensorField(
        chart,
        ((LOW, TM), (LOW, TM)),
        [["1/y^2", "0"], ["0", "1/y^2"]],
    )
    sigma.check_pairs(symmetric=((0, 1),))
    rep = riemann_pipeline(sigma, policy=POLICY)
    assert rep.verdict.ok


def test_ellipsoid_pipeline_fails_with_witness():
    rep = riemann_pipeline(ellipsoid_metric(), policy=POLICY)
    assert not rep.verdict.ok
    assert rep.verdict.witness is not None
    assert not rep.verdict.child("curvature_parallel").ok
    # the defect really is nonzero there: re-evaluate the flagged component
    bad = rep.verdict.child("curvature_parallel")
    assert abs(bad.value) > 1e-6


def test_degenerate_metric_rejected_with_point():
    sigma = TensorField(R2, ((LOW, TM), (LOW, TM)), [["x", "0"], ["0", "1"]])
    sigma.check_pairs(symmetric=((0, 1),))
    with pytest.raises(ValueError, match="degenerate|signature"):
        riemann_pipeline(sigma, policy=POLICY)


def test_asymmetric_metric_rejected():
    sigma = TensorField(R2, ((LOW, TM), (LOW, TM)), [["1", "x"], ["0", "1"]])
    with pytest.raises(ValueError, match="symmetric"):
        riemann_pipeline(sigma, policy=POLICY)


def test_custom_h_frame_accepted_when_skew():
    rep = riemann_pipeline(
        euclid_metric(), h_frame=[[["0", "-1"], ["1", "0"]]], policy=POLICY
    )
    assert rep.verdict.ok
    assert len(rep.h_frame) == 1


def test_custom_h_frame_rejected_when_not_skew():
    with pytest.raises(ValueError, match="not metric-skew"):
        riemann_pipeline(
            euclid_metric(), h_frame=[[["1", "0"], ["0", "0"]]], policy=POLICY
        )


def test_sphere_rotation_fields_are_killing():
    # the three rotation generators on the sphere chart annihilate the
    # metric; ties the frame-invariance convention to honest symmetries
    from cartankit.bundles import lie_derivative

    sigma = sphere_metric()
    fields = [
        Section(SPHERE, ("0", "1"), "tm"),
        Section(
            SPHERE,
            ("sin(phi)", "cos(phi)*cos(theta)/sin(theta)"),
            "tm",
        ),
        Section(
            SPHERE,
            ("cos(phi)", "-(sin(phi)*cos(theta)/sin(theta))"),
            "tm",
        ),
    ]
    for V in fields:
        L = lie_derivative(V, sigma)
        verdict = _tensor_battery("killing", L, POLICY)
        assert verdict.ok, (V, verdict.detail, verdict)


# ----------------------------------------------------------- poisson pipeline


def test_so3_dual_report_all_pass():
    pi, conn = so3_dual_poisson()
    rep = poisson_report(pi, conn, POLICY)
    assert rep.verdict.ok
    assert [c.name for c in rep.verdict.children] == [
        "torsion_free",
        "lemma_sx",
        "flat",
        "nabla_pi_parallel",
        "p2_identity",
    ]
    assert all(c.ok for c in rep.verdict.children)
    assert rep.algebroid.rank == 3


def test_so3_dual_p2_identity_is_exact():
    pi, conn = so3_dual_poisson()
    rep = poisson_report(pi, conn, POLICY)
    assert rep.verdict.child("p2_identity").path == "symbolic"


def test_quadratic_bivector_fails_second_derivative_identity():
    chart = R2
    pi = TensorField(
        chart,
        ((UP, TM), (UP, TM)),
        [["0", "1 + x^2"], ["-(1 + x^2)", "0"]],
    )
    pi.check_pairs(antisymmetric=((0, 1),))
    rep = poisson_report(pi, TMConnection.flat(chart, 2, target="tm"), POLICY)
    assert not rep.verdict.ok
    assert not rep.verdict.child("lemma_sx").ok
    assert rep.verdict.child("lemma_sx").witness is not None
    assert rep.verdict.child("torsion_free").ok
    assert rep.verdict.child("flat").ok


def test_cotangent_connection_transposes_and_negates():
    gamma = np.empty((2, 2, 2), dtype=object)
    gamma[...] = Const(0)
    gamma[0, 0, 1] = "x*y"
    conn = TMConnection(R2, gamma, target="tm")
    star = cotangent_connection(conn)
    assert star.target == "g"
    assert canon(star.gamma[0, 1, 0] - as_expr("-(x*y)", R2)) == Const(0)
    with pytest.raises(ValueError):
        cotangent_connection(star)


def test_poisson_report_rejects_wrong_connection():
    pi, _ = so3_dual_poisson()
    with pytest.raises(ValueError):
        poisson_report(pi, TMConnection.flat(R3, 3, target="g"), POLICY)


# ------------------------------------------- invariant calculus on flat reps


def test_fundamental_operator_prepends_derivative_slot():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    tau = g.frame_section(0)
    D = fundamental_operator(rep, tau, policy=POLICY)
    assert D.slots == ((LOW, G), (UP, G))
    # contracting frame a into slot 0 recovers the section derivative
    for a in range(3):
        direct = cov_deriv_g(rep, g.frame_section(a), tau)
        for be in range(3):
            assert canon(D[a, be] - direct.components[be]) == Const(0)


def test_fundamental_operator_kills_identity_form():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    eye = np.empty((3, 3), dtype=object)
    for a in range(3):
        for b in range(3):
            eye[a, b] = Const(1 if a == b else 0)
    omega = TensorField(R3, ((LOW, G), (UP, G)), eye)
    D = fundamental_operator(rep, omega, policy=POLICY)
    for idx in np.ndindex(*D.shape):
        assert canon(D[idx]) == Const(0)


def test_fundamental_operator_requires_flat_action():
    g, _ = flat_but_incompatible()
    A = np.empty((2, 2, 2), dtype=object)
    A[...] = Const(0)
    A[0, 0, 1] = "y"
    curved = GConnection(g, A, target="self")
    with pytest.raises(ValueError, match="flat"):
        fundamental_operator(curved, g.frame_section(0), policy=POLICY)


def test_exterior_derivative_of_identity_is_torsion():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    eye = np.empty((3, 3), dtype=object)
    for a in range(3):
        for b in range(3):
            eye[a, b] = Const(1 if a == b else 0)
    omega = TensorField(R3, ((LOW, G), (UP, G)), eye)
    from cartankit.connections import torsion_g

    d_omega = exterior_derivative(rep, omega, POLICY)
    T = torsion_g(rep)
    for idx in np.ndindex(3, 3, 3):
        assert canon(d_omega[idx] - T[idx]) == Const(0)


def test_exterior_derivative_squares_to_zero():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    theta = TensorField(
        R3,
        ((LOW, G), (UP, G)),
        [["x", "y", "0"], ["1", "z", "x*y"], ["0", "0", "2"]],
    )
    dd = exterior_derivative(rep, exterior_derivative(rep, theta, POLICY), POLICY)
    assert _tensor_battery("d_squared", dd, POLICY).ok


def test_exterior_derivative_degree_cap():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    theta = TensorField(
        R3,
        ((LOW, G), (UP, G)),
        [["x", "y", "0"], ["1", "z", "x*y"], ["0", "0", "2"]],
    )
    three_form = exterior_derivative(rep, exterior_derivative(rep, theta, POLICY), POLICY)
    with pytest.raises(ValueError, match="degree"):
        exterior_derivative(rep, three_form, POLICY)


def test_exterior_derivative_rejects_crooked_two_form():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    comps = np.empty((3, 3, 3), dtype=object)
    comps[...] = Const(0)
    comps[0, 1, 0] = Const(1)  # not antisymmetric in the arguments
    theta = TensorField(R3, ((LOW, G), (LOW, G), (UP, G)), comps)
    with pytest.raises(ValueError, match="antisymmetric"):
        exterior_derivative(rep, theta, POLICY)


def test_exterior_derivative_rejects_curved_action():
    g, _ = flat_but_incompatible()
    theta = TensorField(R2, ((LOW, G), (UP, G)), [["x", "0"], ["0", "1"]])
    # a curved action fails with a witness; one whose curvature is
    # undefined on the whole box is undecidable, with none
    for entry, path in (("y", "symbolic"), ("y*sqrt(x-5)", "undecidable")):
        A = np.empty((2, 2, 2), dtype=object)
        A[...] = Const(0)
        A[0, 0, 1] = entry
        curved = GConnection(g, A, target="self")
        with pytest.raises(DegenerateError, match="flat") as caught:
            exterior_derivative(curved, theta, POLICY)
        assert caught.value.path == path
        assert (caught.value.point is None) == (path == "undecidable")


def test_dtheta_decomposition_matches_derivative():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    theta = TensorField(
        R3,
        ((LOW, G), (UP, G)),
        [["x", "y", "0"], ["1", "z", "x*y"], ["0", "0", "2"]],
    )
    lhs = exterior_derivative(rep, theta, POLICY)
    rhs = dtheta_decomposition(rep, theta, rep, POLICY)
    assert _tensor_battery("d_decomposition", lhs - rhs, POLICY).ok
    # and again one degree up
    lhs2 = exterior_derivative(rep, lhs, POLICY)
    rhs2 = dtheta_decomposition(rep, lhs, rep, POLICY)
    assert _tensor_battery("d_decomposition", lhs2 - rhs2, POLICY).ok


def test_dtheta_decomposition_tangent_valued():
    # the anchor, read as a tangent-valued one-form
    g, conn = so3_pair()
    rep_g = induced_rep_on_g(g, conn)
    rep_tm = induced_rep_on_tm(g, conn)
    comps = np.empty((3, 3), dtype=object)
    for a in range(3):
        for i in range(3):
            comps[a, i] = g.rho[i, a]
    theta = TensorField(R3, ((LOW, G), (UP, TM)), comps)
    lhs = exterior_derivative(rep_tm, theta, POLICY)
    rhs = dtheta_decomposition(rep_tm, theta, rep_g, POLICY)
    assert _tensor_battery("d_decomposition", lhs - rhs, POLICY).ok
    # and again one degree up
    lhs2 = exterior_derivative(rep_tm, lhs, POLICY)
    rhs2 = dtheta_decomposition(rep_tm, lhs, rep_g, POLICY)
    assert _tensor_battery("d_decomposition", lhs2 - rhs2, POLICY).ok


def _assert_exactly_antisymmetric(form):
    k = form.ndim - 1
    for idx in np.ndindex(*form.shape):
        if len(set(idx[:k])) < k:
            assert form[idx] == Const(0), idx
        for i, j in combinations(range(k), 2):
            swapped = list(idx)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert canon(form[idx] + form[tuple(swapped)]) == Const(0), (idx, i, j)


def test_derived_forms_are_exactly_antisymmetric():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    theta = TensorField(
        R3,
        ((LOW, G), (UP, G)),
        [["x", "y", "0"], ["1", "z", "x*y"], ["0", "0", "2"]],
    )
    d1 = exterior_derivative(rep, theta, POLICY)
    for form in (
        d1,
        exterior_derivative(rep, d1, POLICY),
        dtheta_decomposition(rep, theta, rep, POLICY),
        dtheta_decomposition(rep, d1, rep, POLICY),
    ):
        _assert_exactly_antisymmetric(form)


def test_dtheta_decomposition_insists_on_matching_self_action():
    g, conn = so3_pair()
    rep = induced_rep_on_g(g, conn)
    theta = TensorField(
        R3,
        ((LOW, G), (UP, G)),
        [["x", "y", "0"], ["1", "z", "x*y"], ["0", "0", "2"]],
    )
    with pytest.raises(ValueError, match="self-action"):
        dtheta_decomposition(rep, theta, dual_connection(rep), POLICY)


# ------------------------------------------------------------ parallelisms


def test_affine_parallelism_report():
    rep = parallelism_report(affine_parallelism(), POLICY)
    assert rep.verdict.status == "locally_symmetric"
    assert rep.model_flat
    assert any("structure equation" in n for n in rep.verdict.notes)
    assert [c.name for c in rep.verdict.children] == ["model_equation", "theorem_c"]
    assert rep.verdict.child("theorem_c").status == "locally_symmetric"
    # what holds by construction, and so is not re-checked by the verdict:
    # the induced connection is flat, and its torsion is the pulled-back
    # d(omega), gamma[i,j,k] - gamma[j,i,k] = (omega^-1)^k_a
    # (d_i omega^a_j - d_j omega^a_i)
    corpus = Workspace(load_spec(CORPUS / "affine_group_parallelism.json"), POLICY)
    for P in (corpus.parallelism(), sheared_parallelism()):
        chart, n = P.chart, P.chart.dim
        D = P.connection()
        assert _tensor_battery("flat_connection", curvature_tm(D), POLICY, skew=2).ok
        items = []
        for i, j in combinations(range(n), 2):
            for k in range(n):
                total = [D.gamma[i, j, k], cneg(D.gamma[j, i, k])]
                for a in range(n):
                    d_omega = csum(
                        (
                            diff(P.omega[a, j], chart.coords[i]),
                            cneg(diff(P.omega[a, i], chart.coords[j])),
                        )
                    )
                    total.append(cneg(cmul(P.inverse[k, a], d_omega)))
                items.append((f"torsion identity [{i},{j},{k}]", csum(total)))
        assert _battery("torsion_identity", items, chart, POLICY).ok


def test_affine_connection_coefficients():
    P = affine_parallelism()
    D = P.connection()
    env = P.chart.env((1.5, 0.0))
    assert evaluate(D.gamma[0, 0, 0], env) == pytest.approx(-1 / 1.5)
    assert evaluate(D.gamma[0, 1, 1], env) == pytest.approx(-1 / 1.5)
    assert evaluate(D.gamma[1, 0, 0], env) == pytest.approx(0.0)


def test_singular_coframe_rejected():
    st = np.zeros((2, 2, 2), dtype=object)
    st[...] = 0
    with pytest.raises(ValueError, match="singular"):
        Parallelism(R2, LieAlgebra(2, st), [["x", "0"], ["0", "1"]])


def test_parallelism_dimension_mismatch():
    st = np.zeros((2, 2, 2), dtype=object)
    st[...] = 0
    with pytest.raises(ValueError, match="dimension"):
        Parallelism(R3, LieAlgebra(2, st), [["1", "0"], ["0", "1"]])


def test_sheared_coframe_fails_model_equation_but_stays_symmetric():
    # abelian model, non-closed coframe: curvature form is a nonzero
    # constant, which is still parallel for the induced connection
    st = np.zeros((2, 2, 2), dtype=object)
    st[...] = 0
    P = Parallelism(R2, LieAlgebra(2, st), [["1", "0"], ["y", "1"]])
    rep = parallelism_report(P, POLICY)
    assert not rep.verdict.child("model_equation").ok
    assert not rep.model_flat
    assert rep.verdict.status == "locally_symmetric"


# -------------------------------------------------------------- holonomy


def test_holonomy_identity_on_flat_connection():
    conn = TMConnection.flat(R2, 2, target="tm")
    res = holonomy_check(conn, (0.0, 0.0), (0, 1), 0.5)
    assert np.allclose(res.holonomy, np.eye(2), atol=1e-12)
    assert res.defect_norm < 1e-12


def test_holonomy_matches_sphere_curvature_to_third_order():
    lc = christoffel(sphere_metric())
    prev = None
    for h in (0.04, 0.02, 0.01):
        res = holonomy_check(lc, (1.2, 1.0), (0, 1), h)
        ratio = res.defect_norm / h**3
        assert ratio < 1.0
        if prev is not None:
            assert ratio == pytest.approx(prev, rel=0.15)
        prev = ratio
    # relative agreement between transport and curvature at h = 0.01
    assert res.defect_norm <= 1e-2 * np.linalg.norm(res.curvature_term)


def test_holonomy_orientation_flips_with_the_plane():
    lc = christoffel(sphere_metric())
    fwd = holonomy_check(lc, (1.2, 1.0), (0, 1), 0.02)
    rev = holonomy_check(lc, (1.2, 1.0), (1, 0), 0.02)
    assert np.allclose(fwd.log_holonomy, -rev.log_holonomy, atol=1e-6)
    assert rev.defect_norm < 1e-4


def test_holonomy_guards():
    conn = TMConnection.flat(R2, 2, target="tm")
    with pytest.raises(ValueError, match="box"):
        holonomy_check(conn, (0.9, 0.9), (0, 1), 0.5)
    with pytest.raises(ValueError, match="plane"):
        holonomy_check(conn, (0.0, 0.0), (0, 0), 0.1)
    with pytest.raises(ValueError, match="steps"):
        holonomy_check(conn, (0.0, 0.0), (0, 1), 0.1, steps=0)
    with pytest.raises(ValueError):
        holonomy_check(TMConnection.flat(R2, 2, target="g"), (0, 0), (0, 1), 0.1)


def _reference_transport(conn, point, plane, side, steps):
    """The stage-by-stage RK4 loop, four stage products on the frame M at
    every step, run in 30-digit mpmath arithmetic on the float generator
    values the program evaluates (floats convert to mpmath exactly).  It
    is the oracle of the batched, pairwise composed transport."""
    libmp = pytest.importorskip(
        "mpmath.libmp", reason="mpmath (shipped with sympy) is the 30-digit oracle"
    )
    prec, rnd = 103, libmp.round_nearest  # 103 bits: 30 decimal digits
    add = partial(libmp.mpf_add, prec=prec, rnd=rnd)
    mul = partial(libmp.mpf_mul, prec=prec, rnd=rnd)
    n = conn.chart.dim
    rows = range(n)

    def matmul(A, B):
        return [
            [reduce(add, (mul(A[r][k], B[k][c]) for k in rows)) for c in rows]
            for r in rows
        ]

    def axpy(M, h, K):  # M + h K
        return [[add(M[r][c], mul(h, K[r][c])) for c in rows] for r in rows]

    i, j = plane
    p = np.array(point, dtype=float)
    e_i, e_j = np.eye(n)[i], np.eye(n)[j]
    corners = [p, p + side * e_i, p + side * e_i + side * e_j, p + side * e_j, p]
    times = np.arange(2 * steps + 1) * 0.5 * (1.0 / steps)  # the program's nodes
    dt = libmp.mpf_div(libmp.fone, libmp.from_int(steps), prec, rnd)
    half_dt = libmp.mpf_shift(dt, -1)
    sixth_dt = libmp.mpf_div(dt, libmp.from_int(6), prec, rnd)
    two = libmp.from_int(2)
    M = [[libmp.fone if r == c else libmp.fzero for c in rows] for r in rows]
    for start, end in zip(corners[:-1], corners[1:]):
        direction = end - start
        nodes = start + direction * times[:, None]
        minus_K = -cartan._transport_generators(conn, direction, nodes)
        G = [[[libmp.from_float(x) for x in row] for row in K] for K in minus_K.tolist()]
        for s in range(steps):
            k1 = matmul(G[2 * s], M)
            k2 = matmul(G[2 * s + 1], axpy(M, half_dt, k1))
            k3 = matmul(G[2 * s + 1], axpy(M, half_dt, k2))
            k4 = matmul(G[2 * s + 2], axpy(M, dt, k3))
            M = [
                [
                    add(M[r][c], mul(sixth_dt, add(add(k1[r][c], k4[r][c]),
                                                   mul(two, add(k2[r][c], k3[r][c])))))
                    for c in rows
                ]
                for r in rows
            ]
    return np.array([[libmp.to_float(x, rnd=rnd) for x in row] for row in M])


@pytest.mark.parametrize("steps", [128, 1024])
@pytest.mark.parametrize(
    "name, point, side",
    [
        ("sphere", (1.2, 1.0), 0.02),
        ("hyperbolic", (0.1, 0.8), 0.03),
        ("affine_group_parallelism", (1.0, 0.0), 0.03),
    ],
)
def test_batched_transport_matches_sequential_reference(name, point, side, steps):
    # the pairwise composition stays within 1.1e-17 of the 30-digit
    # reference on these loops; a float64 step-by-step loop is 1.3e-13
    # off on hyperbolic at 1024 steps, plane (1, 0)
    conn = Workspace(load_spec(CORPUS / f"{name}.json"), POLICY).tm_connection()
    for plane in ((0, 1), (1, 0)):
        res = holonomy_check(conn, point, plane, side, steps=steps)
        ref = _reference_transport(conn, point, plane, side, steps)
        assert np.linalg.norm(res.holonomy - ref) <= 1e-15 * np.linalg.norm(ref)


def test_flat_transport_is_exactly_the_identity():
    conn = TMConnection.flat(R3, 3, target="tm")
    for steps in (1, 128, 1024):
        res = holonomy_check(conn, (-0.5, 0.0, 0.25), (2, 0), 0.5, steps=steps)
        assert np.array_equal(res.holonomy, np.eye(3))
        assert not res.log_holonomy.any()


# ------------------------------------------------------------ matrix log


def test_principal_log_matches_scipy_and_round_trips():
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(2008)
    for n in (2, 3, 4):
        for size in np.geomspace(1e-4, 3.0, 9):
            X = rng.standard_normal((n, n))
            X *= size / np.linalg.norm(X, 2)
            M = linalg.expm(X)
            L = principal_log(M)
            expected = np.real(linalg.logm(M))
            assert np.linalg.norm(L - expected) <= 1e-10 * np.linalg.norm(expected)
            assert np.linalg.norm(linalg.expm(L) - M) <= 1e-12 * np.linalg.norm(M)


def test_principal_log_of_the_identity_is_exactly_zero():
    for n in (1, 2, 4):
        assert not principal_log(np.eye(n)).any()


def test_principal_log_rejects_the_closed_negative_real_axis():
    half_turn = np.array([[np.cos(np.pi), -np.sin(np.pi)], [np.sin(np.pi), np.cos(np.pi)]])
    for M in (half_turn, -np.eye(2), np.diag([1.0, 0.0])):
        with pytest.raises(ValueError, match="negative real axis"):
            principal_log(M)


def test_principal_log_takes_square_roots_far_from_the_identity(monkeypatch):
    roots = []
    sqrtm = cartan._sqrtm_denman_beavers
    monkeypatch.setattr(
        cartan, "_sqrtm_denman_beavers", lambda A: roots.append(A) or sqrtm(A)
    )
    X = np.array([[0.0, -2.5, 0.3], [2.5, 0.1, 0.0], [0.2, 0.0, -0.4]])
    # M = exp(X) by its own series, far outside ||M - I||_1 <= 1/4
    M, term = np.eye(3), np.eye(3)
    for k in range(1, 60):
        term = term @ X / k
        M = M + term
    assert np.abs(M - np.eye(3)).sum(axis=0).max() > 0.25
    L = principal_log(M)
    assert len(roots) >= 2
    assert np.linalg.norm(L - X) <= 1e-12 * np.linalg.norm(X)


# ------------------------------------------------------- identity battery


def test_identity_battery_rotation_action():
    g, conn = so3_pair()
    v = identity_battery(g, conn, POLICY)
    assert v.ok
    names = [c.name for c in v.children]
    assert names[:5] == [
        "anchor_equivariance",
        "dual_round_trip",
        "dual_curvature_exchange",
        "route_agreement",
        "cartan",
    ]
    assert "d_squared_form_0" in names
    assert any("not transitive" in n for n in v.notes)


def test_identity_battery_transitive_adds_anchored_curvature():
    _, g, conn = symplectic_pair()
    v = identity_battery(g, cotangent_connection(conn), POLICY)
    assert v.ok
    assert any(c.name == "anchored_curvature" for c in v.children)


def test_identity_battery_skips_flat_calculus_when_incompatible():
    g, conn = flat_but_incompatible()
    v = identity_battery(g, conn, POLICY)
    assert not v.ok
    assert any("skipped" in n for n in v.notes)
    assert not any(c.name.startswith("d_squared") for c in v.children)


def test_identity_battery_reports_undecidable_anchor_equivariance():
    # sqrt(x - 2) is undefined on the whole box, so the equivariance zero
    # test is undecidable: no witness exists, and none is invented
    chart = Chart(("x",), [(0, 1)])
    g = Algebroid(chart, 1, [["sqrt(x-2)"]], [[["0"]]])
    conn = TMConnection(chart, [[["x"]]], target="g")
    v = identity_battery(g, conn, POLICY)
    child = v.child("anchor_equivariance")
    assert (child.status, child.path, child.witness) == ("undecidable", "undecidable", None)
    assert child.detail == "pair (0,0) component 0"
    assert v.status != "pass"


@pytest.fixture(scope="module")
def battery_pairs():
    """The pair of every corpus file and of H^3 and diag3, as the
    ``identities`` command builds them."""
    pairs = {
        path.stem: Workspace(load_spec(path), POLICY).pair()
        for path in sorted(CORPUS.glob("*.json"))
    }
    for name in ("h3.json", "diag3.json"):
        spec = GeometrySpec(METRIC_SPECS["metric3d"][name])
        pairs[name] = Workspace(spec, POLICY).pair()
    return pairs


def _reference_one_form(g, seed):
    """The entries of ``_random_one_form``, with one draw per coefficient
    and each entry summed with ``+`` and canonicalised."""
    rng = np.random.default_rng([seed, g.rank, g.chart.dim])
    pool = [-2, -1, 0, 1, 2]
    comps = np.empty((g.rank, g.rank), dtype=object)
    for a, be in np.ndindex(g.rank, g.rank):
        e = Const(int(rng.choice(pool)))
        for name in g.chart.coords:
            coeff = int(rng.choice(pool))
            if coeff:
                e = e + Const(coeff) * as_expr(name, g.chart)
        comps[a, be] = canon(e)
    return comps


def test_random_one_form_matches_one_draw_per_coefficient(battery_pairs):
    for name, (g, _) in battery_pairs.items():
        for seed in range(10):
            theta = cartan._random_one_form(g, seed)
            reference = _reference_one_form(g, seed)
            assert theta.slots == ((LOW, G), (UP, G))
            assert theta.shape == reference.shape
            for idx in np.ndindex(*reference.shape):
                assert theta[idx] is reference[idx], (name, seed, idx)


@pytest.fixture(scope="module")
def scan_pairs(battery_pairs):
    """The battery pairs, H^4's and the acceptance catalog's 20."""
    from test_acceptance import _instance  # which imports this module

    pairs = dict(battery_pairs)
    h4 = GeometrySpec(METRIC_SPECS["metric4d"]["h4.json"])
    pairs["h4.json"] = Workspace(h4, POLICY).pair()
    for k in range(20):
        pairs[f"instance {k}"] = _instance(k)
    return pairs


def test_flat_action_batteries_decide_as_the_full_scan(scan_pairs):
    # Every battery over a skew table zero-tests only the entries its
    # kernel built: the flatness of the four curvatures, the two defects
    # and identity_battery's forms.  Each verdict (status, path, witness,
    # value and detail) must be that of the scan over every entry.
    # Besides the battery's passing forms, d1 itself fails, d1 of a form
    # undefined on the whole box is undecidable, and forms that take each
    # argument tuple's entries from one of the two or from zero put the
    # first failing or undecidable entry at different places.
    outcomes = Counter()
    compatible = 0

    def decides_as_the_full_scan(restricted, T, where):
        assert restricted == _tensor_battery(restricted.name, T, POLICY), where
        outcomes[restricted.status, restricted.path] += 1

    for name, (g, conn) in scan_pairs.items():
        v = identity_battery(g, conn, POLICY)
        children = {c.name: c for c in v.children}
        rep = induced_rep_on_g(g, conn)
        R = curvature_tm(conn)
        decides_as_the_full_scan(
            _tensor_battery("flatness", R, POLICY, skew=2), R, (name, "curvature_tm")
        )
        actions = {
            "on g": rep,
            "on tm": induced_rep_on_tm(g, conn),
            "of the dual": dual_connection(rep),
        }
        for what, action in actions.items():
            decides_as_the_full_scan(
                is_flat_g(action, POLICY), curvature_g(action), (name, what)
            )
        exchange = dual_pair_defect(rep)
        decides_as_the_full_scan(children["dual_curvature_exchange"], exchange, name)
        abba = abba_defect(g, conn)
        anchored = _tensor_battery("anchored_curvature", abba, POLICY, skew=2)
        decides_as_the_full_scan(anchored, abba, (name, "anchored_curvature"))
        if "anchored_curvature" in children:  # a transitive compatible pair
            assert children["anchored_curvature"] == anchored, name
        # Neither defect builds its diagonal: each formula at a == b is
        # canonically ZERO, from the public tables.
        dual = dual_connection(rep)
        R, Rs = curvature_g(rep), curvature_g(dual)
        DTs = g_tensor_deriv(torsion_g(dual), rep_g=dual)
        Rtm = curvature_tm(conn)
        DT = g_tensor_deriv(torsion_g(rep), rep_g=rep)
        n, r = g.chart.dim, g.rank
        for a, c, d in np.ndindex(r, r, r):
            exchange_aa = (R[a, a, c, d], cneg(DTs[a, a, d, c]))
            exchange_aa += (cneg(Rs[a, c, a, d]), cneg(Rs[c, a, a, d]))
            assert csum(exchange_aa) is ZERO, (name, "dual_pair_defect", a, c, d)
            anchored_aa = [cneg(DT[a, a, d, c])]
            for i, j in np.ndindex(n, n):
                anchored_aa.append(cmul(cmul(g.rho[i, a], g.rho[j, a]), Rtm[i, j, c, d]))
            assert csum(anchored_aa) is ZERO, (name, "abba_defect", a, c, d)
        if not v.child("cartan").ok:
            continue
        compatible += 1
        undefined = f"sqrt(-1 - {g.chart.coords[0]}^2)"
        for s in range(3):
            theta = cartan._random_one_form(g, s)
            d1 = exterior_derivative(rep, theta, POLICY)
            decomp = dtheta_decomposition(rep, theta, rep, POLICY)
            decides_as_the_full_scan(
                v.child(f"d_squared_form_{s}"), exterior_derivative(rep, d1, POLICY), name
            )
            decides_as_the_full_scan(
                v.child(f"d_decomposition_form_{s}"), d1 - decomp, name
            )
            nowhere = exterior_derivative(rep, theta.scale(undefined), POLICY)
            mixed = []
            for shift in range(3):
                out = np.empty(d1.shape, dtype=object)
                for idx in np.ndindex(*d1.shape):
                    a, b, be = sorted(idx[:2]) + [idx[2]]
                    pick = (5 * a + 3 * b + 2 * be + shift) % 3
                    out[idx] = (ZERO, d1[idx], nowhere[idx])[pick]
                mixed.append(TensorField(g.chart, d1.slots, out))
            for T in [d1, nowhere] + mixed:
                restricted = _tensor_battery("form", T, POLICY, skew=2)
                decides_as_the_full_scan(restricted, T, (name, s))
    # the battery pairs but the foliation, H^4 and two catalog instances
    assert compatible == 13
    print(f"[skew scans] {sum(outcomes.values())} batteries: {dict(outcomes)}")
    statuses = {status for status, _ in outcomes}
    assert statuses == {"pass", "fail", "undecidable"}
    assert outcomes["pass", "symbolic"] and outcomes["pass", "probabilistic"]


def _skew_sorted(args):
    """(the arguments sorted, whether sorting them is an odd permutation)."""
    inversions = sum(p > q for p, q in combinations(args, 2))
    return tuple(sorted(args)), inversions % 2


def _assert_mirrors(T, k, where):
    """Every entry of ``T`` that its kernel did not build (its leading
    ``k`` arguments do not strictly increase) is ZERO on a repeated
    argument, and else the very object that the mirror fill writes for
    its permutation: the built entry, or ``cneg`` of it."""
    mirrors = 0
    for idx in np.ndindex(*T.shape):
        args, rest = idx[:k], idx[k:]
        built, odd = _skew_sorted(args)
        if len(set(args)) < k:
            assert T[idx] is ZERO, (where, idx)
        elif built != args:
            value = T[built + rest]
            assert T[idx] is (cneg(value) if odd else value), (where, idx)
            mirrors += 1
    return mirrors


def test_mirror_fill_writes_the_negated_sum_of_each_built_entry(scan_pairs):
    # bundles._skew_table is the one mirror fill, for the curvature
    # kernel, the alternating sum of the exterior derivative and the
    # decomposition, and the two defects.  The entries the kernels build
    # are gated by test_support_loops_build_the_full_index_entries.
    mirrors = Counter()
    for name, (g, conn) in scan_pairs.items():
        rep = induced_rep_on_g(g, conn)
        tables = {
            "curvature_tm": (curvature_tm(conn), 2),
            "curvature_g": (curvature_g(rep), 2),
            "dual_pair_defect": (dual_pair_defect(rep), 2),
            "abba_defect": (abba_defect(g, conn), 2),
        }
        if is_flat_g(rep, POLICY).ok:
            theta = cartan._random_one_form(g, 0)
            d1 = exterior_derivative(rep, theta, POLICY)
            decomp = dtheta_decomposition(rep, theta, rep, POLICY)
            tables["d"] = (d1, 2)
            tables["dd"] = (exterior_derivative(rep, d1, POLICY), 3)
            tables["dtheta_decomposition"] = (decomp, 2)
        for what, (T, k) in tables.items():
            mirrors[what] += _assert_mirrors(T, k, (name, what))
    assert all(mirrors[what] for what in ("curvature_tm", "abba_defect", "dd")), mirrors


def test_identity_battery_fills_no_table_for_d_squared_or_the_decomposition(monkeypatch):
    # d^2 and d1 - decomposition go from their defining entries into the
    # fold: the only forms filled are the three d1
    filled = []

    def recorded(shape, k, built, _fill=cartan._skew_table):
        filled.append((shape, k))
        return _fill(shape, k, built)

    g, conn = Workspace(load_spec(CORPUS / "sphere.json"), POLICY).pair()
    monkeypatch.setattr(cartan, "_skew_table", recorded)
    v = identity_battery(g, conn, POLICY)
    assert v.ok and v.child("d_squared_form_2").ok
    r = g.rank
    assert Counter(filled) == {((r,) * 3, 2): 3, ((r,) * 4, 2): 1}  # d1 and abba_defect


def _reference_derivative(components, directions, actions):
    """``bundles._derivative`` over every index of every action: the
    reference for its loop over the actions' nonzero entries."""
    out = np.empty(components.shape + (len(directions),), dtype=object)
    for idx in np.ndindex(*components.shape):
        for z, direction in enumerate(directions):
            terms = bundles._along(direction, components[idx])
            for axis, (variance, A) in enumerate(actions):
                k = idx[axis]
                for m in range(components.shape[axis]):
                    piece = components[idx[:axis] + (m,) + idx[axis + 1 :]]
                    if variance == UP:
                        terms.append(cmul(A[z, m, k], piece))
                    else:
                        terms.append(cneg(cmul(A[z, k, m], piece)))
            out[idx + (z,)] = csum(terms)
    return out


def _reference_torsion_derivative(rep):
    T = torsion_g(rep)
    g = rep.g
    directions = bundles._directions(g.chart.coords, g.rho)
    return _reference_derivative(
        T.components, directions, [(v, rep.A) for v, _ in T.slots]
    )


def _reference_dual_pair_defect(rep):
    """``dual_pair_defect`` with every entry built from its own formula."""
    r = rep.g.rank
    dual = dual_connection(rep)
    R, Rs = curvature_g(rep), curvature_g(dual)
    DTs = _reference_torsion_derivative(dual)
    out = np.empty((r,) * 4, dtype=object)
    for a, b, c, d in np.ndindex(*out.shape):
        out[a, b, c, d] = csum(
            (R[a, b, c, d], cneg(DTs[a, b, d, c]), cneg(Rs[a, c, b, d]), cneg(Rs[c, b, a, d]))
        )
    return out


def _reference_abba_defect(g, conn):
    """``abba_defect`` with every entry built from its own formula, over
    every anchor product."""
    R = curvature_tm(conn)
    DT = _reference_torsion_derivative(induced_rep_on_g(g, conn))
    r, n = g.rank, g.chart.dim
    out = np.empty((r,) * 4, dtype=object)
    for a, b, z, d in np.ndindex(*out.shape):
        terms = [cneg(DT[a, b, d, z])]
        for i, j in np.ndindex(n, n):
            terms.append(cmul(cmul(g.rho[i, a], g.rho[j, b]), R[i, j, z, d]))
        out[a, b, z, d] = csum(terms)
    return out


def test_support_loops_build_the_full_index_entries(battery_pairs):
    # The tensor kernels loop over the tables' nonzero entries, and the
    # two defects build a <= b and fill b > a with the sum of the negated
    # entry.  Every derivative entry, and every defect entry with a <= b,
    # must be the very form the full-index build gives.  The swapped
    # entries are negations only mathematically, not always canonically,
    # so each defect's battery must also decide as the reference's: same
    # status, path, witness, value and detail.
    pairs = dict(battery_pairs)
    h4 = GeometrySpec(METRIC_SPECS["metric4d"]["h4.json"])
    pairs["h4.json"] = Workspace(h4, POLICY).pair()
    statuses = set()
    for name, (g, conn) in pairs.items():
        rep = induced_rep_on_g(g, conn)
        for action in (rep, dual_connection(rep)):
            built = g_tensor_deriv(torsion_g(action), rep_g=action).components
            reference = _reference_torsion_derivative(action)
            for idx in np.ndindex(*reference.shape):
                assert built[idx] is reference[idx], (name, idx)
        defects = {
            "dual_curvature_exchange": (dual_pair_defect(rep), _reference_dual_pair_defect(rep)),
            "anchored_curvature": (abba_defect(g, conn), _reference_abba_defect(g, conn)),
        }
        for label, (built, reference) in defects.items():
            for idx in np.ndindex(*reference.shape):
                if idx[0] <= idx[1]:
                    assert built[idx] is reference[idx], (name, label, idx)
            verdict = _tensor_battery(label, built, POLICY)
            expected = _tensor_battery(
                label, TensorField(g.chart, built.slots, reference), POLICY
            )
            assert verdict == expected, (name, label)
            statuses.add(verdict.status)
    assert statuses >= {"pass", "fail"}


def _reference_isometry_structure(sigma, lc, skew):
    """``_riemann_algebroid``'s structure functions, with each bracket
    correction psi built by its own loop: the reference for the
    curvature kernel's build."""
    chart = sigma.chart
    n = chart.dim
    inv = metric_inverse(sigma)
    rank = n + len(skew)
    corrections = []
    for i in range(n):
        C = np.empty((n, n), dtype=object)
        for b, j in np.ndindex(n, n):
            C[b, j] = cneg(csum([lc.gamma[j, i, b]]))
        corrections.append(C)
    corrections += skew
    structure = np.empty((rank, rank, rank), dtype=object)
    structure[...] = ZERO
    for al, be in combinations(range(rank), 2):
        Ca, Cb = corrections[al], corrections[be]
        psi = np.empty((n, n), dtype=object)
        for b, i in np.ndindex(n, n):
            terms = []
            if al < n:
                terms.append(diff(Cb[b, i], chart.coords[al]))
            if be < n:
                terms.append(cneg(diff(Ca[b, i], chart.coords[be])))
            for k in range(n):
                terms.append(cmul(Cb[b, k], Ca[k, i]))
                terms.append(cneg(cmul(Ca[b, k], Cb[k, i])))
            psi[b, i] = csum(terms)
        for p, (i, j) in enumerate(combinations(range(n), 2)):
            lam = csum([cmul(psi[j, m], inv[m, i]) for m in range(n)])
            structure[al, be, n + p] = lam
            structure[be, al, n + p] = csum((cneg(lam),))
    return structure


def _reference_h_invariance(R, frames):
    """``riemann_pipeline``'s invariance items, each (E_p . R) entry
    built by its own loop: the reference for the derivative kernel's
    build."""
    n = R.chart.dim
    items = []
    for p, A in enumerate(frames):
        for i, j in combinations(range(n), 2):
            for a, b in np.ndindex(n, n):
                terms = []
                for mm in range(n):
                    terms.append(cmul(A[b, mm], R[i, j, a, mm]))
                    terms.append(cneg(cmul(A[mm, i], R[mm, j, a, b])))
                    terms.append(cneg(cmul(A[mm, j], R[i, mm, a, b])))
                    terms.append(cneg(cmul(R[i, j, mm, b], A[mm, a])))
                items.append((f"(E_{p} . R)[{i},{j},{a},{b}]", csum(terms)))
    return items


def _varied_h_frame(sigma):
    """Two metric-skew frames with nonconstant coefficients: a function
    times the first skew basis element, and the sum of the first and
    last."""
    skew = cartan._skew_basis(sigma)
    x = as_expr(sigma.chart.coords[0], sigma.chart)
    scaled = np.frompyfunc(lambda e: cmul(cmul(x, x), e), 1, 1)(skew[0])
    summed = np.frompyfunc(lambda a, b: csum((a, b)), 2, 1)(skew[0], skew[-1])
    return [scaled.tolist(), summed.tolist()]


@pytest.mark.parametrize(
    "name", ["sphere", "hyperbolic", "ellipsoid", "euclid", "h3", "diag3", "h4", "diag3-h"]
)
def test_kernels_build_the_isometry_brackets_and_invariance_entries(name, monkeypatch):
    # _riemann_algebroid's brackets come from the curvature kernel and
    # riemann_pipeline's (E_p . R) entries from the derivative kernel;
    # each must be the very form its own loop builds, and the battery
    # must keep its labels and order
    sigma = named_metric(name.removesuffix("-h"))
    lc = christoffel(sigma)
    skew = cartan._skew_basis(sigma)
    built = cartan._riemann_algebroid(sigma, lc, skew).structure
    reference = _reference_isometry_structure(sigma, lc, skew)
    assert all(built[idx] is reference[idx] for idx in np.ndindex(*reference.shape))

    batteries = {}

    def recorded(label, items, *args, _battery=cartan._battery):
        batteries[label] = list(items)
        return _battery(label, batteries[label], *args)

    monkeypatch.setattr(cartan, "_battery", recorded)
    h_frame = _varied_h_frame(sigma) if name.endswith("-h") else None
    rep = riemann_pipeline(sigma, h_frame=h_frame, policy=POLICY)
    expected = _reference_h_invariance(rep.curvature, rep.h_frame)
    items = batteries["h_invariance"]
    assert [label for label, _ in items] == [label for label, _ in expected]
    assert all(e is r for (_, e), (_, r) in zip(items, expected))


def _duplicate_forms():
    """(live canonical forms in the hash-cons table that are == to another
    live one without being it, distinct live forms)."""
    groups = {}
    for form in list(symcore._HASHCONS.values()):
        groups.setdefault(form, {})[id(form)] = form
    return sum(len(g) - 1 for g in groups.values()), len(groups)


@pytest.mark.parametrize("name", ["sphere", "so3_action", "h3.json"])
def test_identities_build_one_object_per_canonical_form(name, monkeypatch):
    # Probed at each battery of identity_battery, while the forms it
    # zero-tests are alive: no two live canonical forms are equal without
    # being one object, so none is differentiated or sampled twice.
    probes = []
    for kernel in ("_battery", "_tensor_battery"):

        def probed(*args, _kernel=getattr(cartan, kernel), **kwargs):
            probes.append(_duplicate_forms())
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(cartan, kernel, probed)
    if name in METRIC_SPECS["metric3d"]:
        spec = GeometrySpec(METRIC_SPECS["metric3d"][name])
    else:
        spec = load_spec(CORPUS / f"{name}.json")
    g, conn = Workspace(spec, POLICY).pair()
    assert identity_battery(g, conn, POLICY).ok
    assert [d for d, _ in probes] == [0] * len(probes)
    assert len(probes) >= 7 and max(n for _, n in probes) > 30


def test_box_scan_rejections_keep_their_messages():
    # vanishing_witness decides between a near-zero value and a sign
    # change; each caller words the two cases its own way
    def rejection(build):
        with pytest.raises(DegenerateError) as caught:
            build()
        return str(caught.value), caught.value.point, caught.value.value

    wide = Chart(("x", "y"), [(-1, 2), (-1, 1)])
    zero = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    abelian = LieAlgebra(1, [[[0]]])

    def field(chart):
        return lambda: build_action_algebroid(
            abelian, [Section(chart, ("1/x", "0"), "tm")]
        )

    def metric(chart, table):
        sigma = TensorField(chart, ((LOW, TM), (LOW, TM)), table)
        return lambda: cartan._check_metric(sigma, POLICY)

    def coframe(chart):
        return lambda: Parallelism(chart, LieAlgebra(2, zero), [["x", "0"], ["0", "1"]])

    sign_change = (-0.8073459978495195, 0.12737161669421093)
    assert R2.vanishing_witness(Sym("x"), 32, 0).near_zero
    assert not wide.vanishing_witness(Sym("x"), 32, 0).near_zero
    assert rejection(field(R2)) == (
        "action field 0 has a pole at (0.0, 0.0): x = 0.0", (0.0, 0.0), 0.0
    )
    assert rejection(field(wide)) == (
        "divisor x of action field 0 changes sign inside the box",
        sign_change,
        sign_change[0],
    )
    degenerate = (-0.19220592498525635, -0.05517761743209881)
    assert rejection(metric(R2, [["1", "0"], ["0", "0"]])) == (
        f"degenerate metric at {degenerate}: det = 0.0", degenerate, 0.0
    )
    assert rejection(metric(wide, [["x", "0"], ["0", "1"]])) == (
        "metric changes signature inside the box", sign_change, sign_change[0]
    )
    assert rejection(coframe(R2)) == (
        "coframe is singular at (0.0, 0.0): det = 0.0", (0.0, 0.0), 0.0
    )
    assert rejection(coframe(wide)) == (
        f"coframe is singular inside the box: det = {sign_change[0]} at "
        f"{sign_change} has the opposite sign to the midpoint's",
        sign_change,
        sign_change[0],
    )


def test_metric_checks_reject_on_the_first_failing_check():
    def checks(table, chart=R2):
        return metric_checks(TensorField(chart, ((LOW, TM), (LOW, TM)), table), POLICY)

    found = checks([["1", "0"], ["0", "1"]])
    assert (found.symmetric.status, found.symmetric.path) == ("pass", "symbolic")
    assert (found.nondegenerate.status, found.nondegenerate.path) == ("pass", "probabilistic")
    assert found.rejection is None
    # not symmetric and degenerate: the symmetry item rejects
    found = checks([["1", "x"], ["0", "0"]])
    assert (found.symmetric.status, found.symmetric.detail) == ("fail", "(0,1) vs (1,0)")
    assert found.nondegenerate.status == "fail"
    assert found.nondegenerate.value is None
    assert str(found.rejection).startswith("metric is not symmetric: (0,1) vs (1,0) at ")
    assert found.rejection.point == found.symmetric.witness
    # a determinant undefined at a sample: undecidable, rejected with the
    # DomainError
    found = checks([["1/x", "0"], ["0", "1"]])
    assert found.symmetric.ok
    assert (found.nondegenerate.status, found.nondegenerate.path) == (
        "undecidable",
        "undecidable",
    )
    assert isinstance(found.rejection, DomainError)
    assert str(found.rejection) == "division by zero in 1/x"


def test_identity_battery_decides_compatibility_once(monkeypatch):
    # metric_pair decides no compatibility: its connection is compatible
    # by construction.  The identity battery decides it once
    runs = []
    for name in ("_compat_battery", "_jet_battery"):
        real = getattr(cartan, name)

        def counting(*args, _real=real, _name=name):
            runs.append(_name)
            return _real(*args)

        monkeypatch.setattr(cartan, name, counting)
    g, nabla = euclid_reductive()
    assert runs == []
    v = identity_battery(g, nabla, POLICY)
    assert runs == ["_compat_battery", "_jet_battery"]
    assert v.child("cartan").ok
