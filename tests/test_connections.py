"""Connection calculus against hand-computed oracles.

The sphere and half-plane Christoffel symbols and curvatures used here
were worked out by hand from the standard formulas and frozen before the
implementation existed; they pin both the index conventions and the
signs.
"""

from pathlib import Path

import numpy as np
import pytest

from cartankit import bundles
from cartankit.algebroid import (
    anchor_apply,
    bracket,
    build_action_algebroid,
    build_foliation_algebroid,
    tangent_algebroid,
)
from cartankit.bundles import LOW, TM, UP, Section, TensorField, _tensor_battery
from cartankit.cli import Workspace, load_spec
from cartankit.connections import (
    GConnection,
    TMConnection,
    check_anchor_equivariance,
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
    morphism_curvature,
    tensor_cov_deriv,
    torsion_g,
)
from cartankit.jet import JetSection
from cartankit.symcore import Call, Chart, Const, Sym, ZeroPolicy, canon, diff, is_zero, parse
from test_algebroid import abelian_algebra, so3_algebra
from test_cartan import METRIC_NAMES, named_metric

R2 = Chart(("x", "y"), [(-1, 1), (-1, 1)])
R3 = Chart(("x", "y", "z"), [(-1, 1), (-1, 1), (-1, 1)])
SPHERE = Chart(
    ("theta", "phi"),
    [("1/2", "5/2"), (0, 3)],
    guards=(Call("sin", Sym("theta")),),
)
HALFPLANE = Chart(("x", "y"), [(-1, 1), ("1/2", 2)], guards=(Sym("y"),))


def sphere_metric():
    sigma = TensorField(
        SPHERE,
        ((LOW, TM), (LOW, TM)),
        [["1", "0"], ["0", "sin(theta)^2"]],
    )
    sigma.check_pairs(symmetric=((0, 1),))
    return sigma


def halfplane_metric():
    sigma = TensorField(
        HALFPLANE,
        ((LOW, TM), (LOW, TM)),
        [["1/y^2", "0"], ["0", "1/y^2"]],
    )
    sigma.check_pairs(symmetric=((0, 1),))
    return sigma


def so3_action():
    fields = [
        Section(R3, ("0", "z", "-y"), "tm"),
        Section(R3, ("-z", "0", "x"), "tm"),
        Section(R3, ("y", "-x", "0"), "tm"),
    ]
    return build_action_algebroid(so3_algebra(), fields)


def ad_rep(g):
    # A[a,b,c] = f^c_{ab}: the adjoint matrices of a constant-structure algebroid
    r = g.rank
    A = [[[g.structure[a, b, c] for c in range(r)] for b in range(r)] for a in range(r)]
    return GConnection(g, A, "self")


def zero_exprs(verdicts):
    return all(v.zero for v in verdicts)


# ----------------------------------------------------- coordinate derivatives


def test_flat_connection_is_directional_derivative():
    conn = TMConnection.flat(R2, 2)
    V = Section(R2, ("1", "0"), "tm")
    sigma = Section(R2, ("x", "0"), "g")
    assert cov_deriv_tm(conn, V, sigma) == Section(R2, ("1", "0"), "g")


def test_flat_connection_kills_constant_sections():
    conn = TMConnection.flat(R2, 3)
    V = Section(R2, ("x", "y"), "tm")
    sigma = Section(R2, ("1", "2", "-3"), "g")
    got = cov_deriv_tm(conn, V, sigma)
    assert all(canon(c) == Const(0) for c in got.components)


def test_sphere_derivative_of_longitude_frame():
    lc = christoffel(sphere_metric())
    d_theta = Section(SPHERE, ("1", "0"), "tm")
    d_phi = Section(SPHERE, ("0", "1"), "tm")
    got = cov_deriv_tm(lc, d_theta, d_phi)
    # nabla_theta d_phi = (cos/sin) d_phi
    assert is_zero(got.components[0], SPHERE).zero
    want = parse("cos(theta)/sin(theta)", SPHERE)
    assert is_zero(got.components[1] - want, SPHERE).zero


def test_sphere_christoffel_oracle():
    lc = christoffel(sphere_metric())
    # frozen by hand: Gamma^theta_{phi,phi} = -sin cos, Gamma^phi_{theta,phi} = cot
    want_tpp = parse("-sin(theta)*cos(theta)", SPHERE)
    want_cot = parse("cos(theta)/sin(theta)", SPHERE)
    assert is_zero(lc.gamma[1, 1, 0] - want_tpp, SPHERE).zero
    assert is_zero(lc.gamma[0, 1, 1] - want_cot, SPHERE).zero
    assert is_zero(lc.gamma[1, 0, 1] - want_cot, SPHERE).zero
    assert is_zero(lc.gamma[0, 0, 0], SPHERE).zero
    assert is_zero(lc.gamma[0, 0, 1], SPHERE).zero


def test_halfplane_christoffel_oracle():
    lc = christoffel(halfplane_metric())
    # frozen by hand: Gamma^x_{xy} = -1/y, Gamma^y_{xx} = 1/y, Gamma^y_{yy} = -1/y
    assert is_zero(lc.gamma[0, 1, 0] - parse("-1/y", HALFPLANE), HALFPLANE).zero
    assert is_zero(lc.gamma[1, 0, 0] - parse("-1/y", HALFPLANE), HALFPLANE).zero
    assert is_zero(lc.gamma[0, 0, 1] - parse("1/y", HALFPLANE), HALFPLANE).zero
    assert is_zero(lc.gamma[1, 1, 1] - parse("-1/y", HALFPLANE), HALFPLANE).zero
    assert is_zero(lc.gamma[0, 0, 0], HALFPLANE).zero


def test_metric_inverse_of_sphere():
    inv = metric_inverse(sphere_metric())
    assert is_zero(inv[0, 0] - Const(1), SPHERE).zero
    assert is_zero(inv[1, 1] - parse("1/sin(theta)^2", SPHERE), SPHERE).zero
    assert is_zero(inv[0, 1], SPHERE).zero


# ----------------------------------------------------------- tensor calculus


@pytest.mark.parametrize("name", METRIC_NAMES)
def test_metricity_of_levi_civita(name):
    # holds by construction, so the metric verdict does not re-check it
    sigma = named_metric(name)
    grad = tensor_cov_deriv(christoffel(sigma), sigma)
    verdict = _tensor_battery("metricity", grad, ZeroPolicy())
    assert verdict.ok, f"metricity fails at {verdict.detail}: {verdict}"


def test_flat_derivative_of_linear_bivector():
    pi = TensorField(
        R3,
        ((UP, TM), (UP, TM)),
        [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]],
    )
    pi.check_pairs(antisymmetric=((0, 1),))
    grad = tensor_cov_deriv(TMConnection.flat(R3, 3, "tm"), pi)
    # with zero coefficients this is the coordinate derivative: the
    # epsilon tensor, e.g. d_z Pi^{xy} = 1
    assert grad[0, 1, 2] == Const(1)
    assert grad[1, 0, 2] == Const(-1)
    assert grad[0, 1, 0] == Const(0)


def test_tensor_cov_deriv_demands_tm_target():
    conn = TMConnection.flat(R2, 2, "g")
    T = Section(R2, ("x", "y"), "tm")
    with pytest.raises(ValueError, match="tangent-target"):
        tensor_cov_deriv(conn, T)


# ---------------------------------------------------------------- curvature


def test_flat_curvature_vanishes():
    R = curvature_tm(TMConnection.flat(R3, 3))
    assert _tensor_battery("flatness", R, ZeroPolicy()).ok


def test_sphere_curvature_component():
    R = curvature_tm(christoffel(sphere_metric()))
    want = parse("sin(theta)^2", SPHERE)
    assert is_zero(R[0, 1, 1, 0] - want, SPHERE).zero
    # antisymmetry in the plane slots
    assert is_zero(R[1, 0, 1, 0] + want, SPHERE).zero


def test_halfplane_has_constant_negative_curvature():
    R = curvature_tm(christoffel(halfplane_metric()))
    # R(dx,dy)dy = K sigma_yy dx with K = -1
    assert is_zero(R[0, 1, 1, 0] + parse("1/y^2", HALFPLANE), HALFPLANE).zero
    assert is_zero(R[0, 1, 1, 1], HALFPLANE).zero


def test_sphere_is_not_flat():
    R = curvature_tm(christoffel(sphere_metric()))
    verdict = _tensor_battery("flatness", R, ZeroPolicy())
    assert not verdict.ok and verdict.witness is not None


# ------------------------------------------------- the tangent-algebroid case

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _probe(chart):
    """A (1,2) tangent tensor with distinct polynomial entries."""
    c, n = chart.coords, chart.dim
    comps = [
        [[f"{c[i]}*{c[j]} + {k}*{c[k]}^2" for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return TensorField(chart, ((UP, TM), (LOW, TM), (LOW, TM)), comps)


def _same_components(T, S):
    assert T.shape == S.shape
    for idx in np.ndindex(*T.shape):
        assert T[idx] == S[idx], idx


@pytest.mark.parametrize(
    "name", ["sphere", "ellipsoid", "hyperbolic", "euclid", "affine_group_parallelism"]
)
def test_tm_calculus_is_the_tangent_algebroid_case(name):
    # A connection along TM is a connection along the tangent algebroid
    # (identity anchor, zero bracket) acting on TM: both give the same
    # curvature and the same tensor derivatives, form for canonical form.
    ws = Workspace(load_spec(CORPUS / f"{name}.json"), ZeroPolicy())
    conn = ws.tm_connection()
    as_g = GConnection(tangent_algebroid(conn.chart), conn.gamma, "tm")
    R = curvature_tm(conn)
    _same_components(R, curvature_g(as_g))
    for T in (R, _probe(conn.chart)):
        _same_components(tensor_cov_deriv(conn, T), g_tensor_deriv(T, rep_tm=as_g))


# ------------------------------------------------------- algebroid derivative


def test_translation_action_leibniz():
    fields = [Section(R2, ("1", "0"), "tm"), Section(R2, ("0", "1"), "tm")]
    g = build_action_algebroid(abelian_algebra(2), fields)
    conn = GConnection.zero(g)
    sigma = Section(R2, ("1", "1"), "g")
    scaled = sigma.scale(Sym("x"))
    got = cov_deriv_g(conn, g.frame_section(0), scaled)
    # nabla_{e1}(x sigma) = (d x / d x) sigma = sigma for constant sigma
    assert all(canon(c) == Const(1) for c in got.components)


def test_cov_deriv_g_leibniz_rule_random_coefficients():
    g = so3_action()
    rng = np.random.default_rng(7)
    A = rng.integers(-2, 3, size=(3, 3, 3)).tolist()
    conn = GConnection(g, A)
    X = Section(R3, ("x", "1", "0"), "g")
    sigma = Section(R3, ("y", "0", "1"), "g")
    f = canon(parse("x*y", R3))
    lhs = cov_deriv_g(conn, X, sigma.scale(f))
    anchor_X = anchor_apply(g, X)
    df_X = Const(0)
    for i, n in enumerate(R3.coords):
        df_X = df_X + anchor_X.components[i] * diff(f, n)
    rhs = cov_deriv_g(conn, X, sigma).scale(f) + sigma.scale(df_X)
    for a, b in zip(lhs.components, rhs.components):
        assert is_zero(a - b, R3).zero


def test_adjoint_representation_is_flat():
    g = so3_action()
    flatness = is_flat_g(ad_rep(g))
    assert flatness.ok, f"adjoint curvature nonzero at {flatness.detail}"


def test_generic_coefficients_are_not_flat():
    g = so3_action()
    A = np.zeros((3, 3, 3), dtype=int)
    A[0, 0, 1] = 1  # one stray coefficient
    verdict = is_flat_g(GConnection(g, A.tolist()))
    assert not verdict.ok and verdict.witness is not None


def test_curvature_g_is_computed_once_per_connection():
    g = so3_action()
    conn = GConnection(g, np.random.default_rng(5).integers(-1, 2, size=(3, 3, 3)).tolist())
    R = curvature_g(conn)
    assert curvature_g(conn) is R
    # a fresh connection with the same coefficients computes its own
    assert curvature_g(GConnection(g, conn.A)) is not R


def test_torsion_g_is_computed_once_per_connection():
    g = so3_action()
    conn = GConnection(g, np.random.default_rng(5).integers(-1, 2, size=(3, 3, 3)).tolist())
    T = torsion_g(conn)
    assert torsion_g(conn) is T
    with pytest.raises(ValueError, match="read-only"):
        T.components[0, 0, 0] = Const(1)
    # a fresh connection with the same coefficients computes its own
    assert torsion_g(GConnection(g, conn.A)) is not T


def test_flatness_is_decided_once_per_policy(monkeypatch):
    zero_tests = []

    def counting_is_zero(*args):
        zero_tests.append(args)
        return is_zero(*args)

    conn = ad_rep(so3_action())
    monkeypatch.setattr(bundles, "is_zero", counting_is_zero)
    curvature_g(conn)
    assert zero_tests == []  # built tensors are not re-checked
    first = is_flat_g(conn, ZeroPolicy())
    ran = len(zero_tests)
    assert first.ok and ran > 0
    assert is_flat_g(conn, ZeroPolicy()) is first
    assert is_flat_g(conn) is first  # the default policy is the same key
    assert len(zero_tests) == ran
    # another seed is another policy: its zero tests run again
    assert is_flat_g(conn, ZeroPolicy(seed=1)).ok
    assert len(zero_tests) == 2 * ran


def test_derived_tables_are_read_only():
    # What a connection keeps (its curvature, its flatness verdicts) stays
    # true only while the tables it was derived from stay as they are.
    g = so3_action()
    conn = ad_rep(g)
    tables = {
        "GConnection.A": conn.A,
        "TMConnection.gamma": TMConnection.flat(R3, 3).gamma,
        "Algebroid.rho": g.rho,
        "Algebroid.structure": g.structure,
        "curvature_g": curvature_g(conn).components,
    }
    for name, table in tables.items():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = Const(1)


def test_every_table_is_read_only():
    # one constructor (bundles._component_array) makes every expression
    # table the package keeps, and it hands the table back read-only
    g = so3_action()
    coframe = Workspace(load_spec(CORPUS / "affine_group_parallelism.json"), ZeroPolicy())
    vertical = JetSection.vertical(g, np.zeros((3, 3), dtype=int))
    tables = {
        "TensorField.components": TensorField(R3, ((LOW, TM),), ("x", "y", "z")).components,
        "TMConnection.gamma": TMConnection.flat(R3, 3).gamma,
        "GConnection.A": ad_rep(g).A,
        "Algebroid.rho": g.rho,
        "Algebroid.structure": g.structure,
        "Parallelism.omega": coframe.parallelism().omega,
        "JetSection.correction": vertical.correction,
    }
    for name, table in tables.items():
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = Const(1)


def test_curvature_g_matches_commutator_on_sections():
    g = so3_action()
    rng = np.random.default_rng(3)
    conn = GConnection(g, rng.integers(-1, 2, size=(3, 3, 3)).tolist())
    X = Section(R3, ("x", "0", "1"), "g")
    Y = Section(R3, ("0", "y", "0"), "g")
    sigma = Section(R3, ("z", "1", "0"), "g")
    direct = (
        cov_deriv_g(conn, X, cov_deriv_g(conn, Y, sigma))
        - cov_deriv_g(conn, Y, cov_deriv_g(conn, X, sigma))
        - cov_deriv_g(conn, bracket(g, X, Y), sigma)
    )
    R = curvature_g(conn)
    for be in range(3):
        total = Const(0)
        for a in range(3):
            for b in range(3):
                for al in range(3):
                    total = total + (
                        R[a, b, al, be]
                        * X.components[a]
                        * Y.components[b]
                        * sigma.components[al]
                    )
        assert is_zero(direct.components[be] - total, R3).zero


# ------------------------------------------------------------------- duality


def test_double_dual_is_identity():
    g = so3_action()
    rng = np.random.default_rng(11)
    conn = GConnection(g, rng.integers(-2, 3, size=(3, 3, 3)).tolist())
    dual = dual_connection(conn)
    dd = dual_connection(dual)
    for idx in np.ndindex(3, 3, 3):
        assert dd.A[idx] == conn.A[idx]
    # the dual is kept on its connection, but the double dual is built from
    # the dual's coefficients, not handed back: the round trip is a check
    assert dual_connection(conn) is dual and dual_connection(dual) is dd
    assert dd is not conn and dual is not conn


def test_torsions_of_dual_pair_are_opposite():
    g = so3_action()
    rng = np.random.default_rng(12)
    conn = GConnection(g, rng.integers(-2, 3, size=(3, 3, 3)).tolist())
    T = torsion_g(conn)
    Ts = torsion_g(dual_connection(conn))
    for idx in np.ndindex(3, 3, 3):
        assert canon(T[idx] + Ts[idx]) == Const(0)


def test_abelian_zero_connection_is_self_dual():
    fields = [Section(R2, ("1", "0"), "tm"), Section(R2, ("0", "1"), "tm")]
    g = build_action_algebroid(abelian_algebra(2), fields)
    conn = GConnection.zero(g)
    dual = dual_connection(conn)
    assert all(dual.A[idx] == Const(0) for idx in np.ndindex(2, 2, 2))


def test_curvature_exchange_identity():
    g = so3_action()
    rng = np.random.default_rng(13)
    conn = GConnection(g, rng.integers(-1, 2, size=(3, 3, 3)).tolist())
    defect = dual_pair_defect(conn)
    verdict = _tensor_battery("dual_curvature_exchange", defect, ZeroPolicy())
    assert verdict.ok, f"exchange identity fails at {verdict.detail}: {verdict}"


# ------------------------------------------------- induced representations


def test_induced_representations_are_kept_per_pair():
    g = so3_action()
    conn = TMConnection(R3, np.random.default_rng(6).integers(-2, 3, size=(3, 3, 3)).tolist())
    assert induced_rep_on_g(g, conn) is induced_rep_on_g(g, conn)
    assert induced_rep_on_tm(g, conn) is induced_rep_on_tm(g, conn)
    # another algebroid of the same chart and rank gets its own
    other = so3_action()
    assert induced_rep_on_g(other, conn) is not induced_rep_on_g(g, conn)


def test_tangent_induced_rep_is_the_dual():
    rng = np.random.default_rng(5)
    gamma = rng.integers(-2, 3, size=(2, 2, 2)).tolist()
    g = tangent_algebroid(R2)
    conn = TMConnection(R2, gamma, "g")
    rep = induced_rep_on_g(g, conn)
    as_g = GConnection(g, gamma, "self")
    dual = dual_connection(as_g)
    for idx in np.ndindex(2, 2, 2):
        assert canon(rep.A[idx] - dual.A[idx]) == Const(0)


def test_action_canonical_rep_is_adjoint():
    g = so3_action()
    rep = induced_rep_on_g(g, TMConnection.flat(R3, 3))
    expected = ad_rep(g)
    for idx in np.ndindex(3, 3, 3):
        assert canon(rep.A[idx] - expected.A[idx]) == Const(0)


def test_action_tm_rep_is_flow_derivative():
    g = so3_action()
    rep = induced_rep_on_tm(g, TMConnection.flat(R3, 3))
    # Atm[a,j,k] = -d_j rho^k_a: minus the Jacobians of the rotation
    # fields, e.g. -d_y (z, -y)-field z-component = +1
    assert rep.A[0, 1, 2] == Const(1)
    assert rep.A[0, 2, 1] == Const(-1)
    assert rep.A[0, 0, 0] == Const(0)
    assert is_flat_g(rep).ok


def test_foliation_rep_on_tm_is_flat_for_plane_field():
    frame = [Section(R2, ("1", "0"), "tm")]
    g = build_foliation_algebroid(frame)
    rep = induced_rep_on_tm(g, TMConnection.flat(R2, 1))
    assert is_flat_g(rep).ok


def test_anchor_equivariance_self_test():
    g = so3_action()
    rng = np.random.default_rng(17)
    gamma = rng.integers(-2, 3, size=(3, 3, 3)).tolist()
    verdict = check_anchor_equivariance(g, TMConnection(R3, gamma))
    assert verdict.ok, f"equivariance broken at {verdict.detail}: {verdict}"


def test_anchor_equivariance_detects_broken_axioms():
    # the identity leans on the anchor being a bracket homomorphism, so a
    # perturbed structure table must trip it
    from cartankit.algebroid import Algebroid

    g = so3_action()
    bad = g.structure.copy()
    bad[0, 1, 2] = canon(parse("1 + x", R3))
    bad[1, 0, 2] = canon(parse("-(1+x)", R3))
    broken = Algebroid(R3, 3, g.rho, bad)
    verdict = check_anchor_equivariance(broken, TMConnection.flat(R3, 3))
    assert verdict.status == "fail" and verdict.witness is not None
    assert verdict.detail.startswith("pair (")


# ------------------------------------------------------------------ morphisms


def test_identity_morphism_has_zero_curvature():
    g = so3_action()
    curv = morphism_curvature(np.eye(3, dtype=int).tolist(), g, g)
    assert _tensor_battery("morphism_curvature", curv, ZeroPolicy()).ok


def test_foliation_inclusion_is_a_morphism():
    frame = [Section(R3, ("1", "0", "0"), "tm"), Section(R3, ("0", "1+x^2", "0"), "tm")]
    g = build_foliation_algebroid(frame)
    h = tangent_algebroid(R3)
    phi = [[frame[a].components[i] for a in range(2)] for i in range(3)]
    curv = morphism_curvature(phi, g, h)
    assert _tensor_battery("morphism_curvature", curv, ZeroPolicy()).ok


def test_radial_shear_curvature_lands_in_anchor_kernel():
    g = so3_action()
    # phi(e1) = e1 + x*(x,y,z), phi(e2) = e2, phi(e3) = e3: anchors agree
    # since the radial section is in the kernel, but brackets do not
    phi = [["1+x^2", "0", "0"], ["x*y", "1", "0"], ["x*z", "0", "1"]]
    curv = morphism_curvature(phi, g, g)
    # hand-expanded: curv(e1,e2) = z*(x,y,z)
    assert is_zero(curv[0, 1, 0] - parse("x*z", R3), R3).zero
    assert is_zero(curv[0, 1, 1] - parse("y*z", R3), R3).zero
    assert is_zero(curv[0, 1, 2] - parse("z^2", R3), R3).zero
    assert not _tensor_battery("morphism_curvature", curv, ZeroPolicy()).ok
    for a in range(3):
        for b in range(3):
            # antisymmetric by construction: no declaration checks it
            for c in range(3):
                assert is_zero(curv[a, b, c] + curv[b, a, c], R3).zero
            section = Section(R3, [curv[a, b, c] for c in range(3)], "g")
            pushed = anchor_apply(g, section)
            assert all(is_zero(c, R3).zero for c in pushed.components)


def test_anchor_incompatible_map_rejected():
    g = so3_action()
    phi = np.eye(3, dtype=int)
    phi[0, 0] = 2
    with pytest.raises(ValueError, match="anchor incompatibility"):
        morphism_curvature(phi.tolist(), g, g)
