import numpy as np
import pytest

from cartankit.algebroid import (
    Algebroid,
    anchor_apply,
    bracket,
    build_action_algebroid,
    tangent_algebroid,
)
from cartankit.bundles import Section, _tensor_battery
from cartankit.connections import (
    GConnection,
    TMConnection,
    cov_deriv_g,
    curvature_tm,
    induced_rep_on_g,
    induced_rep_on_tm,
)
from cartankit.jet import (
    JetSection,
    jet_bracket,
    jet_scale,
    kappa,
    splitting_from_connection,
)
from cartankit.symcore import Chart, Const, Sym, ZeroPolicy, canon, diff, is_zero
from test_algebroid import so3_algebra

R2 = Chart(("x", "y"), [(-1, 1), (-1, 1)])
R3 = Chart(("x", "y", "z"), [(-1, 1), (-1, 1), (-1, 1)])


def so3_action():
    fields = [
        Section(R3, ("0", "z", "-y"), "tm"),
        Section(R3, ("-z", "0", "x"), "tm"),
        Section(R3, ("y", "-x", "0"), "tm"),
    ]
    return build_action_algebroid(so3_algebra(), fields)


def zero_anchor_rank2(chart=R2):
    zero_rho = [[0] * 2 for _ in range(chart.dim)]
    zero_c = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    return Algebroid(chart, 2, zero_rho, zero_c)


def _prolong(g, X):
    """The prolongation of X: (X, 0)."""
    zero = np.empty((g.rank, g.chart.dim), dtype=object)
    zero[...] = Const(0)
    return JetSection(g, X, zero)


def _apply_correction(J, V):
    """phi(V) for a vector field V."""
    g = J.g
    out = [
        sum((J.correction[b, i] * V.components[i] for i in range(g.chart.dim)), Const(0))
        for b in range(g.rank)
    ]
    return Section(g.chart, out, "g")


def _reference_splitting_curvature(g, conn, X, Y):
    """Bracket defect of the connection's jet lift, [sX, sY] - s[X, Y], built
    from sections: the reference for ``frame_lift_curvature``.

    The base components cancel identically (asserted); the returned
    matrix is the purely vertical part.
    """
    sX = splitting_from_connection(g, conn, X)
    sY = splitting_from_connection(g, conn, Y)
    defect = jet_bracket(sX, sY) - splitting_from_connection(g, conn, bracket(g, X, Y))
    for b in range(g.rank):
        base_defect = canon(defect.base.components[b])
        if base_defect != Const(0):
            raise AssertionError(
                f"splitting curvature has nonzero base component {b}: "
                f"{base_defect}"
            )
    return defect.correction


def _adjoint_action(J, Y):
    """ad_{(X, phi)} Y = [X, Y] - phi(#Y), the jet algebroid's action on
    sections; it is a representation exactly when ``jet_bracket`` is right."""
    g = J.g
    base_part = bracket(g, J.base, Y)
    vert = _apply_correction(J, anchor_apply(g, Y))
    return Section(
        g.chart,
        [base_part.components[b] - vert.components[b] for b in range(g.rank)],
        "g",
    )


def _anchor_pushforward(J):
    """Image of a split jet under the jet prolongation of the anchor: base
    #X, correction # o phi, in the jet algebroid of TM."""
    g = J.g
    chart = g.chart
    corr = np.empty((chart.dim, chart.dim), dtype=object)
    for k in range(chart.dim):
        for i in range(chart.dim):
            corr[k, i] = sum(
                (g.rho[k, b] * J.correction[b, i] for b in range(g.rank)), Const(0)
            )
    base = Section(chart, anchor_apply(g, J.base).components, "g")
    return JetSection(tangent_algebroid(chart), base, corr)


def matrix_is_zero(M, chart, probabilistic=True):
    for idx in np.ndindex(*M.shape):
        if probabilistic:
            if not is_zero(M[idx], chart).zero:
                return False
        elif canon(M[idx]) != Const(0):
            return False
    return True


# -------------------------------------------------------------- construction


def test_correction_shape_enforced():
    g = so3_action()
    with pytest.raises(ValueError, match="shape"):
        JetSection(g, g.frame_section(0), np.zeros((2, 3), dtype=int))


def test_prolongation_has_zero_correction():
    g = so3_action()
    J = _prolong(g, g.frame_section(1))
    assert all(J.correction[idx] == Const(0) for idx in np.ndindex(3, 3))


def test_scale_by_coordinate_adds_gradient_term():
    g = so3_action()
    J = jet_scale(_prolong(g, g.frame_section(0)), Sym("x"))
    # f J^1 X = J^1(fX) - df (x) X: correction picks up -dx (x) e_0
    assert canon(J.correction[0, 0]) == Const(-1)
    assert all(
        J.correction[b, i] == Const(0)
        for b in range(3)
        for i in range(3)
        if (b, i) != (0, 0)
    )
    assert J.base == g.frame_section(0).scale(Sym("x"))


# --------------------------------------------------------------------- kappa


def test_kappa_dies_with_zero_anchor_and_abelian_bracket():
    g = zero_anchor_rank2()
    X = Section(R2, ("x", "y"), "g")
    phi = np.array([[Sym("x"), Const(1)], [Const(0), Sym("y")]], dtype=object)
    out = kappa(g, X, phi)
    assert matrix_is_zero(out, R2, probabilistic=False)


def test_kappa_on_tangent_constant_data_vanishes():
    g = tangent_algebroid(R2)
    X = g.frame_section(0)
    phi = np.zeros((2, 2), dtype=object)
    phi[...] = Const(0)
    phi[1, 0] = Const(1)  # dx (x) d/dy
    out = kappa(g, X, phi)
    assert matrix_is_zero(out, R2, probabilistic=False)


def test_kappa_so3_frame_example():
    g = so3_action()
    phi = np.zeros((3, 3), dtype=object)
    phi[...] = Const(0)
    phi[1, 0] = Const(1)  # dx (x) e_1
    out = kappa(g, g.frame_section(0), phi)
    # [e_0, e_1] = e_2 lands in the dx column; the flow term dies since
    # the x-component of #e_0 is identically zero
    assert canon(out[2, 0]) == Const(1)
    for idx in np.ndindex(3, 3):
        if idx != (2, 0):
            assert canon(out[idx]) == Const(0)


# ------------------------------------------------------------------- bracket


def test_prolongations_close_under_bracket():
    g = so3_action()
    X = Section(R3, ("x", "0", "1"), "g")
    Y = Section(R3, ("0", "y*z", "0"), "g")
    got = jet_bracket(_prolong(g, X), _prolong(g, Y))
    want = bracket(g, X, Y)
    for b in range(3):
        assert is_zero(got.base.components[b] - want.components[b], R3).zero
    assert matrix_is_zero(got.correction, R3, probabilistic=False)


def test_vertical_bracket_is_fiberwise():
    g = so3_action()
    rng = np.random.default_rng(2)
    phi1 = rng.integers(-2, 3, size=(3, 3)).tolist()
    phi2 = rng.integers(-2, 3, size=(3, 3)).tolist()
    got = jet_bracket(JetSection.vertical(g, phi1), JetSection.vertical(g, phi2))
    assert all(canon(c) == Const(0) for c in got.base.components)
    # matches phi2 o # o phi1 - phi1 o # o phi2 expanded by hand
    p1, p2 = np.array(phi1), np.array(phi2)
    for b in range(3):
        for i in range(3):
            want = Const(0)
            for j in range(3):
                for c in range(3):
                    want = want + Const(int(p2[b, j])) * g.rho[j, c] * Const(
                        int(p1[c, i])
                    )
                    want = want - Const(int(p1[b, j])) * g.rho[j, c] * Const(
                        int(p2[c, i])
                    )
            assert is_zero(got.correction[b, i] - want, R3).zero


def _random_jet(g, rng):
    coords = g.chart.coords
    names = [Sym(n) for n in coords]

    def poly():
        e = Const(int(rng.integers(-1, 2)))
        for nm in names:
            e = e + Const(int(rng.integers(-1, 2))) * nm
        return canon(e)

    base = Section(g.chart, [poly() for _ in range(g.rank)], "g")
    corr = np.array(
        [[poly() for _ in range(g.chart.dim)] for _ in range(g.rank)],
        dtype=object,
    )
    return JetSection(g, base, corr)


def test_jet_bracket_antisymmetry():
    g = so3_action()
    rng = np.random.default_rng(4)
    J1, J2 = _random_jet(g, rng), _random_jet(g, rng)
    s = jet_bracket(J1, J2) + jet_bracket(J2, J1)
    assert all(is_zero(c, R3).zero for c in s.base.components)
    assert matrix_is_zero(s.correction, R3)


def test_jet_bracket_jacobi():
    g = so3_action()
    rng = np.random.default_rng(8)
    J1, J2, J3 = (_random_jet(g, rng) for _ in range(3))
    cyc = (
        jet_bracket(J1, jet_bracket(J2, J3))
        + jet_bracket(J2, jet_bracket(J3, J1))
        + jet_bracket(J3, jet_bracket(J1, J2))
    )
    assert all(is_zero(c, R3).zero for c in cyc.base.components)
    assert matrix_is_zero(cyc.correction, R3)


def test_jet_bracket_leibniz_in_second_slot():
    g = so3_action()
    rng = np.random.default_rng(9)
    J1, J2 = _random_jet(g, rng), _random_jet(g, rng)
    f = canon(Sym("x") * Sym("y"))
    lhs = jet_bracket(J1, jet_scale(J2, f))
    aX = anchor_apply(g, J1.base)
    df_aX = Const(0)
    for i, n in enumerate(R3.coords):
        df_aX = df_aX + aX.components[i] * diff(f, n)
    rhs = jet_scale(jet_bracket(J1, J2), f) + jet_scale(J2, df_aX)
    diff_jet = lhs - rhs
    assert all(is_zero(c, R3).zero for c in diff_jet.base.components)
    assert matrix_is_zero(diff_jet.correction, R3)


# ------------------------------------------------------------------- adjoint


def test_adjoint_representation_has_no_curvature():
    g = so3_action()
    rng = np.random.default_rng(21)
    J1, J2 = _random_jet(g, rng), _random_jet(g, rng)
    Y = Section(R3, ("z", "x*y", "1"), "g")
    direct = (
        _adjoint_action(J1, _adjoint_action(J2, Y))
        - _adjoint_action(J2, _adjoint_action(J1, Y))
        - _adjoint_action(jet_bracket(J1, J2), Y)
    )
    assert all(is_zero(c, R3).zero for c in direct.components)


def test_adjoint_representation_flat_on_tangent_algebroid():
    g = tangent_algebroid(R2)
    rng = np.random.default_rng(22)
    J1, J2 = _random_jet(g, rng), _random_jet(g, rng)
    Y = Section(R2, ("x*y", "y"), "g")
    direct = (
        _adjoint_action(J1, _adjoint_action(J2, Y))
        - _adjoint_action(J2, _adjoint_action(J1, Y))
        - _adjoint_action(jet_bracket(J1, J2), Y)
    )
    assert all(is_zero(c, R2).zero for c in direct.components)


# ----------------------------------------------------------------- splitting


def test_flat_lift_of_constant_section_is_prolongation():
    g = so3_action()
    J = splitting_from_connection(g, TMConnection.flat(R3, 3), g.frame_section(2))
    assert matrix_is_zero(J.correction, R3, probabilistic=False)


def test_flat_lift_of_linear_section():
    g = tangent_algebroid(R2)
    X = Section(R2, ("x", "0"), "g")
    J = splitting_from_connection(g, TMConnection.flat(R2, 2), X)
    assert canon(J.correction[0, 0]) == Const(-1)
    assert all(
        J.correction[idx] == Const(0)
        for idx in np.ndindex(2, 2)
        if idx != (0, 0)
    )


def test_lift_respects_the_anchor():
    g = so3_action()
    rng = np.random.default_rng(30)
    gamma = rng.integers(-2, 3, size=(3, 3, 3)).tolist()
    X = Section(R3, ("x", "y", "1"), "g")
    J = splitting_from_connection(g, TMConnection(R3, gamma), X)
    assert J.base == X


def test_lift_composed_with_adjoint_gives_self_representation():
    g = so3_action()
    rng = np.random.default_rng(31)
    conn = TMConnection(R3, rng.integers(-2, 3, size=(3, 3, 3)).tolist())
    rep = induced_rep_on_g(g, conn)
    for a in range(3):
        J = splitting_from_connection(g, conn, g.frame_section(a))
        for b in range(3):
            got = _adjoint_action(J, g.frame_section(b))
            want = cov_deriv_g(rep, g.frame_section(a), g.frame_section(b))
            for c in range(3):
                assert is_zero(got.components[c] - want.components[c], R3).zero


def test_lift_pushed_through_anchor_gives_tm_representation():
    g = so3_action()
    rng = np.random.default_rng(32)
    conn = TMConnection(R3, rng.integers(-2, 3, size=(3, 3, 3)).tolist())
    rep = induced_rep_on_tm(g, conn)
    tm = tangent_algebroid(R3)
    for a in range(3):
        J = _anchor_pushforward(splitting_from_connection(g, conn, g.frame_section(a)))
        for j in range(3):
            got = _adjoint_action(J, tm.frame_section(j))
            for k in range(3):
                assert is_zero(got.components[k] - rep.A[a, j, k], R3).zero


# ------------------------------------------------------------ lift curvature


def test_canonical_flat_lift_has_zero_curvature():
    g = so3_action()
    conn = TMConnection.flat(R3, 3)
    X = Section(R3, ("x", "0", "z"), "g")
    Y = Section(R3, ("1", "y", "0"), "g")
    out = _reference_splitting_curvature(g, conn, X, Y)
    assert matrix_is_zero(out, R3)


def test_flat_but_incompatible_connection_has_lift_curvature():
    # parallel frame {d/dx, exp(x^2) d/dy} gives a flat connection whose
    # lift still fails to respect brackets
    g = tangent_algebroid(R2)
    gamma = np.zeros((2, 2, 2), dtype=object)
    gamma[...] = Const(0)
    gamma[0, 1, 1] = canon(Const(-2) * Sym("x"))
    conn = TMConnection(R2, gamma)
    assert _tensor_battery("flatness", curvature_tm(conn), ZeroPolicy()).ok
    out = _reference_splitting_curvature(g, conn, g.frame_section(0), g.frame_section(1))
    assert not matrix_is_zero(out, R2)


def test_lift_curvature_base_is_asserted_zero():
    g = so3_action()
    rng = np.random.default_rng(33)
    conn = TMConnection(R3, rng.integers(-2, 3, size=(3, 3, 3)).tolist())
    X = Section(R3, ("x*y", "0", "1"), "g")
    Y = Section(R3, ("z", "1", "x"), "g")
    _reference_splitting_curvature(g, conn, X, Y)  # must not raise
