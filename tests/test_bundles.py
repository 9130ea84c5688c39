import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartankit.bundles import (
    LOW,
    TM,
    UP,
    Section,
    TensorField,
    _tensor_battery,
    lie_derivative,
    vf_bracket,
)
from cartankit.symcore import Chart, Const, ZeroPolicy, canon, diff, is_zero, parse

R2 = Chart(("x", "y"), [(-1, 1), (-1, 1)])
R3 = Chart(("x", "y", "z"), [(-1, 1), (-1, 1), (-1, 1)])


def vf(chart, *comps):
    return Section(chart, comps, "tm")


def expr(text, chart=R2):
    return canon(parse(text, chart))


def outer(T, S):
    """Outer product T (x) S, slots of T first."""
    out = np.empty(T.shape + S.shape, dtype=object)
    for idx in np.ndindex(*out.shape):
        out[idx] = T.components[idx[: T.ndim]] * S.components[idx[T.ndim :]]
    return TensorField(T.chart, T.slots + S.slots, out)


def scalar(chart, f):
    """A zero-slot tensor field."""
    arr = np.empty((), dtype=object)
    arr[()] = f
    return TensorField(chart, (), arr)


# ---------------------------------------------------------------- brackets


def test_bracket_of_coordinate_and_scaled_field():
    assert vf_bracket(vf(R2, "1", "0"), vf(R2, "x", "0")) == vf(R2, "1", "0")


def test_coordinate_fields_commute():
    assert vf_bracket(vf(R2, "1", "0"), vf(R2, "0", "1")) == vf(R2, "0", "0")


def test_cross_term_bracket():
    # [x dy, y dx] = x dx - y dy, expanded by hand
    got = vf_bracket(vf(R2, "0", "x"), vf(R2, "y", "0"))
    assert got == vf(R2, "x", "-y")


def test_bracket_rejects_chart_mismatch():
    with pytest.raises(ValueError, match="chart"):
        vf_bracket(vf(R2, "1", "0"), vf(R3, "1", "0", "0"))


def test_bracket_rejects_non_tangent_sections():
    alpha = Section(R2, ("1", "0"), "tm*")
    with pytest.raises(ValueError, match="tangent"):
        vf_bracket(alpha, alpha)


# ---------------------------------------------------------- lie derivative


def metric(chart, rows):
    sigma = TensorField(chart, ((LOW, TM), (LOW, TM)), rows)
    sigma.check_pairs(symmetric=((0, 1),))
    return sigma


def test_translation_invariance():
    sigma = metric(R2, [["1", "0"], ["0", "1"]])
    got = lie_derivative(vf(R2, "1", "0"), sigma)
    assert _tensor_battery("lie_derivative", got, ZeroPolicy()).ok


def test_dilation_scales_flat_metric():
    dxdx = TensorField(R2, ((LOW, TM), (LOW, TM)), [["1", "0"], ["0", "0"]])
    got = lie_derivative(vf(R2, "x", "0"), dxdx)
    assert got[0, 0] == Const(2)
    assert got[0, 1] == Const(0) and got[1, 1] == Const(0)


def test_rotation_is_killing_for_euclidean_metric():
    sigma = metric(R2, [["1", "0"], ["0", "1"]])
    rot = vf(R2, "-y", "x")
    assert _tensor_battery("lie_derivative", lie_derivative(rot, sigma), ZeroPolicy()).ok


def test_lie_derivative_of_vector_is_bracket():
    # [V, W]^j = V^i d_i W^j - W^i d_i V^j, worked by hand
    V = vf(R2, "x*y", "y^2")
    W = vf(R2, "x+y", "x")
    got = lie_derivative(V, W)
    assert isinstance(got, Section) and got.frame == "tm"
    assert got == vf_bracket(V, W)
    for j, want in enumerate(("-x^2", "-x*y")):
        assert is_zero(got[j] - expr(want), R2).zero


def test_lie_derivative_rejects_algebroid_slots():
    T = TensorField(R2, ((UP, "g"),), ["1", "0", "0"])
    with pytest.raises(ValueError, match="tangent-tagged"):
        lie_derivative(vf(R2, "1", "0"), T)


# ------------------------------------------------------------ declarations


def test_declared_antisymmetry_is_checked():
    T = TensorField(R2, ((UP, TM), (UP, TM)), [["0", "x"], ["x", "0"]])
    with pytest.raises(ValueError, match="antisymmetric"):
        T.check_pairs(antisymmetric=((0, 1),))


def test_declared_symmetry_accepts_symmetric_data():
    metric(R2, [["1", "x*y"], ["x*y", "1+x^2"]])


def test_tm_slot_size_enforced():
    with pytest.raises(ValueError, match="tangent-tagged"):
        TensorField(R2, ((UP, TM),), ["1", "0", "0"])


@pytest.mark.parametrize("frame, slot", [("tm", (UP, TM)), ("tm*", (LOW, TM)), ("g", (UP, "g"))])
def test_a_section_is_the_one_slot_tensor_field(frame, slot):
    X = Section(R2, ("x", "y^2"), frame)
    Y = Section(R2, ("1", "x"), frame)
    assert isinstance(X, TensorField) and X.slots == (slot,) and X.rank == 2
    assert not X.components.flags.writeable
    # the tensor arithmetic rebuilds a section as a section
    for got in (X + Y, X - Y, -X, X.scale("y")):
        assert type(got) is Section and got.frame == frame
    assert X - Y == X + (-Y)
    assert X.scale("y") == TensorField(R2, (slot,), ["x*y", "y^3"])
    with pytest.raises(ValueError, match="signature mismatch"):
        X + Section(R2, ("x", "y", "1"), "g")



# ------------------------------------------------------------- properties

_coeffs = st.integers(min_value=-2, max_value=2)


def _poly_field(chart, draw_coeffs):
    # degree <= 2 polynomial components from a flat coefficient list
    names = chart.coords
    monos = ["1"] + list(names)
    for i, a in enumerate(names):
        for b in names[i:]:
            monos.append(f"{a}*{b}")
    comps = []
    for _ in range(chart.dim):
        cs = [next(draw_coeffs) for _ in monos]
        text = "+".join(f"({c})*{m}" for c, m in zip(cs, monos) if c) or "0"
        comps.append(text)
    return vf(chart, *comps)


@st.composite
def poly_fields(draw, chart=R2, count=2):
    n_monos = chart.dim + 1 + chart.dim * (chart.dim + 1) // 2
    pool = iter(draw(st.lists(_coeffs, min_size=count * chart.dim * n_monos,
                              max_size=count * chart.dim * n_monos)))
    return [_poly_field(chart, pool) for _ in range(count)]


@settings(max_examples=20, deadline=None)
@given(poly_fields(chart=R2, count=2))
def test_bracket_antisymmetry(fields):
    V, W = fields
    defect = vf_bracket(V, W) + vf_bracket(W, V)
    for c in defect.components:
        assert is_zero(c, R2).zero


@settings(max_examples=10, deadline=None)
@given(poly_fields(chart=R2, count=3))
def test_bracket_jacobi(fields):
    V, W, U = fields
    cyc = (
        vf_bracket(V, vf_bracket(W, U))
        + vf_bracket(W, vf_bracket(U, V))
        + vf_bracket(U, vf_bracket(V, W))
    )
    for c in cyc.components:
        assert is_zero(c, R2).zero


@settings(max_examples=20, deadline=None)
@given(poly_fields(chart=R2, count=1))
def test_scalar_lie_derivative_is_directional(fields):
    (V,) = fields
    f = expr("x^2*y + sin(x)")
    got = lie_derivative(V, scalar(R2, f))[()]
    want = sum(
        (V.components[i] * diff(f, n) for i, n in enumerate(R2.coords)),
        Const(0),
    )
    assert is_zero(got - want, R2).zero


@settings(max_examples=10, deadline=None)
@given(poly_fields(chart=R2, count=1))
def test_lie_derivative_leibniz_over_product(fields):
    (V,) = fields
    T = Section(R2, ("x", "y^2"), "tm")
    S = Section(R2, ("y", "x*y"), "tm*")
    lhs = lie_derivative(V, outer(T, S))
    rhs = outer(lie_derivative(V, T), S) + outer(
        T, lie_derivative(V, S)
    )
    defect = lhs - rhs
    verdict = _tensor_battery("leibniz", defect, ZeroPolicy())
    assert verdict.ok, f"Leibniz fails at {verdict.detail}: {verdict}"
