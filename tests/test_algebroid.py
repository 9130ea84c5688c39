import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cartankit.algebroid import (
    Algebroid,
    LieAlgebra,
    OrbitScan,
    anchor_apply,
    bracket,
    build_action_algebroid,
    build_foliation_algebroid,
    build_poisson_algebroid,
    orbit_scan,
    _jacobiator,
    tangent_algebroid,
    validate,
)
from cartankit.bundles import Section, TensorField, Verdict
from cartankit.symcore import (
    Chart,
    Const,
    DegenerateError,
    DomainError,
    ZeroPolicy,
    canon,
    cmul,
    diff,
    evaluate,
    evaluate_batch,
    is_zero,
    parse,
)

R2 = Chart(("x", "y"), [(-1, 1), (-1, 1)])
R3 = Chart(("x", "y", "z"), [(-1, 1), (-1, 1), (-1, 1)])


def so3_algebra():
    # [e_a, e_b] = eps_{abc} e_c
    f = np.zeros((3, 3, 3), dtype=int)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[a, b, c] = 1
        f[b, a, c] = -1
    return LieAlgebra(3, f.tolist())


def abelian_algebra(dim):
    return LieAlgebra(dim, np.zeros((dim, dim, dim), dtype=int).tolist())


def so3_rotation_fields(chart=R3):
    # V_a^j = eps_{ajk} x^k: infinitesimal rotations about the three axes
    return [
        Section(chart, ("0", "z", "-y"), "tm"),
        Section(chart, ("-z", "0", "x"), "tm"),
        Section(chart, ("y", "-x", "0"), "tm"),
    ]


def so3_action(chart=R3):
    return build_action_algebroid(so3_algebra(), so3_rotation_fields(chart))


def lie_poisson_so3():
    pi = TensorField(
        R3,
        (("upper", "tm"), ("upper", "tm")),
        [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]],
    )
    pi.check_pairs(antisymmetric=((0, 1),))
    return build_poisson_algebroid(pi)


# ----------------------------------------------------------- lie algebras


def test_so3_structure_constants_satisfy_jacobi():
    so3_algebra()


def test_broken_jacobi_is_rejected():
    # so(3) constants with an extra [e0,e1] ~ e0 term: no longer a Lie algebra
    f = np.zeros((3, 3, 3), dtype=int)
    f[0, 1, 2], f[1, 0, 2] = 1, -1
    f[1, 2, 0], f[2, 1, 0] = 1, -1
    f[2, 0, 1], f[0, 2, 1] = 1, -1
    f[0, 1, 0], f[1, 0, 0] = 1, -1
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra(3, f.tolist())


def test_non_antisymmetric_constants_rejected():
    f = np.zeros((2, 2, 2), dtype=int)
    f[0, 1, 0] = 1
    with pytest.raises(ValueError, match="antisymmetric"):
        LieAlgebra(2, f.tolist())


def _reference_lie_checks(dim, structure):
    """The exact per-entry loops that ``LieAlgebra`` once ran: the message
    of the first failing entry, or None for a Lie algebra."""
    f = [
        [[Fraction(structure[a][b][c]) for c in range(dim)] for b in range(dim)]
        for a in range(dim)
    ]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                if f[a][b][c] + f[b][a][c] != 0:
                    return f"structure constants not antisymmetric at ({a},{b},{c})"
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for d in range(dim):
                    total = Fraction(0)
                    for m in range(dim):
                        total += (
                            f[a][b][m] * f[m][c][d]
                            + f[b][c][m] * f[m][a][d]
                            + f[c][a][m] * f[m][b][d]
                        )
                    if total != 0:
                        return f"Jacobi identity fails at ({a},{b},{c},{d})"
    return None


def _random_structure(rng, dim):
    """Sparse seeded constants from {+-1, +-2, +-1/2}, made antisymmetric
    unless one entry is then perturbed."""
    values = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2)]
    density = rng.choice([0.05, 0.15, 0.4])
    f = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a, b in combinations(range(dim), 2):
        for c in range(dim):
            if rng.random() < density:
                f[a][b][c] = rng.choice(values)
                f[b][a][c] = -f[a][b][c]
    if rng.random() < 0.3:
        a, b, c = (rng.randrange(dim) for _ in range(3))
        f[a][b][c] += rng.choice(values)
    return f


def test_lie_algebra_check_matches_the_reference_loops():
    rng = random.Random(2025)
    outcomes = {"valid": 0, "antisymmetric": 0, "Jacobi": 0}
    for _ in range(600):
        dim = rng.randint(1, 4)
        f = _random_structure(rng, dim)
        expected = _reference_lie_checks(dim, f)
        try:
            algebra = LieAlgebra(dim, f)
        except DegenerateError as exc:
            assert str(exc) == expected, f
            assert (exc.point, exc.value, exc.path) == (None, None, "symbolic")
            outcomes["antisymmetric" if "antisymmetric" in expected else "Jacobi"] += 1
        else:
            assert expected is None, f
            assert algebra.structure.tolist() == [
                [[Fraction(v) for v in row] for row in plane] for plane in f
            ]
            outcomes["valid"] += 1
    # every outcome is exercised
    assert min(outcomes.values()) >= 60, outcomes


# --------------------------------------------------------------- brackets


def test_tangent_bracket_is_vector_field_bracket():
    g = tangent_algebroid(R2)
    X = Section(R2, ("1", "0"), "g")
    Y = Section(R2, ("x", "0"), "g")
    assert bracket(g, X, Y) == Section(R2, ("1", "0"), "g")


def test_abelian_translation_action_constant_sections_commute():
    fields = [Section(R2, ("1", "0"), "tm"), Section(R2, ("0", "1"), "tm")]
    g = build_action_algebroid(abelian_algebra(2), fields)
    e0, e1 = g.frame_section(0), g.frame_section(1)
    got = bracket(g, e0, e1)
    assert all(c == Const(0) for c in got.components)


def test_so3_frame_bracket_reproduces_algebra():
    g = so3_action()
    got = bracket(g, g.frame_section(0), g.frame_section(1))
    assert got == g.frame_section(2)


def test_bracket_rank_mismatch():
    g = so3_action()
    with pytest.raises(ValueError, match="rank"):
        bracket(g, g.frame_section(0), Section(R3, ("1", "0"), "g"))


# ----------------------------------------------------------------- anchor


def test_tangent_anchor_is_identity():
    g = tangent_algebroid(R2)
    X = Section(R2, ("x*y", "1"), "g")
    V = anchor_apply(g, X)
    assert V.frame == "tm" and list(V.components) == list(X.components)


def test_lie_poisson_anchor_on_first_coordinate_form():
    g = lie_poisson_so3()
    V = anchor_apply(g, g.frame_section(0))
    # #(dx) = z d/dy - y d/dz for the so(3)* bivector
    assert V == Section(R3, ("0", "z", "-y"), "tm")


def test_zero_section_has_zero_anchor():
    g = so3_action()
    V = anchor_apply(g, g.zero_section())
    assert all(c == Const(0) for c in V.components)


# --------------------------------------------------------------- validate


def test_tangent_algebroid_validates():
    report = validate(tangent_algebroid(R2))
    assert report.ok
    assert [c.name for c in report.children] == [
        "antisymmetry",
        "anchor_hom",
        "jacobi",
        "leibniz",
    ]


def test_so3_action_validates():
    assert validate(so3_action()).ok


def test_perturbed_structure_function_fails_anchor_hom():
    g = so3_action()
    bad = g.structure.copy()
    bad[0, 1, 2] = canon(parse("1 + x", R3))
    bad[1, 0, 2] = canon(parse("-(1 + x)", R3))
    broken = Algebroid(R3, 3, g.rho, bad)
    report = validate(broken)
    assert not report.ok
    check = report.child("anchor_hom")
    assert not check.ok and check.witness is not None


# ------------------------------------- axioms from the tables, kept honest

# z stays away from 0, so that entries such as 1/z are defined on the box
R3_POS = Chart(("x", "y", "z"), [(-1, 1), (-1, 1), (Fraction(1, 2), 2)])
ENTRIES = (
    "0", "0", "1", "-2", "x", "sin(x)", "1/z", "-(x+y)", "x*y",
    "(x+y)^2", "exp(y)", "cos(z)*x", "2*(x - z)", "y/z",
)


def random_algebroid(seed, rank, chart=R3_POS):
    """Seeded anchor and antisymmetric structure tables drawn from ENTRIES;
    they need not satisfy any axiom but antisymmetry."""
    rng = random.Random(seed)
    n = chart.dim
    rho = [[rng.choice(ENTRIES) for _ in range(rank)] for _ in range(n)]
    c = [[["0"] * rank for _ in range(rank)] for _ in range(rank)]
    for a, b in combinations(range(rank), 2):
        for d in range(rank):
            entry = rng.choice(ENTRIES)
            c[a][b][d] = entry
            c[b][a][d] = f"-({entry})"
    return Algebroid(chart, rank, rho, c)


def random_function(rng, chart=R3_POS):
    return parse(f"{rng.choice(ENTRIES)} + {rng.choice(ENTRIES)}*x", chart)


def _reference_jacobiator(g, a, b, c):
    """The Jacobiator by nested section brackets, as validate once built it."""
    e = [g.frame_section(k) for k in range(g.rank)]
    cyc = (
        bracket(g, bracket(g, e[a], e[b]), e[c])
        + bracket(g, bracket(g, e[b], e[c]), e[a])
        + bracket(g, bracket(g, e[c], e[a]), e[b])
    )
    return cyc.components


@pytest.mark.parametrize("seed,rank", [(0, 3), (1, 3), (2, 4), (3, 4), (4, 4)])
def test_closed_form_jacobiator_matches_nested_brackets(seed, rank):
    # The two builds can reach different canonical forms of one function:
    # canon keeps (-1)*(x + y) inside a product but spreads it to -x - y
    # inside a sum.  So a sampled value may differ in the last place (seed
    # 2 has one); zero, path and witness must agree exactly.
    g = random_algebroid(seed, rank)
    for a, b, c in combinations(range(rank), 3):
        closed = _jacobiator(g, a, b, c)
        nested = _reference_jacobiator(g, a, b, c)
        for d in range(rank):
            mine, ref = is_zero(closed[d], g.chart), is_zero(nested[d], g.chart)
            where = (a, b, c, d)
            assert (mine.zero, mine.path, mine.witness) == (
                ref.zero, ref.path, ref.witness,
            ), where
            if ref.value is None:
                assert mine.value is None, where
            else:
                assert mine.value == pytest.approx(ref.value, rel=1e-12), where
            assert is_zero(closed[d] - nested[d], g.chart).zero, where


def test_closed_form_jacobiator_vanishes_on_valid_algebroids():
    for g in (so3_action(), lie_poisson_so3(), tangent_algebroid(R3)):
        for a, b, c in combinations(range(g.rank), 3):
            assert all(canon(e) == Const(0) for e in _jacobiator(g, a, b, c))


@pytest.mark.parametrize("seed,rank", [(10, 2), (11, 3), (12, 3), (13, 4)])
def test_bracket_is_leibniz_on_frames(seed, rank):
    # [e_a, f e_b] - f [e_a, e_b] - rho_a(f) e_b, the expansion validate
    # once checked; it vanishes for any tables because bracket is the
    # Leibniz extension of the frame brackets
    g = random_algebroid(seed, rank)
    rng = random.Random(seed)
    chart = g.chart
    fs = [parse(name, chart) for name in chart.coords] + [
        random_function(rng) for _ in range(2)
    ]
    frames = [g.frame_section(a) for a in range(rank)]
    for f in fs:
        for a in range(rank):
            rho_f = Const(0)
            for i, name in enumerate(chart.coords):
                rho_f = rho_f + g.rho[i, a] * diff(f, name)
            for b in range(rank):
                scaled = bracket(g, frames[a], frames[b].scale(f))
                plain = bracket(g, frames[a], frames[b]).scale(f)
                for d in range(rank):
                    defect = scaled.components[d] - plain.components[d]
                    if d == b:
                        defect = defect - rho_f
                    assert is_zero(defect, chart).zero, (str(f), a, b, d)


@pytest.mark.parametrize("seed,rank", [(20, 2), (21, 3), (22, 4)])
def test_bracket_is_leibniz_on_general_sections(seed, rank):
    g = random_algebroid(seed, rank)
    rng = random.Random(seed)
    chart = g.chart
    for _ in range(5):
        X = Section(chart, [random_function(rng) for _ in range(rank)], "g")
        Y = Section(chart, [random_function(rng) for _ in range(rank)], "g")
        f = random_function(rng)
        V = anchor_apply(g, X)
        rho_f = Const(0)
        for i, name in enumerate(chart.coords):
            rho_f = rho_f + V.components[i] * diff(f, name)
        defect = (
            bracket(g, X, Y.scale(f)) - bracket(g, X, Y).scale(f) - Y.scale(rho_f)
        )
        for d in range(rank):
            assert is_zero(defect.components[d], chart).zero, d


def test_validate_reports_leibniz_symbolic_on_any_tables():
    report = validate(random_algebroid(0, 3))
    assert report.child("leibniz") == Verdict("leibniz", "pass", "symbolic")


# ----------------------------------------------------------------- action


def test_translation_action_has_identity_anchor():
    fields = [Section(R2, ("1", "0"), "tm"), Section(R2, ("0", "1"), "tm")]
    g = build_action_algebroid(abelian_algebra(2), fields)
    assert g.rho[0, 0] == Const(1) and g.rho[1, 1] == Const(1)
    assert g.rho[0, 1] == Const(0) and g.rho[1, 0] == Const(0)
    assert all(
        g.structure[a, b, c] == Const(0)
        for a in range(2)
        for b in range(2)
        for c in range(2)
    )


def test_so3_rotation_action_accepted_and_validates():
    g = so3_action()
    assert g.origin == "action"
    assert validate(g).ok


def test_negated_rotation_field_rejected():
    fields = so3_rotation_fields()
    fields[2] = -fields[2]
    with pytest.raises(ValueError, match="not an infinitesimal action"):
        build_action_algebroid(so3_algebra(), fields)


# ---------------------------------------------------------------- poisson


def test_zero_bivector_gives_abelian_bundle():
    pi = TensorField(
        R2, (("upper", "tm"), ("upper", "tm")), [["0", "0"], ["0", "0"]]
    )
    g = build_poisson_algebroid(pi)
    assert all(g.rho[i, a] == Const(0) for i in range(2) for a in range(2))
    assert validate(g).ok


def test_lie_poisson_so3_structure_functions_are_epsilon():
    g = lie_poisson_so3()
    # c^c_{ab} = d_c Pi^{ab}: constants, the so(3) epsilon tensor
    assert g.structure[0, 1, 2] == Const(1)
    assert g.structure[1, 2, 0] == Const(1)
    assert g.structure[2, 0, 1] == Const(1)
    assert g.structure[1, 0, 2] == Const(-1)
    assert g.structure[0, 1, 0] == Const(0)
    assert validate(g).ok


def test_poisson_bracket_of_exact_forms_is_exact():
    # [df, dg] = d{f, g}; with f = x^2, g = y on so(3)*: {f,g} = 2xz
    g = lie_poisson_so3()
    df = Section(R3, ("2*x", "0", "0"), "tm*")
    dg = Section(R3, ("0", "1", "0"), "tm*")
    got = bracket(g, df, dg)
    want = Section(R3, ("2*z", "0", "2*x"), "tm*")
    for c_got, c_want in zip(got.components, want.components):
        assert is_zero(c_got - c_want, R3).zero


def test_non_jacobi_bivector_rejected():
    pi = TensorField(
        R3,
        (("upper", "tm"), ("upper", "tm")),
        [["0", "z", "x"], ["-z", "0", "0"], ["-x", "0", "0"]],
    )
    pi.check_pairs(antisymmetric=((0, 1),))
    with pytest.raises(ValueError, match="not Poisson"):
        build_poisson_algebroid(pi)


def test_single_component_bivector_on_r3_is_poisson():
    pi = TensorField(
        R3,
        (("upper", "tm"), ("upper", "tm")),
        [["0", "x*y", "0"], ["-x*y", "0", "0"], ["0", "0", "0"]],
    )
    g = build_poisson_algebroid(pi)
    assert validate(g).ok


# -------------------------------------------------------------- foliation


def test_coordinate_plane_foliation():
    frame = [Section(R3, ("1", "0", "0"), "tm"), Section(R3, ("0", "1", "0"), "tm")]
    g = build_foliation_algebroid(frame)
    assert g.rank == 2
    assert all(
        g.structure[a, b, c] == Const(0)
        for a in range(2)
        for b in range(2)
        for c in range(2)
    )
    assert validate(g).ok


def test_non_integrable_distribution_rejected():
    frame = [Section(R3, ("1", "0", "0"), "tm"), Section(R3, ("0", "x", "1"), "tm")]
    with pytest.raises(ValueError, match="not integrable"):
        build_foliation_algebroid(frame)


def test_variable_coefficient_foliation_closes():
    frame = [Section(R3, ("1", "0", "0"), "tm"), Section(R3, ("0", "1+x^2", "0"), "tm")]
    g = build_foliation_algebroid(frame)
    # [d/dx, (1+x^2) d/dy] = 2x d/dy = (2x/(1+x^2)) * frame[1]
    want = canon(parse("2*x/(1+x^2)", R3))
    assert is_zero(g.structure[0, 1, 1] - want, R3).zero
    assert g.structure[0, 1, 0] == Const(0)
    assert validate(g).ok


def test_degenerate_frame_rejected():
    frame = [Section(R2, ("1", "0"), "tm"), Section(R2, ("x", "0"), "tm")]
    with pytest.raises(ValueError, match="degenerate"):
        build_foliation_algebroid(frame)


# ------------------------------------------------------------------ orbits


def test_tangent_algebroid_is_transitive():
    scan = orbit_scan(tangent_algebroid(R2), ZeroPolicy())
    assert scan == OrbitScan(transitive=True, witness=None)


def test_so3_action_is_not_transitive_with_a_witness():
    # the rotation fields' anchor is antisymmetric, so det rho is 0 and
    # the first sample is the witness
    scan = orbit_scan(so3_action(), ZeroPolicy())
    assert not scan.transitive
    assert scan.witness.near_zero and scan.witness.value == 0.0
    assert scan.witness.point == tuple(R3.sample_points(32, 0)[0])


def test_zero_poisson_is_not_transitive():
    pi = TensorField(
        R2, (("upper", "tm"), ("upper", "tm")), [["0", "0"], ["0", "0"]]
    )
    scan = orbit_scan(build_poisson_algebroid(pi), ZeroPolicy())
    assert not scan.transitive
    assert scan.witness.near_zero and scan.witness.value == 0.0


def test_an_anchor_narrower_than_the_chart_is_not_transitive():
    g = Algebroid(R2, 1, [["1"], ["0"]], [[["0"]]])
    assert orbit_scan(g, ZeroPolicy()) == OrbitScan(transitive=False, witness=None)


def test_orbit_scan_catches_a_determinant_that_changes_sign():
    # det rho = y - 1/3 is -1/3 at the midpoint and positive above the
    # line, where no sample lands within 1e-9 of it
    g = Algebroid(R2, 2, [["1", "0"], ["0", "y - 1/3"]], [[["0", "0"], ["0", "0"]]] * 2)
    scan = orbit_scan(g, ZeroPolicy())
    assert not scan.transitive and not scan.witness.near_zero
    assert scan.witness.point[1] > 1 / 3 and scan.witness.value > 0


def _first_domain_error(g, points):
    # the error that evaluating the anchor's entries one by one, sample
    # by sample, meets first
    for p in points:
        for idx in np.ndindex(g.rho.shape):
            try:
                evaluate(g.rho[idx], g.chart.env(p))
            except DomainError as exc:
                return str(exc)
    return None


@pytest.mark.parametrize(
    "anchor",
    [
        [["sqrt(x)", "0"], ["0", "log(y)"]],
        [["log(y)", "0"], ["0", "sqrt(x)"]],
        [["sqrt(y + 1/10)", "0"], ["0", "log(x + 1/2)"]],
        # sqrt(x) meets a zero cofactor: the determinant is 1
        [["1", "sqrt(x)"], ["0", "1"]],
    ],
)
def test_orbit_scan_raises_the_first_undefined_samples_error(anchor):
    # an anchor undefined on part of the box in two ways: the first
    # sample leaves both domains in the first two anchors; in the third,
    # the first sample outside a domain leaves log's, and the last one
    # sqrt's.  The entries are evaluated before the determinant, so an
    # entry that cancels out of it is still reported
    g = Algebroid(R2, 2, anchor, [[["0", "0"], ["0", "0"]]] * 2)
    expected = _first_domain_error(g, R2.sample_points(32, 0))
    assert expected is not None
    with pytest.raises(DomainError) as caught:
        orbit_scan(g, ZeroPolicy())
    assert str(caught.value) == expected


# ---------------------------------------------------------- the rank scan


_SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 3))


def _integer_table(data, rows, cols):
    size = rows * cols
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return np.array(entries, dtype=int).reshape(rows, cols)


def _scaled_rows(table):
    # row i times i + 2 + x, which is at least 1 on the box: the rank is
    # the integer table's at every point, and the entries vary over it
    return [
        [cmul(canon(parse(f"{i + 2} + x", R2)), Const(int(v))) for v in row]
        for i, row in enumerate(table)
    ]


def _smallest_singular_values(table):
    # numpy's SVD of the table at the samples and the midpoint, the rank
    # scan's points: the test-side oracle
    points = np.vstack([R2.sample_points(32, 0), [R2.midpoint()]])
    values = evaluate_batch([e for row in table for e in row], R2.coords, points).values
    stacked = np.array(values).T.reshape(len(points), len(table), len(table[0]))
    return np.linalg.svd(stacked, compute_uv=False)[:, -1]


@given(st.data())
def test_rank_witness_finds_a_product_through_a_smaller_inner_size(data):
    n, r = data.draw(_SHAPES)
    inner = data.draw(st.integers(0, min(n, r) - 1))
    table = _scaled_rows(_integer_table(data, n, inner) @ _integer_table(data, inner, r))
    assert (_smallest_singular_values(table) <= 1e-9).all()
    assert R2.rank_witness(table, 32, 0) is not None


@given(st.data())
def test_rank_witness_passes_a_table_of_full_rank_at_every_sample(data):
    n, r = data.draw(_SHAPES)
    table = _scaled_rows(_integer_table(data, n, r))
    assume((_smallest_singular_values(table) > 1e-3).all())
    assert R2.rank_witness(table, 32, 0) is None
