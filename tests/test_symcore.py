"""Expression kernel: grammar, canonical form, differentiation, zero test.

Derivative expectations below were worked out by hand before the
implementation existed and are asserted against the canonical form.
"""

from __future__ import annotations

import contextlib
import gc
import math
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cartankit import symcore
from cartankit.symcore import (
    Add,
    Call,
    Chart,
    Const,
    Div,
    DomainError,
    Expr,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sym,
    ZeroPolicy,
    canon,
    diff,
    evaluate,
    evaluate_batch,
    is_zero,
    parse,
    to_text,
)

XY = Chart(("x", "y"), ((Fraction(1, 5), Fraction(3, 2)), (Fraction(1, 4), Fraction(2))))
T = Chart(("t",), ((Fraction(1, 2), Fraction(5, 2)),))


def p(text, chart=XY):
    return parse(text, chart)


def same(a, b):
    return canon(a) == canon(b)


# -- parsing ----------------------------------------------------------------


def test_precedence_and_associativity():
    # a chain of + and - parses to one flat sum
    assert p("x - y - x") == Add((Sym("x"), Neg(Sym("y")), Neg(Sym("x"))))
    assert p("x - (y - x)") == Add((Sym("x"), Neg(Add((Sym("y"), Neg(Sym("x")))))))
    assert same(p("x - (y - x)"), p("2*x - y"))
    assert p("x/y/x") == Div(Div(Sym("x"), Sym("y")), Sym("x"))
    assert p("2*x^2") == Mul((Const(2), Pow(Sym("x"), 2)))
    # unary minus binds looser than the power
    assert same(p("-x^2") + p("x^2"), Const(0))


def test_parsed_sum_is_one_flat_add():
    chart = Chart(tuple(f"x{i}" for i in range(400)), [(0, 1)] * 400)
    total = parse(" + ".join(chart.coords), chart)
    assert isinstance(total, Add) and len(total.terms) == 400
    assert total.terms == tuple(Sym(name) for name in chart.coords)


def test_decimal_literals_are_exact_rationals():
    assert canon(p("0.5")) == Const(Fraction(1, 2))
    assert canon(p("1.25") - p("5/4")) == Const(0)


def test_signed_integer_exponents():
    assert p("x^-2") == Pow(Sym("x"), -2)
    assert evaluate(p("x^-2"), {"x": 2.0}) == 0.25


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        p("x +")
    with pytest.raises(ParseError, match="unknown identifier"):
        p("q + x")
    with pytest.raises(ParseError, match="unknown function"):
        p("sinh(x)")
    with pytest.raises(ParseError, match="integer exponent"):
        p("x^y")
    err = None
    try:
        p("x + *")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position >= 4


def test_function_calls():
    assert p("sin(x)") == Call("sin", Sym("x"))
    assert p("sqrt(x + y)") == Call("sqrt", Add((Sym("x"), Sym("y"))))


# -- canonical form ---------------------------------------------------------


def test_like_term_collection():
    assert same(p("x + x"), p("2*x"))
    assert same(p("2*x*y - y*x*2"), Const(0))
    assert same(p("x*x - x^2"), Const(0))
    assert same(p("3*x - x - x - x"), Const(0))


def test_constant_folding():
    assert canon(p("2 + 3*4")) == Const(14)
    assert canon(p("2^-3")) == Const(Fraction(1, 8))
    assert canon(p("sqrt(9/4)")) == Const(Fraction(3, 2))
    assert canon(p("sin(0) + cos(0) + exp(0) + log(1) + tan(0)")) == Const(2)
    assert canon(p("sqrt(2)")) == Call("sqrt", Const(2))


def test_division_stays_unevaluated():
    e = canon(p("x/x"))
    assert isinstance(e, Div)
    # ... but the zero test can still decide the identity numerically
    assert is_zero(p("x/x - 1"), XY).zero


def test_products_of_sums_are_not_expanded():
    e = canon(p("(x + 1)*(y + 2)"))
    assert isinstance(e, Mul)
    verdict = is_zero(p("(x + 1)*(y + 2) - x*y - 2*x - y - 2"), XY)
    assert verdict.zero and verdict.path == "probabilistic"


def test_canon_is_idempotent_on_handwritten_cases():
    cases = [
        "x + y + x*y - 2*x",
        "sin(x)^2 + cos(x)^2",
        "(x + y)^3/(x - y)",
        "-x - (-y)",
        "2*x/(1 + x^2)",
    ]
    for text in cases:
        once = canon(p(text))
        assert canon(once) == once


def test_canonical_order_is_stable():
    assert canon(p("y + x")) == canon(p("x + y"))
    assert canon(p("y*x")) == canon(p("x*y"))
    assert to_text(canon(p("y + x"))) == "x + y"


# -- operators ---------------------------------------------------------------


def test_operators_build_one_flat_sum():
    xs = [Sym(f"x{i}") for i in range(400)]
    total = xs[0]
    for v in xs[1:]:
        total = total + v
    assert isinstance(total, Add) and total.terms == tuple(xs)
    head = xs[0] + xs[1]
    assert (head - xs[2]).terms == (xs[0], xs[1], Neg(xs[2]))
    assert head.terms == (xs[0], xs[1])  # no node is mutated
    # a canonical sum is a term of its own, not spliced
    form = canon(head)
    assert (form + xs[2]).terms == (form, xs[2])


def test_operators_drop_literal_zeros():
    x, y = Sym("x"), Sym("y")
    for zero in (0, Const(0), Neg(Const(0))):
        assert x * zero is symcore.ZERO and zero * x is symcore.ZERO
        assert x + zero == Add((x,)) and zero + x == Add((x,))
    assert x - 0 == Add((x,)) and x - Const(0) == Add((x,))
    assert 0 - x == Add((Neg(x),))
    assert Const(0) + Const(0) is symcore.ZERO
    assert (x + y) + 0 == x + y
    # A rational multiple of a sum has one form, inside a sum or not
    negated = Neg(x + y)
    assert to_text(canon(Const(0) + negated)) == "-x - y"
    assert to_text(canon(negated)) == "-x - y"
    assert canon(y * (0 - (x + y)) + y * (x + y)) is symcore.ZERO
    assert canon(y * negated + y * (x + y)) is symcore.ZERO


# -- hash-consing ------------------------------------------------------------


def test_leaves_are_interned_and_canonical_from_birth():
    assert Const(0) is symcore.ZERO and Const(Fraction(1)) is symcore.ONE
    half = Const(Fraction(1, 2))
    assert Const("1/2") is half and Const(0.5) is half
    assert Const(np.int64(3)) is Const(3) and type(Const(np.int64(3)).value) is int
    assert Sym("x") is Sym("x") and p("x") is Sym("x")
    for leaf in (half, Sym("x")):
        assert canon(leaf) is leaf
    assert canon(p("x - x")) is symcore.ZERO
    assert canon(p("x + 0")) is Sym("x")
    assert symcore._is_literal_zero(Neg(Const(0)))
    assert not symcore._is_literal_zero(Const(1))


def test_integral_coefficients_are_ints_and_the_rest_stay_exact():
    assert Const(Fraction(4, 2)).value == 2 and type(Const(Fraction(4, 2)).value) is int
    assert Const(2) is Const(Fraction(2)) and hash(Const(2)) == hash(("c", Fraction(2)))
    third = canon(p("x/3"))
    assert third == Mul((Const(Fraction(1, 3)), Sym("x")))
    assert type(third.factors[0].value) is Fraction
    assert canon(Div(Sym("x"), Const(3))) == third
    assert canon(Div(Sym("x"), Const(Fraction(2, 3)))) == Mul((Const(Fraction(3, 2)), Sym("x")))
    half = canon(Pow(Const(2), -1))
    assert half is Const(Fraction(1, 2)) and type(half.value) is Fraction
    assert canon(Pow(Const(-3), -3)) is Const(Fraction(-1, 27))
    assert canon(Pow(Const(Fraction(2, 3)), 2)).value == Fraction(4, 9)
    # sums and products of ints stay ints; a fraction that sums to an
    # integer comes back as an int
    assert type(canon(p("2*x*3")).factors[0].value) is int
    assert canon(p("1/2 + 1/2")) is symcore.ONE and type(symcore.ONE.value) is int
    assert canon(p("sqrt(9/4)")).value == Fraction(3, 2)
    assert canon(p("cos(0)")) is symcore.ONE


def test_structurally_equal_trees_share_one_canonical_form():
    text = "sin(x)*y + x^2/y - 3*(x - y)"
    a, b = p(text), p(text)
    assert a is not b
    assert canon(a) is canon(b)


def test_deep_left_nested_trees_canonicalise():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        x = Sym("x")
        total = x
        for _ in range(399):
            # the constructor, not +, which would build one flat sum
            total = Add((total, x))
        assert canon(total) == Mul((Const(400), x))
        product = x
        for _ in range(1499):
            product = product * x
        assert canon(product) == Pow(x, 1500)
        assert evaluate(product, {"x": -1.0}) == 1.0
    finally:
        sys.setrecursionlimit(limit)


def test_diff_of_a_deep_product():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        x = Sym("x")
        product = x
        for _ in range(1499):
            product = product * x
        assert canon(diff(product, "x")) == Mul((Const(1500), Pow(x, 1499)))
    finally:
        sys.setrecursionlimit(limit)


def test_deep_terms_print():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        term = Sym("x")
        for _ in range(1500):
            term = Call("sin", term)
        text = "sin(" * 1500 + "x" + ")" * 1500
        assert str(term) == text
        assert repr(term) == f"<expr {text}>"
        with pytest.raises(DomainError) as info:
            evaluate(Call("log", term - 2), {"x": 0.5})
        assert str(info.value) == f"log of non-positive value in log({text} - 2)"
    finally:
        sys.setrecursionlimit(limit)


def _symbols(e):
    """The names of the symbols in ``e``."""
    out = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.name)
        else:
            stack.extend(node.children())
    return out


def _probe_keys(name):
    """The hash-cons keys that name a node holding the symbol ``name``; a
    key holds its nodes through weak references."""
    nodes = lambda key: [c() for c in key[1:] if isinstance(c, weakref.ref)]
    return [
        key
        for key in symcore._HASHCONS.keys()
        if any(c is not None and name in _symbols(c) for c in nodes(key))
    ]


def test_hashcons_table_releases_dead_forms():
    def probe_keys():
        return _probe_keys("hashcons_probe")

    probe = Call("exp", Sym("hashcons_probe"))
    # The first form is new; the second is the exp(...) named in its own
    # key; the third is the interned leaf ZERO, which never dies, so its
    # sum makes no entry.  No entry may outlive the forms handed out.
    exprs = [Add((probe, probe)), Add((probe, Const(0))), Add((probe, Neg(probe)))]
    forms = [canon(e) for e in exprs]
    assert forms == [Mul((Const(2), canon(probe))), canon(probe), Const(0)]
    assert forms[2] is symcore.ZERO
    # exp, its negation and the first two sums, and the structure entries
    # of the products 2*exp(...) and (-1)*exp(...)
    assert len(probe_keys()) == 6
    del probe, exprs, forms
    gc.collect()
    assert probe_keys() == []


# -- differentiation (hand-frozen oracles) ----------------------------------


def test_polynomial_rules():
    assert same(diff(p("x^2"), "x"), p("2*x"))
    assert same(diff(p("x^2*y"), "x"), p("2*x*y"))
    assert same(diff(p("x^2*y"), "y"), p("x^2"))
    assert same(diff(p("x^-1"), "x"), p("-x^-2"))


def test_quotient_rule():
    assert same(diff(p("x/y"), "y"), p("-x/y^2"))
    d = diff(p("(x + 1)/(y + 1)"), "x")
    assert is_zero(d - p("(y + 1)/(y + 1)^2"), XY).zero


def test_chain_rules():
    t = parse("t", T)
    assert same(diff(parse("sin(t)^2", T), "t"), parse("2*cos(t)*sin(t)", T))
    assert same(diff(Call("exp", Pow(t, 2)), "t"), parse("2*t*exp(t^2)", T))
    assert same(diff(Call("log", t), "t"), parse("1/t", T))
    assert same(diff(Call("sqrt", t), "t"), parse("1/(2*sqrt(t))", T))
    assert same(diff(Call("cos", t), "t"), parse("-sin(t)", T))
    assert same(diff(Call("tan", t), "t"), parse("1 + tan(t)^2", T))


def test_derivative_of_foliation_coefficient():
    # d/dx log(1 + x^2) = 2x/(1+x^2), the structure function in the
    # curved-frame fixtures
    d = diff(p("log(1 + x^2)"), "x")
    assert is_zero(d - p("2*x/(1 + x^2)"), XY).zero


# -- evaluation -------------------------------------------------------------


def test_evaluate_matches_math():
    e = p("sin(x)^2 + x*y/2")
    assert evaluate(e, {"x": 0.3, "y": 1.1}) == pytest.approx(
        math.sin(0.3) ** 2 + 0.3 * 1.1 / 2
    )


def test_domain_violations():
    with pytest.raises(DomainError):
        evaluate(p("1/(x - x)"), {"x": 1.0})
    with pytest.raises(DomainError):
        evaluate(p("log(0 - x)"), {"x": 2.0})
    with pytest.raises(DomainError):
        evaluate(p("sqrt(0 - x)"), {"x": 2.0})
    with pytest.raises(DomainError):
        evaluate(Pow(p("x - x"), -1), {"x": 1.0})


# -- zero test --------------------------------------------------------------


def test_symbolic_zero_path():
    verdict = is_zero(p("x*y - y*x"), XY)
    assert verdict.zero and verdict.path == "symbolic"


def test_probabilistic_zero_path():
    verdict = is_zero(p("sin(x)^2 + cos(x)^2 - 1"), XY)
    assert verdict.zero and verdict.path == "probabilistic"


def test_nonzero_has_witness():
    verdict = is_zero(p("x^2 + 1"), XY)
    assert not verdict.zero
    assert verdict.witness is not None
    assert verdict.value >= 1.0
    # witness is inside the box
    for v, (lo, hi) in zip(verdict.witness, XY.box):
        assert float(lo) <= v <= float(hi)


def test_small_but_nonzero_is_caught():
    verdict = is_zero(p("x/1000000"), XY)
    assert not verdict.zero


def test_undecidable_when_domain_always_violated():
    verdict = is_zero(Div(Const(1), p("x - x")), XY)
    assert not verdict.zero
    assert verdict.path == "undecidable"


def test_relative_scale_forgives_catastrophic_cancellation():
    # (x+1)^6 expanded minus itself: huge intermediate terms, zero total
    lhs = p("(x + 1)^6")
    rhs = p(
        "x^6 + 6*x^5 + 15*x^4 + 20*x^3 + 15*x^2 + 6*x + 1"
    )
    big = lhs * p("1000000") - rhs * p("1000000")
    assert is_zero(big, XY).zero


def test_policy_seed_changes_samples_not_verdicts():
    e = p("sin(x)^2 + cos(x)^2 - 1")
    for seed in (0, 7, 123):
        assert is_zero(e, XY, ZeroPolicy(seed=seed)).zero


# -- chart ------------------------------------------------------------------


def test_chart_sampling_is_deterministic():
    a = XY.sample_points(32, seed=0)
    b = XY.sample_points(32, seed=0)
    assert np.array_equal(a, b)
    assert a.shape == (32, 2)
    c = XY.sample_points(32, seed=1)
    assert not np.array_equal(a, c)


def test_chart_box_respected():
    pts = T.sample_points(64, seed=0)
    assert pts.min() >= 0.5 and pts.max() <= 2.5


def test_chart_guard_rejects_boxes_touching_singular_loci():
    guard = Call("sin", Sym("t"))
    Chart(("t",), ((Fraction(1, 2), Fraction(5, 2)),), guards=(guard,)).check_guards(64, 1)
    crossing = Chart(("t",), ((Fraction(3), Fraction(4)),), guards=(guard,))  # crosses pi
    with pytest.raises(ValueError, match="box does not avoid the locus"):
        crossing.check_guards(64, 1)


def test_divisor_factors_split_divisors_and_list_inner_poles_first():
    c = Chart(("x", "y"), ((-1, 1), (-1, 1)))
    exprs = [parse("1/(1/x) + y^-2", c), parse("x/(-(x+1)^3*sin(y))", c), parse("x*y", c)]
    found = [to_text(f) for f in symcore.divisor_factors(exprs)]
    assert sorted(found) == sorted(["x", "1/x", "y", "x + 1", "sin(y)"])
    assert found.index("x") < found.index("1/x")


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(("x", "x"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Chart(("x",), ((1, 1),))
    with pytest.raises(ValueError):
        Chart(("sin",), ((0, 1),))


# -- printing round-trips ---------------------------------------------------


def _expr_strategy(funcs=("sin", "cos", "exp")):
    coordinates = st.sampled_from(["x", "y"]).map(Sym)
    leaves = st.one_of(
        st.integers(min_value=-4, max_value=4).map(Const),
        coordinates,
        st.fractions(min_value=-2, max_value=2, max_denominator=8).map(Const),
        # a function of a coordinate: the recursion alone draws one in
        # about 7 of 200 derandomized draws, too few to exercise each
        # function's rules
        st.builds(Call, st.sampled_from(funcs), coordinates),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(Add),
            st.tuples(children, children).map(Mul),
            st.tuples(children, children).map(lambda ab: Div(ab[0], ab[1])),
            children.map(Neg),
            st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
                lambda be: Pow(be[0], be[1])
            ),
            st.tuples(st.sampled_from(funcs), children).map(
                lambda fa: Call(fa[0], fa[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_expr_strategy())
# A negated quotient leading a sum must print as "-(x/y) + x": "-x/y + x"
# re-parses as (-x)/y + x, which canonicalises differently.
@example(Add((Neg(Div(Sym("x"), Sym("y"))), Sym("x"))))
@example(Add((Neg(Div(Const(0), Const(0))), Const(0))))
@example(Neg(Add((Neg(Div(Const(0), Const(0))), Const(0)))))
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(e):
    assert canon(parse(to_text(e), XY)) == canon(e)


def _nodes(e):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


@given(_expr_strategy())
@settings(max_examples=200, deadline=None)
def test_no_canonical_node_is_a_negation(e):
    # cneg builds (-1)*a, so the sort key and the derivative rules need
    # no case for a Neg
    assert not any(isinstance(node, Neg) for node in _nodes(canon(e)))


def _rebuild(e):
    """A structurally equal copy built from fresh nodes, none canonicalised."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Sym):
        return Sym(e.name)
    if isinstance(e, Neg):
        return Neg(_rebuild(e.operand))
    if isinstance(e, Add):
        return Add(tuple(_rebuild(t) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(_rebuild(f) for f in e.factors))
    if isinstance(e, Div):
        return Div(_rebuild(e.num), _rebuild(e.den))
    if isinstance(e, Pow):
        return Pow(_rebuild(e.base), e.exponent)
    return Call(e.func, _rebuild(e.arg))


@given(_expr_strategy())
# A power of a quotient used to sort as an opaque factor on a second pass:
# (1/x)*(y/x)^2 re-canonicalised to (y/x)^2*(1/x).
@example(Mul((Div(Const(1), Sym("x")), Div(Sym("y"), Sym("x")), Div(Sym("y"), Sym("x")))))
@settings(max_examples=200, deadline=None)
def test_canon_idempotent(e):
    once = canon(e)
    # canon(once) would only read back once's own cached form
    assert canon(_rebuild(once)) == once


@given(_expr_strategy(), _expr_strategy())
@settings(max_examples=100, deadline=None)
def test_canon_respects_commutativity(a, b):
    assert canon(Add((a, b))) == canon(Add((b, a)))
    assert canon(Mul((a, b))) == canon(Mul((b, a)))


# Literal zeros and a pole at zero, among the operands of the operator test
_OPERANDS = st.one_of(
    _expr_strategy(),
    st.sampled_from(["0", "-0", "0^-1"]).map(lambda text: parse(text, XY)),
)


@given(
    st.lists(_OPERANDS, min_size=1, max_size=4),
    st.lists(st.sampled_from(["+", "-", "*", "r+", "r-", "r*"]), min_size=3, max_size=3),
)
@example([Const(0), Neg(Add((Sym("x"), Sym("y"))))], ["+", "+", "+"])
@example([Add((Sym("x"), Const(2))), Const(0), Mul((Const(3), Add((Sym("y"), Sym("x")))))], ["-", "r+", "+"])
@settings(max_examples=300, deadline=None)
def test_operators_canonicalise_as_the_constructors(operands, ops):
    built, nested = _rebuild(operands[0]), _rebuild(operands[0])
    for op, operand in zip(ops, operands[1:]):
        a, b = _rebuild(operand), _rebuild(operand)
        if op == "+":
            built, nested = built + a, Add((nested, b))
        elif op == "-":
            built, nested = built - a, Add((nested, Neg(b)))
        elif op == "*":
            built, nested = built * a, Mul((nested, b))
        elif op == "r+":
            built, nested = a + built, Add((b, nested))
        elif op == "r-":
            built, nested = a - built, Add((b, Neg(nested)))
        else:
            built, nested = a * built, Mul((b, nested))
    assert canon(built) == canon(nested)


def _reference_diff(e, name):
    """The raw-tree derivative by recursion, rule by rule: the oracle for
    ``diff``'s canonical rules, which must give the canonical form of its
    result."""
    if isinstance(e, Const):
        return symcore.ZERO
    if isinstance(e, Sym):
        return symcore.ONE if e.name == name else symcore.ZERO
    if isinstance(e, Neg):
        return Neg(_reference_diff(e.operand, name))
    if isinstance(e, Add):
        return Add(tuple(_reference_diff(t, name) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            rest = e.factors[:i] + (_reference_diff(f, name),) + e.factors[i + 1 :]
            terms.append(Mul(rest))
        return Add(tuple(terms))
    if isinstance(e, Div):
        return Div(
            Add(
                (
                    Mul((_reference_diff(e.num, name), e.den)),
                    Neg(Mul((e.num, _reference_diff(e.den, name)))),
                )
            ),
            Pow(e.den, 2),
        )
    if isinstance(e, Pow):
        return Mul(
            (Const(e.exponent), Pow(e.base, e.exponent - 1), _reference_diff(e.base, name))
        )
    inner = _reference_diff(e.arg, name)
    outer = {
        "sin": lambda: Call("cos", e.arg),
        "cos": lambda: Neg(Call("sin", e.arg)),
        "tan": lambda: Add((symcore.ONE, Pow(Call("tan", e.arg), 2))),
        "exp": lambda: e,
        "log": lambda: Div(symcore.ONE, e.arg),
        "sqrt": lambda: Div(symcore.ONE, Mul((Const(2), e))),
    }[e.func]()
    return Mul((outer, inner))


@given(_expr_strategy(symcore.FUNCTIONS), st.sampled_from(["x", "y"]))
@settings(max_examples=300, deadline=None)
def test_diff_of_a_raw_tree_is_the_derivative_of_its_form(e, name):
    assert diff(e, name) is diff(canon(e), name)


@given(_expr_strategy(symcore.FUNCTIONS), st.sampled_from(["x", "y"]))
@settings(max_examples=300, deadline=None)
def test_diff_of_a_canonical_node_is_kept_canonical(e, name):
    form = canon(e)
    d = diff(form, name)
    assert d == canon(_reference_diff(form, name))
    assert diff(form, name) is d


@contextlib.contextmanager
def _fresh_table():
    """Run with an empty hash-cons table, so canonical forms are built
    afresh rather than read from entries that another route made."""
    saved = symcore._HASHCONS, symcore._HASHCONS_REFS
    symcore._HASHCONS = weakref.WeakValueDictionary()
    symcore._HASHCONS_REFS = symcore._HASHCONS.data
    try:
        yield
    finally:
        symcore._HASHCONS, symcore._HASHCONS_REFS = saved


def _assert_same_form(built, reference):
    assert to_text(built) == to_text(reference)
    assert built == reference
    assert repr(is_zero(built, XY)) == repr(is_zero(reference, XY))


_INNER_FORM = Mul((Call("sin", Sym("x")), Sym("y")))  # sin(x)*y, kept as it is


@given(st.lists(_expr_strategy(), max_size=4))
# a ZERO operand, and ZERO on both sides
@example([Const(0), Call("sin", Sym("x"))])
@example([Add((Sym("x"), Neg(Sym("x")))), Const(0)])
# a product that folds to a leaf: x * x^-1 is 1
@example([Sym("x"), Pow(Sym("x"), -1)])
# an operand that is an existing inner form, which the build returns as
# it is: 1 * sin(x)*y, and the one-term sum of sin(x)*y
@example([Const(1), _INNER_FORM])
@example([_INNER_FORM])
# a negated sum, and a product with a sum that leads with a negative
# coefficient: -1 - x against x
@example([Neg(Add((Const(1), Sym("x"))))])
@example([Add((Const(-1), Neg(Sym("x")))), Sym("x")])
@settings(max_examples=200, deadline=None)
def test_canonical_constructors_match_canon_of_the_raw_node(operands):
    # Each side in its own table, so neither reads the other's entries.
    # canon's walk builds each node with its kind's constructor, so this
    # checks what the constructors add: the ZERO short-circuits and csum's
    # handling of its term list.  Negation and scaling are canonical too:
    # one form for -(-e), a one-term sum and a product with a negation.
    with _fresh_table():
        forms = [canon(_rebuild(e)) for e in operands]
        built = [symcore.csum(forms)]
        if forms:
            e = forms[0]
            built.append(symcore.cneg(e))
            assert symcore.cneg(symcore.cneg(e)) is e
            assert symcore.csum((e,)) is e
            assert symcore.csum((symcore.cneg(e),)) is symcore.cneg(e)
        if len(forms) >= 2:
            f = forms[1]
            built.append(symcore.cmul(e, f))
            assert symcore.cmul(f, symcore.cneg(e)) is symcore.cneg(symcore.cmul(f, e))
    with _fresh_table():
        raw = [_rebuild(e) for e in operands]
        reference = [canon(symcore.flat_sum(raw))]
        if raw:
            reference.append(canon(Neg(raw[0])))
        if len(raw) >= 2:
            reference.append(canon(raw[0] * raw[1]))
    for b, r in zip(built, reference):
        _assert_same_form(b, r)


@given(_expr_strategy(symcore.FUNCTIONS), st.sampled_from(["x", "y"]))
@example(Mul((Const(3), Sym("x"), Call("sin", Sym("y")))), "x")
@example(Div(Sym("x"), Const(0)), "x")
@example(Call("tan", Sym("x")) * Call("sqrt", Sym("y")), "y")
@example(Neg(Call("tan", Sym("x"))), "x")
# every rule: the six functions, a quotient, a power and a product
@example(parse("sin(x)*cos(y) + tan(x*y) - exp(x)/log(y) + sqrt(x)*x^3", XY), "x")
@example(parse("sin(x)*cos(y) + tan(x*y) - exp(x)/log(y) + sqrt(x)*x^3", XY), "y")
@settings(max_examples=200, deadline=None)
def test_canonical_derivative_matches_canon_of_the_raw_derivative(e, name):
    # the reference's raw derivative of a raw copy of the canonical form,
    # canonicalised
    with _fresh_table():
        form = canon(_rebuild(e))
        built = diff(form, name)
    with _fresh_table():
        reference = canon(_reference_diff(_rebuild(form), name))
    _assert_same_form(built, reference)


def test_kept_derivatives_die_with_their_nodes():
    # d/dx sin(x) is cos(x), and the next derivative holds sin(x) again, so
    # kept derivatives make reference cycles; neither they nor the table
    # may keep the forms alive.
    t = Sym("derivative_probe")
    d = canon(Call("sin", t) * Call("exp", t) + Pow(t, 3) / (1 + t))
    for _ in range(3):
        d = diff(d, "derivative_probe")
    assert _probe_keys("derivative_probe")
    del t, d
    gc.collect()
    assert _probe_keys("derivative_probe") == []


def test_an_aliased_form_is_the_form_itself():
    # f + 0 has the form of f: the table's entry for the sum names f
    # itself, which keeps its derivatives, and the entry dies with f
    t = Sym("alias_probe")
    form = canon(Call("sin", t) * Sym("y"))
    d = diff(form, "alias_probe")
    assert canon(Add((form, Const(0)))) is form
    assert form._derivatives == {"alias_probe": d}
    assert diff(form, "alias_probe") is d
    assert symcore._HASHCONS[("a", weakref.ref(form), weakref.ref(Const(0)))] is form
    del t, form, d
    gc.collect()
    assert _probe_keys("alias_probe") == []


@pytest.mark.parametrize(
    "fields",
    [
        {"samples": 0},
        {"samples": -1},
        {"tol": -1e-9},
        {"tol": math.nan},
        {"tol": math.inf},
    ],
)
def test_zero_policy_needs_a_sample_and_finite_tolerances(fields):
    with pytest.raises(ValueError):
        ZeroPolicy(**fields)


# -- batched evaluation against the scalar reference ------------------------


def _reference_eval(e, env):
    """The recursive scalar evaluator the batched walk replaced, kept as the
    oracle: one point, one node at a time, ``math`` for the functions."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            raise DomainError("unbound coordinate", e) from None
    if isinstance(e, Neg):
        return -_reference_eval(e.operand, env)
    if isinstance(e, Add):
        return sum(_reference_eval(t, env) for t in e.terms)
    if isinstance(e, Mul):
        out = 1.0
        for f in e.factors:
            out *= _reference_eval(f, env)
        return out
    if isinstance(e, Div):
        den = _reference_eval(e.den, env)
        if den == 0.0:
            raise DomainError("division by zero", e)
        return _reference_eval(e.num, env) / den
    if isinstance(e, Pow):
        base = _reference_eval(e.base, env)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero base with negative exponent", e)
        try:
            return base**e.exponent
        except OverflowError:
            raise DomainError("overflow", e) from None
    arg = _reference_eval(e.arg, env)
    if e.func == "exp":
        try:
            return math.exp(arg)
        except OverflowError:
            raise DomainError("overflow", e) from None
    if e.func == "log" and arg <= 0.0:
        raise DomainError("log of non-positive value", e)
    if e.func == "sqrt" and arg < 0.0:
        raise DomainError("sqrt of negative value", e)
    return getattr(math, e.func)(arg)


def _reference(e, env):
    """(value, None) or (None, error text) as the scalar path gives them.

    ``math.sin`` and friends raise ValueError on an infinite argument
    that an overflowing product produced; the batch flags that point as
    a non-finite result, so both count as invalid."""
    try:
        value = _reference_eval(e, env)
    except DomainError as exc:
        return None, str(exc)
    except ValueError:
        return None, "math domain error"
    if not math.isfinite(value):
        return None, str(DomainError("non-finite result", e))
    return value, None


# 12 seeded points on a box around the origin, plus four where coordinates
# vanish or coincide, so that x - y, x and y hit zero
ORACLE_POINTS = np.vstack(
    [
        Chart(("x", "y"), ((-2, 2), (-2, 2))).sample_points(12, seed=5),
        [(0.0, 0.0), (1.0, 1.0), (-1.0, 1.0), (0.5, 0.0)],
    ]
)


# exp(exp(6)) is about 1e175: its cube overflows, its square as a product
# is inf with no error until the end (and 1/inf is a valid 0)
_HUGE = Call("exp", Call("exp", Const(6)))


@given(st.lists(_expr_strategy(symcore.FUNCTIONS), min_size=1, max_size=3))
@example([Pow(_HUGE, 3)])
@example([Call("exp", _HUGE)])
@example([Mul((_HUGE, _HUGE)), Div(Const(1), Mul((_HUGE, _HUGE))), Call("sin", Mul((_HUGE, _HUGE)))])
# alone, the reciprocal is valid everywhere: a non-finite inner value is
# no fault
@example([Div(Const(1), Mul((_HUGE, _HUGE)))])
# the scalar path tests a divisor before it evaluates the numerator
@example([Div(Call("log", Neg(Sym("x"))), Add((Sym("x"), Neg(Sym("x")))))])
@settings(max_examples=300, deadline=None)
def test_batched_evaluation_matches_scalar_reference(exprs):
    batch = evaluate_batch(exprs, ("x", "y"), ORACLE_POINTS)
    for row, (x, y) in enumerate(ORACLE_POINTS.tolist()):
        expected = [_reference(e, {"x": x, "y": y}) for e in exprs]
        errors = [err for _, err in expected if err is not None]
        assert batch.invalid[row] == bool(errors)
        if errors and errors[0] != "math domain error":
            assert str(batch.domain_error(row)) == errors[0]
        for k, (value, err) in enumerate(expected):
            if err is None:
                # the arithmetic is the scalar one, so values are equal,
                # down to the sign of a zero
                assert float(batch.values[k][row]).hex() == value.hex()


def test_batch_shares_subterms_and_flags_each_point():
    x, y = Sym("x"), Sym("y")
    shared = Call("log", x - y)
    exprs = [shared * 2, Div(Const(1), shared)]
    points = np.array([[2.0, 1.0], [2.5, 0.5], [1.0, 2.0], [3.0, 1.0]])
    batch = evaluate_batch(exprs, ("x", "y"), points)
    assert batch.invalid.tolist() == [True, False, True, False]
    assert str(batch.domain_error(0)) == "division by zero in 1/log(x - y)"
    assert str(batch.domain_error(2)) == "log of non-positive value in log(x - y)"
    assert batch.values[0][3] == 2 * math.log(2.0)
    with pytest.raises(DomainError, match="division by zero"):
        evaluate(exprs[1], {"x": 2.0, "y": 1.0})


# -- values kept on canonical nodes -----------------------------------------


def _reference_is_zero(e, chart, policy=ZeroPolicy()):
    """The zero test before nodes kept their sample values, kept as the
    oracle: the sample points as an array, so nothing is kept or read."""
    reduced = canon(e)
    if isinstance(reduced, Const):
        if reduced.value == 0:
            return symcore.ZeroVerdict(True, "symbolic")
        mid = chart.midpoint()
        return symcore.ZeroVerdict(False, "symbolic", witness=mid, value=float(reduced.value))

    terms = reduced.terms if isinstance(reduced, Add) else (reduced,)
    points = chart.sample_points(policy.samples, policy.seed)
    batch = evaluate_batch(terms, chart.coords, points)
    by_point = np.array(batch.values).T.tolist()
    scale = 0.0
    values = []
    for point, term_values, invalid in zip(points, by_point, batch.invalid):
        if invalid:
            continue
        total = math.fsum(term_values)
        if not math.isfinite(total):
            continue
        scale = max(scale, max(abs(v) for v in term_values))
        values.append((tuple(point), total))

    if not values:
        return symcore.ZeroVerdict(False, "undecidable")

    threshold = policy.tol + policy.tol * scale
    worst_point, worst_value = max(values, key=lambda pv: abs(pv[1]))
    if abs(worst_value) <= threshold:
        return symcore.ZeroVerdict(True, "probabilistic")
    return symcore.ZeroVerdict(False, "probabilistic", witness=worst_point, value=worst_value)


# Subterms that leave the domain on part of the box XY or on all of it: a
# pole, negative sqrt and log arguments, exp overflow (whose reciprocal is
# 0, so only the fault shows it), and a product that overflows to inf with
# no fault of its own (whose reciprocal is a valid 0)
_FAULTY = [
    p(text)
    for text in (
        "1/(x - y)",
        "sqrt(x - 1)",
        "log(y - 1)",
        "exp(1000*x)",
        "1/exp(1000*x)",
        "exp(exp(6))*exp(exp(6) + 1)*x",
        "1/(exp(exp(6))*exp(exp(6) + 1)*x)",
        "1/(x - x)",
    )
]
# the same coordinates on a second box: another sample set
XY_WIDE = Chart(("x", "y"), ((-2, 2), (-2, 2)))


@given(
    st.lists(
        st.one_of(_expr_strategy(symcore.FUNCTIONS), st.sampled_from(_FAULTY)),
        min_size=2,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_kept_sample_values_give_the_reference_verdicts(parts, rnd):
    # expressions that share their parts, asked on two boxes and two
    # seeds in a shuffled order, so shared nodes are met first by any of
    # them and their kept values are replaced and read back
    exprs = list(parts)
    for a, b in zip(parts, parts[1:]):
        exprs += [Add((a, b)), Mul((a, b)), Div(a, b), Add((a, Neg(a)))]
    asks = [
        (e, chart, ZeroPolicy(samples=8, seed=seed))
        for e in exprs
        for chart in (XY, XY_WIDE)
        for seed in (0, 1)
    ]
    rnd.shuffle(asks)
    for e, chart, policy in asks:
        got = is_zero(e, chart, policy)
        # repr tells 0.0 from -0.0 and shows each float's last digit
        assert repr(got) == repr(_reference_is_zero(e, chart, policy))


def test_a_shared_node_is_evaluated_once_per_sample_set(monkeypatch):
    chart = Chart(("memo_u", "memo_v"), ((1, 2), (1, 2)))
    shared = canon(parse("sin(memo_u*memo_v)", chart))
    first = parse("sin(memo_u*memo_v)*memo_u - memo_v", chart)
    second = parse("exp(sin(memo_u*memo_v)) + memo_u", chart)
    calls = []
    real = symcore._node_value

    def counting(node, *args):
        calls.append(node)
        return real(node, *args)

    monkeypatch.setattr(symcore, "_node_value", counting)
    evaluated = lambda: sum(node is shared for node in calls)
    for e in (first, second, first):
        is_zero(e, chart)
    assert evaluated() == 1
    # another seed is another sample set, on which the node is walked once
    for e in (first, second):
        is_zero(e, chart, ZeroPolicy(seed=1))
    assert evaluated() == 2
    # raw points, as holonomy and the box scans pass them, keep nothing
    kept = shared._sampled
    for _ in range(2):
        evaluate_batch([shared], chart.coords, chart.sample_points(32, 0))
    assert evaluated() == 4
    assert shared._sampled is kept


def test_kept_sample_values_die_with_their_node():
    chart = Chart(("kept_probe",), ((1, 2),))
    form = canon(parse("log(kept_probe + 2)*kept_probe", chart))
    assert not is_zero(form, chart).zero
    sample_set, values, mask = form._sampled
    assert sample_set is chart.sample_set(32, 0) and mask is None
    values = weakref.ref(values)
    assert values() is not None
    del form
    gc.collect()
    assert values() is None


def test_domain_faults_are_kept_with_the_values():
    # log(x - 1) faults on part of XY; the sum that holds it is invalid
    # there whether it or the log is met first
    chart = XY
    inner = canon(p("log(x - 1)"))
    outer = canon(p("log(x - 1) + y"))
    assert repr(is_zero(inner, chart)) == repr(_reference_is_zero(inner, chart))
    assert repr(is_zero(outer, chart)) == repr(_reference_is_zero(outer, chart))
    invalid = chart.sample_points(32, 0)[:, 0] <= 1
    assert invalid.any() and not invalid.all()
    assert inner._sampled[2].tolist() == invalid.tolist()
    batch = evaluate_batch([outer], chart.coords, chart.sample_set(32, 0))
    assert batch.invalid.tolist() == invalid.tolist()
    with pytest.raises(ValueError, match="records no faults"):
        batch.domain_error(int(np.argmax(invalid)))
