"""Exact symbolic expression kernel on coordinate charts.

Expression trees over rational constants and named coordinates, with a fixed
infix grammar, partial differentiation, a deterministic canonical form
(constant folding, flattening, ordered like-term collection -- no trig or
rational-function rewriting), numeric evaluation with domain guards, and a
two-tier zero test: exact cancellation first, then seeded sampling on the
chart's box with witness reporting.

Canonical forms are hash-consed by structure, so each is one object, and
:func:`cmul`, :func:`cneg` and :func:`csum` build them directly from
canonical operands, with no raw tree in between.  A constant holds an
``int`` when its value is integral, so integer coefficients take
machine-int arithmetic.  :func:`diff` differentiates canonical forms
only, with one table of derivative rules: a raw tree is canonicalised
first, and each canonical node keeps its derivatives.

All numeric evaluation goes through one batched walk,
:func:`evaluate_batch`: many expressions at many points, each DAG node
computed once for all points, with a mask of the points where a value
leaves the domain.  :func:`evaluate` is its one-point call.  A canonical
node that :func:`is_zero` evaluates keeps its values on the zero test's
sample set, so a request evaluates each node once per sample set.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Optional, Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "Neg",
    "Add",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "Chart",
    "ZeroPolicy",
    "ZeroVerdict",
    "BoxWitness",
    "ParseError",
    "DomainError",
    "DegenerateError",
    "parse",
    "canon",
    "flat_sum",
    "cmul",
    "cneg",
    "csum",
    "diff",
    "evaluate",
    "evaluate_batch",
    "Evaluation",
    "is_zero",
    "sym_det",
    "adjugate_inverse",
    "divisor_factors",
    "ZERO",
    "ONE",
    "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")

Number = Union[int, Fraction]


class ParseError(ValueError):
    """Raised on malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ArithmeticError):
    """Raised when numeric evaluation leaves the expression's domain.

    ``culprit`` is the grammar rendering of the offending subexpression.
    """

    def __init__(self, reason: str, culprit: "Expr"):
        self.culprit = culprit
        super().__init__(f"{reason} in {culprit}")


class DegenerateError(ValueError):
    """A construction rejected with a witness: an expression that must
    stay away from zero on the box (a determinant, a denominator)
    vanishes or changes sign there, or one that must vanish does not.

    ``point`` and ``value`` are the witness, from
    :meth:`Chart.vanishing_witness` or a failing :class:`ZeroVerdict`;
    ``path`` is the tier that decided, as in :class:`ZeroVerdict`.  An
    ``"undecidable"`` path has no witness.
    """

    def __init__(
        self,
        message: str,
        point: Optional[tuple],
        value: Optional[float],
        path: str = "probabilistic",
    ):
        super().__init__(message)
        self.point = point
        self.value = value
        self.path = path

    @classmethod
    def from_verdict(cls, message: str, verdict: "ZeroVerdict") -> "DegenerateError":
        """The rejection of an expression that must vanish but whose zero
        test ``verdict`` fails or is undecidable: it carries the verdict's
        witness, value and path into the report, and an undecidable
        test's message says that no sample decided it."""
        point = None
        if verdict.witness is not None:
            point = tuple(float(x) for x in verdict.witness)
            message = f"{message} at {point} = {verdict.value}"
        elif verdict.path == "undecidable":
            message = f"{message}: undecidable, every sample point left the domain"
        return cls(message, point, verdict.value, verdict.path)


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(value)
    raise TypeError(f"cannot use {value!r} as an expression")


# The ``_canonical`` slot of a node that is its own canonical form.  Pointing
# the node at itself would make a reference cycle, which only the cyclic
# garbage collector frees.
_IS_CANONICAL = object()


def _is_literal_zero(e: "Expr") -> bool:
    if isinstance(e, Neg):
        e = e.operand
    return e is ZERO


def flat_sum(terms: Iterable["Expr"]) -> "Expr":
    """One flat ``Add`` of ``terms``: the terms of an uncanonicalized
    ``Add`` are spliced in and literal zeros are left out; ``ZERO`` if
    nothing is left.  The result canonicalizes exactly as ``Add(terms)``
    does.

    This is the raw sum builder: ``+``, ``-`` and the parser go through
    it.  Its canonical counterpart, for canonical terms, is
    :func:`csum`."""
    out = []
    for e in terms:
        if isinstance(e, Add) and e._canonical is None:
            out.extend(e.terms)
        elif not _is_literal_zero(e):
            out.append(e)
    return Add(out) if out else ZERO


def _plus(a: "Expr", b: "Expr") -> "Expr":
    """``a + b`` as one flat sum (see :func:`flat_sum`)."""
    return flat_sum((a, b))


def _times(a: "Expr", b: "Expr") -> "Expr":
    """``a * b``; ``ZERO`` if either factor is a literal zero.  Products
    keep their nesting."""
    if _is_literal_zero(a) or _is_literal_zero(b):
        return ZERO
    return Mul((a, b))


class Expr:
    """Immutable expression node; subclasses define the node kinds.

    Arithmetic operators build raw (uncanonicalized) trees; call
    :func:`canon` or :func:`is_zero` to normalize/decide.  ``+`` and
    ``-`` build flat sums and ``*`` drops products with a literal-zero
    factor, so an accumulation ``total = total + term`` stays one n-ary
    ``Add`` of its nonzero terms.  They serve the parser (through
    :func:`_plus` and the node constructors) and the tests: every entry
    the package builds comes from :func:`cmul`, :func:`cneg` and
    :func:`csum`, which give the canonical forms of ``*``, ``-`` and a
    sum of canonical operands without building the raw tree.
    """

    __slots__ = ("_hash", "_canonical", "_key", "_derivatives", "_sampled", "__weakref__")

    def __init__(self):
        self._canonical = None
        self._key = None
        self._derivatives = None
        self._sampled = None  # (sample set, values, fault mask); see evaluate_batch

    # -- operator sugar (int and Fraction coerce to Const) --------------

    def __add__(self, other):
        return _plus(self, _coerce(other))

    def __radd__(self, other):
        return _plus(_coerce(other), self)

    def __sub__(self, other):
        return _plus(self, Neg(_coerce(other)))

    def __rsub__(self, other):
        return _plus(_coerce(other), Neg(self))

    def __mul__(self, other):
        return _times(self, _coerce(other))

    def __rmul__(self, other):
        return _times(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, exponent: int):
        return Pow(self, exponent)

    def __neg__(self):
        return Neg(self)

    def __hash__(self):
        return self._hash

    def __str__(self):
        return to_text(self)

    def __repr__(self):
        return f"<expr {to_text(self)}>"

    def children(self) -> tuple["Expr", ...]:
        return ()



class _Interned(type):
    """The metaclass of the leaf kinds: a leaf is interned by its value
    (Filliatre & Conchon 2006), so ``Const(0) is ZERO`` and ``Sym("x") is
    Sym("x")``.  A leaf is its own canonical form from birth.  Each kind's
    ``_table`` holds its leaves weakly, keyed by ``_interned_by``."""

    def __call__(cls, value):
        # the weak table's dict, not its Python-level get()
        ref = cls._table.data.get(value)
        leaf = None if ref is None else ref()
        if leaf is None:
            # keyed by the normalised value, so Const("1/2") finds
            # Const(Fraction(1, 2))
            leaf = super().__call__(value)
            leaf = cls._table.setdefault(getattr(leaf, cls._interned_by), leaf)
        return leaf


class Const(Expr, metaclass=_Interned):
    """A rational constant.  ``value`` is an ``int`` when the value is
    integral and a ``Fraction`` otherwise, so integer coefficients take
    machine-int arithmetic; ``Const(2) is Const(Fraction(2))``, and both
    hash alike since ``hash(2) == hash(Fraction(2))``."""

    __slots__ = ("value",)
    _table = weakref.WeakValueDictionary()
    _interned_by = "value"

    def __init__(self, value):
        super().__init__()
        if type(value) is not int:
            if type(value) is not Fraction:
                value = Fraction(value)
            if value.denominator == 1:
                value = value.numerator
        self.value = value
        self._hash = hash(("c", self.value))
        self._canonical = _IS_CANONICAL

    __hash__ = Expr.__hash__

    def __eq__(self, other):
        return isinstance(other, Const) and self.value == other.value


class Sym(Expr, metaclass=_Interned):
    __slots__ = ("name",)
    _table = weakref.WeakValueDictionary()
    _interned_by = "name"

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self._hash = hash(("s", name))
        self._canonical = _IS_CANONICAL

    __hash__ = Expr.__hash__

    def __eq__(self, other):
        return isinstance(other, Sym) and self.name == other.name


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        super().__init__()
        self.operand = operand
        self._hash = hash(("n", operand._hash))

    def children(self):
        return (self.operand,)

    __hash__ = Expr.__hash__

    def __eq__(self, other):
        return isinstance(other, Neg) and self.operand == other.operand


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Expr]):
        super().__init__()
        self.terms = tuple(terms)
        self._hash = hash(("a",) + tuple(t._hash for t in self.terms))

    def children(self):
        return self.terms

    __hash__ = Expr.__hash__

    def __eq__(self, other):
        return (
            isinstance(other, Add)
            and self._hash == other._hash
            and self.terms == other.terms
        )


class Mul(Expr):
    # _split: a canonical product's (coefficient, monomial) split, kept
    # once known (see _split_coeff)
    __slots__ = ("factors", "_split")

    def __init__(self, factors: Iterable[Expr]):
        super().__init__()
        self.factors = tuple(factors)
        self._split = None
        self._hash = hash(("m",) + tuple(f._hash for f in self.factors))

    def children(self):
        return self.factors

    __hash__ = Expr.__hash__

    def __eq__(self, other):
        return (
            isinstance(other, Mul)
            and self._hash == other._hash
            and self.factors == other.factors
        )


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        super().__init__()
        self.num = num
        self.den = den
        self._hash = hash(("d", num._hash, den._hash))

    def children(self):
        return (self.num, self.den)

    __hash__ = Expr.__hash__

    def __eq__(self, other):
        return (
            isinstance(other, Div)
            and self._hash == other._hash
            and self.num == other.num
            and self.den == other.den
        )


class Pow(Expr):
    """Integer power only; fractional powers go through sqrt."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        super().__init__()
        if not isinstance(exponent, int):
            raise TypeError("exponent must be a Python int")
        self.base = base
        self.exponent = exponent
        self._hash = hash(("p", base._hash, exponent))

    def children(self):
        return (self.base,)

    __hash__ = Expr.__hash__

    def __eq__(self, other):
        return (
            isinstance(other, Pow)
            and self._hash == other._hash
            and self.exponent == other.exponent
            and self.base == other.base
        )


class Call(Expr):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        super().__init__()
        if func not in FUNCTIONS:
            raise ValueError(f"unknown function {func!r}")
        self.func = func
        self.arg = arg
        self._hash = hash(("f", func, arg._hash))

    def children(self):
        return (self.arg,)

    __hash__ = Expr.__hash__

    def __eq__(self, other):
        return (
            isinstance(other, Call)
            and self._hash == other._hash
            and self.func == other.func
            and self.arg == other.arg
        )


ZERO = Const(0)
ONE = Const(1)
_MINUS_ONE = Const(-1)


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace-insensitive):
#
#   expr   := term (('+'|'-') term)*
#   term   := unary (('*'|'/') unary)*
#   unary  := '-' unary | pow
#   pow    := atom ('^' signed-integer)?
#   atom   := number | ident | func '(' expr ')' | '(' expr ')'
#   number := digits ('.' digits)?
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, names: frozenset):
        self.text = text
        self.pos = 0
        self.names = names

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise self.error(f"expected {ch!r}")

    def parse(self) -> Expr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing input")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                node = _plus(node, self.term())
            elif ch == "-":
                self.pos += 1
                node = _plus(node, Neg(self.term()))
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = Mul((node, self.unary()))
            elif ch == "/":
                self.pos += 1
                node = Div(node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        if self.take("-"):
            return Neg(self.unary())
        return self.pow()

    def pow(self) -> Expr:
        base = self.atom()
        if self.take("^"):
            sign = -1 if self.take("-") else 1
            self.skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise self.error("expected integer exponent")
            return Pow(base, sign * int(self.text[start : self.pos]))
        return base

    def atom(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit():
            return self.number()
        if ch.isalpha() or ch == "_":
            return self.ident()
        raise self.error("expected a number, name, or parenthesis")

    def number(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            frac_start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == frac_start:
                raise self.error("expected digits after decimal point")
        return Const(Fraction(self.text[start : self.pos]))

    def ident(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        name = self.text[start : self.pos]
        if self.peek() == "(":
            if name not in FUNCTIONS:
                self.pos = start
                raise self.error(f"unknown function {name!r}")
            self.pos += 1
            arg = self.expr()
            self.expect(")")
            return Call(name, arg)
        if name not in self.names:
            self.pos = start
            raise self.error(f"unknown identifier {name!r}")
        return Sym(name)


def parse(text: str, chart: "Chart") -> Expr:
    """Parse ``text`` against the chart's coordinate names."""
    return _Parser(text, frozenset(chart.coords)).parse()


# ---------------------------------------------------------------------------
# Printing with minimal parenthesization; output re-parses to the same
# canonical form.
# ---------------------------------------------------------------------------


def _frac_text(value: Number) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def to_text(e: Expr) -> str:
    """The grammar rendering of ``e``.

    Walks the tree in post order with an explicit stack, not recursion, so
    a deep term prints; a subterm that occurs more than once in ``e`` is
    rendered once.
    """
    texts = {}  # id(node) -> its text; e keeps every node alive
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in texts:
            stack.pop()
            continue
        waiting = [c for c in node.children() if id(c) not in texts]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        texts[id(node)] = _node_text(node, texts)
    return texts[id(e)]


def _node_text(e: Expr, texts: dict) -> str:
    """The text of one node, given ``texts``, the texts of the nodes below
    it.  A node built here for printing, such as the flipped product of a
    negative addend, is rendered on the spot: its children are leaves or
    already in ``texts``."""
    if isinstance(e, Const):
        return _frac_text(e.value)
    if isinstance(e, Sym):
        return e.name

    def wrap(c: Expr, need_parens: bool) -> str:
        text = texts[id(c)] if id(c) in texts else _node_text(c, texts)
        return f"({text})" if need_parens else text

    if isinstance(e, Call):
        return f"{e.func}({wrap(e.arg, False)})"
    if isinstance(e, Neg):
        return "-" + wrap(
            e.operand,
            need_parens=isinstance(e.operand, (Add, Mul, Div))
            or _is_negative_const(e.operand),
        )
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            sign, body, need_parens = _signed_addend(t)
            text = wrap(body, need_parens)
            if i == 0:
                parts.append(("-" if sign < 0 else "") + text)
            else:
                parts.append((" - " if sign < 0 else " + ") + text)
        return "".join(parts)
    if isinstance(e, Mul):
        return "*".join(
            wrap(f, need_parens=isinstance(f, (Add, Div, Neg)) or _is_negative_const(f))
            for f in e.factors
        )
    if isinstance(e, Div):
        num = wrap(e.num, need_parens=isinstance(e.num, (Add, Neg)))
        # A rational constant like 1/2 prints with its own slash, so as a
        # denominator it needs parens to survive re-parsing left-associatively.
        den = wrap(
            e.den,
            need_parens=isinstance(e.den, (Add, Mul, Div, Neg))
            or (isinstance(e.den, Const) and e.den.value.denominator != 1),
        )
        return f"{num}/{den}"
    if isinstance(e, Pow):
        base = wrap(
            e.base,
            need_parens=not isinstance(e.base, (Sym, Call))
            and not (isinstance(e.base, Const) and e.base.value >= 0 and e.base.value.denominator == 1),
        )
        return f"{base}^{e.exponent}"
    raise TypeError(f"unprintable node {type(e).__name__}")


def _is_negative_const(e: Expr) -> bool:
    return isinstance(e, Const) and e.value < 0


def _signed_addend(t: Expr):
    """Signed rendering of an addend as (sign, body, parenthesise body?):
    (-1, 2*x, False) instead of (+1, -2*x, False)."""
    if isinstance(t, Const) and t.value < 0:
        return -1, Const(-t.value), False
    if isinstance(t, Neg):
        # A bare quotient would lose its sign to the numerator when it leads
        # the sum: "-x/y" re-parses as (-x)/y, a different canonical form.
        return -1, t.operand, isinstance(t.operand, (Add, Div))
    if isinstance(t, Mul) and isinstance(t.factors[0], Const) and t.factors[0].value < 0:
        flipped = (Const(-t.factors[0].value),) + t.factors[1:]
        if flipped[0].value == 1 and len(flipped) > 1:
            flipped = flipped[1:]
        body = flipped[0] if len(flipped) == 1 else Mul(flipped)
        return -1, body, isinstance(body, (Add, Div))
    return 1, t, False


# ---------------------------------------------------------------------------
# Canonicalization.
# ---------------------------------------------------------------------------


def _sort_key(e: Expr):
    """The order of canonical nodes, kept on the node.  No canonical node
    is a :class:`Neg` (:func:`cneg` builds ``(-1)*a``), so that kind has
    no key."""
    if e._key is not None:
        return e._key
    if isinstance(e, Const):
        key = (0, e.value.numerator, e.value.denominator)
    elif isinstance(e, Sym):
        key = (1, e.name)
    elif isinstance(e, Call):
        key = (2, e.func, _sort_key(e.arg))
    elif isinstance(e, Pow):
        key = (3, _sort_key(e.base), e.exponent)
    elif isinstance(e, Div):
        key = (4, _sort_key(e.num), _sort_key(e.den))
    elif isinstance(e, Mul):
        key = (5, len(e.factors)) + tuple(_sort_key(f) for f in e.factors)
    elif isinstance(e, Add):
        key = (6, len(e.terms)) + tuple(_sort_key(t) for t in e.terms)
    else:
        raise TypeError(f"no sort key for {type(e).__name__}")
    e._key = key
    return key


def _split_coeff(term: Expr):
    """Decompose a canonical addend into (rational coefficient, monomial).
    A product with a coefficient keeps its split: the monomial is the
    canonical product of its other factors, built once."""
    kind = type(term)
    if kind is Const:
        return term.value, None
    if kind is Mul and type(term.factors[0]) is Const:
        split = term._split
        if split is None:
            rest = term.factors[1:]
            body = rest[0] if len(rest) == 1 else _node(Mul, _cons_key("m", rest), rest)
            split = term._split = (term.factors[0].value, body)
        return split
    return 1, term


def _make_term(coeff: Number, monomial: Optional[Expr]) -> Expr:
    if monomial is None:
        return Const(coeff)
    if coeff == 1:
        return monomial
    lead = Const(coeff)
    factors = (lead,) + (monomial.factors if type(monomial) is Mul else (monomial,))
    term = _node(Mul, _cons_key("m", factors), factors)
    if term._split is None:
        term._split = (lead.value, monomial)
    return term


# Hash-consing table (Filliatre & Conchon 2006), holding two kinds of
# entry under one key scheme: the node kind plus its canonical operands.
# A structure entry names a canonical node by its own kind and children,
# so each canonical form is one object; every node the canonical builders
# create is interned there (see _node), bottom-up.  An alias entry names
# the form that a constructor built from other operands (the x + 0 whose
# form is x).  The two agree: the constructor of a canonical node's kind,
# applied to its children, returns the node.  Keys hold weak references
# to canonical nodes, never raw trees, and values are held weakly too, so
# the table keeps no node alive and an entry dies with its canonical form.
# Weak keys matter because a canonical node keeps its derivatives (see
# :func:`diff`), and a derivative can hold a form whose key names the node
# (d/dx sin(x) is cos(x), whose derivative holds sin(x)); a strong key would
# then reach its own value, and the entry would never die.
_HASHCONS: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()
_HASHCONS_REFS = _HASHCONS.data  # key -> weak reference to the form
_ref = weakref.ref


def _cons_key(kind: str, operands: Iterable[Expr]) -> tuple:
    """The hash-cons key of ``kind`` applied to canonical ``operands``."""
    return (kind, *map(_ref, operands))


def _node(cls, key: tuple, *fields) -> Expr:
    """The canonical node ``cls(*fields)`` of canonical children, under
    its structure ``key``: the live node if there is one, else a new node,
    marked canonical and interned."""
    ref = _HASHCONS_REFS.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = cls(*fields)
    node._canonical = _IS_CANONICAL
    _HASHCONS[key] = node
    return node


def _interned(key: tuple, build, *args) -> Expr:
    """The canonical form under the hash-cons ``key``; on a miss
    ``build(*args)`` makes it from canonical children.  This is the one
    canonicalisation step: :func:`canon`'s walk and the canonical
    constructors (:func:`cmul`, :func:`cneg`, :func:`csum`) all go through
    it, so equal keys give one shared form whichever built it, and the
    builders intern what they build by its structure (:func:`_node`), so
    equal forms are one object whatever their keys."""
    ref = _HASHCONS_REFS.get(key)
    if ref is not None:
        form = ref()
        if form is not None:
            return form
    form = build(*args)
    # a leaf is shared already, and an entry for a leaf that outlives
    # its users, such as ZERO, would never die
    if type(form) is not Const and type(form) is not Sym:
        ref = _HASHCONS_REFS.get(key)
        if ref is None or ref() is not form:
            _HASHCONS[key] = form
    return form


def canon(e: Expr) -> Expr:
    """Canonical form: folded constants, flat ordered sums/products with
    like terms collected exactly.  Idempotent; performs no trigonometric or
    quotient rewriting.

    Walks the tree in post order with an explicit stack, not recursion,
    and hash-conses by structure: equal canonical forms are one object,
    whatever they were built from.
    """
    form = _form(e)
    if form is not None:
        return form
    stack = [e]
    while stack:
        node = stack[-1]
        if node._canonical is not None:
            stack.pop()
            continue
        waiting = [c for c in node.children() if c._canonical is None]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        node._canonical = _canon_node(node)
    return _form(e)


# Canonical constructors: canonical operands in, canonical form out, with
# no raw tree in between.  The hash-cons key of each is the node kind plus
# weak references to the canonical operands; ``canon``'s walk calls the
# constructor of each node's kind, so a constructor returns what ``canon``
# of the raw node returns.  A ``ZERO`` operand short-circuits as ``*`` and
# :func:`flat_sum` do.


def _sum(terms: tuple) -> Expr:
    """``canon(Add(terms))`` for canonical ``terms``."""
    return _interned(_cons_key("a", terms), _canon_add, terms)


def _product(factors: tuple) -> Expr:
    """``canon(Mul(factors))`` for canonical ``factors``."""
    return _interned(_cons_key("m", factors), _canon_mul, factors)


def cmul(a: Expr, b: Expr) -> Expr:
    """``canon(a * b)`` for canonical ``a`` and ``b``."""
    if a is ZERO or b is ZERO:
        return ZERO
    return _product((a, b))


def cneg(a: Expr) -> Expr:
    """``canon(-a)`` for canonical ``a``: -a is (-1)*a, so the negation
    of a sum is the sum of its terms' negations."""
    if a is ZERO:
        return ZERO
    return _interned(("n", _ref(a)), _canon_mul, (_MINUS_ONE, a))


def csum(terms: Iterable[Expr]) -> Expr:
    """``canon(flat_sum(terms))`` for canonical ``terms``: ``ZERO`` terms
    are left out, and the sum of one term is that term."""
    kept = tuple(t for t in terms if t is not ZERO)
    return _sum(kept) if kept else ZERO


def _quotient(num: Expr, den: Expr) -> Expr:
    """``canon(Div(num, den))`` for canonical ``num`` and ``den``."""
    return _interned(_cons_key("d", (num, den)), _canon_div, num, den)


def _power(base: Expr, exponent: int) -> Expr:
    """``canon(Pow(base, exponent))`` for a canonical ``base``."""
    return _interned(("p", _ref(base), exponent), _canon_pow, base, exponent)


def _call(func: str, arg: Expr) -> Expr:
    """``canon(Call(func, arg))`` for a canonical ``arg``."""
    return _interned(("f", func, _ref(arg)), _canon_call, func, arg)


def _form(node: Expr) -> Optional[Expr]:
    """The node's canonical form, or None if not yet computed."""
    form = node._canonical
    return node if form is _IS_CANONICAL else form


def _canon_node(node: Expr) -> Expr:
    """The canonical form of an inner node whose children have theirs:
    the canonical constructor of its kind, applied to their forms."""
    kind = type(node)
    if kind is Add:
        return _sum(tuple(map(_form, node.terms)))
    if kind is Mul:
        return _product(tuple(map(_form, node.factors)))
    if kind is Div:
        return _quotient(_form(node.num), _form(node.den))
    if kind is Pow:
        return _power(_form(node.base), node.exponent)
    if kind is Call:
        return _call(node.func, _form(node.arg))
    if kind is Neg:
        return cneg(_form(node.operand))
    raise TypeError(f"cannot canonicalize {kind.__name__}")


def _canon_add(parts: tuple) -> Expr:
    constant = 0
    collected: dict = {}  # monomial -> its coefficient, in order of arrival
    # monomial -> the one canonical part it came from, while it has one:
    # the collected term is that part, so it is reused, not rebuilt
    single: dict = {}
    stack = list(reversed(parts))

    def _collect(coeff, monomial):
        nonlocal constant
        if monomial is None:
            constant += coeff
        elif monomial in collected:
            collected[monomial] += coeff
            single.pop(monomial, None)
        else:
            collected[monomial] = coeff

    while stack:
        part = stack.pop()
        if type(part) is Add:
            stack.extend(reversed(part.terms))
            continue
        coeff, monomial = _split_coeff(part)
        if monomial is not None and monomial not in collected:
            single[monomial] = part
        _collect(coeff, monomial)
    terms = [
        single.get(m) or _make_term(collected[m], m)
        for m in sorted(collected, key=_sort_key)
        if collected[m] != 0
    ]
    if constant != 0:
        terms.insert(0, Const(constant))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return _node(Add, _cons_key("a", terms), terms)


def _leads_negative(s: Expr) -> bool:
    """Whether the canonical sum ``s`` has a negative leading coefficient."""
    return _split_coeff(s.terms[0])[0] < 0


def _scaled_sum(coeff: Number, s: Expr) -> Expr:
    """The canonical sum ``s`` with each term's coefficient times a nonzero
    ``coeff``: the monomials, and so the term order, stay."""
    terms = [_make_term(coeff * c, m) for c, m in map(_split_coeff, s.terms)]
    return _node(Add, _cons_key("a", terms), terms)


# A rational multiple of a sum has one form, whichever way it was built:
# a lone sum times a number is the sum of the scaled terms, and a sum that
# is a factor of a product, or the base of a power, leads with a positive
# coefficient, the sign moving into the product's coefficient.  So -(-s) is
# s, and x*(-s) + x*s cancels.


def _canon_mul(parts: tuple) -> Expr:
    coeff = 1
    powers: dict = {}  # base -> its exponent, in order of arrival
    stack = list(reversed(parts))
    while stack:
        part = stack.pop()
        kind = type(part)
        if kind is Mul:
            stack.extend(reversed(part.factors))
            continue
        if kind is Const:
            coeff *= part.value
            continue
        if kind is Pow:
            base, exponent = part.base, part.exponent
        elif kind is Add and _leads_negative(part):
            base, exponent = _scaled_sum(-1, part), 1
            coeff = -coeff
        else:
            base, exponent = part, 1
        powers[base] = powers.get(base, 0) + exponent
    if coeff == 0:
        return ZERO
    clean = []
    for base in sorted(powers, key=_sort_key):
        exponent = powers[base]
        if exponent == 0:
            continue
        f = base if exponent == 1 else _canon_pow(base, exponent)
        # re-fold: _canon_pow may return a constant
        if type(f) is Const:
            coeff *= f.value
        else:
            clean.append(f)
    if coeff == 0:
        return ZERO
    if not clean:
        return Const(coeff)
    if coeff != 1:
        if len(clean) == 1 and type(clean[0]) is Add:
            return _scaled_sum(coeff, clean[0])
        clean.insert(0, Const(coeff))
    if len(clean) == 1:
        return clean[0]
    return _node(Mul, _cons_key("m", clean), clean)


def _canon_div(num: Expr, den: Expr) -> Expr:
    if isinstance(den, Const) and den is not ZERO:
        # Fraction(1, n), not 1 / n, which is a float for an int n
        return _canon_mul((Const(Fraction(1, den.value)), num))
    if num is ZERO and den is not ZERO:
        return ZERO
    return _node(Div, _cons_key("d", (num, den)), num, den)


def _canon_pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base is not ZERO:
            # an int to a negative power is a float: raise a Fraction
            value = base.value if exponent > 0 else Fraction(base.value)
            return Const(value**exponent)
        if exponent > 0:
            return ZERO
        # 0^negative: left for eval to flag
    elif isinstance(base, Pow):
        return _canon_pow(base.base, base.exponent * exponent)
    elif isinstance(base, Add) and _leads_negative(base):
        power = _canon_pow(_scaled_sum(-1, base), exponent)
        return _canon_mul((_MINUS_ONE, power)) if exponent % 2 else power
    elif isinstance(base, Mul):
        return _canon_mul(tuple(_canon_pow(f, exponent) for f in base.factors))
    return _node(Pow, ("p", _ref(base), exponent), base, exponent)


_EXACT_CALLS = {
    ("sin", 0): 0,
    ("cos", 0): 1,
    ("tan", 0): 0,
    ("exp", 0): 1,
    ("log", 1): 0,
}


def _canon_call(func: str, arg: Expr) -> Expr:
    if isinstance(arg, Const):
        folded = _EXACT_CALLS.get((func, arg.value))
        if folded is not None:
            return Const(folded)
        if func == "sqrt" and arg.value >= 0:
            root = Fraction(
                math.isqrt(arg.value.numerator), math.isqrt(arg.value.denominator)
            )
            if root * root == arg.value:
                return Const(root)
    return _node(Call, ("f", func, _ref(arg)), func, arg)


# ---------------------------------------------------------------------------
# Differentiation.
# ---------------------------------------------------------------------------


def diff(e: Expr, name: str) -> Expr:
    """Partial derivative with respect to the coordinate ``name``: the
    canonical derivative of ``canon(e)``.

    Each node's derivative is its rule applied to its canonical children
    and their derivatives by the canonical constructors
    (:func:`_canonical_rule`), which gives the canonical form of the raw
    derivative, because ``canon`` reads a node's children only through
    their forms.  The node keeps it: each node is differentiated once per
    coordinate, however often it is asked for, and a second call returns
    the same object.  Equal canonical nodes are one object, so a function
    is differentiated once per coordinate however it was built.  The walk
    is in post order with an explicit stack, not recursion.
    """
    if e._canonical is not _IS_CANONICAL:
        e = canon(e)
    stack = [e]
    while stack:
        node = stack[-1]
        if _kept_derivative(node, name) is not None:
            stack.pop()
            continue
        children = node.children()
        waiting = [c for c in children if _kept_derivative(c, name) is None]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        d = _canonical_rule(node, [_kept_derivative(c, name) for c in children])
        if node._derivatives is None:
            node._derivatives = {}
        node._derivatives[name] = d
    return _kept_derivative(e, name)


def _kept_derivative(node: Expr, name: str) -> Optional[Expr]:
    """The canonical derivative of a canonical node, if known; a leaf's is
    known without being kept."""
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Sym):
        return ONE if node.name == name else ZERO
    kept = node._derivatives
    return None if kept is None else kept.get(name)


def _canonical_rule(e: Expr, d: list) -> Expr:
    """The canonical derivative of a canonical inner node, given ``d``, its
    children's canonical derivatives, built by the canonical
    constructors: the one table of derivative rules.  A term with a
    ``ZERO`` derivative factor is left out, which changes no form:
    ``canon`` drops it too."""
    if isinstance(e, Add):
        return csum(d)
    if isinstance(e, Mul):
        factors = e.factors
        return csum(
            _product(factors[:i] + (di,) + factors[i + 1 :])
            for i, di in enumerate(d)
            if di is not ZERO
        )
    if isinstance(e, Div):
        top = csum((cmul(d[0], e.den), cneg(cmul(e.num, d[1]))))
        return _quotient(top, _power(e.den, 2))
    if d[0] is ZERO:
        return ZERO
    if isinstance(e, Pow):
        return _product((Const(e.exponent), _power(e.base, e.exponent - 1), d[0]))
    if isinstance(e, Call):
        if e.func == "sin":
            outer = _call("cos", e.arg)
        elif e.func == "cos":
            outer = cneg(_call("sin", e.arg))
        elif e.func == "tan":
            outer = _sum((ONE, _power(e, 2)))
        elif e.func == "exp":
            outer = e
        elif e.func == "log":
            outer = _quotient(ONE, e.arg)
        elif e.func == "sqrt":
            outer = _quotient(ONE, cmul(Const(2), e))
        else:  # pragma: no cover - FUNCTIONS is closed
            raise ValueError(e.func)
        return cmul(outer, d[0])
    raise TypeError(f"cannot differentiate {type(e).__name__}")


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


class Evaluation:
    """Values of expressions over a batch of points (see :func:`evaluate_batch`).

    ``values[k]`` is the float array of expression ``k`` over the points.
    ``invalid[r]`` is True where evaluating some expression at point ``r``
    leaves its domain; values there are meaningless.
    """

    def __init__(self, values: list, invalid: np.ndarray, faults: Optional[list]):
        self.values = values
        self.invalid = invalid
        # (reason, culprit, mask), in evaluation order; None on a sample
        # set, where kept nodes were not walked
        self._faults = faults

    def domain_error(self, row: int) -> DomainError:
        """The error that evaluating the expressions one after another at
        point ``row`` meets first; ``row`` must be invalid, and the points
        must have been given as an array."""
        if self._faults is None:
            raise ValueError("an evaluation on a sample set records no faults")
        for reason, culprit, mask in self._faults:
            if mask[row]:
                return DomainError(reason, culprit)
        raise ValueError(f"point {row} is inside the domain")


class _SampleSet:
    """The seeded sample points of one chart box for the zero test, one
    object per chart and (count, seed): see :meth:`Chart.sample_set`.
    Canonical nodes evaluated on it keep their values for it."""

    __slots__ = ("points", "columns")

    def __init__(self, coords: tuple, points: np.ndarray):
        points.flags.writeable = False
        self.points = points
        self.columns = {}
        for k, name in enumerate(coords):
            column = np.ascontiguousarray(points[:, k])
            column.flags.writeable = False
            self.columns[name] = column


def evaluate(e: Expr, env: dict) -> float:
    """Evaluate at a point given as ``{coordinate name: float}``.

    Raises :class:`DomainError` on division by zero, ``log`` of a
    non-positive value, ``sqrt`` of a negative value, ``0`` raised to a
    negative power, or numeric overflow to a non-finite value.
    """
    batch = evaluate_batch([e], tuple(env), np.array([list(env.values())], dtype=float))
    if batch.invalid[0]:
        raise batch.domain_error(0)
    return float(batch.values[0][0])


def evaluate_batch(exprs, coords, points) -> Evaluation:
    """Evaluate every expression at every point in one walk.

    ``points`` has one row per point and one column per name in
    ``coords``.  The walk visits each node of the expressions' DAG once,
    with an explicit stack, so subterms shared between expressions (as
    hash-consed canonical forms share them) are computed once for all
    points.  The arithmetic is the scalar arithmetic, point by point:
    numpy for ``+ - * /`` and ``sqrt``, and the ``math`` functions and
    Python's float power for the rest, so a value never depends on the
    CPU's vector instructions.

    A point is invalid where :func:`evaluate` would raise
    :class:`DomainError` for some expression: division by zero, ``log``
    of a non-positive value, ``sqrt`` of a negative value, ``0`` to a
    negative power, overflow, a non-finite result, or an unbound name.

    ``points`` may also be a chart's sample set (:meth:`Chart.sample_set`,
    as :func:`is_zero` passes it).  Then each canonical inner node keeps
    its values and its fault mask (its own faults or its children's masks)
    for that set, as it keeps its derivatives, and a later walk on the
    same set reads them instead of walking the node again: a request
    evaluates each node once per sample set, and the kept values die with
    the node.  The non-finite check of each expression is not kept, so
    ``invalid`` is the same whichever walk first met a shared node; only
    :meth:`Evaluation.domain_error` needs an array of points.
    """
    exprs = list(exprs)  # the memo is keyed by id(): keep every node alive
    if isinstance(points, _SampleSet):
        sample_set, columns, points = points, points.columns, points.points
    else:
        sample_set = None
        points = np.asarray(points, dtype=float)
        columns = {name: np.ascontiguousarray(points[:, k]) for k, name in enumerate(coords)}
    m = points.shape[0]
    values = {}  # id(node) -> array over the points
    masks = {}  # id(node) -> the points where its subtree faults, or None
    own = {}  # id(node) -> the points where the node itself faults
    faults = []

    def fault(reason, node, mask):
        if mask.any():
            faults.append((reason, node, mask))
            found = own.get(id(node))
            own[id(node)] = mask if found is None else found | mask

    out = []
    invalid = np.zeros(m, dtype=bool)
    with np.errstate(all="ignore"):
        for root in exprs:
            # stage 0 opens a node, 1 checks a divisor before its numerator
            # is evaluated (the scalar order), 2 computes the node
            stack = [(root, 0)]
            while stack:
                node, stage = stack.pop()
                if stage == 0:
                    if id(node) in values:
                        continue
                    kept = node._sampled
                    if kept is not None and kept[0] is sample_set:
                        values[id(node)], masks[id(node)] = kept[1], kept[2]
                        continue
                    if isinstance(node, Const):
                        value = np.full(m, float(node.value))
                    elif isinstance(node, Sym):
                        value = columns.get(node.name)
                        if value is None:
                            value = np.full(m, math.nan)
                            fault("unbound coordinate", node, np.ones(m, dtype=bool))
                    else:
                        if isinstance(node, Div):
                            stack += [(node, 2), (node.num, 0), (node, 1), (node.den, 0)]
                        else:
                            stack.append((node, 2))
                            stack.extend((c, 0) for c in reversed(node.children()))
                        continue
                elif stage == 1:
                    fault("division by zero", node, values[id(node.den)] == 0.0)
                    continue
                else:
                    value = _node_value(node, values, fault, m)
                mask = own.pop(id(node), None)
                for c in node.children():
                    below = masks[id(c)]
                    if below is not None:
                        mask = below if mask is None else mask | below
                values[id(node)], masks[id(node)] = value, mask
                if stage == 2 and sample_set is not None and node._canonical is _IS_CANONICAL:
                    value.flags.writeable = False
                    node._sampled = (sample_set, value, mask)
            value = values[id(root)]
            if masks[id(root)] is not None:
                invalid |= masks[id(root)]
            bad = ~np.isfinite(value)
            if bad.any():
                faults.append(("non-finite result", root, bad))
                invalid |= bad
            out.append(value)
    return Evaluation(out, invalid, None if sample_set is not None else faults)


def _node_value(node: Expr, values: dict, fault, m: int) -> np.ndarray:
    """One inner node over all ``m`` points, from its children's values."""
    if isinstance(node, Add):
        # as sum(): start from 0, which turns a leading -0.0 into 0.0
        out = np.zeros(m)
        for t in node.terms:
            out += values[id(t)]
        return out
    if isinstance(node, Mul):
        out = np.ones(m)
        for f in node.factors:
            out *= values[id(f)]
        return out
    if isinstance(node, Neg):
        return -values[id(node.operand)]
    if isinstance(node, Div):
        return values[id(node.num)] / values[id(node.den)]
    if isinstance(node, Pow):
        base = values[id(node.base)]
        exponent = node.exponent
        if exponent < 0:
            fault("zero base with negative exponent", node, base == 0.0)
        out = _pointwise(pow, base, exponent)
        fault("overflow", node, np.isfinite(base) & ~np.isfinite(out))
        return out
    if isinstance(node, Call):
        arg = values[id(node.arg)]
        if node.func == "sqrt":
            fault("sqrt of negative value", node, arg < 0.0)
            return np.sqrt(arg)
        if node.func == "log":
            fault("log of non-positive value", node, arg <= 0.0)
        out = _pointwise(getattr(math, node.func), arg)
        if node.func == "exp":
            fault("overflow", node, np.isfinite(arg) & ~np.isfinite(out))
        return out
    raise TypeError(f"cannot evaluate {type(node).__name__}")


def _pointwise(fn, column: np.ndarray, *constants) -> np.ndarray:
    """``fn(v, *constants)`` for each float v of ``column``.  Where it
    raises, the value is inf on overflow and nan otherwise; the caller
    flags it."""
    floats = column.tolist()
    try:
        return np.fromiter(
            map(fn, floats, *map(repeat, constants)), dtype=float, count=len(floats)
        )
    except (OverflowError, ValueError, ZeroDivisionError):
        return np.array([_guarded(fn, v, *constants) for v in floats], dtype=float)


def _guarded(fn, value: float, *constants) -> float:
    try:
        return fn(value, *constants)
    except OverflowError:
        return math.inf
    except (ValueError, ZeroDivisionError):
        return math.nan


# ---------------------------------------------------------------------------
# Square matrices of expressions (lists of rows).
# ---------------------------------------------------------------------------


def sym_det(M) -> Expr:
    """Determinant of a matrix of canonical entries by cofactor expansion
    along the first row, canonical."""
    k = len(M)
    if k == 1:
        return M[0][0]
    terms = []
    for col in range(k):
        minor = [row[:col] + row[col + 1 :] for row in M[1:]]
        term = cmul(M[0][col], sym_det(minor))
        terms.append(term if col % 2 == 0 else cneg(term))
    return csum(terms)


def adjugate_inverse(M, det: Expr) -> np.ndarray:
    """Inverse of a matrix of canonical entries as unevaluated quotients:
    entry [i, j] is the (j, i) cofactor over ``det``.  The caller keeps
    ``det`` away from zero."""
    n = len(M)
    inv = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            minor = [
                [M[row][col] for col in range(n) if col != i]
                for row in range(n)
                if row != j
            ]
            cof = sym_det(minor) if minor else ONE
            inv[i, j] = _quotient(cof if (i + j) % 2 == 0 else cneg(cof), det)
    return inv


# ---------------------------------------------------------------------------
# Charts and the two-tier zero test.
# ---------------------------------------------------------------------------


def divisor_factors(exprs: Iterable[Expr]) -> list:
    """Every distinct factor of a divisor in ``exprs``.  The divisors are
    the denominator of each quotient and the base of each negative
    power; each is split into the factors of its products and the bases
    of its powers, since it vanishes exactly where one of those does.
    A factor comes after the factors of divisors nested inside it, so a
    scan in list order meets an inner pole before the outer divisor
    that it leaves undefined."""
    found = {}
    seen = set()
    stack = [(e, False) for e in exprs]
    while stack:
        node, finished = stack.pop()
        if not finished:
            if node not in seen:
                seen.add(node)
                stack.append((node, True))
                stack.extend((c, False) for c in node.children())
            continue
        if isinstance(node, Div):
            parts = [node.den]
        elif isinstance(node, Pow) and node.exponent < 0:
            parts = [node.base]
        else:
            continue
        while parts:
            f = parts.pop()
            if isinstance(f, Mul):
                parts.extend(f.factors)
            elif isinstance(f, (Pow, Neg)):
                parts.extend(f.children())
            else:
                found.setdefault(f)
    return list(found)


@dataclass(frozen=True)
class ZeroPolicy:
    """Sampling policy for the probabilistic tier of the zero test: at
    least one sample, and a finite tolerance that is not negative, both
    absolute and relative to the terms' scale."""

    samples: int = 32
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


DEFAULT_POLICY = ZeroPolicy()


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of :func:`is_zero`.

    ``path`` records which tier decided: "symbolic" for exact cancellation
    (or an exact nonzero constant), "probabilistic" for the sampled tier,
    "undecidable" when every sample point violated the domain.
    """

    zero: bool
    path: str
    witness: Optional[tuple] = None
    value: Optional[float] = None

    def __bool__(self):
        return self.zero


@dataclass(frozen=True)
class BoxWitness:
    """Where :meth:`Chart.vanishing_witness` found an expression that is
    not bounded away from zero on the box: the ``point``, the ``value``
    there, and the case found.  ``near_zero`` is True for a value within
    1e-9 of zero, False for a sign opposite to the midpoint's."""

    point: tuple
    value: float
    near_zero: bool


class Chart:
    """A coordinate chart: ordered names plus a rational sampling box.

    ``guards`` are expressions that must be bounded away from zero on the
    box (declared singular loci).  :meth:`check_guards` scans them with a
    request's sample count and seed, before anything is built on the
    chart.

    The chart draws its samples once per (count, seed): the zero test
    and the box scans all read :meth:`sample_set`.  One rule decides
    every box scan, :meth:`vanishing_witness`'s near-zero or sign change;
    :meth:`rank_witness` applies it to a determinant, for the anchor's
    rank and a foliation frame's independence.
    """

    def __init__(
        self,
        coords,
        box,
        guards: tuple = (),
    ):
        coords = tuple(coords)
        if len(set(coords)) != len(coords):
            raise ValueError("duplicate coordinate names")
        for name in coords:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ValueError(f"bad coordinate name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"coordinate name {name!r} shadows a function")
        box = tuple((Fraction(lo), Fraction(hi)) for lo, hi in box)
        if len(box) != len(coords):
            raise ValueError("box must have one interval per coordinate")
        for lo, hi in box:
            if not lo < hi:
                raise ValueError("box intervals must have lo < hi")
        self.coords = coords
        self.box = box
        self._sample_sets = {}  # (count, seed) -> sample_set's answer
        self.guards = tuple(guards)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.coords == other.coords
            and self.box == other.box
        )

    def __hash__(self):
        return hash((self.coords, self.box))

    def __repr__(self):
        spans = ", ".join(f"{n}:[{float(lo):g},{float(hi):g}]" for n, (lo, hi) in zip(self.coords, self.box))
        return f"<chart {spans}>"

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        """Deterministic uniform samples in the box, shape (count, dim)."""
        rng = np.random.default_rng([seed, count, self.dim])
        lo = np.array([float(b[0]) for b in self.box])
        hi = np.array([float(b[1]) for b in self.box])
        return lo + rng.random((count, self.dim)) * (hi - lo)

    def sample_set(self, count: int, seed: int) -> _SampleSet:
        """``sample_points(count, seed)`` as the zero test's sample set:
        one object per chart and (count, seed), on which canonical nodes
        keep their values (see :func:`evaluate_batch`)."""
        found = self._sample_sets.get((count, seed))
        if found is None:
            found = _SampleSet(self.coords, self.sample_points(count, seed))
            self._sample_sets[count, seed] = found
        return found

    def env(self, point) -> dict:
        return dict(zip(self.coords, (float(x) for x in point)))

    def midpoint(self) -> tuple:
        return tuple(float((lo + hi) / 2) for lo, hi in self.box)

    def vanishing_witness(self, e: Expr, count: int, seed: int) -> Optional[BoxWitness]:
        """Where ``e`` fails to be bounded away from zero on the box.

        Evaluates ``e`` at ``count`` seeded samples and the midpoint; a
        :class:`DomainError` anywhere propagates.  Returns None when every
        |value| exceeds 1e-9 and every sample has the midpoint's sign.
        Otherwise returns the :class:`BoxWitness` of the first near-zero
        point, else of the first sample whose sign is opposite to the
        midpoint's.
        """
        grid = np.vstack([self.sample_set(count, seed).points, [self.midpoint()]])
        batch = evaluate_batch([e], self.coords, grid)
        if batch.invalid.any():
            raise batch.domain_error(int(np.argmax(batch.invalid)))
        points = [tuple(p) for p in grid.tolist()]
        values = batch.values[0].tolist()
        for p, v in zip(points, values):
            if abs(v) <= 1e-9:
                return BoxWitness(p, v, near_zero=True)
        for p, v in zip(points, values):
            if (v < 0.0) != (values[-1] < 0.0):
                return BoxWitness(p, v, near_zero=False)
        return None

    def rank_witness(self, table, count: int, seed: int) -> Optional[BoxWitness]:
        """Where a table of canonical entries (a list of rows) drops
        below full rank, min(rows, cols), on the box, or None.

        The entries are evaluated first, at the samples and the
        midpoint: a :class:`DomainError` there propagates, the first
        point's, even for an entry that cancels out of the determinant.
        Then a square table's determinant is scanned, and any other
        table's Gram determinant det(A A^T) of its wide orientation A,
        which by Cauchy-Binet is the sum of the squared maximal minors.
        The scan is :meth:`vanishing_witness`'s, with its 1e-9 rule.
        """
        rows = [list(row) for row in table]
        grid = np.vstack([self.sample_set(count, seed).points, [self.midpoint()]])
        batch = evaluate_batch([e for row in rows for e in row], self.coords, grid)
        if batch.invalid.any():
            raise batch.domain_error(int(np.argmax(batch.invalid)))
        if len(rows) > len(rows[0]):
            rows = [list(col) for col in zip(*rows)]
        if len(rows) < len(rows[0]):
            rows = [[csum(map(cmul, u, v)) for v in rows] for u in rows]
        return self.vanishing_witness(sym_det(rows), count, seed)

    def check_guards(self, count: int, seed: int) -> None:
        """Raise ``ValueError`` for the first guard that
        :meth:`vanishing_witness` finds undefined or not bounded away
        from zero at ``count`` samples drawn with ``seed``."""
        for guard in self.guards:
            try:
                bad = self.vanishing_witness(guard, count, seed)
            except DomainError:
                raise ValueError(f"guard {guard} undefined inside the box")
            if bad is not None:
                raise ValueError(f"box does not avoid the locus {guard} = 0")


def is_zero(
    e: Expr,
    chart: Chart,
    policy: ZeroPolicy = DEFAULT_POLICY,
) -> ZeroVerdict:
    """Two-tier zero test on the chart's box.

    Tier one: exact -- is the canonical form the literal 0 (or a nonzero
    rational)?  Tier two: evaluate at ``policy.samples`` seeded points; the
    expression passes as zero iff every |value| <= tol + tol*scale,
    where scale is the largest magnitude attained by any single collected
    term over all valid samples.  Fails with the largest-magnitude witness.
    """
    reduced = canon(e)
    if isinstance(reduced, Const):
        if reduced is ZERO:
            return ZeroVerdict(True, "symbolic")
        mid = chart.midpoint()
        return ZeroVerdict(False, "symbolic", witness=mid, value=float(reduced.value))

    terms = reduced.terms if isinstance(reduced, Add) else (reduced,)
    samples = chart.sample_set(policy.samples, policy.seed)
    batch = evaluate_batch(terms, chart.coords, samples)
    rows = np.array(batch.values).T  # one row of term values per sample
    valid = np.flatnonzero(~batch.invalid)
    # one exact sum per valid sample; a sample whose sum is not finite is
    # left out, as an invalid one is
    totals = np.array([math.fsum(row) for row in rows[valid].tolist()])
    finite = np.isfinite(totals)
    kept, totals = valid[finite], totals[finite]
    if not kept.size:
        return ZeroVerdict(False, "undecidable")

    scale = float(np.abs(rows[kept]).max())
    threshold = policy.tol + policy.tol * scale
    worst = int(np.argmax(np.abs(totals)))
    value = float(totals[worst])
    if abs(value) <= threshold:
        return ZeroVerdict(True, "probabilistic")
    witness = tuple(samples.points[kept[worst]])
    return ZeroVerdict(False, "probabilistic", witness=witness, value=value)
