"""Sections and tensor fields over a single chart.

Everything here is frame-based: a tensor field is a multi-indexed array
of expressions whose slots are tagged with the bundle they index
(tangent or algebroid) and their variance, and a section is the
one-slot tensor field: a vector field is its components against the
coordinate frame, a one-form against the coordinate coframe, and an
algebroid section against the declared algebroid frame.  Both share
one table constructor and one arithmetic.  No chart transitions, no
abstract bundles.

Every verdict reduces to batteries of zero tests over a chart, and they
are folded here, once.  A battery walks labelled expressions through
:func:`symcore.is_zero` and folds the outcomes into a :class:`Verdict`:
the first failure wins and carries its witness point; a pass that
needed the sampled tier is flagged as probabilistic.  A construction
whose input must satisfy such a battery (:func:`_require_zero`) raises
:class:`DegenerateError` from the same fold instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .symcore import (
    ONE,
    ZERO,
    Chart,
    Const,
    DegenerateError,
    Expr,
    ZeroPolicy,
    canon,
    cmul,
    cneg,
    csum,
    diff,
    is_zero,
    parse,
)

__all__ = [
    "Verdict",
    "Section",
    "TensorField",
    "UP",
    "LOW",
    "TM",
    "G",
    "as_expr",
    "vf_bracket",
    "lie_derivative",
]

UP = "upper"
LOW = "lower"
TM = "tm"
G = "g"


def as_expr(value, chart: Chart) -> Expr:
    """Coerce strings / numbers / Exprs to a canonical Expr."""
    if isinstance(value, Expr):
        return canon(value)
    if isinstance(value, str):
        return canon(parse(value, chart))
    return canon(Const(value))


def _component_array(chart: Chart, values) -> np.ndarray:
    """The one table constructor: ``values`` as an object array of
    canonical entries (each coerced by :func:`as_expr`), read-only, so
    that what is derived from a table once stays true."""
    arr = np.array(values, dtype=object)
    flat = arr.reshape(-1)
    for k in range(flat.size):
        flat[k] = as_expr(flat[k], chart)
    arr.flags.writeable = False
    return arr


class TensorField:
    """Expression-valued tensor with tagged slots.

    ``slots`` is a sequence of (variance, tag) pairs, variance "upper" or
    "lower", tag "tm" or "g".  Tangent-tagged slots must have size equal
    to the chart dimension; algebroid-tagged slots take their size from
    the component array (the algebroid rank).  Symmetries are not
    declared: tensors the package builds have theirs by construction, and
    outside data is checked with :meth:`check_pairs`.
    """

    def __init__(self, chart: Chart, slots: Sequence, components):
        slots = tuple((str(v), str(t)) for v, t in slots)
        for variance, tag in slots:
            if variance not in (UP, LOW) or tag not in (TM, G):
                raise ValueError(f"bad slot ({variance!r}, {tag!r})")
        arr = _component_array(chart, components)
        if arr.ndim != len(slots):
            raise ValueError(
                f"component array has {arr.ndim} axes for {len(slots)} slots"
            )
        for axis, (variance, tag) in enumerate(slots):
            if tag == TM and arr.shape[axis] != chart.dim:
                raise ValueError(
                    f"slot {axis} is tangent-tagged but has size {arr.shape[axis]}"
                )
        self.chart = chart
        self.slots = slots
        self.components = arr

    @property
    def ndim(self) -> int:
        return len(self.slots)

    @property
    def shape(self):
        return self.components.shape

    def __getitem__(self, idx):
        return self.components[idx]

    def __eq__(self, other):
        return (
            isinstance(other, TensorField)
            and self.chart == other.chart
            and self.slots == other.slots
            and self.shape == other.shape
            and all(
                self.components[idx] == other.components[idx]
                for idx in np.ndindex(*self.shape)
            )
        )

    __hash__ = None

    def __repr__(self):
        sig = ",".join(f"{v[0]}{t}" for v, t in self.slots)
        return f"<tensor ({sig}) shape={self.shape}>"

    def _like(self, components) -> "TensorField":
        """A field of this one's kind, chart and slots with new
        ``components``: the hook through which the arithmetic rebuilds
        a :class:`Section` as a section."""
        return TensorField(self.chart, self.slots, components)

    def _entrywise(self, op, *peers) -> "TensorField":
        """``op`` applied entry by entry to this field and its peers."""
        for other in peers:
            self._check_peer(other)
        ufunc = np.frompyfunc(op, 1 + len(peers), 1)
        return self._like(ufunc(self.components, *(o.components for o in peers)))

    def __add__(self, other):
        return self._entrywise(lambda a, b: csum((a, b)), other)

    def __sub__(self, other):
        return self._entrywise(lambda a, b: csum((a, cneg(b))), other)

    def __neg__(self):
        return self._entrywise(cneg)

    def scale(self, f) -> "TensorField":
        """Multiply by a scalar expression."""
        f = as_expr(f, self.chart)
        return self._entrywise(lambda c: cmul(f, c))

    def _check_peer(self, other):
        if not isinstance(other, TensorField):
            raise TypeError("expected a TensorField")
        if other.chart != self.chart:
            raise ValueError("chart mismatch")
        if other.slots != self.slots or other.shape != self.shape:
            raise ValueError("tensor signature mismatch")

    def check_pairs(
        self,
        symmetric: Iterable = (),
        antisymmetric: Iterable = (),
        policy: Optional[ZeroPolicy] = None,
    ):
        """Raise ValueError unless the components are symmetric /
        antisymmetric under swapping each given pair of slots; a failing
        pair raises :class:`DegenerateError` with the zero test's witness.
        For data from outside: what the package builds has its symmetries
        by construction."""

        def defects():
            for kind, pairs in (
                ("symmetric", symmetric),
                ("antisymmetric", antisymmetric),
            ):
                for i, j in pairs:
                    if not (0 <= i < self.ndim and 0 <= j < self.ndim) or i == j:
                        raise ValueError(f"bad symmetry pair ({i}, {j})")
                    if self.slots[i] != self.slots[j]:
                        raise ValueError(
                            f"symmetry pair ({i}, {j}) spans unlike slots"
                        )
                    for idx in np.ndindex(*self.shape):
                        if idx[i] > idx[j]:
                            continue
                        swapped = list(idx)
                        swapped[i], swapped[j] = swapped[j], swapped[i]
                        other = self.components[tuple(swapped)]
                        if kind == "symmetric":
                            other = cneg(other)
                        yield (
                            f"declared {kind} pair ({i}, {j}) fails at index {idx}",
                            csum((self.components[idx], other)),
                        )

        _require_zero(defects(), self.chart, policy or ZeroPolicy())


#: the one slot of a section, by its frame
_FRAME_SLOTS = {"tm": (UP, TM), "tm*": (LOW, TM), "g": (UP, G)}


class Section(TensorField):
    """A section of a trivialized bundle: the one-slot tensor field of
    its components against its frame.

    ``frame`` is "tm" (components against the coordinate vector fields,
    slot (upper, tm)), "tm*" (against the coordinate one-forms, (lower,
    tm)) or "g" (against the abstract algebroid frame, (upper, g)).
    """

    def __init__(self, chart: Chart, components, frame: str = "g"):
        if frame not in _FRAME_SLOTS:
            raise ValueError(f"unknown frame {frame!r}")
        comps = list(components)
        if not comps:
            raise ValueError("a section needs at least one component")
        if frame in ("tm", "tm*") and len(comps) != chart.dim:
            raise ValueError(
                f"{frame} section needs {chart.dim} components, got {len(comps)}"
            )
        super().__init__(chart, (_FRAME_SLOTS[frame],), comps)
        self.frame = frame

    @property
    def rank(self) -> int:
        return self.shape[0]

    def __repr__(self):
        body = ", ".join(str(c) for c in self.components)
        return f"<section [{body}] @{self.frame}>"

    def _like(self, components) -> "Section":
        return Section(self.chart, components, self.frame)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


#: statuses that count as a positive outcome
_OK_STATUSES = ("pass", "locally_symmetric")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one named check, possibly aggregating children.

    ``status`` is "pass"/"fail"/"undecidable" for plain batteries; the
    classification verdicts reuse the slot for their labels
    ("locally_symmetric", "curved", "not_cartan").  A failing verdict
    always carries a witness point (inherited from the failing child
    when aggregated).  ``path`` records the strongest tier that was
    needed: "symbolic" means every constituent cancelled exactly.
    """

    name: str
    status: str
    path: str = "symbolic"
    witness: Optional[tuple] = None
    value: Optional[float] = None
    detail: Optional[str] = None
    children: Tuple["Verdict", ...] = ()
    notes: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.status == "fail" and self.witness is None:
            raise ValueError(f"failing verdict {self.name!r} has no witness")

    @property
    def ok(self) -> bool:
        return self.status in _OK_STATUSES

    def child(self, name: str) -> "Verdict":
        for c in self.children:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "path": self.path}
        if self.witness is not None:
            out["witness"] = [float(x) for x in self.witness]
        if self.value is not None:
            out["value"] = self.value
        if self.detail is not None:
            out["detail"] = self.detail
        if self.notes:
            out["notes"] = list(self.notes)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out

    def __repr__(self):
        flag = "" if self.path == "symbolic" else f" [{self.path}]"
        return f"<verdict {self.name}: {self.status}{flag}>"


def _battery(name, labelled, chart, policy) -> Verdict:
    """Fold labelled expressions into one verdict; first failure wins.

    This is the one fold over :func:`is_zero`: it stops at the first
    expression that is not zero, so when ``labelled`` is a generator,
    nothing after it is built."""
    worst = "symbolic"
    for label, e in labelled:
        v = is_zero(e, chart, policy)
        if v.path == "undecidable":
            return Verdict(name, "undecidable", "undecidable", detail=label)
        if v.path == "probabilistic":
            worst = "probabilistic"
        if not v.zero:
            return Verdict(
                name, "fail", v.path, witness=v.witness, value=v.value, detail=label
            )
    return Verdict(name, "pass", worst)


def _skew_table(shape, k: int, built) -> np.ndarray:
    """The one mirror fill: the table of ``shape``, antisymmetric in its
    leading ``k`` slots, from the entries a kernel built, keyed by index
    with increasing leading arguments.  Each permutation of a built
    entry's arguments gets the entry if even, and its negation, built
    once, if odd; all else is ZERO."""
    order = [
        (perm, sum(p > q for p, q in combinations(perm, 2)) % 2)
        for perm in permutations(range(k))
    ]
    out = np.empty(shape, dtype=object)
    out[...] = ZERO
    for idx, value in built.items():
        args, rest = idx[:k], idx[k:]
        mirror = cneg(value)
        for perm, odd in order:
            out[tuple(args[p] for p in perm) + rest] = mirror if odd else value
    return out


def _built_entries(shape, entry, skew: int = 0):
    """``entry(idx)`` at each index of a table of ``shape`` that its
    kernel builds, labelled ``component {idx}``, in ``np.ndindex`` order:
    every index, or for a :func:`_skew_table` in ``skew`` slots those
    whose leading arguments increase.  A battery over these decides as
    one over every entry: the rest are ZERO or negations of a built
    entry, which comes first."""
    for args in combinations(range(shape[0] if skew else 0), skew):
        for rest in np.ndindex(*shape[skew:]):
            idx = args + rest
            yield f"component {idx}", entry(idx)


def _tensor_battery(name, T: TensorField, policy, skew=0) -> Verdict:
    return _battery(name, _built_entries(T.shape, T.__getitem__, skew), T.chart, policy)


def _require_zero(labelled, chart: Chart, policy: ZeroPolicy) -> None:
    """Raise :class:`DegenerateError` on the first labelled expression
    that is not zero, whether it fails or is undecidable: the message is
    its label, and the error carries the witness, value and path."""
    verdict = _battery("required_zero", labelled, chart, policy)
    if not verdict.ok:
        raise DegenerateError.from_verdict(verdict.detail, verdict)


def _aggregate(name, children, notes=()) -> Verdict:
    """Combine child verdicts: any fail -> fail, else any undecidable ->
    undecidable, else pass; witness and path are inherited."""
    status, witness, value, detail, path = "pass", None, None, None, "symbolic"
    for c in children:
        if c.path == "probabilistic" and path == "symbolic":
            path = "probabilistic"
    for c in children:
        if c.status == "undecidable" and status == "pass":
            status, detail, path = "undecidable", c.name, "undecidable"
    for c in children:
        if not c.ok and c.status != "undecidable":
            status = "fail"
            witness, value = c.witness, c.value
            detail = c.name if c.detail is None else f"{c.name}: {c.detail}"
            path = c.path
            break
    return Verdict(
        name,
        status,
        path,
        witness=witness,
        value=value,
        detail=detail,
        children=tuple(children),
        notes=tuple(notes),
    )


def vf_bracket(V: Section, W: Section) -> Section:
    """Jacobi-Lie bracket of two vector fields: the Lie derivative of W
    along V."""
    if V.frame != "tm" or W.frame != "tm":
        raise ValueError("vf_bracket needs tangent sections")
    return lie_derivative(V, W)


def _directions(coords, rho=None) -> list:
    """Derivations as (coordinate, coefficient) pairs: ``directions[z]``
    differentiates f as the sum of coefficient * df/dcoordinate.  Without
    ``rho`` these are the coordinate vector fields; with it, the vector
    fields rho^i_z d/dx^i of its columns.  Literal-zero coefficients are
    left out and a unit coefficient is None, so the coordinate frame, or
    the identity anchor, costs no products."""
    if rho is None:
        return [[(x, None)] for x in coords]
    return [
        [
            (x, None if rho[i, z] is ONE else rho[i, z])
            for i, x in enumerate(coords)
            if rho[i, z] is not ZERO
        ]
        for z in range(rho.shape[1])
    ]


def _nonzero(entries) -> list:
    """The (index, entry) pairs of the ``entries`` that are not ``ZERO``:
    the support that the tensor kernels loop over."""
    return [(i, e) for i, e in enumerate(entries) if e is not ZERO]


def _along(direction, f: Expr) -> list:
    """The canonical terms of the derivative of a canonical ``f`` along
    one of :func:`_directions`."""
    return [diff(f, x) if c is None else cmul(c, diff(f, x)) for x, c in direction]


def _derivative(components: np.ndarray, directions, actions) -> np.ndarray:
    """Derivative of a component array along each of ``directions``, kept
    on a new last axis.

    ``actions[axis]`` is (variance, A) for each axis of ``components``:
    along direction z the frame element m of that slot has derivative
    sum_k A[z, m, k] (element k), so an upper index k gains
    A[z, m, k] T[..m..] and a lower index m loses A[z, m, k] T[..k..].
    Each entry is one canonical sum (:func:`csum`) of these products and
    the derivative terms of :func:`_along`; the products loop over the
    actions' nonzero entries only.  This is the one tensor-derivative
    loop: coordinate derivatives of tangent tensors (the tangent
    algebroid: identity anchor, zero bracket), algebroid derivatives
    through an anchor and Lie derivatives all come from it.
    """
    # support[axis][z][k]: the (m, coefficient) pairs by which index k of
    # that axis gains coefficient * T[..m..] along direction z; a lower
    # index gains by the negated transpose
    support = []
    for variance, A in actions:
        if variance != UP:
            A = np.frompyfunc(cneg, 1, 1)(A.transpose(0, 2, 1))
        support.append(
            [[_nonzero(A[z, :, k]) for k in range(A.shape[2])] for z in range(A.shape[0])]
        )
    out = np.empty(components.shape + (len(directions),), dtype=object)
    for idx in np.ndindex(*components.shape):
        for z, direction in enumerate(directions):
            terms = _along(direction, components[idx])
            for axis, pairs in enumerate(support):
                head, tail = idx[:axis], idx[axis + 1 :]
                for m, coeff in pairs[z][idx[axis]]:
                    terms.append(cmul(coeff, components[head + (m,) + tail]))
            out[idx + (z,)] = csum(terms)
    return out


def lie_derivative(V: Section, T: TensorField) -> TensorField:
    """Lie derivative of a purely tangent-tagged tensor field, a field of
    its kind: a section's is a section.

    The derivative along the single direction V whose action on the
    coordinate frame is A[m, k] = -d_m V^k: the usual coordinate formula
    V^m d_m T_{jk} + T_{mk} d_j V^m + T_{jm} d_k V^m on a lower pair, and
    the vector-field bracket on one upper slot.
    """
    if V.frame != "tm":
        raise ValueError("lie_derivative needs a tangent direction")
    if V.chart != T.chart:
        raise ValueError("chart mismatch")
    for variance, tag in T.slots:
        if tag != TM:
            raise ValueError("lie_derivative only handles tangent-tagged slots")
    coords = V.chart.coords
    n = len(coords)
    field = V.components.reshape(n, 1)
    A = np.empty((1, n, n), dtype=object)
    for m, k in np.ndindex(n, n):
        A[0, m, k] = cneg(diff(V.components[k], coords[m]))
    D = _derivative(
        T.components, _directions(coords, field), [(v, A) for v, _ in T.slots]
    )
    return T._like(D[..., 0])
