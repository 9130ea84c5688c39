"""Command line front end: GeometrySpec files in, verdict reports out.

A GeometrySpec is a JSON document holding one chart and the geometric
objects living on it (tables of expression strings; see
geometry_spec.schema.json, next to this module, for the field-by-field
index conventions).  Commands:

    cartankit validate <file>       axioms / well-formedness of every object
    cartankit check <file> --pipeline {cartan,theorem-a,transitive,
                                       riemann,poisson,geometry}
    cartankit holonomy <file> --point ... --plane i j --side h
    cartankit identities <file>     the structural identity battery

A plain command line (the command first, every option by its full name,
values as separate words) is read directly from the option table
``_COMMANDS``; argparse, built from the same table, reads every other
spelling, prints help and words every usage error.

Reports are JSON on stdout and byte-stable for a fixed seed; timing
fields appear only under --timings so that the default output stays
reproducible.  Exit status: 0 all verdicts pass, 1 some verdict fails
(or is undecidable), 2 the input itself is unusable (schema violation,
unresolved reference, bad shape, violated chart guard).

When a file carries several objects the canonical pipeline pair is
resolved with the precedence metric > poisson > parallelism > algebroid
> action > foliation; `check --pipeline geometry` dispatches on the same
precedence to the object's own full pipeline.
"""

from __future__ import annotations

import json
import re
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional, Tuple

import numpy as np

from . import __version__
from .algebroid import (
    Algebroid,
    LieAlgebra,
    build_action_algebroid,
    build_foliation_algebroid,
    build_poisson_algebroid,
    tangent_algebroid,
)
from .algebroid import validate as validate_algebroid
from .bundles import LOW, TM, UP, Section, TensorField, Verdict
from .cartan import (
    DegenerateError,
    Parallelism,
    check_cartan,
    cotangent_connection,
    holonomy_check,
    identity_battery,
    metric_checks,
    metric_pair,
    parallelism_report,
    poisson_report,
    riemann_pipeline,
    theorem_a_verdict,
    transitive_symmetry_check,
)
from .connections import TMConnection, christoffel
from .symcore import (
    Chart,
    DomainError,
    Expr,
    ZeroPolicy,
    canon,
    parse,
    to_text,
)

_SCHEMA_PATH = Path(__file__).with_name("geometry_spec.schema.json")

PIPELINES = ("cartan", "theorem-a", "transitive", "riemann", "poisson", "geometry")


class SpecError(Exception):
    """Unusable input: carries a JSON-pointer-ish path when known."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path
        self.message = message


def _pointer(parts) -> str:
    return "/" + "/".join(str(p) for p in parts) if parts else ""


def _load_schema() -> dict:
    return json.loads(_SCHEMA_PATH.read_text())


def schema_errors(doc) -> List[Tuple[str, str]]:
    """Sorted (pointer, message) pairs; empty means structurally valid.

    One walk of the schema, :func:`_errors`, decides and words each
    rejection as jsonschema 4.26's ``Draft7Validator`` does (its
    ``absolute_path`` and ``message``), with no validator library."""
    schema = _load_schema()
    return sorted((_pointer(path), words()) for path, words in _errors(doc, schema, schema, ()))


# annotations: they constrain nothing
_ANNOTATIONS = frozenset(("$schema", "$id", "title", "description", "definitions"))
_JSON_TYPES = {
    "object": lambda v: type(v) is dict,
    "array": lambda v: type(v) is list,
    "string": lambda v: type(v) is str,
    "integer": lambda v: type(v) is int or (type(v) is float and v.is_integer()),
    "number": lambda v: type(v) in (int, float),
    "boolean": lambda v: type(v) is bool,
    "null": lambda v: v is None,
}


def _errors(value, schema, root, path) -> list:
    """The (path tuple, message) pairs by which the JSON value ``value``
    (all that :func:`load_spec` hands over) breaks the Draft-7
    ``schema``; ``root`` resolves local ``$ref``s.  ``_KEYWORDS`` means
    and words each keyword as jsonschema 4.26 does (``True`` is not 1,
    ``2.0`` is an integer, ``pattern`` is ``re.search``) on schemas of
    the spec schema's shape: object subschemas, one ``items`` schema,
    scalar ``const`` and ``enum`` values.  Each message is a function
    that formats it, so ``oneOf``, which only counts its branches'
    errors, and a valid spec format none."""
    if "$ref" in schema:  # Draft 7: $ref's siblings are ignored
        target = root
        for part in schema["$ref"][2:].split("/"):
            target = target[part]
        return _errors(value, target, root, path)
    found = []
    for key, rule in schema.items():
        if key not in _ANNOTATIONS:
            found += _KEYWORDS[key](value, rule, schema, root, path)
    return found


def _json_equal(value, const) -> bool:
    # jsonschema's equality with a scalar: True and 1 differ, 1 and 1.0 do not
    return value == const and (type(value) is bool) == (type(const) is bool)


def _listed(rule) -> list:
    return [rule] if type(rule) is str else rule


def _too_short(value, bound) -> str:
    return f"{value!r} {'should be non-empty' if bound == 1 else 'is too short'}"


def _leaf(fails, words):
    """A keyword on the value itself: ``fails(value, rule)`` decides it,
    and ``words(value, rule)`` is the message."""
    return lambda v, rule, schema, root, path: (
        [(path, lambda: words(v, rule))] if fails(v, rule) else []
    )


def _additional_errors(value, rule, schema, root, path) -> list:
    if type(value) is not dict:
        return []
    declared = schema.get("properties", {})
    extras = sorted((name for name in value if name not in declared), key=str)
    if type(rule) is dict:
        return [e for name in extras for e in _errors(value[name], rule, root, path + (name,))]
    if rule or not extras:
        return []
    words = "Additional properties are not allowed (%s %s unexpected)"
    verb = "was" if len(extras) == 1 else "were"
    return [(path, lambda: words % (", ".join(map(repr, extras)), verb))]


def _one_of_errors(value, branches, schema, root, path) -> list:
    valid = [sub for sub in branches if not _errors(value, sub, root, path)]
    if len(valid) == 1:
        return []
    if not valid:
        return [(path, lambda: f"{value!r} is not valid under any of the given schemas")]
    # jsonschema names the later valid branches first, then the first one
    each = valid[1:] + valid[:1]
    return [(path, lambda: f"{value!r} is valid under each of {', '.join(map(repr, each))}")]


_KEYWORDS = {
    "type": _leaf(
        lambda v, rule: not any(_JSON_TYPES[name](v) for name in _listed(rule)),
        lambda v, rule: f"{v!r} is not of type {', '.join(map(repr, _listed(rule)))}",
    ),
    "const": _leaf(lambda v, rule: not _json_equal(v, rule), lambda v, rule: f"{rule!r} was expected"),
    "enum": _leaf(
        lambda v, rule: not any(_json_equal(v, c) for c in rule),
        lambda v, rule: f"{v!r} is not one of {rule!r}",
    ),
    "pattern": _leaf(
        lambda v, rule: type(v) is str and not re.search(rule, v),
        lambda v, rule: f"{v!r} does not match {rule!r}",
    ),
    "minimum": _leaf(
        lambda v, rule: _JSON_TYPES["number"](v) and v < rule,
        lambda v, rule: f"{v!r} is less than the minimum of {rule!r}",
    ),
    "minLength": _leaf(lambda v, rule: type(v) is str and len(v) < rule, _too_short),
    "minItems": _leaf(lambda v, rule: type(v) is list and len(v) < rule, _too_short),
    "maxItems": _leaf(
        lambda v, rule: type(v) is list and len(v) > rule,
        lambda v, rule: f"{v!r} {'is expected to be empty' if rule == 0 else 'is too long'}",
    ),
    "items": lambda v, rule, schema, root, path: [
        e
        for i, item in enumerate(v if type(v) is list else ())
        for e in _errors(item, rule, root, path + (i,))
    ],
    "properties": lambda v, rule, schema, root, path: [
        e
        for name, sub in (rule.items() if type(v) is dict else ())
        if name in v
        for e in _errors(v[name], sub, root, path + (name,))
    ],
    "required": lambda v, rule, schema, root, path: [
        (path, lambda name=name: f"{name!r} is a required property")
        for name in (rule if type(v) is dict else ())
        if name not in v
    ],
    "additionalProperties": _additional_errors,
    "oneOf": _one_of_errors,
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _scalar_expr(value, chart: Chart, path: str) -> Expr:
    try:
        if isinstance(value, str):
            return canon(parse(value, chart))
        return canon(parse(repr(value), chart))
    except Exception as exc:
        raise SpecError(f"bad expression {value!r}: {exc}", path) from None


def _expr_array(table, chart: Chart, path: str, shape=None) -> np.ndarray:
    arr = np.array(table, dtype=object)
    if shape is not None and arr.shape != shape:
        raise SpecError(
            f"expected shape {shape}, got {arr.shape}", path
        )
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(*arr.shape):
        out[idx] = _scalar_expr(arr[idx], chart, path + _pointer(idx))
    return out


def _fraction_cube(table, path: str) -> list:
    out = []
    for a, plane in enumerate(table):
        rows = []
        for b, row in enumerate(plane):
            vals = []
            for c, v in enumerate(row):
                try:
                    vals.append(Fraction(v))
                except (ValueError, ZeroDivisionError, TypeError) as exc:
                    raise SpecError(
                        f"bad rational constant {v!r}: {exc}",
                        path + _pointer((a, b, c)),
                    ) from None
            rows.append(vals)
        out.append(rows)
    if np.array(out, dtype=object).shape != (len(out),) * 3:
        raise SpecError(f"expected a cube of side {len(out)}", path)
    return out


class GeometrySpec:
    """Parsed GeometrySpec document.

    Parsing is syntax and shape only; mathematical validation (axioms,
    integrability, nondegeneracy) happens when objects are built.
    """

    def __init__(self, doc: dict):
        errors = schema_errors(doc)
        if errors:
            path, message = errors[0]
            raise SpecError(message, path)
        self.name = doc.get("name")
        self.seed = doc.get("seed", 0)
        self.run = tuple(doc.get("run", ()))

        cdoc = doc["chart"]
        coords = tuple(cdoc["coords"])
        try:
            box = [(Fraction(lo), Fraction(hi)) for lo, hi in cdoc["box"]]
            bare = Chart(coords, box)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(str(exc), "/chart") from None
        guards = tuple(
            _scalar_expr(gtext, bare, f"/chart/guards/{i}")
            for i, gtext in enumerate(cdoc.get("guards", ()))
        )
        self.chart = Chart(coords, box, guards=guards)
        n = self.chart.dim

        self.lie_algebra_table = None
        if "lie_algebra" in doc:
            self.lie_algebra_table = _fraction_cube(
                doc["lie_algebra"]["structure"], "/lie_algebra/structure"
            )

        self.action_fields = None
        if "action_fields" in doc:
            if self.lie_algebra_table is None:
                raise SpecError(
                    "action_fields requires a lie_algebra", "/action_fields"
                )
            r = len(self.lie_algebra_table)
            self.action_fields = _expr_array(
                doc["action_fields"], self.chart, "/action_fields", shape=(r, n)
            )
        elif self.lie_algebra_table is not None:
            raise SpecError(
                "lie_algebra without action_fields has nothing to act through",
                "/lie_algebra",
            )

        self.algebroid_tables = None
        if "algebroid" in doc:
            r = doc["algebroid"]["rank"]
            self.algebroid_tables = (
                r,
                _expr_array(
                    doc["algebroid"]["anchor"], self.chart, "/algebroid/anchor", (n, r)
                ),
                _expr_array(
                    doc["algebroid"]["structure"],
                    self.chart,
                    "/algebroid/structure",
                    (r, r, r),
                ),
            )

        self.poisson = None
        if "poisson" in doc:
            self.poisson = _expr_array(doc["poisson"], self.chart, "/poisson", (n, n))

        self.metric = None
        if "metric" in doc:
            self.metric = _expr_array(doc["metric"], self.chart, "/metric", (n, n))

        self.h_frame = None
        if "h_frame" in doc:
            if self.metric is None:
                raise SpecError("h_frame requires a metric", "/h_frame")
            self.h_frame = [
                _expr_array(mat, self.chart, f"/h_frame/{p}", (n, n))
                for p, mat in enumerate(doc["h_frame"])
            ]

        self.foliation_frame = None
        if "foliation_frame" in doc:
            frame = doc["foliation_frame"]
            # the shape first: a ragged table would reach the parser as rows
            if any(len(field) != n for field in frame):
                raise SpecError(
                    f"each frame field needs {n} components", "/foliation_frame"
                )
            self.foliation_frame = _expr_array(
                frame, self.chart, "/foliation_frame", (len(frame), n)
            )

        self.parallelism_tables = None
        if "parallelism" in doc:
            model = _fraction_cube(
                doc["parallelism"]["structure"], "/parallelism/structure"
            )
            if len(model) != n:
                raise SpecError(
                    f"model algebra dimension {len(model)} != chart dimension {n}",
                    "/parallelism/structure",
                )
            omega = _expr_array(
                doc["parallelism"]["omega"], self.chart, "/parallelism/omega", (n, n)
            )
            self.parallelism_tables = (omega, model)

        self.connections = {}
        for cname, cdef in doc.get("connections", {}).items():
            gamma = np.array(cdef["gamma"], dtype=object)
            if gamma.ndim != 3 or gamma.shape[0] != n or gamma.shape[1] != gamma.shape[2]:
                raise SpecError(
                    f"gamma must have shape ({n}, rank, rank)",
                    f"/connections/{cname}/gamma",
                )
            self.connections[cname] = (
                cdef["target"],
                _expr_array(cdef["gamma"], self.chart, f"/connections/{cname}/gamma"),
            )

        if not any(
            x is not None
            for x in (
                self.action_fields,
                self.algebroid_tables,
                self.poisson,
                self.metric,
                self.foliation_frame,
                self.parallelism_tables,
            )
        ):
            raise SpecError("no geometric object declared", "")

    # -- serialization ----------------------------------------------------

    def serialize(self) -> dict:
        def txt(e):
            return to_text(canon(e))

        def table(arr):
            if arr.ndim == 1:
                return [txt(x) for x in arr]
            return [table(arr[i]) for i in range(arr.shape[0])]

        doc = {
            "spec_version": 1,
            "chart": {
                "coords": list(self.chart.coords),
                "box": [[str(lo), str(hi)] for lo, hi in self.chart.box],
            },
        }
        if self.chart.guards:
            doc["chart"]["guards"] = [txt(g) for g in self.chart.guards]
        if self.name is not None:
            doc["name"] = self.name
        if self.lie_algebra_table is not None:
            doc["lie_algebra"] = {
                "structure": [
                    [[str(c) for c in row] for row in plane]
                    for plane in self.lie_algebra_table
                ]
            }
        if self.action_fields is not None:
            doc["action_fields"] = table(self.action_fields)
        if self.algebroid_tables is not None:
            r, rho, structure = self.algebroid_tables
            doc["algebroid"] = {
                "rank": r,
                "anchor": table(rho),
                "structure": table(structure),
            }
        if self.poisson is not None:
            doc["poisson"] = table(self.poisson)
        if self.metric is not None:
            doc["metric"] = table(self.metric)
        if self.h_frame is not None:
            doc["h_frame"] = [table(m) for m in self.h_frame]
        if self.foliation_frame is not None:
            doc["foliation_frame"] = table(self.foliation_frame)
        if self.parallelism_tables is not None:
            omega, model = self.parallelism_tables
            doc["parallelism"] = {
                "omega": table(omega),
                "structure": [
                    [[str(c) for c in row] for row in plane] for plane in model
                ],
            }
        if self.connections:
            doc["connections"] = {
                cname: {"target": target, "gamma": table(gamma)}
                for cname, (target, gamma) in sorted(self.connections.items())
            }
        if self.run:
            doc["run"] = list(self.run)
        if self.seed:
            doc["seed"] = self.seed
        return doc

    def __eq__(self, other):
        return isinstance(other, GeometrySpec) and self.serialize() == other.serialize()

    def __repr__(self):
        return f"<spec {self.name or 'unnamed'} dim={self.chart.dim}>"


def load_spec(path) -> GeometrySpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"not valid JSON: {exc}") from None
    return GeometrySpec(doc)


# ---------------------------------------------------------------------------
# Building objects
# ---------------------------------------------------------------------------


class BuildFailure(Exception):
    """Object tables parse but fail their mathematical validation
    (status "fail", with the witness when the validation names one), or
    the validation meets an undefined value (status "undecidable").
    ``path`` is the tier that decided; the status follows from it."""

    def __init__(self, check_name: str, message: str, path: str, witness=None, value=None):
        super().__init__(message)
        self.check_name = check_name
        self.message = message
        self.status = "undecidable" if path == "undecidable" else "fail"
        self.path = path
        self.witness = witness
        self.value = value

    def as_check(self) -> dict:
        d = _check_dict(
            self.check_name, self.status, self.path, detail=self.message, value=self.value
        )
        if self.witness is not None:
            d["witness"] = [float(x) for x in self.witness]
        return d


@contextmanager
def _building(check_name: str, field: str):
    """Report a mathematical rejection while building as ``check_name``,
    and a structural one (a plain ``ValueError``) as bad input at ``field``."""
    try:
        yield
    except DomainError as exc:
        raise BuildFailure(check_name, f"undefined inside the box: {exc}", "undecidable") from None
    except DegenerateError as exc:
        raise BuildFailure(
            check_name, str(exc), exc.path, witness=exc.point, value=exc.value
        ) from None
    except ValueError as exc:
        raise SpecError(str(exc), field) from None


class Workspace:
    """The objects a spec declares, each built where a command reads it,
    on a chart whose guards pass the request's box scan: a guard that
    the scan finds undefined or touching zero rejects the request at
    ``/chart/guards`` before anything is built.

    Nothing is cached: a command reads each object once (the action
    algebroid takes the Lie algebra its caller built), and what is
    derived from an object is kept on that object (see
    :class:`~cartankit.connections.TMConnection`)."""

    def __init__(self, spec: GeometrySpec, policy: ZeroPolicy):
        try:
            spec.chart.check_guards(policy.samples, policy.seed)
        except ValueError as exc:
            raise SpecError(str(exc), "/chart/guards") from None
        self.spec = spec
        self.policy = policy

    # -- leaf objects -----------------------------------------------------

    def lie_algebra(self) -> LieAlgebra:
        table = self.spec.lie_algebra_table
        with _building("lie_algebra", "/lie_algebra/structure"):
            return LieAlgebra(len(table), table)

    def action_algebroid(self, algebra: LieAlgebra) -> Algebroid:
        """The declared action fields, acting through ``algebra``, which
        the caller built with :meth:`lie_algebra`."""
        fields = [
            Section(self.spec.chart, list(row), "tm") for row in self.spec.action_fields
        ]
        with _building("action_algebroid", "/action_fields"):
            return build_action_algebroid(algebra, fields, self.policy)

    def direct_algebroid_axioms(self) -> Tuple[Algebroid, Verdict]:
        """The declared anchor and structure tables, and their axiom verdicts."""
        r, rho, structure = self.spec.algebroid_tables
        with _building("algebroid", "/algebroid"):
            g = Algebroid(self.spec.chart, r, rho, structure)
        return g, validate_algebroid(g, self.policy)

    def direct_algebroid(self) -> Algebroid:
        """The declared algebroid, once its tables pass every axiom: the
        first axiom that fails rejects the build with its witness and
        value, and one that is undecidable leaves the build undecidable."""
        g, axioms = self.direct_algebroid_axioms()
        for c in axioms.children:
            if not c.ok:
                outcome = "is undecidable" if c.path == "undecidable" else "fails"
                raise BuildFailure(
                    "algebroid",
                    f"axiom {c.name} {outcome}: {c.detail}",
                    c.path,
                    witness=c.witness,
                    value=c.value,
                )
        return g

    def poisson_tensor(self) -> TensorField:
        with _building("poisson", "/poisson"):
            pi = TensorField(self.spec.chart, ((UP, TM), (UP, TM)), self.spec.poisson)
            pi.check_pairs(antisymmetric=((0, 1),), policy=self.policy)
            return pi

    def poisson_algebroid(self) -> Algebroid:
        with _building("poisson_algebroid", "/poisson"):
            return build_poisson_algebroid(self.poisson_tensor(), self.policy)

    def metric_tensor(self) -> TensorField:
        return TensorField(self.spec.chart, ((LOW, TM), (LOW, TM)), self.spec.metric)

    def riemann_report(self):
        with _building("metric", "/metric"):
            return riemann_pipeline(
                self.metric_tensor(), h_frame=self.spec.h_frame, policy=self.policy
            )

    def foliation_algebroid(self) -> Algebroid:
        fields = [
            Section(self.spec.chart, list(row), "tm") for row in self.spec.foliation_frame
        ]
        with _building("foliation", "/foliation_frame"):
            return build_foliation_algebroid(fields, self.policy)

    def parallelism(self) -> Parallelism:
        omega, model = self.spec.parallelism_tables
        with _building("model_algebra", "/parallelism/structure"):
            algebra = LieAlgebra(len(model), model)
        with _building("parallelism", "/parallelism"):
            return Parallelism(self.spec.chart, algebra, omega, self.policy)

    # -- connection lookup ------------------------------------------------

    def named_connection(self, target: str, rank: int) -> Optional[TMConnection]:
        """The unique declared connection with the given target, if any."""
        matches = [
            (cname, gamma)
            for cname, (ctarget, gamma) in sorted(self.spec.connections.items())
            if ctarget == target
        ]
        if not matches:
            return None
        if len(matches) > 1:
            raise SpecError(
                f"ambiguous: {len(matches)} connections target {target!r}",
                "/connections",
            )
        cname, gamma = matches[0]
        if gamma.shape != (self.spec.chart.dim, rank, rank):
            raise SpecError(
                f"gamma shape {gamma.shape} does not fit rank {rank}",
                f"/connections/{cname}/gamma",
            )
        kind = "tm" if target == "tm" and rank == self.spec.chart.dim else "g"
        return TMConnection(self.spec.chart, gamma, target=kind)

    # -- canonical pipeline pair ------------------------------------------

    def kind(self) -> str:
        s = self.spec
        for kind, present in (
            ("metric", s.metric is not None),
            ("poisson", s.poisson is not None),
            ("parallelism", s.parallelism_tables is not None),
            ("algebroid", s.algebroid_tables is not None),
            ("action", s.action_fields is not None),
            ("foliation", s.foliation_frame is not None),
        ):
            if present:
                return kind
        raise SpecError("no geometric object declared")

    def pair(self) -> Tuple[Algebroid, TMConnection]:
        """The algebroid and compatible-candidate connection for the file."""
        kind = self.kind()
        n = self.spec.chart.dim
        if kind == "metric":
            with _building("metric", "/metric"):
                return metric_pair(self.metric_tensor(), self.policy)
        if kind == "poisson":
            g = self.poisson_algebroid()
            base = self.named_connection("tm", n) or TMConnection.flat(
                self.spec.chart, n, target="tm"
            )
            return g, cotangent_connection(base)
        if kind == "parallelism":
            g = tangent_algebroid(self.spec.chart)
            D = self.parallelism().connection()
            return g, TMConnection(self.spec.chart, D.gamma, target="g")
        if kind == "algebroid":
            g = self.direct_algebroid()
        elif kind == "action":
            g = self.action_algebroid(self.lie_algebra())
        else:
            g = self.foliation_algebroid()
        conn = self.named_connection("algebroid", g.rank) or TMConnection.flat(
            self.spec.chart, g.rank, target="g"
        )
        return g, conn

    def tm_connection(self) -> TMConnection:
        """A tangent-bundle connection for transport: the metric's own,
        the coframe's, or a declared tm-target table."""
        n = self.spec.chart.dim
        if self.spec.metric is not None:
            return christoffel(self.metric_tensor())
        if self.spec.parallelism_tables is not None:
            return self.parallelism().connection()
        named = self.named_connection("tm", n)
        if named is not None:
            return named
        raise SpecError("no tangent connection available for transport")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _check_dict(name, status, path="symbolic", **extra) -> dict:
    out = {"name": name, "status": status, "path": path}
    out.update({k: v for k, v in extra.items() if v is not None})
    return out


def _metric_checks(ws: Workspace) -> List[dict]:
    checks = metric_checks(ws.metric_tensor(), ws.policy)
    return [checks.symmetric.as_dict(), checks.nondegenerate.as_dict()]


def cmd_validate(ws: Workspace) -> List[dict]:
    checks = []
    spec = ws.spec

    def attempt(fn, on_pass):
        try:
            obj = fn()
        except BuildFailure as exc:
            checks.append(exc.as_check())
            return None
        checks.extend(on_pass(obj))
        return obj

    algebra = None
    if spec.lie_algebra_table is not None:
        algebra = attempt(
            ws.lie_algebra,
            lambda alg: [_check_dict("lie_algebra_axioms", "pass", "symbolic")],
        )

    def axioms(g):
        return [c.as_dict() for c in validate_algebroid(g, ws.policy).children]

    # action fields come with a lie_algebra; a rejected one has been reported
    for present, builder, on_pass in (
        (algebra is not None, lambda: ws.action_algebroid(algebra), axioms),
        (
            spec.algebroid_tables is not None,
            ws.direct_algebroid_axioms,
            lambda built: [c.as_dict() for c in built[1].children],
        ),
        (spec.poisson is not None, ws.poisson_algebroid, axioms),
        (spec.foliation_frame is not None, ws.foliation_algebroid, axioms),
    ):
        if present:
            attempt(builder, on_pass)
    if spec.metric is not None:
        checks.extend(_metric_checks(ws))
    if spec.parallelism_tables is not None:
        attempt(
            ws.parallelism,
            lambda P: [_check_dict("coframe_invertible", "pass", "probabilistic")],
        )
    return checks


def cmd_check(ws: Workspace, pipeline: str) -> List[dict]:
    if pipeline == "geometry":
        kind = ws.kind()
        pipeline = {
            "metric": "riemann",
            "poisson": "poisson",
            "parallelism": "parallelism",
        }.get(kind, "theorem-a")
    if pipeline == "riemann":
        if ws.spec.metric is None:
            raise SpecError("file declares no metric table", "/metric")
        return [ws.riemann_report().verdict.as_dict()]
    if pipeline == "poisson":
        if ws.spec.poisson is None:
            raise SpecError("file declares no poisson table", "/poisson")
        base = ws.named_connection("tm", ws.spec.chart.dim) or TMConnection.flat(
            ws.spec.chart, ws.spec.chart.dim, target="tm"
        )
        with _building("poisson_algebroid", "/poisson"):
            report = poisson_report(ws.poisson_tensor(), base, ws.policy)
        return [report.verdict.as_dict()]
    if pipeline == "parallelism":
        if ws.spec.parallelism_tables is None:
            raise SpecError("file declares no parallelism table", "/parallelism")
        return [parallelism_report(ws.parallelism(), ws.policy).verdict.as_dict()]
    g, conn = ws.pair()
    if pipeline == "cartan":
        return [check_cartan(g, conn, ws.policy).as_dict()]
    if pipeline == "theorem-a":
        return [theorem_a_verdict(g, conn, ws.policy).as_dict()]
    if pipeline == "transitive":
        try:
            return [transitive_symmetry_check(g, conn, ws.policy).as_dict()]
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    raise SpecError(f"unknown pipeline {pipeline!r}")


def cmd_identities(ws: Workspace) -> List[dict]:
    g, conn = ws.pair()
    return [identity_battery(g, conn, ws.policy).as_dict()]


def cmd_holonomy(ws: Workspace, point, plane, side, steps) -> List[dict]:
    conn = ws.tm_connection()
    try:
        res = holonomy_check(conn, point, tuple(plane), side, steps=steps)
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    bound = max(ws.policy.tol, abs(side) ** 3)
    ok = res.defect_norm <= bound
    d = _check_dict(
        "holonomy_consistency",
        "pass" if ok else "fail",
        "probabilistic",
        detail=f"plane ({plane[0]},{plane[1]}), side {side}, {steps} steps",
    )
    d["value"] = res.defect_norm
    d["third_order_bound"] = bound
    d["log_holonomy"] = res.log_holonomy.tolist()
    d["curvature_term"] = res.curvature_term.tolist()
    if not ok:
        d["witness"] = [float(x) for x in point]
    return [d]


# ---------------------------------------------------------------------------
# Report assembly / entry point
# ---------------------------------------------------------------------------


def _overall(checks: List[dict]) -> str:
    # only top-level verdicts decide; children explain them
    passing = {"pass", "locally_symmetric"}
    top = [d["status"] for d in checks]
    if all(s in passing for s in top):
        return "pass"
    if any(s == "undecidable" for s in top):
        if any(s not in passing and s != "undecidable" for s in top):
            return "fail"
        return "undecidable"
    return "fail"


def _emit(report: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(report, indent=2, sort_keys=True)
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


# Each command's arguments, as argparse's add_argument(name, **kwargs):
# _parser() builds argparse from this table and _plain_args() reads a
# plain command line with it, so each option is declared once.
_COMMON = {
    "file": {"help": "GeometrySpec JSON document"},
    "--seed": {"type": int, "default": None, "help": "sampling seed (default: file seed or 0)"},
    "--samples": {"type": int, "default": 32},
    "--tol": {"type": float, "default": 1e-9},
    "--json": {"action": "store_true", "help": "compact JSON output (default)"},
    "--pretty": {"action": "store_true", "help": "indented JSON output"},
    "--timings": {"action": "store_true", "help": "include elapsed_ms fields"},
}
_COMMANDS = {
    "validate": _COMMON,
    "check": {**_COMMON, "--pipeline": {"choices": PIPELINES, "default": "geometry"}},
    "holonomy": {
        **_COMMON,
        "--point": {"type": float, "nargs": "+", "required": True},
        "--plane": {"type": int, "nargs": 2, "required": True},
        "--side": {"type": float, "required": True},
        "--steps": {"type": int, "default": 64},
    },
    "identities": _COMMON,
}


def _parser():
    """The argparse parser of :data:`_COMMANDS`: it parses what
    :func:`_plain_args` declines, prints help and words usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cartankit",
        description="verify geometric structures declared in GeometrySpec files",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, arguments in _COMMANDS.items():
        p = sub.add_parser(command)
        for name, kwargs in arguments.items():
            p.add_argument(name, **kwargs)
    return parser


def _is_value(token: str) -> bool:
    # argparse reads a token as an option when it starts with "-", unless
    # it is a negative number (a subset of argparse's test, which also
    # takes non-ASCII digits and a trailing newline)
    if not token.startswith("-"):
        return True
    return re.fullmatch(r"-[0-9]+|-[0-9]*\.[0-9]+", token) is not None


def _plain_args(argv) -> Optional[SimpleNamespace]:
    """The attributes argparse gives ``argv``, read without argparse, or
    None when ``argv`` is not a plain command line.

    Plain means: the command first, each option by its exact full name
    with its values as separate tokens (values do not start with "-",
    unless they are negative numbers), exactly the positionals declared,
    every required option present, and every value converted and within
    its choices.  Anything else (an abbreviation, ``--opt=value``,
    ``--``, ``-h``, a bad value, a missing or extra token) returns None,
    and argparse parses or rejects it."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0]}
    for name, kwargs in arguments.items():
        if name.startswith("-"):
            store = kwargs.get("action") == "store_true"
            values[name[2:]] = kwargs.get("default", False if store else None)
    seen = set()
    loose = []
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if _is_value(token):
            loose.append(token)
            continue
        kwargs = arguments.get(token)
        if kwargs is None:
            return None
        seen.add(token)
        if kwargs.get("action") == "store_true":
            values[token[2:]] = True
            continue
        end = i  # the run of values after the option
        while end < len(argv) and _is_value(argv[end]):
            end += 1
        nargs = kwargs.get("nargs")
        count = end - i if nargs == "+" else nargs or 1
        if not 0 < count <= end - i:
            return None
        convert = kwargs.get("type", str)  # as argparse converts
        try:
            converted = [convert(word) for word in argv[i : i + count]]
        except ValueError:
            return None
        choices = kwargs.get("choices")
        if choices is not None and any(v not in choices for v in converted):
            return None
        values[token[2:]] = converted if nargs else converted[0]
        i += count
    positionals = [name for name in arguments if not name.startswith("-")]
    required = {name for name, kwargs in arguments.items() if kwargs.get("required")}
    if len(loose) != len(positionals) or not required <= seen:
        return None
    values.update(zip(positionals, loose))  # untyped, as the table declares them
    return SimpleNamespace(**values)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        ZeroPolicy(samples=args.samples, tol=args.tol)
    except ValueError as exc:
        _parser().error(f"--samples/--tol: {exc}")
    # as the schema requires of a file's seed: the sample draw takes no
    # negative seed
    if args.seed is not None and args.seed < 0:
        _parser().error(f"--seed: must be >= 0, got {args.seed}")

    report = {
        "tool": f"cartankit {__version__}",
        "command": args.command,
        "input": args.file,
    }
    started = time.perf_counter()
    try:
        spec = load_spec(args.file)
        seed = args.seed if args.seed is not None else spec.seed
        policy = ZeroPolicy(samples=args.samples, tol=args.tol, seed=seed)
        ws = Workspace(spec, policy)
        report.update(seed=seed, samples=args.samples, tol=args.tol)
        if spec.name:
            report["name"] = spec.name
        try:
            if args.command == "validate":
                checks = cmd_validate(ws)
            elif args.command == "check":
                report["pipeline"] = args.pipeline
                checks = cmd_check(ws, args.pipeline)
            elif args.command == "identities":
                checks = cmd_identities(ws)
            else:
                checks = cmd_holonomy(ws, args.point, args.plane, args.side, args.steps)
        except BuildFailure as exc:
            # a build rejected mathematically while a pipeline needed it:
            # that is a verdict, not an input error
            checks = [exc.as_check()]
        report["checks"] = checks
        report["status"] = _overall(checks)
    except SpecError as exc:
        report["status"] = "error"
        err = {"message": exc.message}
        if exc.path:
            err["path"] = exc.path
        report["errors"] = [err]
        print(_emit(report, args.pretty))
        return 2
    if args.timings:
        report["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    print(_emit(report, args.pretty))
    return 0 if report["status"] == "pass" else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
