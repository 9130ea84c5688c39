"""End-to-end tests for the command line front end.

Commands run in-process through cli.run() so that a whole corpus sweep
stays cheap; stdout is captured and parsed back as JSON.
"""

import copy
import importlib
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cartankit import cli
from cartankit.cli import GeometrySpec, _load_schema, load_spec, run, schema_errors
from cartankit.symcore import Chart

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.json"))


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_doc(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def minimal_poisson(extra=None):
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "poisson": [["0", "1"], ["-1", "0"]],
    }
    if extra:
        doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# schema and parsing
# ---------------------------------------------------------------------------


def test_corpus_passes_schema():
    assert len(CORPUS_FILES) == 9
    for name in CORPUS_FILES:
        doc = json.loads((CORPUS / name).read_text())
        assert schema_errors(doc) == [], name


def _spec_docs():
    # the corpus and the specs behind the golden reports; test_golden
    # imports this module, so it is imported here, not at the top
    from test_golden import METRIC_SPECS

    docs = [json.loads((CORPUS / name).read_text()) for name in CORPUS_FILES]
    return docs + [doc for specs in METRIC_SPECS.values() for doc in specs.values()]


def test_fast_schema_check_accepts_every_corpus_and_golden_spec():
    for doc in _spec_docs():
        assert schema_errors(doc) == [], doc.get("name")


def _containers(doc):
    """Every object and array in ``doc``, root first."""
    if isinstance(doc, (dict, list)):
        yield doc
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _containers(value)


def _json_values():
    scalars = st.one_of(
        st.booleans(), st.none(), st.integers(-3, 3), st.sampled_from([0.5, 2.0, -1.0]),
        st.sampled_from(["", "x", "1/2", "x +* y"]),
    )
    return st.one_of(
        scalars,
        st.lists(scalars, max_size=2),
        st.dictionaries(st.sampled_from(["a", "rank"]), scalars, max_size=1),
    )


@st.composite
def _mutated_spec(draw):
    """A corpus or golden spec with one to three mutations: a dropped
    key, an unknown key, a value of the wrong JSON type, an emptied
    array, a bad coordinate name or a negative seed."""
    doc = copy.deepcopy(draw(st.sampled_from(_spec_docs())))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "unknown", "retype", "empty", "coord", "seed"]))
        containers = list(_containers(doc))
        objects = [c for c in containers if isinstance(c, dict)]
        arrays = [c for c in containers if isinstance(c, list)]
        if kind == "drop" and any(objects):
            node = draw(st.sampled_from([o for o in objects if o]))
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "unknown" and objects:
            node = draw(st.sampled_from(objects))
            node[draw(st.sampled_from(["zz", "seed", "rank", "guards"]))] = draw(_json_values())
        elif kind == "retype" and any(containers):
            node = draw(st.sampled_from([c for c in containers if c]))
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            node[draw(st.sampled_from(keys))] = draw(_json_values())
        elif kind == "empty" and arrays:
            draw(st.sampled_from(arrays)).clear()
        elif kind == "coord":
            chart = doc.get("chart")
            coords = chart.get("coords") if isinstance(chart, dict) else None
            if isinstance(coords, list) and coords:
                bad = draw(st.sampled_from(["1x", "", "x-y", "x y", "x\n", "\u00e9", "_ok"]))
                coords[draw(st.integers(0, len(coords) - 1))] = bad
        elif kind == "seed":
            doc["seed"] = draw(st.one_of(st.integers(max_value=-1), st.sampled_from([True, -0.5, 1.0])))
    return doc


def _sphere(drop=(), **changes):
    """The sphere corpus spec with the keys ``drop`` removed and
    ``changes`` set."""
    doc = json.loads((CORPUS / "sphere.json").read_text())
    for key in drop:
        del doc[key]
    doc.update(changes)
    return doc


_SPHERE_BOX = [["1/2", "5/2"], [0, 3]]

# one rejected document per wording the spec schema can give, with the
# (pointer, message) pairs jsonschema 4.26 reports for it
SCHEMA_REJECTIONS = {
    "emptied_array": (_sphere(metric=[]), [("/metric", "[] should be non-empty")]),
    "one_number_interval": (
        _sphere(chart={"coords": ["theta", "phi"], "box": [[0], [0, 3]]}),
        [("/chart/box/0", "[0] is too short")],
    ),
    "one_unknown_key": (
        _sphere(zz=1),
        [("", "Additional properties are not allowed ('zz' was unexpected)")],
    ),
    "two_unknown_keys": (
        _sphere(zz=1, aa=[0]),
        [("", "Additional properties are not allowed ('aa', 'zz' were unexpected)")],
    ),
    "true_scalar": (
        _sphere(metric=[[True, "0"], ["0", "1"]]),
        [("/metric/0/0", "True is not valid under any of the given schemas")],
    ),
    "spec_version_2": (_sphere(spec_version=2), [("/spec_version", "1 was expected")]),
    "connection_target": (
        _sphere(connections={"c": {"target": "x", "gamma": [[["0", "0"]]]}}),
        [("/connections/c/target", "'x' is not one of ['tm', 'algebroid']")],
    ),
    "coordinate_1y": (
        _sphere(chart={"coords": ["1y", "phi"], "box": _SPHERE_BOX}),
        [("/chart/coords/0", "'1y' does not match '^[A-Za-z_][A-Za-z0-9_]*$'")],
    ),
    "rank_0": (
        _sphere(algebroid={"rank": 0, "anchor": [["1"]], "structure": [[["0"]]]}),
        [("/algebroid/rank", "0 is less than the minimum of 1")],
    ),
    "missing_chart": (_sphere(drop=["chart"]), [("", "'chart' is a required property")]),
    "string_for_object": (_sphere(chart="S2"), [("/chart", "'S2' is not of type 'object'")]),
}


@pytest.mark.parametrize("doc, expected", SCHEMA_REJECTIONS.values(), ids=SCHEMA_REJECTIONS)
def test_schema_rejections_are_worded_as_jsonschema_words_them(doc, expected):
    assert schema_errors(doc) == expected


def _examples(test):
    for doc, _ in SCHEMA_REJECTIONS.values():
        test = example(doc)(test)
    return test


def _jsonschemas_errors(value, schema):
    """jsonschema's sorted (pointer, message) pairs: the wording oracle."""
    jsonschema = pytest.importorskip(
        "jsonschema", reason="jsonschema 4.26 is the oracle of the schema walk's wording"
    )
    return sorted(
        (cli._pointer(e.absolute_path), e.message)
        for e in jsonschema.Draft7Validator(schema).iter_errors(value)
    )


@_examples
@settings(max_examples=300, deadline=None)
@given(_mutated_spec())
def test_fast_schema_check_decides_as_jsonschema(doc):
    # the one schema walk words every rejection as jsonschema does: the
    # same sorted (pointer, message) pairs, and none for a valid spec
    assert schema_errors(doc) == _jsonschemas_errors(doc, _load_schema())


# schemas off the spec schema, for the wordings it cannot reach
_OFF_SCHEMA_CASES = {
    "valid_under_two_branches": ({"oneOf": [{"type": "number"}, {"type": "integer"}, {"minimum": 9}]}, 1),
    "valid_under_no_branch": ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, 0.5),
    "too_short_and_not_empty": ({"minItems": 2, "maxItems": 0}, [1]),
    "too_long": ({"maxItems": 1}, [1, 2]),
    "string_too_short": ({"minLength": 2}, "x"),
    "empty_string": ({"minLength": 1}, ""),
    "type_list": ({"type": ["string", "null"]}, 1),
    "additional_schema": (
        {"properties": {"a": {"type": "integer"}}, "additionalProperties": {"type": "string"}},
        {"a": 2.0, "b": 1, "c": "ok"},
    ),
    "enum_true_is_not_1": ({"enum": [1, "a"]}, True),
}


@pytest.mark.parametrize("schema, value", _OFF_SCHEMA_CASES.values(), ids=_OFF_SCHEMA_CASES)
def test_schema_walk_words_other_schemas_as_jsonschema(schema, value):
    walked = sorted((cli._pointer(path), words()) for path, words in cli._errors(value, schema, schema, ()))
    assert walked == _jsonschemas_errors(value, schema)


def _schema_keywords(schema):
    """Every keyword the spec schema uses, below every subschema."""
    if isinstance(schema, dict):
        yield from schema
        for key, sub in schema.items():
            if key in ("properties", "definitions"):
                for each in sub.values():
                    yield from _schema_keywords(each)
            elif key in ("items", "additionalProperties"):
                yield from _schema_keywords(sub)
            elif key == "oneOf":
                for each in sub:
                    yield from _schema_keywords(each)


def test_schema_walk_interprets_every_keyword_of_the_spec_schema():
    # $ref is followed by the walk itself, not looked up in the table
    used = set(_schema_keywords(_load_schema())) - cli._ANNOTATIONS
    assert used == set(cli._KEYWORDS) | {"$ref"}


def test_corpus_round_trips_exactly():
    for name in CORPUS_FILES:
        s1 = load_spec(CORPUS / name)
        s2 = GeometrySpec(s1.serialize())
        assert s1 == s2, name
        assert s1.serialize() == s2.serialize(), name


def test_schema_error_carries_pointer_path(capsys, tmp_path):
    doc = {"spec_version": 1, "chart": {"coords": ["x"], "box": [[0]]}}
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert rep["status"] == "error"
    assert rep["errors"][0]["path"] == "/chart/box/0"


def test_unknown_top_level_field_rejected(capsys, tmp_path):
    doc = minimal_poisson({"metric_tensor": [["1"]]})
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2


def test_bad_expression_reports_its_location(capsys, tmp_path):
    doc = minimal_poisson()
    doc["poisson"][0][1] = "x +* y"
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert rep["errors"][0]["path"].startswith("/poisson")


def test_action_fields_require_algebra(capsys, tmp_path):
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x"], "box": [[-1, 1]]},
        "action_fields": [["1"]],
    }
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert "lie_algebra" in rep["errors"][0]["message"]


@pytest.mark.parametrize(
    "name,table,side",
    [("so3_action.json", "lie_algebra", 3), ("affine_group_parallelism.json", "parallelism", 2)],
)
def test_ragged_structure_constants_are_an_input_error(capsys, tmp_path, name, table, side):
    doc = json.loads((CORPUS / name).read_text())
    doc[table]["structure"][1][0].pop()
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert rep["errors"] == [
        {"message": f"expected a cube of side {side}", "path": f"/{table}/structure"}
    ]


@pytest.mark.parametrize("command", ["validate", "check", "identities"])
def test_structural_build_rejection_is_an_input_error(capsys, tmp_path, command):
    # a plain ValueError while building is a shape, a size or a count,
    # not a sampled verdict: exit 2 at the spec field, not a fail
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "foliation_frame": [["1", "0"], ["0", "1"], ["1", "1"]],
    }
    code, rep = invoke(capsys, command, write_doc(tmp_path, doc))
    assert code == 2 and rep["status"] == "error" and "checks" not in rep
    assert rep["errors"] == [
        {"message": "more frame fields than chart dimensions", "path": "/foliation_frame"}
    ]


def test_ragged_foliation_frame_is_a_shape_error(capsys, tmp_path):
    # the frame's shape is checked before its entries are parsed, as a
    # ragged metric is, so a short field is not reported as a bad expression
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "foliation_frame": [["1", "0"], ["0"]],
    }
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert rep["errors"] == [
        {"message": "each frame field needs 2 components", "path": "/foliation_frame"}
    ]


def test_degenerate_foliation_frame_fails_with_its_witness(capsys, tmp_path):
    # the frame's rank is found on samples: a sampled rejection, with the
    # point and the determinant there
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "foliation_frame": [["1", "0"], ["x", "0"]],
    }
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    (check,) = rep["checks"]
    assert (check["name"], check["status"], check["path"]) == (
        "foliation", "fail", "probabilistic"
    )
    assert check["detail"].startswith("frame degenerate at point ")
    assert len(check["witness"]) == 2 and abs(check["value"]) <= 1e-9


def test_h_frame_requires_metric(capsys, tmp_path):
    doc = minimal_poisson({"h_frame": [[["0", "1"], ["-1", "0"]]]})
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2


def test_empty_file_is_an_input_error(capsys, tmp_path):
    doc = {"spec_version": 1, "chart": {"coords": ["x"], "box": [[-1, 1]]}}
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert "no geometric object" in rep["errors"][0]["message"]


def test_unreadable_file(capsys):
    code, rep = invoke(capsys, "validate", "/nonexistent/thing.json")
    assert code == 2 and rep["status"] == "error"


def test_guard_strings_survive_round_trip():
    s = load_spec(CORPUS / "sphere.json")
    assert s.chart.guards
    doc = s.serialize()
    assert doc["chart"]["guards"] == ["sin(theta)"]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_whole_corpus(capsys):
    for name in CORPUS_FILES:
        code, rep = invoke(capsys, "validate", str(CORPUS / name))
        assert code == 0, name
        assert rep["status"] == "pass"
        assert rep["checks"], name


def test_validate_reports_axiom_names(capsys):
    code, rep = invoke(capsys, "validate", str(CORPUS / "so3_action.json"))
    names = [c["name"] for c in rep["checks"]]
    assert "lie_algebra_axioms" in names
    assert "jacobi" in names and "leibniz" in names


def broken_jacobi_algebroid():
    """Algebroid tables with a zero anchor whose constant structure fails
    Jacobi (the jacobiator's component 0 is -1)."""
    structure = [
        [[0, 0, 0], [0, 0, 1], [0, 0, -1]],
        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 1], [-1, 0, 0], [0, 0, 0]],
    ]
    return {
        "spec_version": 1,
        "chart": {"coords": ["x", "y", "z"], "box": [[-1, 1], [-1, 1], [-1, 1]]},
        "algebroid": {
            "rank": 3,
            "anchor": [["0"] * 3, ["0"] * 3, ["0"] * 3],
            "structure": structure,
        },
    }


def undefined_anchor_algebroid():
    """Algebroid tables whose anchor sqrt(x - 5) is undefined on the whole
    box, so no zero test of the anchor homomorphism can be decided."""
    zero = [["0", "0"], ["0", "0"]]
    return {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "algebroid": {
            "rank": 2,
            "anchor": [["sqrt(x-5)", "x"], ["0", "1"]],
            "structure": [zero, zero],
        },
    }


def test_validate_flags_broken_jacobi(capsys, tmp_path):
    doc = broken_jacobi_algebroid()
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert rep["status"] == "fail"
    failing = [c for c in rep["checks"] if c["status"] == "fail"]
    assert failing and failing[0]["name"] == "jacobi"


def test_validate_degenerate_metric_fails_not_errors(capsys, tmp_path):
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "metric": [["1", "0"], ["0", "0"]],
    }
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["metric_nondegenerate"] == "fail"


def test_validate_undefined_determinant_is_undecidable_not_a_crash(capsys, tmp_path):
    # The determinant 1/x is undefined at the box midpoint x = 0.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "metric": [["1/x", "0"], ["0", "1"]],
    }
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert rep["status"] == "undecidable"
    names = {c["name"]: c["status"] for c in rep["checks"]}
    assert names["metric_nondegenerate"] == "undecidable"


def test_check_and_identities_on_undefined_determinant_are_undecidable(capsys, tmp_path):
    # As for validate above: the determinant 1/x is undefined at x = 0.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "metric": [["1/x", "0"], ["0", "1"]],
    }
    path = write_doc(tmp_path, doc)
    for command in ("check", "identities"):
        code, rep = invoke(capsys, command, path)
        assert code == 1, command
        assert rep["status"] == "undecidable", command
        [check] = rep["checks"]
        assert (check["name"], check["status"], check["path"]) == (
            "metric",
            "undecidable",
            "undecidable",
        ), command
        assert "division by zero in 1/x" in check["detail"], command


def test_validate_fails_metric_whose_determinant_changes_sign(capsys, tmp_path):
    # det = x is positive at the midpoint x = 1/2 and negative for x < 0.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 2], [-1, 1]]},
        "metric": [["x", "0"], ["0", "1"]],
    }
    path = write_doc(tmp_path, doc)
    code, rep = invoke(capsys, "validate", path)
    assert code == 1
    check = {c["name"]: c for c in rep["checks"]}["metric_nondegenerate"]
    assert check["status"] == "fail"
    assert check["witness"][0] < 0
    code, rep = invoke(capsys, "check", path)
    assert code == 1
    assert "signature" in rep["checks"][0]["detail"]
    # the failed build carries the same witness as validate's scan
    assert rep["checks"][0]["witness"] == check["witness"]
    assert rep["checks"][0]["value"] == pytest.approx(check["witness"][0])


def test_coframe_whose_determinant_changes_sign_is_rejected(capsys, tmp_path):
    # det omega = a vanishes at a = 0, inside the box.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["a", "b"], "box": [[-1, 2], [-1, 1]]},
        "parallelism": {
            "omega": [["a", "0"], ["0", "1"]],
            "structure": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        },
    }
    path = write_doc(tmp_path, doc)
    witnesses = []
    for command in ("validate", "check"):
        code, rep = invoke(capsys, command, path)
        assert code == 1, command
        assert rep["status"] == "fail", command
        assert [c["name"] for c in rep["checks"]] == ["parallelism"], command
        assert "singular" in rep["checks"][0]["detail"], command
        witnesses.append(rep["checks"][0]["witness"])
    assert witnesses[0] == witnesses[1]
    assert witnesses[0][0] <= 0


def test_coframe_with_an_undecidable_flatness_battery_is_undecidable(capsys, tmp_path):
    # sqrt(x-2) is undefined on the whole box, so no zero test on the
    # covariant derivative of the coframe's curvature can be decided (the
    # induced connection's flatness holds by construction and is not
    # tested); the determinant (1+y)(1+x) has no such factor, so validate
    # passes.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[0, 1], [0, 1]]},
        "parallelism": {
            "omega": [["1+y", "sqrt(x-2)*y"], ["0", "1+x"]],
            "structure": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        },
    }
    path = write_doc(tmp_path, doc)
    code, rep = invoke(capsys, "validate", path)
    assert (code, rep["status"]) == (0, "pass")
    for command in ("check", "identities"):
        code, rep = invoke(capsys, command, path)
        assert (code, rep["status"]) == (1, "undecidable"), command
    code, rep = invoke(capsys, "check", path)
    [check] = rep["checks"]
    assert (check["name"], check["status"], check["path"]) == (
        "parallelism",
        "undecidable",
        "undecidable",
    )
    assert check["detail"] == "theorem_c"
    children = {c["name"]: c["status"] for c in check["children"]}
    assert children["theorem_c"] == "undecidable"


# test_cartan.sheared_parallelism as a spec: model c^1_01 = 1 on [0,1]^2
SHEARED_COFRAME = {
    "spec_version": 1,
    "chart": {"coords": ["x", "y"], "box": [[0, 1], [0, 1]]},
    "parallelism": {
        "omega": [["1", "x"], ["y", "1+x"]],
        "structure": [[[0, 0], [0, 1]], [[0, -1], [0, 0]]],
    },
}


@pytest.mark.parametrize("spec", ["sphere", "sheared_coframe"])
def test_check_at_zero_tolerance_prints_a_report(capsys, tmp_path, spec):
    # with --tol 0 a rounding residue fails a sampled zero test; the
    # verdict reports that as a failure, and no identity that holds by
    # construction is asserted on the way
    path = (
        str(CORPUS / "sphere.json")
        if spec == "sphere"
        else write_doc(tmp_path, SHEARED_COFRAME)
    )
    code, rep = invoke(capsys, "check", path, "--tol", "0")
    assert code in (0, 1)
    assert rep["tol"] == 0.0 and rep["checks"]


def test_action_field_with_a_pole_inside_the_box_is_rejected(capsys, tmp_path):
    # 1/x is undefined on x = 0, where no sample of the bracket test lands;
    # the scan of the field's divisors finds it at the box midpoint.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "lie_algebra": {"structure": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
        "action_fields": [["1/x", "0"], ["0", "1"]],
    }
    path = write_doc(tmp_path, doc)
    for argv in (["validate"], ["check"], ["check", "--pipeline", "transitive"]):
        code, rep = invoke(capsys, *argv, path)
        assert code == 1, argv
        assert rep["status"] == "fail", argv
        check = rep["checks"][-1]
        assert (check["name"], check["status"]) == ("action_algebroid", "fail"), argv
        assert "pole" in check["detail"], argv
        assert check["witness"] == [0.0, 0.0], argv
        assert check["value"] == 0.0, argv


def _rejected_build(capsys, path, name):
    """The one check of a build rejected under validate and check, which
    must agree."""
    found = []
    for command in ("validate", "check"):
        code, rep = invoke(capsys, command, path)
        assert code == 1, command
        assert rep["status"] == "fail", command
        check = rep["checks"][-1]
        assert (check["name"], check["status"]) == (name, "fail"), command
        found.append(check)
    assert found[0] == found[1]
    return found[0]


def test_validate_builds_the_declared_lie_algebra_once(capsys, monkeypatch):
    # the action algebroid acts through the algebra the lie_algebra item built
    built = []

    class Counting(cli.LieAlgebra):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(cli, "LieAlgebra", Counting)
    code, rep = invoke(capsys, "validate", str(CORPUS / "so3_action.json"))
    assert code == 0 and rep["status"] == "pass"
    assert built == [3]


def test_failing_lie_algebra_is_one_exact_rejection(capsys, tmp_path):
    # c^0_01 = 1 on top of so(3); the action item is not attempted
    doc = json.loads((CORPUS / "so3_action.json").read_text())
    doc["lie_algebra"]["structure"][0][1][0] = 1
    doc["lie_algebra"]["structure"][1][0][0] = -1
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert rep["checks"] == [
        {
            "name": "lie_algebra",
            "status": "fail",
            "path": "symbolic",
            "detail": "Jacobi identity fails at (0,1,2,1)",
        }
    ]


def test_action_whose_fields_do_not_close_is_rejected_with_a_witness(capsys, tmp_path):
    # [x d/dx, x d/dy] = x d/dy, but the algebra is abelian.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 2], [-1, 2]]},
        "lie_algebra": {"structure": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
        "action_fields": [["x", "0"], ["0", "x"]],
    }
    check = _rejected_build(capsys, write_doc(tmp_path, doc), "action_algebroid")
    assert check["path"] == "probabilistic"
    x, y = check["witness"]
    assert -1 <= x <= 2 and -1 <= y <= 2
    # the defect is x itself, and the detail prints plain floats
    assert check["value"] == x
    assert "np.float64" not in check["detail"]
    assert "component 1" in check["detail"]


def test_frame_whose_bracket_leaves_the_span_is_rejected_with_a_witness(capsys, tmp_path):
    # [d/dx, d/dy + x d/dz] = d/dz: the residual is the constant 1, which
    # the exact tier decides, with the midpoint as witness.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y", "z"], "box": [[-1, 1], [-1, 1], [-1, 1]]},
        "foliation_frame": [["1", "0", "0"], ["0", "1", "x"]],
    }
    check = _rejected_build(capsys, write_doc(tmp_path, doc), "foliation")
    assert (check["path"], check["witness"], check["value"]) == ("symbolic", [0.0, 0.0, 0.0], 1.0)
    assert "component 2" in check["detail"]


def test_undecidable_axiom_is_reported_undecidable(capsys, tmp_path):
    # An undecidable axiom is no failure, and no witness exists.
    doc = undefined_anchor_algebroid()
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 1
    assert rep["status"] == "undecidable"
    check = {c["name"]: c for c in rep["checks"]}["anchor_hom"]
    assert (check["status"], check["path"]) == ("undecidable", "undecidable")
    assert "witness" not in check
    assert all(c["status"] != "fail" for c in rep["checks"])


def test_direct_algebroid_failing_an_axiom_gets_no_verdict(capsys, tmp_path):
    # check and identities validate the declared tables before any verdict:
    # a failing axiom rejects the build, with the jacobiator's witness.
    path = write_doc(tmp_path, broken_jacobi_algebroid())
    for command in ("check", "identities"):
        code, rep = invoke(capsys, command, path)
        assert (code, rep["status"]) == (1, "fail"), command
        [check] = rep["checks"]
        assert (check["name"], check["status"], check["path"]) == (
            "algebroid",
            "fail",
            "symbolic",
        ), command
        assert (check["witness"], check["value"]) == ([0.0, 0.0, 0.0], -1.0), command
        assert check["detail"] == "axiom jacobi fails: jacobi (0,1,2) component 0", command


def test_direct_algebroid_with_an_undecidable_axiom_is_undecidable(capsys, tmp_path):
    path = write_doc(tmp_path, undefined_anchor_algebroid())
    for command in ("check", "identities"):
        code, rep = invoke(capsys, command, path)
        assert (code, rep["status"]) == (1, "undecidable"), command
        [check] = rep["checks"]
        assert (check["name"], check["status"], check["path"]) == (
            "algebroid",
            "undecidable",
            "undecidable",
        ), command
        assert "witness" not in check, command
        assert check["detail"].startswith("axiom anchor_hom is undecidable"), command


def test_metric_symmetry_reports_its_path_and_first_failing_pair(capsys, tmp_path):
    def metric_symmetric(metric):
        doc = {
            "spec_version": 1,
            "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
            "metric": metric,
        }
        code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
        return {c["name"]: c for c in rep["checks"]}["metric_symmetric"]

    check = metric_symmetric([["1", "x*y"], ["y*x", "1"]])
    assert (check["status"], check["path"]) == ("pass", "symbolic")
    check = metric_symmetric([["2", "x"], ["0", "2"]])
    assert (check["status"], check["path"]) == ("fail", "probabilistic")
    assert check["detail"] == "(0,1) vs (1,0)"
    assert check["value"] == check["witness"][0]
    # sqrt(x - 5) is undefined on the whole box
    check = metric_symmetric([["1", "sqrt(x-5)"], ["0", "1"]])
    assert (check["status"], check["path"]) == ("undecidable", "undecidable")
    assert "witness" not in check


def test_non_symmetric_metric_is_rejected_with_validates_witness(capsys, tmp_path):
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "metric": [["2", "x"], ["0", "2"]],
    }
    path = write_doc(tmp_path, doc)
    code, rep = invoke(capsys, "validate", path)
    assert code == 1
    symmetric = {c["name"]: c for c in rep["checks"]}["metric_symmetric"]
    code, rep = invoke(capsys, "check", path)
    assert code == 1
    [check] = rep["checks"]
    assert (check["name"], check["status"]) == ("metric", "fail")
    assert check["witness"] == symmetric["witness"]
    assert check["value"] == symmetric["value"]
    assert check["path"] == symmetric["path"]
    assert "not symmetric" in check["detail"]
    assert "np.float64" not in check["detail"]


def test_non_antisymmetric_poisson_tensor_is_rejected_with_a_witness(capsys, tmp_path):
    # Pi^01 + Pi^10 = x + y
    doc = minimal_poisson({"poisson": [["0", "x"], ["y", "0"]]})
    check = _rejected_build(capsys, write_doc(tmp_path, doc), "poisson")
    x, y = check["witness"]
    assert -1 <= x <= 1 and -1 <= y <= 1
    assert check["value"] == pytest.approx(x + y)
    assert "antisymmetric" in check["detail"]
    assert "np.float64" not in check["detail"]


# ---------------------------------------------------------------------------
# check pipelines
# ---------------------------------------------------------------------------


def test_check_sphere_riemann_passes(capsys):
    code, rep = invoke(
        capsys, "check", str(CORPUS / "sphere.json"), "--pipeline", "riemann"
    )
    assert code == 0
    verdict = rep["checks"][0]
    assert verdict["status"] == "pass"
    assert any("homogeneous" in n for n in verdict["notes"])
    child_names = [c["name"] for c in verdict["children"]]
    assert child_names == ["h_invariance", "curvature_parallel"]


def test_check_ellipsoid_riemann_fails_with_witness(capsys):
    code, rep = invoke(
        capsys, "check", str(CORPUS / "ellipsoid.json"), "--pipeline", "riemann"
    )
    assert code == 1
    verdict = rep["checks"][0]
    assert verdict["status"] == "fail"
    bad = [c for c in verdict["children"] if c["name"] == "curvature_parallel"]
    assert bad[0]["status"] == "fail"
    assert len(bad[0]["witness"]) == 2


def _metric_3d(metric):
    """A metric on [-1,1]^2 x [1/2,2], with the guard z."""
    return {
        "spec_version": 1,
        "chart": {
            "coords": ["x", "y", "z"],
            "box": [[-1, 1], [-1, 1], ["1/2", 2]],
            "guards": ["z"],
        },
        "metric": metric,
    }


def test_check_hyperbolic_3_space_is_homogeneous(capsys, tmp_path):
    # Upper half-space H^3 has constant curvature -1.
    doc = _metric_3d([["1/z^2", "0", "0"], ["0", "1/z^2", "0"], ["0", "0", "1/z^2"]])
    code, rep = invoke(capsys, "check", write_doc(tmp_path, doc))
    assert code == 0
    [verdict] = rep["checks"]
    assert (verdict["name"], verdict["status"]) == ("riemann", "pass")
    assert [c["status"] for c in verdict["children"]] == ["pass"] * 2
    assert any("homogeneous" in n for n in verdict["notes"])


def test_check_3d_metric_with_varying_curvature_fails_h_invariance(capsys, tmp_path):
    # The (x, y) factor has curvature -1/(1 + x^2)^2, which varies with x.
    doc = _metric_3d([["1", "0", "0"], ["0", "1+x^2", "0"], ["0", "0", "z^2"]])
    code, rep = invoke(capsys, "check", write_doc(tmp_path, doc))
    assert code == 1
    [verdict] = rep["checks"]
    assert (verdict["name"], verdict["status"]) == ("riemann", "fail")
    children = {c["name"]: c for c in verdict["children"]}
    failed = children["h_invariance"]
    assert failed["status"] == "fail"
    x, y, z = failed["witness"]
    assert -1 <= x <= 1 and -1 <= y <= 1 and 0.5 <= z <= 2
    assert abs(failed["value"]) > 1e-3


def test_check_theorem_a_on_action(capsys):
    code, rep = invoke(
        capsys, "check", str(CORPUS / "so3_action.json"), "--pipeline", "theorem-a"
    )
    assert code == 0
    assert rep["checks"][0]["status"] == "locally_symmetric"


def test_check_transitive_rejects_intransitive_input(capsys):
    code, rep = invoke(
        capsys, "check", str(CORPUS / "so3_action.json"), "--pipeline", "transitive"
    )
    assert code == 2
    assert "not transitive" in rep["errors"][0]["message"]


def test_check_transitive_refuses_an_anchor_whose_rank_drops(capsys, tmp_path):
    # the anchor's determinant y vanishes on the line y = 0, through the
    # midpoint, which no sample finds
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "algebroid": {
            "rank": 2,
            "anchor": [["1", "0"], ["0", "y"]],
            "structure": [[["0", "0"], ["0", "0"]]] * 2,
        },
    }
    code, rep = invoke(
        capsys, "check", write_doc(tmp_path, doc), "--pipeline", "transitive"
    )
    assert code == 2
    message = rep["errors"][0]["message"]
    assert "not transitive" in message
    witness = re.search(r" at \(([^)]*)\)$", message).group(1)
    x, y = (float(v) for v in witness.split(", "))
    assert -1 <= x <= 1 and y == 0.0


def test_check_transitive_symplectic(capsys):
    code, rep = invoke(
        capsys, "check", str(CORPUS / "symplectic_r2.json"), "--pipeline", "transitive"
    )
    assert code == 0


def test_check_poisson_so3_dual(capsys):
    code, rep = invoke(
        capsys, "check", str(CORPUS / "so3_dual_poisson.json"), "--pipeline", "poisson"
    )
    assert code == 0
    child_names = [c["name"] for c in rep["checks"][0]["children"]]
    assert child_names == [
        "torsion_free",
        "lemma_sx",
        "flat",
        "nabla_pi_parallel",
        "p2_identity",
    ]


def test_check_foliation_cartan_fails_in_agreement(capsys):
    code, rep = invoke(
        capsys, "check", str(CORPUS / "foliation_r3.json"), "--pipeline", "cartan"
    )
    assert code == 1
    children = {c["name"]: c["status"] for c in rep["checks"][0]["children"]}
    assert children == {
        "bracket_compatibility": "fail",
        "jet_splitting": "fail",
    }


def test_check_geometry_dispatches_by_object(capsys):
    for name, expect in (
        ("sphere.json", "riemann"),
        ("so3_dual_poisson.json", "poisson"),
        ("affine_group_parallelism.json", "geometry"),
        ("so3_action.json", "theorem-a"),
    ):
        code, rep = invoke(capsys, "check", str(CORPUS / name))
        assert code == 0, name
        assert rep["pipeline"] == "geometry"


def test_check_affine_geometry_is_locally_symmetric(capsys):
    code, rep = invoke(capsys, "check", str(CORPUS / "affine_group_parallelism.json"))
    assert code == 0
    verdict = rep["checks"][0]
    assert verdict["status"] == "locally_symmetric"
    assert any("model algebra" in n for n in verdict.get("notes", []))


def test_check_non_jacobi_poisson_is_a_verdict_failure(capsys, tmp_path):
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y", "z"], "box": [[-1, 1], [-1, 1], [-1, 1]]},
        "poisson": [["0", "x", "0"], ["-x", "0", "y"], ["0", "-y", "0"]],
    }
    path = write_doc(tmp_path, doc)
    code, rep = invoke(capsys, "check", path, "--pipeline", "poisson")
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["checks"][0]["name"] == "poisson_algebroid"
    assert "Jacobi" in rep["checks"][0]["detail"]
    # The Jacobi defect is x, so the sampled tier decides, with a witness.
    check = _rejected_build(capsys, path, "poisson_algebroid")
    assert check["path"] == "probabilistic"
    assert all(-1 <= c <= 1 for c in check["witness"])
    assert check["value"] == check["witness"][0]


def test_check_riemann_needs_a_metric(capsys, tmp_path):
    code, rep = invoke(
        capsys,
        "check",
        write_doc(tmp_path, minimal_poisson()),
        "--pipeline",
        "riemann",
    )
    assert code == 2
    assert rep["errors"][0]["path"] == "/metric"


def test_ambiguous_connections_rejected(capsys, tmp_path):
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    doc = minimal_poisson(
        {
            "connections": {
                "one": {"target": "tm", "gamma": zero},
                "two": {"target": "tm", "gamma": zero},
            }
        }
    )
    code, rep = invoke(
        capsys, "check", write_doc(tmp_path, doc), "--pipeline", "poisson"
    )
    assert code == 2
    assert "ambiguous" in rep["errors"][0]["message"]


def test_named_tm_connection_feeds_cotangent_pair(capsys, tmp_path):
    zero = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    doc = minimal_poisson(
        {"connections": {"levi": {"target": "tm", "gamma": zero}}}
    )
    code, rep = invoke(
        capsys, "check", write_doc(tmp_path, doc), "--pipeline", "poisson"
    )
    assert code == 0


def test_connection_shape_must_fit_chart(capsys, tmp_path):
    doc = minimal_poisson(
        {"connections": {"bad": {"target": "tm", "gamma": [[["0"]]]}}}
    )
    code, rep = invoke(capsys, "validate", write_doc(tmp_path, doc))
    assert code == 2
    assert "/connections/bad/gamma" == rep["errors"][0]["path"]


# ---------------------------------------------------------------------------
# holonomy and identities
# ---------------------------------------------------------------------------


def test_holonomy_sphere(capsys):
    code, rep = invoke(
        capsys,
        "holonomy",
        str(CORPUS / "sphere.json"),
        "--point", "1.2", "0.5",
        "--plane", "0", "1",
        "--side", "0.01",
    )
    assert code == 0
    check = rep["checks"][0]
    assert check["name"] == "holonomy_consistency"
    assert check["value"] <= check["third_order_bound"]
    assert len(check["log_holonomy"]) == 2


def test_holonomy_bad_plane_is_input_error(capsys):
    code, rep = invoke(
        capsys,
        "holonomy",
        str(CORPUS / "sphere.json"),
        "--point", "1.2", "0.5",
        "--plane", "0", "7",
        "--side", "0.01",
    )
    assert code == 2


def test_holonomy_loop_leaving_the_box_names_the_corner(capsys):
    code, rep = invoke(
        capsys,
        "holonomy",
        str(CORPUS / "sphere.json"),
        "--point", "1.2", "0.5",
        "--plane", "0", "1",
        "--side", "5",
    )
    assert code == 2
    assert rep["errors"][0]["message"] == "loop exits the sampling box at (6.2, 0.5)"


def test_holonomy_through_undefined_connection_is_input_error(capsys, tmp_path):
    # validate passes this metric, but its Christoffel symbols divide by
    # (x - 3/10)^2, so the loop's first RK4 node is outside their domain.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "metric": [["1", "0"], ["0", "(x-3/10)^2"]],
    }
    path = write_doc(tmp_path, doc)
    code, rep = invoke(capsys, "validate", path)
    assert code == 0
    code, rep = invoke(
        capsys,
        "holonomy",
        path,
        "--point", "0.3", "0.0",
        "--plane", "0", "1",
        "--side", "0.02",
        "--steps", "16",
    )
    assert code == 2
    assert rep["status"] == "error"
    message = rep["errors"][0]["message"]
    assert message.startswith("connection undefined on the loop at (0.3, 0.0): ")
    assert "division by zero" in message


def test_holonomy_of_a_half_turn_is_input_error(capsys, tmp_path):
    # transport turns the frame by pi * y along x: the unit square's
    # holonomy is a half turn, whose eigenvalues -1 have no real logarithm
    pi = "3.14159265358979324"
    doc = minimal_poisson(
        {
            "connections": {
                "turn": {
                    "target": "tm",
                    "gamma": [
                        [["0", f"-{pi}*y"], [f"{pi}*y", "0"]],
                        [["0", "0"], ["0", "0"]],
                    ],
                }
            }
        }
    )
    code, rep = invoke(
        capsys,
        "holonomy",
        write_doc(tmp_path, doc),
        "--point", "0", "0",
        "--plane", "0", "1",
        "--side", "1",
        "--steps", "1024",
    )
    assert code == 2
    assert "negative real axis" in rep["errors"][0]["message"]


def test_holonomy_runs_without_scipy():
    # a fresh interpreter, so no other test's imports count
    script = (
        "import contextlib, io, sys\n"
        "from cartankit.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(['holonomy', 'corpus/sphere.json', '--point', '1.2', '0.5',\n"
        "                '--plane', '0', '1', '--side', '0.01', '--steps', '16'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    root = CORPUS.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["0", "[]"]


def test_no_spec_imports_jsonschema(tmp_path):
    # the schema walk decides and words every rejection itself: valid
    # specs and schema-rejected ones alike run with no jsonschema, in a
    # fresh interpreter, so no other test's imports count
    unknown = json.loads((CORPUS / "sphere.json").read_text())
    unknown["zz"] = 1
    bad_coord = json.loads((CORPUS / "sphere.json").read_text())
    bad_coord["chart"]["coords"][0] = "1y"
    rejected = [write_doc(tmp_path, unknown, "unknown.json"), write_doc(tmp_path, bad_coord, "coord.json")]
    script = (
        "import contextlib, io, json, sys\n"
        "from cartankit.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(['validate', 'corpus/sphere.json']),\n"
        "             run(['validate', 'corpus/so3_action.json']),\n"
        "             run(['holonomy', 'corpus/hyperbolic.json', '--point', '0', '1.5',\n"
        "                  '--plane', '0', '1', '--side', '0.02', '--steps', '16'])]\n"
        "errors = []\n"
        f"for spec in {rejected!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        codes.append(run(['validate', spec]))\n"
        "    errors += json.loads(out.getvalue())['errors']\n"
        "print(json.dumps([codes, errors, 'jsonschema' in sys.modules]))\n"
    )
    root = CORPUS.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [
        [0, 0, 0, 2, 2],
        [
            {"message": "Additional properties are not allowed ('zz' was unexpected)"},
            {"message": "'1y' does not match '^[A-Za-z_][A-Za-z0-9_]*$'", "path": "/chart/coords/0"},
        ],
        False,
    ]


def test_package_copied_out_of_the_checkout_finds_its_schema(tmp_path):
    # an installed package is a copy of src/cartankit with no checkout
    # around it: the schema must travel inside the package
    src = CORPUS.parent / "src" / "cartankit"
    shutil.copytree(src, tmp_path / "cartankit", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CORPUS / "sphere.json", tmp_path / "sphere.json")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-m", "cartankit.cli", "validate", "sphere.json"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    rep = json.loads(done.stdout)
    assert rep["status"] == "pass"
    assert rep["tool"].startswith("cartankit ")


def test_holonomy_needs_transport_connection(capsys, tmp_path):
    code, rep = invoke(
        capsys,
        "holonomy",
        write_doc(tmp_path, minimal_poisson()),
        "--point", "0", "0",
        "--plane", "0", "1",
        "--side", "0.01",
    )
    assert code == 2
    assert "transport" in rep["errors"][0]["message"]


def test_identities_so3(capsys):
    code, rep = invoke(capsys, "identities", str(CORPUS / "so3_action.json"))
    assert code == 0
    names = [c["name"] for c in rep["checks"][0]["children"]]
    assert "route_agreement" in names and "cartan" in names


def test_identities_on_an_anchor_undefined_on_the_box_is_undecidable(capsys, tmp_path):
    # The tables pass validate (every axiom cancels symbolically), but no
    # sample of the box lies where sqrt(x - 5) is defined, so the orbit
    # scan behind the anchored-curvature identity cannot be decided.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x"], "box": [[-1, 1]]},
        "algebroid": {"rank": 1, "anchor": [["sqrt(x-5)"]], "structure": [[["0"]]]},
    }
    path = write_doc(tmp_path, doc)
    code, rep = invoke(capsys, "validate", path)
    assert (code, rep["status"]) == (0, "pass")
    code, rep = invoke(capsys, "identities", path)
    assert (code, rep["status"]) == (1, "undecidable")
    [battery] = rep["checks"]
    child = {c["name"]: c for c in battery["children"]}["anchored_curvature"]
    assert (child["status"], child["path"]) == ("undecidable", "undecidable")
    assert "witness" not in child
    assert child["detail"] == (
        "anchor undefined inside the box: sqrt of negative value in sqrt(-5 + x)"
    )


def test_identities_on_a_metric_reads_no_h_frame(capsys, tmp_path):
    # h_frame feeds check's invariance battery only: identities builds the
    # isometry algebroid from the full skew frame, so a non-skew h_frame
    # rejects check and leaves identities alone.
    doc = {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [[-1, 1], [-1, 1]]},
        "metric": [["1", "0"], ["0", "1"]],
        "h_frame": [[["1", "0"], ["0", "0"]]],
    }
    path = write_doc(tmp_path, doc)
    code, rep = invoke(capsys, "check", path)
    assert (code, rep["checks"][0]["name"], rep["checks"][0]["status"]) == (1, "metric", "fail")
    assert "not metric-skew" in rep["checks"][0]["detail"]
    code, rep = invoke(capsys, "identities", path)
    assert (code, rep["status"]) == (0, "pass")


def test_h_frame_skewness_is_rejected_with_the_zero_tests_verdict(capsys, tmp_path):
    # A non-skew h_frame fails with the exact tier's witness and value; one
    # whose skewness is undefined on the whole box is undecidable, with no
    # witness, not a failure.
    def metric_check(box, h_frame):
        doc = {
            "spec_version": 1,
            "chart": {"coords": ["x", "y"], "box": [box, box]},
            "metric": [["1", "0"], ["0", "1"]],
            "h_frame": [h_frame],
        }
        code, rep = invoke(capsys, "check", write_doc(tmp_path, doc))
        [check] = rep["checks"]
        assert check["name"] == "metric"
        return code, rep["status"], check

    code, status, check = metric_check([-1, 1], [["1", "0"], ["0", "0"]])
    assert (code, status, check["status"], check["path"]) == (1, "fail", "fail", "symbolic")
    assert (check["witness"], check["value"]) == ([0.0, 0.0], 2.0)
    assert check["detail"].startswith("h_frame[0] is not metric-skew: component (0,0)")
    code, status, check = metric_check([0, 1], [["sqrt(x-5)", "0"], ["0", "0"]])
    assert (code, status) == (1, "undecidable")
    assert (check["status"], check["path"]) == ("undecidable", "undecidable")
    assert "witness" not in check and "value" not in check
    assert check["detail"] == (
        "h_frame[0] is not metric-skew: component (0,0): "
        "undecidable, every sample point left the domain"
    )


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags,spelling",
    [
        (["--seed", "0"], ["--seed", "0"]),
        # argparse reads what the direct pass declines, to the same report
        (["--seed", "3"], ["--seed=3"]),
        (["--samples", "8"], ["--samp", "8"]),
    ],
    ids=["--seed 0", "--seed=3", "--samp 8"],
)
def test_reports_are_byte_identical_for_fixed_seed(capsys, flags, spelling):
    run(["check", str(CORPUS / "sphere.json"), "--pipeline", "riemann", *flags])
    first = capsys.readouterr().out
    run(["check", str(CORPUS / "sphere.json"), "--pipeline", "riemann", *spelling])
    second = capsys.readouterr().out
    assert first == second


def test_pretty_and_compact_agree(capsys):
    _, compact = invoke(capsys, "validate", str(CORPUS / "euclid.json"))
    _, pretty = invoke(capsys, "validate", str(CORPUS / "euclid.json"), "--pretty")
    assert compact == pretty


def test_timings_flag_adds_elapsed(capsys):
    _, rep = invoke(capsys, "validate", str(CORPUS / "euclid.json"), "--timings")
    assert rep["elapsed_ms"] > 0
    _, rep = invoke(capsys, "validate", str(CORPUS / "euclid.json"))
    assert "elapsed_ms" not in rep


def test_seed_flag_overrides_file_seed(capsys):
    _, rep = invoke(capsys, "validate", str(CORPUS / "euclid.json"), "--seed", "7")
    assert rep["seed"] == 7
    _, rep = invoke(capsys, "validate", str(CORPUS / "euclid.json"))
    assert rep["seed"] == 0


@pytest.mark.parametrize(
    "flags",
    [["--samples", "0"], ["--samples", "-1"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"]],
    ids=" ".join,
)
def test_unusable_samples_or_tol_is_a_usage_error(capsys, flags):
    # no sample, or a tolerance no value can meet or every value meets,
    # leaves nothing to decide: argparse's usage error, not a verdict
    with pytest.raises(SystemExit) as exc:
        run(["identities", str(CORPUS / "sphere.json"), *flags])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: cartankit") and "--samples/--tol" in err


@pytest.mark.parametrize(
    "flags,code,message",
    [
        # the schema requires a file's seed to be >= 0; a negative --seed
        # is refused the same way, not reported as a failing verdict
        (["--seed", "-1"], 2, "cartankit: error: --seed: must be >= 0, got -1\n"),
        (["--bogus", "1"], 2, "cartankit: error: unrecognized arguments: --bogus 1\n"),
        (["--samp"], 2, "cartankit check: error: argument --samples: expected one argument\n"),
        # help goes to stdout
        (["--help"], 0, "show this help message and exit\n"),
    ],
    ids=["--seed -1", "--bogus 1", "--samp", "--help"],
)
def test_usage_error_or_help_is_argparses(capsys, flags, code, message):
    with pytest.raises(SystemExit) as exc:
        run(["check", str(CORPUS / "sphere.json"), *flags])
    assert exc.value.code == code
    out, err = capsys.readouterr()
    shown, silent = (out, err) if code == 0 else (err, out)
    assert silent == ""
    assert shown.startswith("usage: cartankit") and message in shown


# the direct pass against argparse: the four commands, every option's full
# name, what only argparse reads (a prefix, --opt=value, --, -h, -, the
# empty string) and values that argparse reads as options or cannot convert
_OPTION_WORDS = sorted(
    {name for arguments in cli._COMMANDS.values() for name in arguments if name.startswith("-")}
) + ["--samp", "--seed=3", "--", "-h"]
_VALUE_WORDS = [
    "0", "1", "2", "7", "0.25", "1e-3", "-1", "-.5", "-1e-3", "-1.", "nan", "inf",
    "-\u0663", "", "-", "cartan", "geometry", "corpus/sphere.json",
]
_WORDS = st.sampled_from([*cli._COMMANDS, *_OPTION_WORDS, *_VALUE_WORDS])


def _fitting(kwargs):
    """Words that mostly convert for an argument, and any value word."""
    if "choices" in kwargs:
        fit = list(kwargs["choices"])
    elif kwargs.get("type") is int:
        fit = ["0", "1", "2", "7", "-1"]
    elif kwargs.get("type") is float:
        fit = ["0", "0.25", "1e-3", "-1", "-.5", "nan", "inf"]
    else:
        fit = ["corpus/sphere.json", "0", "-1"]
    return st.sampled_from(fit * 3 + _VALUE_WORDS)


@st.composite
def _command_lines(draw):
    """A command line laid out from the command's arguments, in any order,
    mostly with one lone value, and with up to two words replaced,
    inserted or dropped."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    arguments = cli._COMMANDS[command]
    lone = draw(st.sampled_from([1, 1, 1, 0, 2]))
    chunks = [[draw(_fitting(arguments["file"]))] for _ in range(lone)]
    for name, kwargs in arguments.items():
        if name.startswith("-") and (kwargs.get("required") or draw(st.booleans())):
            nargs = kwargs.get("nargs")
            if kwargs.get("action") == "store_true":
                count = 0
            else:
                count = draw(st.integers(1, 3)) if nargs == "+" else nargs or 1
            chunks.append([name, *(draw(_fitting(kwargs)) for _ in range(count))])
    argv = [command] + [word for chunk in draw(st.permutations(chunks)) for word in chunk]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(argv) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "drop"]))
        if edit == "drop":
            del argv[at]
        else:
            argv[at : at + (edit == "replace")] = [draw(_WORDS)]
        if not argv:
            break
    return argv


@settings(max_examples=1000, deadline=None)
@given(_command_lines())
def test_direct_pass_reads_every_command_line_it_accepts_as_argparse_does(argv):
    plain = cli._plain_args(argv)
    if plain is None:
        return
    parsed = cli._parser().parse_args(argv)
    # repr compares NaN with NaN, and an int with a float, as they print
    assert repr(sorted(vars(plain).items())) == repr(sorted(vars(parsed).items()))


def test_coframe_scan_follows_samples_and_seed(capsys, monkeypatch):
    # --samples and --seed reach the coframe's determinant scan, as they
    # reach the metric's and the action fields'
    scans = []
    real = Chart.vanishing_witness

    def recording(self, e, count, seed):
        scans.append((count, seed))
        return real(self, e, count, seed)

    monkeypatch.setattr(Chart, "vanishing_witness", recording)
    path = str(CORPUS / "affine_group_parallelism.json")
    code, rep = invoke(capsys, "validate", path, "--samples", "16", "--seed", "7")
    assert code == 0 and rep["status"] == "pass"
    # the chart's guard scan, then the coframe's: both draw the request's
    assert scans == [(16, 7), (16, 7)]


def _guarded_poisson(guard):
    doc = minimal_poisson()
    doc["chart"]["guards"] = [guard]
    return doc


def test_guard_scan_deepens_with_samples(capsys, tmp_path):
    # x - 99/100 changes sign on 1/200 of the box: the default 32 samples
    # at seed 0 miss it, 1000 do not; the rejection is a spec error at the
    # guards, reported before the request's seed and samples
    path = write_doc(tmp_path, _guarded_poisson("x - 99/100"))
    code, rep = invoke(capsys, "validate", path)
    assert code == 0 and rep["status"] == "pass"
    code, rep = invoke(capsys, "validate", path, "--samples", "1000")
    assert code == 2
    assert rep["errors"] == [
        {"message": "box does not avoid the locus -99/100 + x = 0", "path": "/chart/guards"}
    ]
    assert sorted(rep) == ["command", "errors", "input", "status", "tool"]


def test_guard_scan_rejects_an_undefined_guard(capsys, tmp_path):
    code, rep = invoke(capsys, "check", write_doc(tmp_path, _guarded_poisson("sqrt(x)")))
    assert code == 2
    assert rep["errors"] == [
        {"message": "guard sqrt(x) undefined inside the box", "path": "/chart/guards"}
    ]


def test_report_carries_tool_and_name(capsys):
    _, rep = invoke(capsys, "check", str(CORPUS / "hyperbolic.json"))
    assert rep["tool"].startswith("cartankit ")
    assert rep["name"] == "hyperbolic"
    assert rep["input"].endswith("hyperbolic.json")


def test_console_script_is_installed(capsys, monkeypatch, tmp_path):
    """The ``cartankit`` command is declared, resolves, and runs cli.main.

    The declaration is read from pyproject.toml, so the check holds in an
    uninstalled checkout; where a distribution is installed, its entry
    point and script are checked against the declaration as well.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = CORPUS.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    target = scripts.get("cartankit")
    assert target == "cartankit.cli:main"

    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    # The process exit status is run()'s code, for a passing and an unusable file.
    for path, code in ((CORPUS / "euclid.json", 0), (tmp_path / "missing.json", 2)):
        monkeypatch.setattr(sys, "argv", ["cartankit", "validate", str(path)])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code
        rep = json.loads(capsys.readouterr().out)
        assert rep["tool"].startswith("cartankit ")

    installed = importlib.metadata.entry_points(group="console_scripts", name="cartankit")
    if installed:
        assert [ep.value for ep in installed] == [target]
        # An unactivated venv keeps its scripts off PATH; look there too.
        search = os.pathsep.join([sysconfig.get_path("scripts"), os.environ.get("PATH", "")])
        assert shutil.which("cartankit", path=search)
