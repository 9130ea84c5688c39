"""Reports compared byte for byte against committed golden files.

``golden/corpus`` holds the report of ``validate``, ``check`` and
``identities`` on each corpus file, as ``cartankit <command>
corpus/<file>.json`` prints it from the repository root.
``golden/metric3d`` holds ``check`` and ``identities`` on two 3-d metrics
from ``test_cli.py``: hyperbolic 3-space (``h3.json``) and
diag(1, 1+x^2, z^2) (``diag3.json``); ``identities`` on them is the one
golden run of a rank-6 algebroid through ``g_tensor_deriv``,
``curvature_g``, ``curvature_tm`` and the exterior derivative.
``golden/metric4d`` and ``golden/metric5d`` hold ``check`` on hyperbolic
4- and 5-space (``h4.json``, ``h5.json``: 1/w^2 times the identity on
[-1,1]^3 x [1/2,2] and [-1,1]^4 x [1/2,2], guard w), and ``identities``
on each: the battery of a rank-10 and of a rank-15 isometry algebroid.  ``golden/rejections`` holds ``validate``, ``check``
and ``identities`` on specs whose objects are rejected while they are
built (``REJECTIONS``): the fail and undecidable shapes of the reports,
and the input error of a structural rejection.
Each runs from the directory that holds the spec.
``golden/pipelines`` holds ``check --pipeline <pipeline>`` for the pair
pipelines ``theorem-a`` and ``transitive`` on the sphere, ellipsoid and
hyperbolic corpus files, as ``check-<pipeline>-<file>.json``, run from
the repository root: the verdicts on a metric's isometry algebroid and
its Cartan connection.

Every command line here is plain, so each report is made with argparse
refused: building a parser fails the test.

A change to a verdict, a witness or the last digit of a value fails
here.  A deliberate change regenerates the files with the report loop of
``.github/workflows/tier1.yml`` (its pass-1 reports are these files;
``python tests/test_golden.py <directory>`` writes the specs it runs and,
from ``METRIC_COMMANDS``, the commands to run on them) and shows the
difference in review.
"""

import argparse
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cartankit import cartan, cli
from cartankit.cli import run
from cartankit.symcore import Expr
from test_cli import _metric_3d, broken_jacobi_algebroid, minimal_poisson

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CORPUS_RUNS = [
    (command, name)
    for name in sorted(p.name for p in (ROOT / "corpus").glob("*.json"))
    for command in ("validate", "check", "identities")
]

# the pair pipelines run on metric corpus files
PIPELINE_RUNS = [
    (pipeline, name)
    for name in ("ellipsoid.json", "hyperbolic.json", "sphere.json")
    for pipeline in ("theorem-a", "transitive")
]

METRICS_3D = {
    "h3.json": [["1/z^2", "0", "0"], ["0", "1/z^2", "0"], ["0", "0", "1/z^2"]],
    "diag3.json": [["1", "0", "0"], ["0", "1+x^2", "0"], ["0", "0", "z^2"]],
}

H4 = {
    "spec_version": 1,
    "chart": {
        "coords": ["x", "y", "z", "w"],
        "box": [[-1, 1], [-1, 1], [-1, 1], ["1/2", 2]],
        "guards": ["w"],
    },
    "metric": [["1/w^2" if i == j else "0" for j in range(4)] for i in range(4)],
}

H5 = {
    "spec_version": 1,
    "chart": {
        "coords": ["x", "y", "z", "u", "w"],
        "box": [[-1, 1], [-1, 1], [-1, 1], [-1, 1], ["1/2", 2]],
        "guards": ["w"],
    },
    "metric": [["1/w^2" if i == j else "0" for j in range(5)] for i in range(5)],
}


def _on_square(box, **objects):
    return {
        "spec_version": 1,
        "chart": {"coords": ["x", "y"], "box": [box, box]},
        **objects,
    }


_ZERO_2 = [["0", "0"], ["0", "0"]]


def _corpus_with(name, table, constants):
    """The corpus spec ``name`` with some of the rational structure
    constants of its ``table`` changed: {(a, b, c): c^c_ab}."""
    spec = json.loads((ROOT / "corpus" / name).read_text())
    for (a, b, c), value in constants.items():
        spec[table]["structure"][a][b][c] = value
    return spec


# one spec per rejection: each object fails, or cannot decide, the check
# that builds it, or its pair is refused by a pipeline
REJECTIONS = {
    # a valid Lie algebroid whose anchor's rank drops on y = 0, through
    # the midpoint: not transitive, so the transitive pipeline refuses it
    # and identities skips the anchored curvature
    "rank_drop_algebroid.json": _on_square(
        [-1, 1],
        algebroid={
            "rank": 2,
            "anchor": [["1", "0"], ["0", "y"]],
            "structure": [_ZERO_2, _ZERO_2],
        },
    ),
    # the jacobiator's component 0 is -1
    "broken_jacobi.json": broken_jacobi_algebroid(),
    # [d/dx, x^2 d/dy] = 2x d/dy, but the structure functions are zero
    "anchor_hom.json": _on_square(
        [-1, 1],
        algebroid={
            "rank": 2,
            "anchor": [["1", "0"], ["0", "x^2"]],
            "structure": [_ZERO_2, _ZERO_2],
        },
    ),
    "non_symmetric_metric.json": _on_square([-1, 1], metric=[["2", "x"], ["0", "2"]]),
    # Pi^01 + Pi^10 = x + y
    "non_antisymmetric_poisson.json": minimal_poisson(
        {"poisson": [["0", "x"], ["y", "0"]]}
    ),
    # the Jacobi defect is x
    "non_jacobi_poisson.json": {
        "spec_version": 1,
        "chart": {"coords": ["x", "y", "z"], "box": [[-1, 1], [-1, 1], [-1, 1]]},
        "poisson": [["0", "x", "0"], ["-x", "0", "y"], ["0", "-y", "0"]],
    },
    # so(3) with [e_0, e_1] = e_0 + e_2: antisymmetric, but Jacobi fails at
    # (0,1,2) component 1
    "non_jacobi_lie_algebra.json": _corpus_with(
        "so3_action.json", "lie_algebra", {(0, 1, 0): 1, (1, 0, 0): -1}
    ),
    # [e_0, e_0] = e_0
    "non_antisymmetric_model_algebra.json": _corpus_with(
        "affine_group_parallelism.json", "parallelism", {(0, 0, 0): 1}
    ),
    # [x d/dx, x d/dy] = x d/dy, but the algebra is abelian
    "non_closing_action.json": _on_square(
        [-1, 2],
        lie_algebra={"structure": [_ZERO_2, _ZERO_2]},
        action_fields=[["x", "0"], ["0", "x"]],
    ),
    # [d/dx, d/dy + x d/dz] = d/dz leaves the span
    "non_integrable_foliation.json": {
        "spec_version": 1,
        "chart": {"coords": ["x", "y", "z"], "box": [[-1, 1], [-1, 1], [-1, 1]]},
        "foliation_frame": [["1", "0", "0"], ["0", "1", "x"]],
    },
    # three frame fields on a 2-d chart: a structural rejection, so an
    # input error at /foliation_frame, not a verdict
    "oversized_foliation_frame.json": _on_square(
        [-1, 1], foliation_frame=[["1", "0"], ["0", "1"], ["1", "1"]]
    ),
    # a field with one component on a 2-d chart: a shape error at
    # /foliation_frame, found before any entry is parsed
    "ragged_foliation_frame.json": _on_square(
        [-1, 1], foliation_frame=[["1", "0"], ["0"]]
    ),
    "non_skew_h_frame.json": _on_square(
        [-1, 1],
        metric=[["1", "0"], ["0", "1"]],
        h_frame=[[["1", "0"], ["0", "0"]]],
    ),
    # sqrt(x - 5) is undefined on the whole box
    "undecidable_h_frame.json": _on_square(
        [0, 1],
        metric=[["1", "0"], ["0", "1"]],
        h_frame=[[["sqrt(x-5)", "0"], ["0", "0"]]],
    ),
}

# golden directory -> spec file name -> spec
METRIC_SPECS = {
    "metric3d": {name: _metric_3d(metric) for name, metric in METRICS_3D.items()},
    "metric4d": {"h4.json": H4},
    "metric5d": {"h5.json": H5},
    "rejections": REJECTIONS,
}

# golden directory -> the commands whose reports it holds
METRIC_COMMANDS = {
    "metric3d": ("check", "identities"),
    "metric4d": ("check", "identities"),
    "metric5d": ("check", "identities"),
    "rejections": ("validate", "check", "identities"),
}


def _refuse_parser(*args, **kwargs):
    raise AssertionError("argparse was built for a plain command line")


def _report(capsys, *argv) -> str:
    # every command line here is plain, so it is read without argparse
    with mock.patch.object(argparse.ArgumentParser, "__init__", _refuse_parser):
        run(list(argv))
    return capsys.readouterr().out


# CI's holonomy loops (.github/workflows/tier1.yml), one with the --seed a
# benchmark request adds, and README's command-line examples
PLAIN_COMMAND_LINES = [
    (
        "holonomy", f"corpus/{name}.json", "--point", x, y,
        "--plane", "0", "1", "--side", "0.02", "--steps", "128",
    )
    for name, x, y in (
        ("sphere", "1.5", "1.0"),
        ("euclid", "0", "0"),
        ("affine_group_parallelism", "1.0", "0.0"),
        ("ellipsoid", "1.5", "1.0"),
        ("hyperbolic", "0.0", "1.5"),
    )
] + [
    ("holonomy", "corpus/hyperbolic.json", "--point", "-0.5", "1.5", "--plane", "1", "0",
     "--side", "0.0125", "--steps", "256", "--seed", "1234567"),
    ("validate", "corpus/so3_action.json"),
    ("check", "corpus/sphere.json", "--pipeline", "riemann"),
    ("check", "corpus/ellipsoid.json", "--pipeline", "riemann"),
    ("check", "corpus/so3_dual_poisson.json", "--pipeline", "poisson"),
    ("holonomy", "corpus/sphere.json", "--point", "1.2", "0.5", "--plane", "0", "1",
     "--side", "0.01"),
    ("identities", "corpus/so3_action.json"),
]


@pytest.mark.parametrize("argv", PLAIN_COMMAND_LINES, ids=" ".join)
def test_plain_command_line_reports_as_argparse_reads_it(capsys, monkeypatch, argv):
    # the report argparse's reading gives, against the direct reading's
    # with argparse refused
    monkeypatch.chdir(ROOT)
    with mock.patch.object(cli, "_plain_args", lambda argv: None):
        run(list(argv))
    expected = capsys.readouterr().out
    assert _report(capsys, *argv) == expected


def test_every_corpus_run_has_a_golden_report():
    expected = {f"{command}-{name}" for command, name in CORPUS_RUNS}
    assert len(expected) == 27
    assert {p.name for p in (GOLDEN / "corpus").iterdir()} == expected


@pytest.mark.parametrize("command,name", CORPUS_RUNS, ids=lambda v: v)
def test_corpus_report_matches_golden(capsys, monkeypatch, command, name):
    monkeypatch.chdir(ROOT)
    report = _report(capsys, command, f"corpus/{name}")
    assert report == (GOLDEN / "corpus" / f"{command}-{name}").read_text()


def test_every_pipeline_run_has_a_golden_report():
    expected = {f"check-{pipeline}-{name}" for pipeline, name in PIPELINE_RUNS}
    assert {p.name for p in (GOLDEN / "pipelines").iterdir()} == expected


@pytest.mark.parametrize("pipeline,name", PIPELINE_RUNS, ids=lambda v: v)
def test_pair_pipeline_report_matches_golden(capsys, monkeypatch, pipeline, name):
    monkeypatch.chdir(ROOT)
    report = _report(capsys, "check", f"corpus/{name}", "--pipeline", pipeline)
    assert report == (GOLDEN / "pipelines" / f"check-{pipeline}-{name}").read_text()


def _metric_report_matches_golden(
    capsys, monkeypatch, tmp_path, folder, command, name
):
    (tmp_path / name).write_text(json.dumps(METRIC_SPECS[folder][name]))
    monkeypatch.chdir(tmp_path)
    report = _report(capsys, command, name)
    assert report == (GOLDEN / folder / f"{command}-{name}").read_text()


@pytest.mark.parametrize("name", sorted(METRICS_3D))
def test_3d_metric_check_matches_golden(capsys, monkeypatch, tmp_path, name):
    _metric_report_matches_golden(
        capsys, monkeypatch, tmp_path, "metric3d", "check", name
    )


@pytest.mark.parametrize("name", sorted(METRICS_3D))
def test_3d_metric_identities_matches_golden(capsys, monkeypatch, tmp_path, name):
    _metric_report_matches_golden(
        capsys, monkeypatch, tmp_path, "metric3d", "identities", name
    )


def test_4d_metric_check_matches_golden(capsys, monkeypatch, tmp_path):
    _metric_report_matches_golden(
        capsys, monkeypatch, tmp_path, "metric4d", "check", "h4.json"
    )


def test_4d_metric_identities_matches_golden(capsys, monkeypatch, tmp_path):
    _metric_report_matches_golden(
        capsys, monkeypatch, tmp_path, "metric4d", "identities", "h4.json"
    )


def test_5d_metric_check_matches_golden(capsys, monkeypatch, tmp_path):
    _metric_report_matches_golden(
        capsys, monkeypatch, tmp_path, "metric5d", "check", "h5.json"
    )


def test_5d_metric_identities_matches_golden(capsys, monkeypatch, tmp_path):
    _metric_report_matches_golden(
        capsys, monkeypatch, tmp_path, "metric5d", "identities", "h5.json"
    )


@pytest.mark.parametrize("command", METRIC_COMMANDS["rejections"])
@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejection_report_matches_golden(capsys, monkeypatch, tmp_path, command, name):
    _metric_report_matches_golden(
        capsys, monkeypatch, tmp_path, "rejections", command, name
    )


def test_metric_check_builds_no_isometry_algebroid(capsys, monkeypatch):
    # check prints the homogeneity verdict only, which reads the
    # Levi-Civita curvature; the isometry algebroid and its Cartan
    # connection are built for identities and the pair pipelines alone,
    # and the jet-lift curvature, whose identity with it holds by
    # construction, for the compatibility check alone
    def refuse(*args, **kwargs):
        raise AssertionError("check built the isometry algebroid")

    monkeypatch.setattr(cartan, "_riemann_algebroid", refuse)
    monkeypatch.setattr(cartan, "_reductive_connection", refuse)
    monkeypatch.setattr(cartan, "frame_lift_curvature", refuse)
    monkeypatch.chdir(ROOT)
    report = _report(capsys, "check", "corpus/sphere.json")
    assert report == (GOLDEN / "corpus" / "check-sphere.json").read_text()


def test_command_line_builds_no_raw_tree(capsys, monkeypatch, tmp_path):
    # every entry the package builds comes from the canonical builders
    # (cmul, cneg, csum): with Expr's arithmetic operators refused, the
    # reports are still the golden ones.  The parser builds its raw trees
    # with the node constructors, not the operators.
    def refuse(*args):
        raise AssertionError("a raw tree was built on the command-line path")

    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__",
    ):
        monkeypatch.setattr(Expr, name, refuse)
    runs = [
        (ROOT, (command, f"corpus/{name}"), GOLDEN / "corpus" / f"{command}-{name}")
        for command, name in CORPUS_RUNS
    ] + [
        (
            ROOT,
            ("check", f"corpus/{name}", "--pipeline", pipeline),
            GOLDEN / "pipelines" / f"check-{pipeline}-{name}",
        )
        for pipeline, name in PIPELINE_RUNS
    ]
    specs = {("rejections", name): spec for name, spec in REJECTIONS.items()}
    specs["metric3d", "h3.json"] = METRIC_SPECS["metric3d"]["h3.json"]
    for (folder, name), spec in specs.items():
        (tmp_path / name).write_text(json.dumps(spec))
        runs += [
            (tmp_path, (command, name), GOLDEN / folder / f"{command}-{name}")
            for command in METRIC_COMMANDS[folder]
        ]
    _assert_golden_reports(capsys, monkeypatch, runs)


def test_verdict_path_calls_no_lapack(capsys, monkeypatch, tmp_path):
    # validate, check and identities decide every rank through the box
    # scan of a symbolic determinant: with numpy's LAPACK entry points
    # refused, the reports are still the golden ones
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called on the verdict path")

    for name in ("svd", "det", "eigvals", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    runs = [
        (ROOT, (command, f"corpus/{name}"), GOLDEN / "corpus" / f"{command}-{name}")
        for command, name in CORPUS_RUNS
    ]
    name = "rank_drop_algebroid.json"
    (tmp_path / name).write_text(json.dumps(REJECTIONS[name]))
    runs += [
        (tmp_path, (command, name), GOLDEN / "rejections" / f"{command}-{name}")
        for command in METRIC_COMMANDS["rejections"]
    ]
    _assert_golden_reports(capsys, monkeypatch, runs)


def _assert_golden_reports(capsys, monkeypatch, runs):
    # runs: (directory, argv, golden file) triples
    for where, argv, golden in runs:
        monkeypatch.chdir(where)
        assert _report(capsys, *argv) == golden.read_text(), argv


def test_every_metric_spec_has_a_golden_report():
    for folder, specs in METRIC_SPECS.items():
        assert {p.name for p in (GOLDEN / folder).iterdir()} == {
            f"{command}-{name}" for name in specs for command in METRIC_COMMANDS[folder]
        }


if __name__ == "__main__":
    # write the metric specs, as <directory>/<golden directory>/<name>, and
    # the commands to run on them, as <directory>/<golden directory>/commands
    for folder, specs in METRIC_SPECS.items():
        (Path(sys.argv[1]) / folder).mkdir(parents=True, exist_ok=True)
        for name, spec in specs.items():
            (Path(sys.argv[1]) / folder / name).write_text(json.dumps(spec))
        commands = " ".join(METRIC_COMMANDS[folder])
        (Path(sys.argv[1]) / folder / "commands").write_text(commands + "\n")
