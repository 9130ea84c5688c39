"""Acceptance gate: one test per shipping criterion.

Every criterion runs at its stated tolerance and prints a single
summary line (visible under ``pytest -rA`` or ``-s``).  The random
instance catalog is seeded, so two runs exercise identical data:
20 pairs (algebroid, connection) with dim <= 3, rank <= 3 and
polynomial coefficients of degree <= 2, drawn from four families —
tangent algebroids, action algebroids, zero-anchor Lie-algebra
bundles, and cotangent algebroids of random 2d Poisson tensors.
"""

import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from cartankit.algebroid import (
    Algebroid,
    LieAlgebra,
    anchor_apply,
    build_action_algebroid,
    build_poisson_algebroid,
    tangent_algebroid,
    validate,
)
from cartankit.bundles import TM, UP, Section, TensorField, _tensor_battery, as_expr
from cartankit.cartan import (
    _random_one_form,
    dtheta_decomposition,
    exterior_derivative,
    frame_defects,
    holonomy_check,
    parallelism_report,
    poisson_report,
    theorem_a_verdict,
)
from cartankit.cli import Workspace, load_spec
from cartankit.connections import (
    GConnection,
    TMConnection,
    check_anchor_equivariance,
    christoffel,
    dual_connection,
    curvature_g,
    curvature_tm,
    dual_pair_defect,
    g_tensor_deriv,
    induced_rep_on_g,
    induced_rep_on_tm,
    is_flat_g,
    morphism_curvature,
    torsion_g,
)
from cartankit.jet import jet_bracket, splitting_from_connection
from cartankit.algebroid import bracket
from cartankit.symcore import Chart, Const, ZeroPolicy, canon, diff, is_zero
from test_cartan import assert_frame_defects_match_references, sheared_parallelism
from test_algebroid import so3_algebra

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_NAMES = (
    "so3_action",
    "euclid",
    "sphere",
    "ellipsoid",
    "hyperbolic",
    "so3_dual_poisson",
    "symplectic_r2",
    "affine_group_parallelism",
    "foliation_r3",
)

POLICY = ZeroPolicy(samples=32, tol=1e-9, seed=0)
CATALOG_SEED = 20260823
COORDS = ("x", "y", "z")


# ---------------------------------------------------------------------------
# seeded instance catalog
# ---------------------------------------------------------------------------


def _box_chart(dim):
    return Chart(COORDS[:dim], [(-1, 1)] * dim)


def _random_poly(rng, chart, degree=2):
    pool = [-2, -1, 0, 1, 2]
    e = Const(int(rng.choice(pool)))
    names = [as_expr(c, chart) for c in chart.coords]
    for nm in names:
        coeff = int(rng.choice(pool))
        if coeff:
            e = e + Const(coeff) * nm
    if degree >= 2:
        for i, a in enumerate(names):
            for b in names[i:]:
                if rng.random() < 0.25:
                    e = e + Const(int(rng.choice([-1, 1]))) * a * b
    return canon(e)


def _random_gamma(rng, chart, rank):
    out = np.empty((chart.dim, rank, rank), dtype=object)
    for idx in np.ndindex(*out.shape):
        out[idx] = _random_poly(rng, chart, degree=2)
    return out


def _instance(k):
    rng = np.random.default_rng([CATALOG_SEED, k])
    family = k % 4
    if family == 0:
        chart = _box_chart(1 + k // 4 % 3)
        g = tangent_algebroid(chart)
    elif family == 1:
        if k % 8 == 1:
            chart = _box_chart(3)
            fields = [
                Section(chart, ("0", "z", "-y"), "tm"),
                Section(chart, ("-z", "0", "x"), "tm"),
                Section(chart, ("y", "-x", "0"), "tm"),
            ]
            g = build_action_algebroid(so3_algebra(), fields, POLICY)
        else:
            chart = _box_chart(1)
            fields = [Section(chart, ("1",), "tm"), Section(chart, ("x",), "tm")]
            aff = LieAlgebra(2, [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]])
            g = build_action_algebroid(aff, fields, POLICY)
    elif family == 2:
        chart = _box_chart(1 + k // 4 % 3)
        c = np.empty((2, 2, 2), dtype=object)
        for d in range(2):
            p = _random_poly(rng, chart, degree=2)
            c[0, 1, d] = p
            c[1, 0, d] = canon(Const(-1) * p)
            c[0, 0, d] = Const(0)
            c[1, 1, d] = Const(0)
        rho = np.full((chart.dim, 2), Const(0), dtype=object)
        g = Algebroid(chart, 2, rho, c)
    else:
        chart = _box_chart(2)
        p = _random_poly(rng, chart, degree=2)
        comps = np.empty((2, 2), dtype=object)
        comps[0, 0] = comps[1, 1] = Const(0)
        comps[0, 1] = p
        comps[1, 0] = canon(Const(-1) * p)
        pi = TensorField(chart, ((UP, TM), (UP, TM)), comps)
        pi.check_pairs(antisymmetric=((0, 1),))
        g = build_poisson_algebroid(pi, POLICY)
    conn = TMConnection(chart, _random_gamma(rng, chart, g.rank), target="g")
    return g, conn


@pytest.fixture(scope="module")
def catalog():
    instances = []
    for k in range(20):
        g, conn = _instance(k)
        report = validate(g, POLICY)
        assert report.ok, f"instance {k} fails axioms"
        instances.append((g, conn))
    return instances


@pytest.fixture(scope="module")
def corpus_pairs():
    pairs = {}
    for name in CORPUS_NAMES:
        ws = Workspace(load_spec(CORPUS / f"{name}.json"), POLICY)
        pairs[name] = ws.pair()
    return pairs


def _routes_agree(g, conn):
    """Entrywise comparison of the two compatibility defect routes, and of
    each route's closed form against its section-level reference."""
    defects = frame_defects(g, conn)
    checked = 0
    for a, b in combinations(range(g.rank), 2):
        for i in range(g.chart.dim):
            for c in range(g.rank):
                v = is_zero(
                    defects.direct[i, a, b, c] - defects.lifted[a, b, c, i],
                    g.chart,
                    POLICY,
                )
                assert v.zero, (
                    f"routes disagree at frame pair ({a},{b}), "
                    f"direction {i}, component {c}: {v.value} at {v.witness}"
                )
                checked += 1
    assert assert_frame_defects_match_references(g, conn, POLICY) == checked
    return checked


def test_criterion_1_compatibility_routes_agree(catalog, corpus_pairs):
    entries = 0
    for name, (g, conn) in corpus_pairs.items():
        entries += _routes_agree(g, conn)
    for g, conn in catalog:
        entries += _routes_agree(g, conn)
    print(
        f"[criterion 1] bracket-compatibility vs jet-splitting defects agree "
        f"entrywise, and each closed form makes its section-level reference's "
        f"zero tests, on 9 corpus + 20 random instances ({entries} entries): PASS"
    )


def test_criterion_2_duality_battery(catalog):
    flat_branch = curved_branch = 0
    for k, (g, conn) in enumerate(catalog):
        rep = induced_rep_on_g(g, conn)
        dd = dual_connection(dual_connection(rep))
        for idx in np.ndindex(*rep.A.shape):
            assert canon(dd.A[idx] - rep.A[idx]) == Const(0), f"dual not involutive, instance {k}"
        T = torsion_g(rep)
        Ts = torsion_g(dual_connection(rep))
        for idx in np.ndindex(*T.shape):
            assert canon(T.components[idx] + Ts.components[idx]) == Const(0), (
                f"torsion does not flip sign, instance {k}"
            )
        v = _tensor_battery("dual_curvature_exchange", dual_pair_defect(rep), POLICY)
        assert v.ok, f"curvature exchange fails, instance {k} at {v.detail}: {v.value}"

        # flatness of the dual of a flat connection must match parallelism
        # of that flat connection's torsion
        F = GConnection(g, np.full((g.rank,) * 3, Const(0), dtype=object), "self")
        assert is_flat_g(F, POLICY).ok
        partner = dual_connection(F)
        flat = is_flat_g(partner, POLICY).ok
        parallel = _tensor_battery(
            "parallel_torsion", g_tensor_deriv(torsion_g(F), rep_g=F), POLICY
        ).ok
        assert flat == parallel, f"flat/parallel-torsion equivalence broken, instance {k}"
        if flat:
            flat_branch += 1
        else:
            curved_branch += 1
    assert flat_branch and curved_branch, "both branches must occur in the catalog"
    print(
        f"[criterion 2] dual round trip, torsion mirror, curvature exchange and "
        f"the flat/parallel-torsion equivalence ({flat_branch} flat, "
        f"{curved_branch} curved) on 20 random instances: PASS"
    )


def test_criterion_3_symmetry_positive_controls(corpus_pairs):
    g, conn = corpus_pairs["so3_action"]
    verdict = theorem_a_verdict(g, conn, POLICY)
    assert verdict.status == "locally_symmetric"

    ws = Workspace(load_spec(CORPUS / "symplectic_r2.json"), POLICY)
    report = poisson_report(
        ws.poisson_tensor(), TMConnection.flat(ws.spec.chart, 2, target="tm"), POLICY
    )
    assert report.verdict.ok
    assert all(c.ok for c in report.verdict.children)

    ws = Workspace(load_spec(CORPUS / "affine_group_parallelism.json"), POLICY)
    rep = parallelism_report(ws.parallelism(), POLICY)
    for idx in np.ndindex(*rep.curvature_form.shape):
        v = is_zero(rep.curvature_form[idx], ws.spec.chart, POLICY)
        assert v.zero, f"curvature form nonzero at {idx}"
    assert rep.verdict.child("theorem_c").ok
    print(
        "[criterion 3] so(3) action locally symmetric, symplectic plane passes "
        "every Poisson sub-verdict, affine coframe is a flat model: PASS"
    )


def test_criterion_4_metric_discrimination():
    outcomes = {}
    for name in ("sphere", "hyperbolic", "ellipsoid"):
        ws = Workspace(load_spec(CORPUS / f"{name}.json"), POLICY)
        outcomes[name] = ws.riemann_report()
    assert outcomes["sphere"].verdict.ok
    assert outcomes["hyperbolic"].verdict.ok
    bad = outcomes["ellipsoid"].verdict
    assert not bad.ok
    child = bad.child("curvature_parallel")
    assert child.status == "fail"
    assert child.witness is not None and len(child.witness) == 2
    assert abs(child.value) > 1e-6
    print(
        "[criterion 4] sphere and hyperbolic metrics parallel, ellipsoid "
        f"rejected with witness {tuple(round(float(w), 4) for w in child.witness)}: PASS"
    )


def test_criterion_5_poisson_discrimination():
    ws = Workspace(load_spec(CORPUS / "so3_dual_poisson.json"), POLICY)
    flat3 = TMConnection.flat(ws.spec.chart, 3, target="tm")
    good = poisson_report(ws.poisson_tensor(), flat3, POLICY)
    for name in ("torsion_free", "lemma_sx", "flat", "nabla_pi_parallel"):
        assert good.verdict.child(name).ok, name

    chart = Chart(("x", "y"), [(-1, 1), (-1, 1)])
    comps = np.empty((2, 2), dtype=object)
    comps[0, 0] = comps[1, 1] = as_expr(0, chart)
    comps[0, 1] = as_expr("1 + x^2", chart)
    comps[1, 0] = as_expr("-(1 + x^2)", chart)
    pi = TensorField(chart, ((UP, TM), (UP, TM)), comps)
    pi.check_pairs(antisymmetric=((0, 1),))
    bad = poisson_report(pi, TMConnection.flat(chart, 2, target="tm"), POLICY)
    child = bad.verdict.child("lemma_sx")
    assert child.status == "fail"
    assert child.witness is not None
    print(
        "[criterion 5] Lie-Poisson so(3)* passes the full battery, the "
        "1 + x^2 perturbation fails the anchored-curvature lemma with a "
        "witness: PASS"
    )


def test_criterion_6_holonomy_matches_curvature():
    ws = Workspace(load_spec(CORPUS / "sphere.json"), POLICY)
    conn = christoffel(ws.metric_tensor())
    side = 0.01
    worst = 0.0
    for point in ((1.2, 0.5), (0.8, 1.0), (1.7, 2.1)):
        res = holonomy_check(conn, point, (0, 1), side)
        scale = np.linalg.norm(res.curvature_term)
        assert scale > 0
        rel = res.defect_norm / scale
        worst = max(worst, rel)
        assert rel <= 1e-2, f"holonomy mismatch {rel} at {point}"
    print(
        f"[criterion 6] log-holonomy of 0.01-squares matches -h^2 R at 3 "
        f"sphere points (worst relative error {worst:.2e} <= 1e-2): PASS"
    )


def test_criterion_7_invariant_calculus(corpus_pairs):
    compatible = {
        name
        for name in CORPUS_NAMES
        if is_flat_g(induced_rep_on_g(*corpus_pairs[name]), POLICY).ok
    }
    # every corpus pair except the foliation carries a flat action
    assert compatible == set(CORPUS_NAMES) - {"foliation_r3"}
    forms = 0
    for name in sorted(compatible):
        g, conn = corpus_pairs[name]
        rep = induced_rep_on_g(g, conn)
        for s in range(10):
            theta = _random_one_form(g, seed=s)
            d1 = exterior_derivative(rep, theta, POLICY)
            d2 = exterior_derivative(rep, d1, POLICY)
            v = _tensor_battery("d_squared", d2, POLICY)
            assert v.ok, f"d^2 != 0 on {name} form {s} at {v.detail}: {v.value}"
            decomp = dtheta_decomposition(rep, theta, rep, POLICY)
            v = _tensor_battery("d_decomposition", d1 - decomp, POLICY)
            assert v.ok, (
                f"derivative decomposition fails on {name} form {s} at {v.detail}"
            )
            forms += 1

    # the coframe of the affine instance is parallel and its exterior
    # derivative is carried by the torsion of the induced connection
    ws = Workspace(load_spec(CORPUS / "affine_group_parallelism.json"), POLICY)
    P = ws.parallelism()
    conn = P.connection()
    chart = P.chart
    n = chart.dim
    for a in range(n):
        for i in range(n):
            for j in range(n):
                e = diff(P.omega[a, j], chart.coords[i])
                for k in range(n):
                    e = e - P.omega[a, k] * conn.gamma[i, j, k]
                assert is_zero(canon(e), chart, POLICY).zero, "coframe not parallel"
    for a in range(n):
        for i in range(n):
            for j in range(n):
                lhs = diff(P.omega[a, j], chart.coords[i]) - diff(
                    P.omega[a, i], chart.coords[j]
                )
                rhs = Const(0)
                for k in range(n):
                    rhs = rhs + P.omega[a, k] * (
                        conn.gamma[i, j, k] - conn.gamma[j, i, k]
                    )
                assert is_zero(canon(lhs - rhs), chart, POLICY).zero, (
                    "coframe derivative is not the torsion"
                )
    print(
        f"[criterion 7] d^2 = 0 and the derivative decomposition on {forms} "
        f"random one-forms over {len(compatible)} flat instances; affine "
        f"coframe parallel with torsion-valued derivative: PASS"
    )


def test_criterion_8_unconditional_self_tests(catalog, corpus_pairs):
    pairs = list(corpus_pairs.values()) + catalog
    for k, (g, conn) in enumerate(pairs):
        verdict = check_anchor_equivariance(g, conn, POLICY)
        assert verdict.ok, f"anchor equivariance broken on pair {k}: {verdict.detail}"

    # morphism curvature always lands in the anchor kernel, including for
    # maps whose curvature is nonzero
    chart3 = _box_chart(3)
    fields = [
        Section(chart3, ("0", "z", "-y"), "tm"),
        Section(chart3, ("-z", "0", "x"), "tm"),
        Section(chart3, ("y", "-x", "0"), "tm"),
    ]
    g3 = build_action_algebroid(so3_algebra(), fields, POLICY)
    phi = [["1+x^2", "0", "0"], ["x*y", "1", "0"], ["x*z", "0", "1"]]
    curv = morphism_curvature(phi, g3, g3, POLICY)
    assert not _tensor_battery("morphism_curvature", curv, POLICY).ok, (
        "control morphism should have curvature"
    )
    kernel_checked = 0
    for a in range(3):
        for b in range(3):
            section = Section(chart3, [curv[a, b, c] for c in range(3)], "g")
            pushed = anchor_apply(g3, section)
            for comp in pushed.components:
                assert is_zero(comp, chart3, POLICY).zero, "curvature leaves ker #"
                kernel_checked += 1
    rng = np.random.default_rng([CATALOG_SEED, 99])
    for g, _ in catalog[2:20:4]:  # the zero-anchor family
        phi = np.empty((2, 2), dtype=object)
        for idx2 in np.ndindex(2, 2):
            phi[idx2] = _random_poly(rng, g.chart, degree=1)
        curv = morphism_curvature(phi.tolist(), g, g, POLICY)
        for a in range(2):
            for b in range(2):
                section = Section(g.chart, [curv[a, b, c] for c in range(2)], "g")
                pushed = anchor_apply(g, section)
                for comp in pushed.components:
                    assert is_zero(comp, g.chart, POLICY).zero
                    kernel_checked += 1

    # base component of the jet-splitting defect cancels identically
    base_checked = 0
    for g, conn in (corpus_pairs["so3_action"], catalog[3]):
        for a in range(g.rank):
            for b in range(a + 1, g.rank):
                X, Y = g.frame_section(a), g.frame_section(b)
                sX = splitting_from_connection(g, conn, X)
                sY = splitting_from_connection(g, conn, Y)
                defect = jet_bracket(sX, sY) - splitting_from_connection(
                    g, conn, bracket(g, X, Y)
                )
                for c in range(g.rank):
                    assert canon(defect.base.components[c]) == Const(0)
                    base_checked += 1
    print(
        f"[criterion 8] anchor equivariance on {len(pairs)} pairs, morphism "
        f"curvature confined to ker # ({kernel_checked} components), "
        f"splitting defect purely vertical ({base_checked} base entries): PASS"
    )


def test_criterion_9_deterministic_reports():
    outputs = []
    for _ in range(2):
        r = subprocess.run(
            [
                sys.executable,
                "-m",
                "cartankit.cli",
                "check",
                str(CORPUS / "sphere.json"),
                "--pipeline",
                "riemann",
                "--seed",
                "0",
            ],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1]

    validates = []
    for _ in range(2):
        r = subprocess.run(
            [
                sys.executable,
                "-m",
                "cartankit.cli",
                "validate",
                str(CORPUS / "so3_action.json"),
                "--seed",
                "0",
            ],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr
        validates.append(r.stdout)
    assert validates[0] == validates[1]
    print(
        "[criterion 9] seed-0 reports byte-identical across consecutive runs "
        "(riemann check and corpus validate): PASS"
    )


# ---------------------------------------------------------------------------
# symmetry by construction
# ---------------------------------------------------------------------------


def _assert_plane_antisymmetric(T, where, pairs=((0, 1),)):
    """T[...,a,...,b,...] + T[...,b,...,a,...] vanishes for every entry,
    the diagonal included, for each pair of slots in ``pairs``; returns
    the number of zero tests run."""
    tests = 0
    for i, j in pairs:
        for idx in np.ndindex(*T.shape):
            if idx[i] > idx[j]:
                continue
            swapped = list(idx)
            swapped[i], swapped[j] = idx[j], idx[i]
            swapped = tuple(swapped)
            v = is_zero(T[idx] + T[swapped], T.chart, POLICY)
            assert v.zero, f"{where}: T{idx} + T{swapped} = {v.value} at {v.witness}"
            tests += 1
    return tests


def test_built_tensors_are_antisymmetric_by_construction(catalog, corpus_pairs):
    # The TensorField constructor takes no symmetry declarations, so the
    # antisymmetry of the curvatures and torsions the package builds,
    # which computes each entry on its own, is gated here instead.  So is
    # that of the forms identity_battery builds and hands on to the
    # exterior derivative unchecked.
    tests = 0
    pairs = list(corpus_pairs.items()) + [
        (f"instance {k}", pair) for k, pair in enumerate(catalog)
    ]
    flat_actions = 0
    for name, (g, conn) in pairs:
        rep = induced_rep_on_g(g, conn)
        dual = dual_connection(rep)
        built = {
            "curvature_tm": curvature_tm(conn),
            "curvature_g on g": curvature_g(rep),
            "curvature_g on tm": curvature_g(induced_rep_on_tm(g, conn)),
            "curvature_g of the dual": curvature_g(dual),
            "torsion_g": torsion_g(rep),
            "torsion_g of the dual": torsion_g(dual),
        }
        for what, T in built.items():
            tests += _assert_plane_antisymmetric(T, f"{name}, {what}")
        if not is_flat_g(rep, POLICY).ok:
            continue  # the battery builds no forms on a curved action
        flat_actions += 1
        for s in range(3):
            theta = _random_one_form(g, seed=s)
            d1 = exterior_derivative(rep, theta, POLICY)
            forms = {
                "d": (d1, ((0, 1),)),
                "dd": (exterior_derivative(rep, d1, POLICY), ((0, 1), (1, 2))),
                "dtheta decomposition": (
                    dtheta_decomposition(rep, theta, rep, POLICY),
                    ((0, 1),),
                ),
            }
            for what, (T, slot_pairs) in forms.items():
                where = f"{name}, {what} of form {s}"
                tests += _assert_plane_antisymmetric(T, where, slot_pairs)
    assert flat_actions >= len(corpus_pairs)

    # the coframe curvature tensor: the corpus coframe (curvature form
    # zero) and a sheared one whose curvature form is not
    ws = Workspace(load_spec(CORPUS / "affine_group_parallelism.json"), POLICY)
    reports = {
        "affine coframe": parallelism_report(ws.parallelism(), POLICY),
        "sheared coframe": parallelism_report(sheared_parallelism(), POLICY),
    }
    assert not reports["sheared coframe"].model_flat
    for name, report in reports.items():
        T = report.curvature_tensor
        tests += _assert_plane_antisymmetric(T, f"{name} curvature tensor")
    print(
        f"[construction] {tests} antisymmetry zero tests on curvatures, "
        f"torsions, coframe curvature tensors and the battery's forms on "
        f"{flat_actions} flat actions, of {len(pairs)} pairs: PASS"
    )
