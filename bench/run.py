"""cartankit benchmark: verdict latency on replayed command-line requests.

    python3 bench/run.py --workload {identities-corpus,check-corpus,holonomy-loops}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  One process sends one request at a time
(a closed loop, one client); each request is a fresh forked child that
runs ``cartankit.cli.run(argv)`` and prints its report.  Passes over the
workload's requests repeat until ``--seconds`` have been spent.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, and the line above it the median request time; with ``--trace 1`` each round is an untraced pass
followed by a traced one, and the metrics are the per-layer figures plus
the tracing overhead.  Every report is checked (see checks.py).  The
full record of the run goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

# one request at a time on one core: keep BLAS from starting worker
# threads, which would also make forking the parent unsafe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
sys.path.insert(0, str(BENCH_DIR))

# these import only the standard library, so forked requests stay clean
import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES as LAYER_MODULES  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics: which of calls and self time each traced function
# reports, then the tracer's own counts, the module totals and the overhead
LAYER_FUNCTIONS = (
    ("symcore.canon", ("calls", "self_s")),
    ("symcore.evaluate", ("calls", "self_s")),
    ("symcore.is_zero", ("calls", "self_s")),
    ("symcore.diff", ("calls", "self_s")),
    ("symcore.parse", ("calls", "self_s")),
    ("cli.load_spec", ("self_s",)),
    ("bundles.TensorField", ("calls", "self_s")),
    ("connections.curvature_g", ("calls", "self_s")),
    ("cartan.exterior_derivative", ("calls", "self_s")),
    ("cartan.compat_defect", ("self_s",)),
    ("cartan.holonomy_check", ("self_s",)),
    ("algebroid.bracket", ("calls", "self_s")),
    ("algebroid.validate", ("self_s",)),
)
LAYER_COUNTS = (
    "symcore.canon.distinct_args",
    "symcore.evaluate.domain_errors",
    "symcore.is_zero.symbolic",
    "symcore.is_zero.probabilistic",
    "symcore.is_zero.undecidable",
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for key, parts in LAYER_FUNCTIONS:
        out += [(f"{key}.{p}", "count" if p == "calls" else "s") for p in parts]
    out += [(name, "count") for name in LAYER_COUNTS]
    out += [(f"{m}.self_s", "s") for m in LAYER_MODULES]
    out += [("trace.overhead_s", "s"), ("trace.wall_s", "s")]
    return out


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _locate_program() -> None:
    """Make ``import cartankit`` load the checkout's own source tree."""
    if not (SRC / "cartankit" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        _fail(f"no cartankit source tree and corpus under {ROOT}")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import cartankit

    if Path(cartankit.__file__).resolve().parent != SRC / "cartankit":
        _fail(f"imported cartankit from {cartankit.__file__}, not from {SRC}")


def run_pass(requests, trace: bool):
    return [harness.run_request(r.argv, trace=trace) for r in requests]


def layer_metrics(traced_passes, overheads, traced_walls):
    """Per-layer figures of one pass: counts from the first traced pass
    (they repeat exactly), times as medians over traced passes."""

    def pass_totals(results):
        calls, self_s, counts = {}, {}, {}
        for res in results:
            tr = res.get("trace") or {"calls": {}, "self_s": {}, "counts": {}}
            for src, dst in ((tr["calls"], calls), (tr["self_s"], self_s),
                             (tr["counts"], counts)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        return calls, self_s, counts

    totals = [pass_totals(p) for p in traced_passes]
    calls, _, counts = totals[0]
    values = {}
    for key, parts in LAYER_FUNCTIONS:
        if "calls" in parts:
            values[f"{key}.calls"] = calls.get(key, 0)
        if "self_s" in parts:
            values[f"{key}.self_s"] = statistics.median(t[1].get(key, 0.0) for t in totals)
    for name in LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    for mod in LAYER_MODULES:
        values[f"{mod}.self_s"] = statistics.median(
            sum(v for k, v in t[1].items() if k.split(".", 1)[0] == mod) for t in totals)
    values["trace.overhead_s"] = statistics.median(overheads)
    values["trace.wall_s"] = statistics.median(traced_walls)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest size of the workload (self-test)")
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    _locate_program()
    requests = workloads.build(args.workload, args.seed, quick=args.quick)
    if not args.trace:
        setup_s = harness.measure_setup(str(SRC), 3 if args.quick else SETUP_REPEATS)
    harness.preload()

    # closed loop: whole passes until the run length is spent; a traced
    # run alternates untraced and traced passes of the same requests
    passes = []  # (traced?, results)
    start = perf_counter()
    while True:
        passes.append((False, run_pass(requests, trace=False)))
        if args.trace:
            passes.append((True, run_pass(requests, trace=True)))
        if perf_counter() - start >= args.seconds:
            break

    # sympy is loaded only now, so no request process ever carries it
    from checks import Geometry, judge

    geometries = {}
    first_stdout = {}
    records = []
    failed = 0
    problems = []
    for traced, results in passes:
        for req, res in zip(requests, results):
            geo = geometries.setdefault(req.name, Geometry(req.name))
            failure, wrong = judge(req, res, geo)
            seen = first_stdout.setdefault(req.argv, res["stdout"])
            if failure is None and res["stdout"] != seen:
                failure = "report differs from an earlier repeat of the same request"
            failed += failure is not None
            problems += [f"{' '.join(req.argv)}: {w}" for w in wrong]
            records.append({"argv": list(req.argv), "traced": traced,
                            "elapsed_s": res["elapsed_s"], "cpu_s": res.get("cpu_s"),
                            "peak_rss_mb": res["peak_rss_mb"], "failure": failure,
                            "problems": wrong, "trace": res.get("trace")})
    attempted = len(records)

    plain = [res for traced, res in passes if not traced]
    walls = [sum(r["elapsed_s"] or 0.0 for r in p) for p in plain]
    reported = {}
    if args.trace:
        traced = [res for t, res in passes if t]
        traced_walls = [sum(r["elapsed_s"] or 0.0 for r in p) for p in traced]
        values = layer_metrics(traced, [t - u for t, u in zip(traced_walls, walls)], traced_walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    else:
        # a request whose process died has no time or memory figure
        times = [r["elapsed_s"] for p in plain for r in p if r["elapsed_s"] is not None]
        rss = [r["peak_rss_mb"] for p in plain for r in p if r["peak_rss_mb"] is not None]
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s, "peak_rss_mb": max(rss)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        # printed, not one of the result's metrics: on identities-corpus the
        # median falls between two request types about 25 % apart, and this
        # machine's CPU-speed swings flip it beyond any bound (README, "Steadiness")
        reported["request_p50_s"] = {"value": statistics.median(times), "unit": "s"}

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, reported=reported, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, quick=args.quick,
                  passes=len(plain), problems=problems, requests=records)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    for p in problems:
        print(f"problem: {p}")
    for rec in records:
        if rec["failure"]:
            print(f"failed: {' '.join(rec['argv'])}: {rec['failure']}")
    for name, m in reported.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
