"""Quick self-test of the benchmark (about a minute).

    python3 bench/selftest.py

Runs every workload at its smallest size (``--quick``), untraced and
traced, and checks that the printed result has the agreed shape: the
keys, the metric names and units of BENCHMARK.json, correct outputs and
no failed requests.  Runs the traced quick workloads twice to check that
every count repeats exactly.  Last, runs the benchmark in a directory
holding only BENCHMARK.json and bench/, where it must exit non-zero
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int, proc) -> dict:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: keys {sorted(result)}")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{where}: {result}\n{proc.stdout}")
    return result


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        check_result(workload, 0, run(ROOT, workload, 0))
        first = check_result(workload, 1, run(ROOT, workload, 1))
        again = check_result(workload, 1, run(ROOT, workload, 1))
        if counts(first) != counts(again):
            raise AssertionError(f"{workload}: counts differ between traced runs")
        print(f"ok {workload}")

    bare = BENCH_DIR / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(bare, names[0], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError(f"no source tree, yet exit {proc.returncode}: {proc.stdout}")
    print("ok without a source tree: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
