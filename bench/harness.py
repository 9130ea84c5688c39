"""Running one request the way a command-line user would.

Each request runs in a child forked from a parent that has imported
cartankit and the modules it loads lazily, so every request starts from
a process state no earlier request touched, and pays no import time
(``setup_s`` measures that separately, in fresh interpreters).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time

from tracer import Tracer

# what a fresh `cartankit` process imports before its first verdict:
# the package, plus jsonschema (schema_errors) and scipy.linalg
# (holonomy_check), which the program imports on first use
SETUP_IMPORTS = "import cartankit.cli, jsonschema, scipy.linalg"


def preload() -> None:
    """Import in this process what every request would otherwise import."""
    import cartankit.cli  # noqa: F401
    import jsonschema  # noqa: F401
    import scipy.linalg  # noqa: F401


def measure_setup(src_dir: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing the program."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_IMPORTS], env=env, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _child(argv, trace: bool) -> dict:
    from cartankit import cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    error = None
    exit_code = None
    start, cpu_start = perf_counter(), process_time()
    try:
        with contextlib.redirect_stdout(out):
            exit_code = cli.run(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        exit_code = exc.code
    except Exception:  # a crash is a failed request, reported with its traceback
        error = traceback.format_exc()
    elapsed, cpu = perf_counter() - start, process_time() - cpu_start
    payload = {"stdout": out.getvalue(), "exit_code": exit_code, "error": error,
               "elapsed_s": elapsed, "cpu_s": cpu}
    if tracer is not None:
        payload["trace"] = tracer.snapshot()
    return payload


def run_request(argv, trace: bool = False) -> dict:
    """Run ``cartankit <argv>`` in a forked child; returns its stdout,
    exit code, crash traceback (or None), request time and peak RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    gc.collect()  # every child starts from the same collector state
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller's code
        status = 1
        try:
            os.close(read_fd)
            data = json.dumps(_child(argv, trace)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, wait_status, usage = os.wait4(pid, 0)
    if wait_status != 0 or not data:
        return {"stdout": "", "exit_code": None, "elapsed_s": None, "peak_rss_mb": None,
                "error": f"request process ended with wait status {wait_status}"}
    result = json.loads(data)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return result
