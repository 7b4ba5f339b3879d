"""Benchmark of berezin: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload refine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed in fresh interpreters
(``setup_s`` is the median of several, calibrated as in calibration.py),
then one more fresh process runs the workload for ``--seconds`` (see
worker.py).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Known failing operations and their faults are listed in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from calibration import Meter
from tracing import METRICS as PER_LAYER

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("refine", "kernel", "fk_wide", "verify")
SETUPS = 7  # fresh interpreters timed per run; the last one runs the workload
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("max_rel_error", "rel"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("BEREZIN_THREADS", None)  # the program's pool stays at one worker
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(argv: list, deadline: float, meter: Meter) -> tuple[float, str, int]:
    """Start a worker; return (calibrated seconds until it printed ready,
    rest of its output, exit code).  The worker is killed at the deadline."""
    before = meter.scale()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", os.path.join(BENCH, "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=_child_env(),
    )
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        ready *= 0.5 * (before + meter.scale())
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not finish set-up (exit code {code})")
    return ready, rest, code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "berezin", "__init__.py")):
        print(f"no berezin sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    argv += ["--trace", str(args.trace)]
    meter = Meter()
    try:
        setups = [_spawn(argv + ["--setup-only"], deadline, meter)[0] for _ in range(SETUPS - 1)]
        ready, rest, code = _spawn(argv, deadline, meter)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    setups.append(ready)
    lines = rest.strip().splitlines()
    if code != 0 or not lines:
        print(f"worker exited with code {code}", file=sys.stderr)
        return 1
    report = json.loads(lines[-1])
    for label in report["failures"]:
        print(f"failed: {label}", file=sys.stderr)
    for problem in report["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    if report["max_rel_error"] is None:
        print("no operation returned a final answer", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = dict(report, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
