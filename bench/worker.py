"""Run one workload in this fresh process and print its figures as JSON.

    python3 -I bench/worker.py --workload refine --seed 1 --seconds 25 --trace 0

The checkout's ``src`` goes first on the import path, so the measured
``berezin`` is the one in this checkout and never an installed copy.  The
process prints ``ready`` once the package is imported and the seeded inputs
are built (``--setup-only`` stops there), then repeats whole passes over
the workload's operations until the next pass would end after
``--seconds``.  Each operation is timed by ``calibration.Meter``.  With
``--trace 1`` untraced and traced passes alternate.  Outputs are checked
against the references after the timing ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, BENCH]
    import berezin

    if os.path.dirname(os.path.dirname(os.path.abspath(berezin.__file__))) != src:
        print(f"berezin imported from {berezin.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads

    ops = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from calibration import Meter

    meter = Meter()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = []  # (traced, [(wall_s, cpu_s) per operation], outputs, layer metrics)
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        times, outputs = [], []
        pass_start = time.perf_counter()
        try:
            for op in ops:
                output, wall, cpu = meter.time(lambda: workloads.run(op))
                outputs.append(output)
                times.append((wall, cpu))
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, times, outputs, tracer.metrics() if traced else None))
        enough = tracer is None or len(passes) >= 2
        now = time.perf_counter()
        if enough and now - begin + (now - pass_start) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = [workloads.check(op, out) for op, out in zip(ops, passes[0][2])]
    failed = 0
    problems = []
    failures = []
    errors = []
    for _traced, _times, outputs, _metrics in passes:
        if outputs is passes[0][2] or all(map(workloads.same_output, outputs, passes[0][2])):
            results = first
        else:
            problems.append("outputs differ between passes")
            results = [workloads.check(op, out) for op, out in zip(ops, outputs)]
        for op, result in zip(ops, results):
            if not result.ok:
                failed += 1
                failures.append(op.label)
            problems += [f"{op.label}: {p}" for p in result.problems]
            if result.rel_error is not None:
                errors.append(result.rel_error)

    untraced = [p for p in passes if not p[0]]
    report = {
        "correct": not problems,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "wall_s": _typical_pass(untraced, 0),
        "cpu_s": _typical_pass(untraced, 1),
        "peak_rss_mib": peak_rss_mib,
        "max_rel_error": max(errors) if errors else None,
        "failures": sorted(set(failures)),
        "problems": sorted(set(problems)),
    }
    if tracer is not None:
        traced_passes = [p for p in passes if p[0]]
        layers = {
            name: statistics.median(p[3][name] for p in traced_passes) for name in traced_passes[0][3]
        }
        layers["trace.overhead_s"] = _typical_pass(traced_passes, 0) - report["wall_s"]
        report["layers"] = layers
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    print(json.dumps(report), flush=True)
    return 0


def _typical_pass(passes: list, column: int) -> float:
    """Sum over the operations of each one's median calibrated time across
    passes: the time of one typical pass."""
    per_op = zip(*(times for _traced, times, _outputs, _metrics in passes))
    return sum(statistics.median(t[column] for t in samples) for samples in per_op)


if __name__ == "__main__":
    raise SystemExit(main())
