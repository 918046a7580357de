"""Benchmark of scw: one closed-loop workload per run, answers checked.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 40 --trace 0

One client runs one op at a time in this single process, the next op only
after the previous one returned, for --seconds seconds of whole cycles.
Each op is checked against an independent answer (see workloads.py); a
wrong answer or an exception counts as a failed op and does not stop the run.

--trace 0 prints the end-to-end metrics: setup_s (median over fresh
processes, started at intervals through the run, of the time from process
start to the first op's input being ready, which includes `import scw`),
op_p50_s, op_tail_s (the highest percentile with at least 10 ops beyond it),
ops_per_s (ops per second of op time), fail_ratio and peak_rss_mib.  Where
the workload has a reference kernel, the three op-time metrics are scaled to
the machine speed at which the kernel takes REF_NOMINAL_S (see end_to_end);
the measured values are printed beside them.

--trace 1 prints the per-layer metrics instead: it runs the workload
untraced for a quarter of --seconds, then replays the same inputs with every
layer wrapped (tracing.py), reports the difference in wall time as the
tracing overhead, requires the answers of both passes to be identical, and
writes the spans to .perfbench/ at the root of the checkout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Without the scw sources next to this
directory the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS, AnswerMismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
TAIL_BEYOND = 10
# A cycle may run past the deadline, but never by more than this.
GRACE_S = 60.0
# Op times of a workload with a reference kernel are reported at the machine
# speed where the kernel takes this long.
REF_NOMINAL_S = 0.015


def import_scw():
    """Import scw from the sources of this checkout, never from elsewhere."""
    if not (SRC / "scw" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no scw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scw
    import scw.checks
    import scw.cover
    import scw.exactla
    import scw.groups
    import scw.lefschetz
    import scw.report
    import scw.workbench
    if Path(scw.__file__).resolve().parent != (SRC / "scw").resolve():
        raise SystemExit(f"perfbench: imported scw from {scw.__file__}, not from {SRC}")
    return scw


def setup_probe(args) -> float:
    """Seconds from starting a fresh interpreter on this benchmark to its
    first op input being ready (CLOCK_MONOTONIC is shared by processes)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT)
    return float(out.stdout.split()[-1]) - start


class Op(NamedTuple):
    inp: object
    wall: float
    answer: str | None  # canonical text of a correct answer
    error: str | None


def time_reference(kernel) -> float:
    """Wall time of a reference kernel, with the garbage collector off so
    that the program's heap does not weigh on it."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_op(workload, scw, inp, tracer=None, op_id=0) -> Op:
    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        answer = workload.run(scw, inp)
    except Exception as exc:  # a failing op is counted, not fatal
        return Op(inp, time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.end_op()
    wall = time.perf_counter() - start
    try:
        return Op(inp, wall, workload.check(inp, answer), None)
    except AnswerMismatch as exc:
        return Op(inp, wall, None, f"wrong answer: {exc}")


def closed_loop(workload, scw, stream, seconds: float, tracer=None, between=None):
    """Ops one after another, in whole cycles, until `seconds` have passed;
    `between()` runs after each op, outside its timing."""
    ops = []
    deadline = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        if ops and (now >= deadline + GRACE_S
                    or (now >= deadline and len(ops) % workload.cycle == 0)):
            break
        ops.append(run_op(workload, scw, next(stream), tracer, len(ops)))
        if between is not None:
            between()
    return ops


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops
    beyond it; the maximum when there are too few ops."""
    ordered = sorted(walls)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def report_errors(ops):
    errors = [(i, op.error) for i, op in enumerate(ops) if op.error]
    for i, err in errors[:5]:
        print(f"perfbench: op {i} failed: {err}", file=sys.stderr)
    return len(errors)


def end_to_end(args, workload, scw, stream):
    # The machine's speed drifts for seconds to minutes at a time, so the
    # setup probes are spread over the run, and where the workload has a
    # reference kernel it is timed between ops and each op time is scaled by
    # REF_NOMINAL_S / (mean of the kernel times just before and after it).
    setup, refs = [], []
    start = time.perf_counter()

    def between_ops():
        if workload.reference is not None:
            refs.append(time_reference(workload.reference))
        due = start + len(setup) * args.seconds / SETUP_PROBES
        if len(setup) < SETUP_PROBES and time.perf_counter() >= due:
            setup.append(setup_probe(args))

    between_ops()
    ops = closed_loop(workload, scw, stream, args.seconds, between=between_ops)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args))
    walls = [op.wall for op in ops]
    # refs[i] and refs[i + 1] are the kernel runs just before and after op i
    times = ([w * 2 * REF_NOMINAL_S / (a + b) for w, a, b in zip(walls, refs, refs[1:])]
             if refs else walls)
    failed = report_errors(ops)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(ops) / sum(times), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"workload {workload.name}  seed {args.seed}  {len(ops)} ops, {sum(walls):.2f} s")
    if refs:
        print(f"reference     median {statistics.median(refs):.4f} s over {len(refs)} runs "
              f"({min(refs):.4f}-{max(refs):.4f}); each op scaled to {REF_NOMINAL_S} s")
    print(f"setup_s       {metrics['setup_s'][0]:.4f} s   (median of {len(setup)} "
          f"process starts, {min(setup):.4f}-{max(setup):.4f} s)")
    print(f"op_p50_s      {metrics['op_p50_s'][0]:.4f} s   (measured {statistics.median(walls):.4f} s)")
    print(f"op_tail_s     {tail_s:.4f} s   (p{tail_pct:.1f} of {len(ops)} ops, "
          f"measured {tail(walls)[0]:.4f} s)")
    print(f"ops_per_s     {metrics['ops_per_s'][0]:.4f} 1/s   (measured {len(ops) / sum(walls):.4f} 1/s)")
    print(f"fail_ratio    {failed}/{len(ops)} = {failed / len(ops):.4f}")
    print(f"peak_rss_mib  {metrics['peak_rss_mib'][0]:.1f} MiB")
    return len(ops), failed, metrics


def per_layer(args, workload, scw, stream):
    from tracing import Tracer, per_layer_metrics

    # The untraced pass runs first: the spans of a traced pass slow the
    # garbage collector down for as long as they are held.
    plain = closed_loop(workload, scw, stream, args.seconds / 4)
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(workload, scw, op.inp, tracer, i) for i, op in enumerate(plain)]
    finally:
        tracer.uninstall()
    failed = report_errors(plain) + report_errors(traced)
    differ = sum(1 for a, b in zip(traced, plain) if a.answer != b.answer)
    if differ:
        print(f"perfbench: {differ} answers differ between the traced and untraced "
              f"passes", file=sys.stderr)
    traced_s = sum(op.wall for op in traced)
    plain_s = sum(op.wall for op in plain)
    metrics = per_layer_metrics(tracer.spans, len(traced))
    metrics["trace.ops"] = (len(traced), "count")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - plain_s) / plain_s, "ratio")
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    print(f"workload {workload.name}  seed {args.seed}  {len(plain)} ops untraced "
          f"({plain_s:.2f} s), traced replay {traced_s:.2f} s, "
          f"{len(tracer.spans)} spans -> {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    return len(traced) + len(plain), failed + differ, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--probe", action="store_true",
                        help="set up, print the time the first op's input is ready, exit")
    args = parser.parse_args(argv)

    scw = import_scw()
    workload = WORKLOADS[args.workload]
    stream = workload.inputs(args.seed)
    first = next(stream)
    if args.probe:
        print(time.monotonic())
        return 0
    stream = itertools.chain([first], stream)
    if args.trace:
        attempted, failed, metrics = per_layer(args, workload, scw, stream)
    else:
        attempted, failed, metrics = end_to_end(args, workload, scw, stream)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
