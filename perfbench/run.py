#!/usr/bin/env python3
"""Run one benchmark workload; the last line of stdout is its JSON result.

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing and
metering off.  ``--trace 1`` runs the workload twice, untraced and then
traced (metered kernels, KernelTimers and the benchmark's own spans), and
prints the per-layer metrics; it also writes a Chrome trace and a layer
table under ``perfbench/out/``.  The exit code is non-zero when any
operation failed or any output missed the fp64 tolerance.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-large", "solve-small", "serve-farm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.env import pin_blas_threads, pin_malloc_arenas

    pin_blas_threads()  # before numpy is imported
    arenas_pinned = pin_malloc_arenas()  # before any thread starts

    from repro.linalg.context import ExecutionContext, set_context

    from perfbench.check import OutputCheck
    from perfbench.env import stamp
    from perfbench.metrics import E2E, LAYERS, PER_LAYER, median, result_line
    from perfbench.spans import SpanRecorder, format_table
    from perfbench.workloads import (
        SETUP_BUDGET_S,
        SETUP_MAX_REPEATS,
        SETUP_MIN_REPEATS,
        make_workload,
    )

    workload = make_workload(args.workload, args.seed)
    traced_mode = bool(args.trace)
    # Farm sessions pin the process-wide context when they are created.
    set_context(ExecutionContext(backend=workload.backend, meter=False))
    env = stamp(workload=args.workload, backend=workload.backend, seed=args.seed,
                seconds=args.seconds, trace=traced_mode, malloc_arenas_pinned=arenas_pinned)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    check = OutputCheck()
    off = SpanRecorder(enabled=False)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report: dict = {"env": env}

    if not traced_mode:
        setups: list = []
        state = None
        while len(setups) < SETUP_MIN_REPEATS or (
                sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPEATS):
            if state is not None:
                workload.teardown(state)
                # A torn-down set-up leaves arrays in reference cycles; collect
                # them now, or when the collector next runs decides how many
                # earlier set-ups still count in peak_rss_mb.
                gc.collect()
            t0 = time.perf_counter()
            state = workload.setup(off)
            setups.append(time.perf_counter() - t0)
        try:
            run = workload.measure(state, args.seconds, traced=False, spans=off, check=check)
        finally:
            workload.teardown(state)
        values = dict(run["e2e"], setup_s=median(setups), peak_rss_mb=peak_rss_mb())
        units = E2E
        report["setup_samples_s"] = setups
    else:
        state = workload.setup(off)
        try:
            untraced = workload.measure(state, args.seconds / 2, traced=False, spans=off,
                                        check=check)
        finally:
            workload.teardown(state)
        spans = SpanRecorder()
        state = None
        try:
            with spans.span("traced run", "unattributed") as root:
                state = workload.setup(spans, meter=True)
                traced = workload.measure(state, args.seconds / 2, traced=True, spans=spans,
                                          check=check)
            values = workload.probes(state, untraced, traced, check, spans)
        finally:
            if state is not None:
                workload.teardown(state)
        table = spans.layer_table(root)
        unknown = set(table) - set(LAYERS)
        if unknown:
            raise KeyError(f"spans name layers outside the table: {sorted(unknown)}")
        for layer in LAYERS:
            values[f"layers.{layer}.self_frac"] = table.get(layer, 0.0) / root.duration
        values["trace.overhead_frac"] = traced["cost"] / untraced["cost"] - 1.0
        units = PER_LAYER
        extra = {f"serve workers, {k} (overlaps rows above)": v
                 for k, v in traced.get("worker_busy", {}).items()}
        text = format_table(f"layer table: {args.workload} seed {args.seed}", table,
                            root.duration, extra)
        print(text)
        print(f"headline {args.workload}: host GMRES-IR speedup "
              f"{values['solvers.ir_speedup']:.3f}x | modelled V100 speedup "
              f"{values['perfmodel.v100_ir_speedup']:.3f}x (reported, not gated)")
        (OUT / f"{stem}-layers.txt").write_text(text + "\n")
        spans.write_chrome_trace(OUT / f"{stem}-chrome.json")
        report["layer_table_s"] = table

    for failure in check.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = result_line(check.correct, check.attempted, check.failed, values, units)
    report.update(result=result, failures=check.failures, worst_relres=check.worst)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if check.correct else 1


if __name__ == "__main__":
    sys.exit(main())
