"""The benchmark harness: the CLI modes CI runs, plus helpers the
pytest-benchmark modules import (:func:`run_once`, :func:`backend_context`,
:func:`run_backend_comparison`).

``python benchmarks/_harness.py --<mode> [--out PATH]`` runs one or more
modes.  Each writes a self-describing ``BENCH_<name>.json`` (schema
``repro-bench/1``: environment stamps, a summary block, one entry per
measurement) under ``benchmarks/results/``, or to ``--out`` when exactly
one mode is selected.  The modes:

* ``--smoke`` — scaled-down Figure 1 and Figure 5 configurations with
  per-kernel wall times (``BENCH_smoke.json``).
* ``--backends`` — every registered kernel backend on the ``--grid``³
  (default 64³) Laplace3D SpMV/SpMM, with the SciPy-over-NumPy SpMV speedup
  (``BENCH_backends.json``).
* ``--solve`` — end-to-end metered and unmetered fp64 GMRES(50) on the
  smoke matrices for every backend, with the speedup against the per-
  iteration baseline recorded before the allocation-free hot path
  (``BENCH_solve.json``).  ``benchmarks/check_solve_regression.py`` diffs a
  fresh run against the committed file.
* ``--solve-block`` — Block-GMRES at block size 8 against 8 sequential
  GMRES solves, plain and poly16-preconditioned, on every backend.  Checks
  that the block solutions match the sequential ones and enforces
  :data:`BLOCK_GATE` (``BENCH_block.json``).
* ``--serve`` — ``--clients`` threads, one request in flight each, against
  an :class:`repro.serve.OperatorSession`: the unbatched width-1 scheduler
  against the micro-batching one.  Records RHS/s and p50/p95 queue-wait,
  solve and total latency; checks that a served request is bit-identical
  to the direct solve and that a diverging request fails alone; enforces
  :data:`SERVE_GATE` (``BENCH_serve.json``).
* ``--farm`` — a skewed 8-operator mix (one hot tenant, seven cold) against
  a :class:`repro.serve.SolverFarm` with fewer session slots than
  operators, so LRU eviction and re-warm are part of the workload, and
  against the naive one-warm-session-at-a-time baseline.  Records fleet
  RHS/s, per-tenant latency and fairness shares and evictions; enforces
  :data:`FARM_GATE` (``BENCH_farm.json``).
* ``--obs`` — the ``--serve`` batched client mix with observability off,
  metrics-only, sampled tracing and full tracing.  Checks that the span
  ledgers reconcile with the service telemetry and enforces
  :data:`OBS_GATE` (``BENCH_obs.json``).  The traced run's Chrome trace is
  written beside the JSON: ``TRACE_obs.json`` by default and
  ``TRACE_<x>.json`` for ``--out .../BENCH_<x>.json``
  (:func:`trace_path_for`).

Every mode runs on one measurement core:

* :func:`repeat_runs` runs named variants interleaved over N repeats, so
  machine drift cancels out of their ratios, and returns every run;
  callers keep the best wall time (:func:`best_run`);
* :func:`drive_clients` runs one thread per client and times the fleet;
* :func:`check` is an acceptance check that ``python -O`` does not strip;
* :func:`gate` prints each gate failure and exits 1, or reports the gate
  holds;
* :data:`MODES` maps each CLI flag to its runner and help text.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import sys
import threading
import time
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


# ---------------------------------------------------------------------- #
# backend selection/setup (shared by every CLI mode and bench module)    #
# ---------------------------------------------------------------------- #
@contextmanager
def backend_context(backend: Optional[str] = None, *, meter: bool = False) -> Iterator[str]:
    """Install a pinned execution context for one benchmark measurement.

    Builds an :class:`ExecutionContext` pinned to ``backend`` with metering
    on or off, installs it globally, and restores the default context
    afterwards even when the measurement raises.  Yields the resolved
    backend name.
    """
    from repro.config import get_config
    from repro.linalg.context import ExecutionContext, set_context

    name = backend or get_config().backend
    set_context(ExecutionContext(meter=meter, backend=name))
    try:
        yield name
    finally:
        set_context(ExecutionContext())


def each_backend(*, meter: bool = False) -> Iterator[str]:
    """Iterate every registered backend with a pinned context installed."""
    from repro.backends import available_backends

    for name in available_backends():
        with backend_context(name, meter=meter):
            yield name


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its result.

    The benchmarks reproduce whole experiments (dozens of solver runs), so a
    single timed round is appropriate — the interesting numbers are in the
    experiment reports, the wall time is just bookkeeping.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


# ---------------------------------------------------------------------- #
# measurement core (every CLI mode runs on these)                        #
# ---------------------------------------------------------------------- #
def timed(func: Callable, *args, **kwargs) -> Tuple[float, object]:
    """Call ``func`` once; return ``(wall_seconds, result)``."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - start, result


def repeat_runs(
    variants: Dict[str, Callable[[], tuple]], repeats: int
) -> Dict[str, List[tuple]]:
    """Run ``variants`` interleaved for ``repeats`` rounds; return every run.

    Each round calls every variant once, in the dict's order, so machine
    drift (thermal, noisy neighbours) hits all variants alike.  A variant
    returns a tuple whose first item is its wall seconds (see
    :func:`timed`).  Returns each variant's runs in order; at least one
    round always runs.
    """
    runs: Dict[str, List[tuple]] = {name: [] for name in variants}
    for _ in range(max(1, repeats)):
        for name, variant in variants.items():
            runs[name].append(variant())
    return runs


def best_run(runs: Sequence[tuple]) -> tuple:
    """The run with the least wall seconds (the earliest one on ties)."""
    return min(runs, key=lambda run: run[0])


def drive_clients(clients: Dict[str, Callable[[], None]], label: str) -> float:
    """Run each client on its own thread (named by its key); return the wall seconds.

    The clock spans starting the first thread to joining the last.  Any
    client exception becomes ``SystemExit`` tagged with ``label`` once all
    threads have joined.
    """
    errors: List[Tuple[str, BaseException]] = []

    def run(name: str, client: Callable[[], None]) -> None:
        try:
            client()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append((name, exc))

    threads = [
        threading.Thread(target=run, args=(name, client), name=name)
        for name, client in clients.items()
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise SystemExit(f"{label}: client errors: {errors[:3]}")
    return wall


def check(condition: bool, message: str) -> None:
    """Acceptance check: raise ``SystemExit(message)`` unless ``condition``.

    Unlike ``assert``, it still checks under ``python -O``.
    """
    if not condition:
        raise SystemExit(message)


def gate(tag: str, failures: List[str], holds: str) -> None:
    """Print each gate failure and exit 1, or print that the gate holds."""
    for failure in failures:
        print(f"[{tag}] FAIL gate: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)
    print(f"[{tag}] gate holds: {holds}")


# ---------------------------------------------------------------------- #
# machine-readable benchmark records                                     #
# ---------------------------------------------------------------------- #
def write_bench_json(
    name: str,
    entries: List[Dict[str, object]],
    *,
    summary: Optional[Dict[str, object]] = None,
    out: Optional[pathlib.Path] = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``benchmarks/results/`` (or ``out``).

    Returns the path written.  The payload is self-describing: a schema
    tag, environment stamps, an optional summary block and the
    ``entries``.
    """
    import numpy
    import scipy

    path = out or (RESULTS_DIR / f"BENCH_{name}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: Dict[str, object] = {
        "schema": "repro-bench/1",
        "name": name,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "entries": entries,
    }
    if summary:
        payload["summary"] = summary
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[{name}] wrote {path}")
    return path


# ---------------------------------------------------------------------- #
# --smoke, --backends, --solve                                           #
# ---------------------------------------------------------------------- #
def run_smoke(out: Optional[pathlib.Path] = None) -> pathlib.Path:
    """Scaled-down Figure 1 + Figure 5 runs with per-kernel wall times."""
    from repro.config import get_config
    from repro.experiments import ExperimentConfig, fig1_fd_laplace3d, fig5_kernel_speedups
    from repro.perfmodel import KernelTimer, use_timer

    cfg = ExperimentConfig(quick=True)
    backend = get_config().backend
    entries: List[Dict[str, object]] = []
    for label, driver, matrix in (
        ("figure1_fd_laplace3d", fig1_fd_laplace3d.run, "Laplace3D16"),
        ("figure5_kernel_speedups", fig5_kernel_speedups.run, "three-PDE suite"),
    ):
        with use_timer(KernelTimer(label)) as timer:
            elapsed, _ = timed(driver, cfg)
        # One entry per (kernel label, precision) bucket of the timer.
        entries.extend(
            dict(
                benchmark=label, backend=backend, matrix=matrix, kernel=rec.label,
                dtype=rec.precision, calls=rec.calls, wall_seconds=rec.wall_seconds,
                model_seconds=rec.model_seconds, bytes=rec.bytes, flops=rec.flops,
                total_wall_seconds=elapsed,
            )
            for rec in timer.records
        )
        print(f"[smoke] {label}: {elapsed:.1f} s wall", flush=True)
    return write_bench_json("smoke", entries, out=out)


def run_backend_comparison(
    grid: int = 64,
    *,
    n_rhs: int = 8,
    out: Optional[pathlib.Path] = None,
) -> pathlib.Path:
    """Time every registered backend on Laplace3D SpMV/SpMM → BENCH_backends.json.

    Each kernel keeps its best of 7 runs.  The reference configuration of
    the acceptance gate is the 64³ Laplace3D matrix in fp64.
    """
    from repro.backends import available_backends, get_backend
    from repro.config import rng
    from repro.matrices import laplace3d

    def best_of_7(kernel, *args) -> float:
        return best_run(repeat_runs({"kernel": partial(timed, kernel, *args)}, 7)["kernel"])[0]

    matrix64 = laplace3d(grid)
    entries: List[Dict[str, object]] = []
    spmv_times: Dict[str, Dict[str, float]] = {}
    gen = rng()  # deterministic inputs (ReproConfig.seed)
    for dtype_name in ("double", "single"):
        matrix = matrix64.astype(dtype_name)
        x = gen.standard_normal(matrix.n_cols).astype(matrix.dtype)
        X = gen.standard_normal((matrix.n_cols, n_rhs)).astype(matrix.dtype)
        for name in available_backends():
            backend = get_backend(name)
            backend.spmv(matrix, x)  # warm-up pass also builds cached handles
            t_spmv = best_of_7(backend.spmv, matrix, x)
            t_spmm = best_of_7(backend.spmm, matrix, X)
            spmv_times.setdefault(dtype_name, {})[name] = t_spmv
            for kernel, seconds in (("SpMV", t_spmv), ("SpMM", t_spmm)):
                entries.append(dict(
                    benchmark="backend_comparison", backend=name, matrix=matrix.name,
                    kernel=kernel, dtype=dtype_name, calls=1, wall_seconds=seconds,
                    n_rows=matrix.n_rows, nnz=matrix.nnz,
                    n_rhs=n_rhs if kernel == "SpMM" else 1,
                ))
            print(
                f"[backends] {matrix.name} {dtype_name} {name}: "
                f"SpMV {t_spmv * 1e3:.2f} ms, SpMM({n_rhs}) {t_spmm * 1e3:.2f} ms",
                flush=True,
            )
    summary: Dict[str, object] = {"grid": grid, "n_rhs": n_rhs}
    for dtype_name, times in spmv_times.items():
        if "numpy" in times and "scipy" in times and times["scipy"] > 0:
            summary[f"spmv_speedup_scipy_over_numpy_{dtype_name}"] = (
                times["numpy"] / times["scipy"]
            )
    return write_bench_json("backends", entries, summary=summary, out=out)


#: Per-iteration wall time (µs) of the unmetered smoke GMRES(50) fp64 solve
#: measured at commit 88ece0e (the last commit *before* the allocation-free
#: hot path landed) on the machine that recorded the committed
#: ``BENCH_solve.json``; best of 21 runs interleaved with the post-change
#: measurements to cancel machine drift.  Keyed ``"<backend>/<matrix>"``.
#: These numbers are only comparable to measurements from that same
#: committed file — the CI regression check compares fresh runs against the
#: committed wall times with a tolerance band instead.
PRE_PR_BASELINE_US: Dict[str, float] = {
    "numpy/Laplace3D24": 1216.7,
    "numpy/UniFlow2D64": 285.8,
    "scipy/Laplace3D24": 652.6,
    "scipy/UniFlow2D64": 179.6,
}

#: The acceptance-gate configuration: the library-default NumPy reference
#: backend on the larger smoke matrix must beat the pre-PR baseline by this
#: factor (checked against the committed JSON by check_solve_regression.py).
SOLVE_GATE = {"backend": "numpy", "matrix": "Laplace3D24", "min_speedup": 1.25}


def run_solve(out: Optional[pathlib.Path] = None, *, repeats: int = 3) -> pathlib.Path:
    """End-to-end GMRES(50) solve benchmark → BENCH_solve.json.

    Runs each solve *unmetered* (``meter=False``: raw backend speed) and
    *metered* (timers active, cost model charged), one warm-up then
    best-of-``repeats``.  Iteration counts are deterministic, so the CI
    diff requires them to match exactly.
    """
    import numpy as np

    from repro.backends import available_backends
    from repro.matrices import laplace3d, uniflow2d
    from repro.solvers.gmres import gmres

    solve_kwargs = dict(restart=50, tol=1e-8, max_restarts=4, fp64_check=False)
    matrices = [("Laplace3D24", laplace3d(24)), ("UniFlow2D64", uniflow2d(64))]
    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    for backend in available_backends():
        for label, matrix in matrices:
            b = np.ones(matrix.n_rows)
            for mode in ("unmetered", "metered"):
                solve = partial(timed, gmres, matrix, b, **solve_kwargs)
                with backend_context(backend, meter=(mode == "metered")):
                    solve()  # warm-up
                    best, result = best_run(repeat_runs({mode: solve}, repeats)[mode])
                per_iter_us = best / result.iterations * 1e6
                entries.append(dict(
                    benchmark="solve", backend=backend, matrix=label, solver="gmres(50)",
                    dtype="double", mode=mode, status=str(result.status),
                    iterations=result.iterations, wall_seconds=best,
                    wall_per_iteration_us=per_iter_us,
                ))
                if mode == "unmetered":
                    key = f"{backend}/{label}"
                    baseline = PRE_PR_BASELINE_US.get(key)
                    if baseline:
                        speedups[key] = baseline / per_iter_us
                print(
                    f"[solve] {backend} {label} {mode}: "
                    f"{result.iterations} iters, {per_iter_us:.1f} us/iter",
                    flush=True,
                )
    summary = dict(
        solver="gmres(50)", dtype="double", tolerance=solve_kwargs["tol"], repeats=repeats,
        gate=SOLVE_GATE, pre_pr_baseline_us=dict(PRE_PR_BASELINE_US),
        unmetered_speedup_vs_pre_pr=speedups,
    )
    return write_bench_json("solve", entries, summary=summary, out=out)


# ---------------------------------------------------------------------- #
# --solve-block                                                          #
# ---------------------------------------------------------------------- #
#: The batched-solve acceptance gate: on the reference backend, Block-GMRES
#: at block size 8 must beat 8 sequential GMRES solves by this factor in
#: per-RHS wall time, in the paper's polynomial-preconditioned solver
#: configuration (where iterations are SpMM-dominated — see the README's
#: "Batched multi-RHS solving" subsection for when blocking wins).
BLOCK_GATE = {
    "backend": "numpy",
    "matrix": "Laplace3D32",
    "config": "poly16",
    "block_size": 8,
    "min_speedup": 2.0,
}

#: (label, polynomial degree or None, sequential restart, block restart)
_BLOCK_CONFIGS = [
    ("poly16", 16, 50, 15),
    ("plain", None, 50, 16),
]


def run_solve_block(
    out: Optional[pathlib.Path] = None,
    *,
    repeats: int = 3,
    grid: int = 32,
    block_size: int = 8,
    tol: float = 1e-8,
) -> pathlib.Path:
    """Batched multi-RHS solve benchmark → BENCH_block.json (with gate).

    Per backend and configuration: one warm-up of each path, then the
    sequential and block solves interleaved, best-of-``repeats`` for the
    gate configuration and a single run otherwise.  The last run's
    solutions must converge and match to solver tolerance.
    """
    import numpy as np

    from repro.config import rng
    from repro.matrices import laplace3d
    from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
    from repro.solvers import block_gmres, gmres

    matrix = laplace3d(grid)
    label = f"Laplace3D{grid}"
    B = rng(2024).standard_normal((matrix.n_rows, block_size))
    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    parity: Dict[str, float] = {}
    for backend in each_backend():
        for config, degree, seq_restart, blk_restart in _BLOCK_CONFIGS:
            precond = GmresPolynomialPreconditioner(matrix, degree=degree) if degree else None
            common_kwargs = dict(tol=tol, preconditioner=precond, fp64_check=True)

            def run_sequential():
                return [
                    gmres(matrix, B[:, c], restart=seq_restart, max_restarts=10,
                          **common_kwargs)
                    for c in range(block_size)
                ]

            def run_block():
                return block_gmres(matrix, B, restart=blk_restart, max_restarts=60,
                                   **common_kwargs)

            run_sequential()  # warm-up (plans, BLAS, caches)
            run_block()  # warm-up
            runs = repeat_runs(
                {"sequential": partial(timed, run_sequential),
                 "block": partial(timed, run_block)},
                repeats if config == BLOCK_GATE["config"] else 1,
            )
            t_seq, t_blk = best_run(runs["sequential"])[0], best_run(runs["block"])[0]
            seq_results, blk = runs["sequential"][-1][1], runs["block"][-1][1]

            # Correctness: every column converged on both paths and the
            # block solutions match the sequential ones to solver
            # tolerance (the residual criterion both paths satisfy).
            where = f"{backend}/{config}"
            check(all(r.converged for r in seq_results),
                  f"sequential {where} did not converge")
            check(blk.converged, f"block {where} did not converge")
            check(float(blk.relative_residuals_fp64.max()) <= tol * 1.01,
                  f"block {where} residual above tolerance")
            max_diff = max(
                float(
                    np.linalg.norm(blk.X[:, c] - seq_results[c].x)
                    / np.linalg.norm(seq_results[c].x)
                )
                for c in range(block_size)
            )
            check(max_diff < 1e-5, f"block {where} drifted from sequential: {max_diff:.2e}")

            speedups[where] = t_seq / t_blk
            parity[where] = max_diff
            common = dict(
                benchmark="solve_block", backend=backend, matrix=label, config=config,
                dtype="double", block_size=block_size, tolerance=tol,
            )
            entries.append(
                dict(
                    common,
                    mode="sequential",
                    solver=f"gmres({seq_restart})",
                    wall_seconds=t_seq,
                    per_rhs_wall_seconds=t_seq / block_size,
                    iterations=sum(r.iterations for r in seq_results),
                )
            )
            entries.append(
                dict(
                    common,
                    mode="block",
                    solver=f"block-gmres({blk_restart}x{block_size})",
                    wall_seconds=t_blk,
                    per_rhs_wall_seconds=t_blk / block_size,
                    iterations=int(blk.iterations.max()),
                    block_iterations=blk.block_iterations,
                    max_solution_diff_vs_sequential=max_diff,
                )
            )
            print(
                f"[block] {where}: sequential {t_seq * 1e3:.0f} ms, "
                f"block {t_blk * 1e3:.0f} ms -> {t_seq / t_blk:.2f}x per RHS "
                f"(max drift {max_diff:.1e})",
                flush=True,
            )

    summary = dict(
        grid=grid, block_size=block_size, tolerance=tol, repeats=repeats,
        gate=dict(BLOCK_GATE), per_rhs_speedup_block_over_sequential=speedups,
        max_solution_diff_vs_sequential=parity,
    )
    path = write_bench_json("block", entries, summary=summary, out=out)
    gate_key = f"{BLOCK_GATE['backend']}/{BLOCK_GATE['config']}"
    speedup, floor = speedups.get(gate_key, 0.0), BLOCK_GATE["min_speedup"]
    gate(
        "block",
        [f"{gate_key} per-RHS speedup {speedup:.2f}x < {floor}x"] if speedup < floor else [],
        f"{gate_key} {speedup:.2f}x >= {floor}x per RHS",
    )
    return path


# ---------------------------------------------------------------------- #
# --serve and --obs: one workload                                        #
# ---------------------------------------------------------------------- #
class ServeWorkload:
    """The ``--serve``/``--obs`` workload: ``clients`` threads, each
    submitting ``requests_per_client`` right-hand sides one at a time to a
    session on the poly16-preconditioned Laplace3D``grid`` operator."""

    def __init__(self, grid: int, clients: int, requests_per_client: int, tol: float):
        from repro.config import rng
        from repro.matrices import laplace3d
        from repro.preconditioners.polynomial import GmresPolynomialPreconditioner

        self.grid, self.label = grid, f"Laplace3D{grid}"
        self.matrix = laplace3d(grid)
        self.precond = GmresPolynomialPreconditioner(self.matrix, degree=16)
        self.clients, self.requests_per_client, self.tol = clients, requests_per_client, tol
        self.total = clients * requests_per_client
        self.B = rng(2026).standard_normal((self.matrix.n_rows, self.total))

    @contextmanager
    def session(self, **session_kwargs):
        """A warmed :class:`OperatorSession` on the workload, closed on exit."""
        from repro.serve import OperatorSession

        session = OperatorSession(
            self.matrix, preconditioner=self.precond, tol=self.tol, **session_kwargs
        )
        try:
            # Warm both dispatch widths through the telemetry-free direct
            # path so the timed window measures steady state.
            session.solve(self.B[:, 0])
            if session.max_block > 1:
                session.solve_many(self.B[:, : session.max_block])
            yield session
        finally:
            session.close()

    def drive(self, session, label: str) -> float:
        """Run the client fleet once against ``session``; return its wall seconds."""

        def client(c: int) -> None:
            for j in range(self.requests_per_client):
                idx = c * self.requests_per_client + j
                result = session.submit(self.B[:, idx]).result(timeout=600)
                check(result.converged, f"request {idx} ended {result.status}")
                check(result.relative_residual_fp64 <= self.tol * 1.01,
                      f"request {idx} residual above tolerance")

        return drive_clients(
            {f"client-{c}": partial(client, c) for c in range(self.clients)}, label
        )

    def entry(self, benchmark: str, backend: str, session_kwargs: Dict[str, object],
              wall: float, stats, **extra) -> Dict[str, object]:
        """The BENCH entry of one measured fleet run; ``extra`` adds keys."""
        return dict(
            benchmark=benchmark, backend=backend, matrix=self.label, config="poly16",
            dtype="double", clients=self.clients, requests=self.total, tolerance=self.tol,
            max_block=session_kwargs["max_block"], wall_seconds=wall,
            rhs_per_second=self.total / wall, latency_p50_ms=stats.latency.p50_ms,
            latency_p95_ms=stats.latency.p95_ms, **extra,
        )

    def summary(self, **extra) -> Dict[str, object]:
        """The BENCH summary block of the workload; ``extra`` adds keys."""
        return dict(grid=self.grid, clients=self.clients,
                    requests_per_client=self.requests_per_client, tolerance=self.tol, **extra)


#: The serving acceptance gate: with >= 8 concurrent clients on the paper's
#: polynomial-preconditioned Laplace3D32 configuration, the batched
#: micro-batching scheduler must serve at least this many times the RHS/s
#: of the unbatched (block width 1) scheduler on the reference backend.
SERVE_GATE = {
    "backend": "numpy",
    "matrix": "Laplace3D32",
    "config": "poly16",
    "clients": 8,
    "min_speedup": 2.0,
}

#: (mode label, OperatorSession kwargs).  The unbatched scheduler serves
#: width-1 solves with the single-RHS-tuned restart; the batched scheduler
#: coalesces up to 8 requests with the block-tuned restart — the same two
#: solver configurations BLOCK_GATE compares, now measured *as a service*.
_SERVE_MODES = [
    (
        "unbatched",
        dict(max_block=1, max_wait_ms=0.0, restart=50, max_restarts=10,
             policy="sequential"),
    ),
    (
        "batched",
        dict(max_block=8, max_wait_ms=25.0, restart=15, max_restarts=60,
             policy="block"),
    ),
]


def run_serve(
    out: Optional[pathlib.Path] = None,
    *,
    grid: int = 32,
    clients: int = 8,
    requests_per_client: int = 3,
    tol: float = 1e-8,
    repeats: int = 2,
) -> pathlib.Path:
    """Solver-service throughput benchmark → BENCH_serve.json (with gate).

    The unbatched and batched modes are interleaved over ``repeats``; each
    keeps its fastest fleet run and that run's service telemetry.
    """
    import numpy as np

    work = ServeWorkload(grid, clients, requests_per_client, tol)
    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}

    for backend in each_backend():

        def serve_once(mode: str, session_kwargs: Dict[str, object]) -> tuple:
            with work.session(**session_kwargs) as session:
                wall = work.drive(session, f"[serve] {backend}/{mode}")
                stats = session.stats()
                if mode == "unbatched":
                    # Bit-parity acceptance: unbatched served == direct.
                    served = session.submit(work.B[:, 0]).result(timeout=600)
                    check(np.array_equal(served.x, session.solve(work.B[:, 0]).x),
                          f"[serve] {backend}: served result drifted from the "
                          "direct solve path")
                if mode == "batched":
                    # Divergence isolation: a NaN request fails alone while
                    # the good requests sharing the window complete.
                    good = [session.submit(work.B[:, c]) for c in range(3)]
                    bad = session.submit(np.full(work.matrix.n_rows, np.nan))
                    check(all(g.result(timeout=600).converged for g in good),
                          f"[serve] {backend}: a diverging request failed its batch")
                    check(isinstance(bad.exception(timeout=600), ValueError),
                          f"[serve] {backend}: non-finite request did not fail")
            check(stats.requests_completed >= work.total,
                  f"[serve] {backend}/{mode}: only {stats.requests_completed} completed")
            return wall, stats

        runs = repeat_runs(
            {mode: partial(serve_once, mode, kwargs) for mode, kwargs in _SERVE_MODES},
            repeats,
        )
        throughput: Dict[str, float] = {}
        for mode, session_kwargs in _SERVE_MODES:
            wall, stats = best_run(runs[mode])
            entry = work.entry(
                "serve", backend, session_kwargs, wall, stats, mode=mode,
                max_wait_ms=session_kwargs["max_wait_ms"], restart=session_kwargs["restart"],
                queue_wait_p50_ms=stats.queue_wait.p50_ms,
                queue_wait_p95_ms=stats.queue_wait.p95_ms,
                solve_p50_ms=stats.solve.p50_ms,
                solve_p95_ms=stats.solve.p95_ms,
                mean_batch_occupancy=stats.mean_batch_occupancy,
                batch_occupancy={
                    str(k): v for k, v in sorted(stats.batch_occupancy.items())
                },
                block_iterations=stats.block_iterations,
            )
            entries.append(entry)
            rps = throughput[mode] = entry["rhs_per_second"]
            print(
                f"[serve] {backend}/{mode}: {work.total} requests from {clients} "
                f"clients in {wall:.2f} s -> {rps:.1f} RHS/s "
                f"(latency p50 {stats.latency.p50_ms:.0f} ms / "
                f"p95 {stats.latency.p95_ms:.0f} ms, mean occupancy "
                f"{stats.mean_batch_occupancy:.1f})",
                flush=True,
            )
        speedups[backend] = throughput["batched"] / throughput["unbatched"]
        print(
            f"[serve] {backend}: batched/unbatched throughput {speedups[backend]:.2f}x",
            flush=True,
        )

    summary = work.summary(
        gate=dict(SERVE_GATE), throughput_speedup_batched_over_unbatched=speedups
    )
    path = write_bench_json("serve", entries, summary=summary, out=out)
    backend, floor = SERVE_GATE["backend"], SERVE_GATE["min_speedup"]
    speedup = speedups.get(backend, 0.0)
    gate(
        "serve",
        [f"{backend} batched serving {speedup:.2f}x < {floor}x RHS/s"]
        if speedup < floor else [],
        f"{backend} batched serving {speedup:.2f}x >= {floor}x RHS/s",
    )
    return path


#: The observability overhead gate, checked on the reference backend
#: against the same workload shape as the ``--serve`` batched mode:
#: with tracing *disabled* (the default: metrics collectors only) the
#: serving throughput must stay within ``max_untraced_cost`` of the
#: obs-free baseline, and with tracing *enabled* within
#: ``max_traced_cost`` — observability must be cheap when off and
#: affordable when on.
OBS_GATE = {
    "backend": "numpy",
    "matrix": "Laplace3D32",
    "max_untraced_cost": 0.02,
    "max_sampled_cost": 0.02,
    "max_traced_cost": 0.10,
}

#: The instrumentation states the overhead benchmark interleaves.
_OBS_VARIANTS = ("baseline", "untraced", "sampled", "traced")


def trace_path_for(out: Optional[pathlib.Path]) -> pathlib.Path:
    """Where ``--obs`` writes its Chrome trace: beside its JSON.

    ``TRACE_obs.json`` in ``benchmarks/results/`` without ``--out``; for
    ``--out DIR/BENCH_<x>.json`` it is ``DIR/TRACE_<x>.json``.
    """
    if out is None:
        return RESULTS_DIR / "TRACE_obs.json"
    return out.with_name("TRACE_" + out.name.removeprefix("BENCH_"))


def run_obs(
    out: Optional[pathlib.Path] = None,
    *,
    grid: int = 32,
    clients: int = 8,
    requests_per_client: int = 3,
    tol: float = 1e-8,
    repeats: int = 6,
) -> pathlib.Path:
    """Observability overhead benchmark → BENCH_obs.json (with gate).

    Sessions identical to the ``--serve`` batched mode except for their
    instrumentation: ``baseline`` (:meth:`repro.obs.Observability.disabled`),
    ``untraced`` (metrics collectors, tracing off: the library default),
    ``sampled`` (:class:`repro.obs.Sampler`, 10% head rate + tail keep) and
    ``traced`` (a :class:`repro.obs.Tracer` on every request plus solver
    probes, metrics on).  The variants are interleaved over ``repeats`` and
    each keeps its best wall time.  Every run's span ledger must reconcile
    with the service telemetry.  The reference backend's best traced run is
    exported to :func:`trace_path_for` ``(out)``.
    """
    from repro.obs import (
        MetricsRegistry, Observability, Sampler, Tracer, export_chrome_trace, prometheus_text,
    )

    work = ServeWorkload(grid, clients, requests_per_client, tol)
    session_kwargs = dict(_SERVE_MODES[1][1])  # the batched serving config
    entries: List[Dict[str, object]] = []
    costs: Dict[str, Dict[str, float]] = {}
    trace_path = trace_path_for(out)

    def make_obs(variant: str) -> "Observability":
        if variant == "baseline":
            return Observability.disabled()
        if variant == "untraced":
            return Observability(tracer=None, registry=MetricsRegistry())
        if variant == "sampled":
            return Observability(
                tracer=Tracer(sampler=Sampler(head_rate=0.1, tail_keep=True)),
                registry=MetricsRegistry(),
            )
        return Observability(tracer=Tracer(), registry=MetricsRegistry())

    for backend in each_backend():

        def observe_once(variant: str) -> tuple:
            where = f"[obs] {backend}/{variant}"
            obs = make_obs(variant)
            with work.session(obs=obs, **session_kwargs) as session:
                wall = work.drive(session, where)
                stats = session.stats()
                # Scrape before close: a closed session's collector
                # retires itself and drops its series.
                scrape = prometheus_text(obs.registry) if obs.registry is not None else ""
            submitted = stats.requests_submitted
            check(stats.requests_completed >= work.total,
                  f"{where}: only {stats.requests_completed} completed")
            tracer = obs.tracer
            if variant == "traced":
                # Span ledger reconciles with the service telemetry.
                check(tracer.open_spans == 0, f"{where}: span leak under load")
                roots = [s for s in tracer.finished_spans() if s.name == "request"]
                check(tracer.dropped_spans > 0 or len(roots) == submitted,
                      f"{where}: {len(roots)} request spans != {submitted} "
                      "submitted requests")
                check(submitted == stats.requests_completed + stats.requests_failed,
                      f"{where}: telemetry skew")
            if variant == "sampled":
                # Sampled ledger reconciles: every request either left a
                # kept root or was counted sampled-out — and with an
                # all-converged workload the kept set is the head stride
                # plus the tail's slowest-decile keeps.
                check(tracer.open_spans == 0, f"{where}: span leak under sampling")
                roots = [
                    s for s in tracer.finished_spans()
                    if s.parent_id is None and s.name == "request"
                ]
                check(tracer.dropped_spans > 0
                      or len(roots) + tracer.sampled_out_traces == submitted,
                      f"{where}: sampled ledger skew: {len(roots)} kept + "
                      f"{tracer.sampled_out_traces} dropped != {submitted} submitted")
                kept_failures = [
                    s for s in roots
                    if s.attrs.get("outcome") not in ("converged", "cancelled")
                    and s.attrs.get("sampled") == "tail"
                ]
                check(not stats.requests_failed or bool(kept_failures),
                      f"{where}: failed requests were sampled out")
            if variant == "untraced":
                # The collectors actually publish on scrape.
                check("repro_requests_submitted_total" in scrape,
                      f"{where}: metrics collector silent")
            return wall, stats, obs

        runs = repeat_runs({v: partial(observe_once, v) for v in _OBS_VARIANTS}, repeats)
        best = {variant: best_run(runs[variant]) for variant in _OBS_VARIANTS}
        baseline_rps = work.total / best["baseline"][0]
        costs[backend] = {}
        for variant in _OBS_VARIANTS:
            wall, stats, obs = best[variant]
            cost = 1.0 - work.total / wall / baseline_rps
            if variant != "baseline":
                costs[backend][variant] = cost
            entry = work.entry(
                "obs", backend, session_kwargs, wall, stats, variant=variant,
                throughput_cost_vs_baseline=max(0.0, cost),
            )
            if variant in ("traced", "sampled"):
                entry["finished_spans"] = len(obs.tracer.finished_spans())
            if variant == "traced":
                entry["dropped_spans"] = obs.tracer.dropped_spans
            if variant == "sampled":
                entry["sampled_out_traces"] = obs.tracer.sampled_out_traces
                entry["head_rate"] = obs.tracer.sampler.head_rate
            entries.append(entry)
            vs_baseline = f" ({100 * cost:+.1f}% vs baseline)" if variant != "baseline" else ""
            print(
                f"[obs] {backend}/{variant}: {work.total} requests in "
                f"{wall:.2f} s -> {entry['rhs_per_second']:.1f} RHS/s{vs_baseline}",
                flush=True,
            )

        if backend == OBS_GATE["backend"]:
            # Export the reference backend's traced run for Perfetto.
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            payload = export_chrome_trace(trace_path, tracer=best["traced"][2].tracer)
            print(f"[obs] wrote {trace_path} ({len(payload['traceEvents'])} trace events)")

    summary = work.summary(
        gate=dict(OBS_GATE), throughput_cost_vs_baseline=costs, chrome_trace=trace_path.name
    )
    path = write_bench_json("obs", entries, summary=summary, out=out)
    backend = OBS_GATE["backend"]
    gate_costs = costs.get(backend, {})
    gate(
        "obs",
        [
            f"{backend} {what} cost {100 * gate_costs.get(variant, 1.0):.1f}% "
            f"> {100 * OBS_GATE[limit]:.0f}% RHS/s"
            for variant, what, limit in (
                ("untraced", "metrics-only serving", "max_untraced_cost"),
                ("sampled", "sampled tracing", "max_sampled_cost"),
                ("traced", "traced serving", "max_traced_cost"),
            )
            if gate_costs.get(variant, 1.0) > OBS_GATE[limit]
        ],
        f"{backend} tracing off {100 * gate_costs.get('untraced', 0.0):+.1f}%, sampled "
        f"{100 * gate_costs.get('sampled', 0.0):+.1f}%, tracing on "
        f"{100 * gate_costs.get('traced', 0.0):+.1f}% RHS/s vs baseline",
    )
    return path


# ---------------------------------------------------------------------- #
# --farm                                                                 #
# ---------------------------------------------------------------------- #
#: The solver-farm acceptance gate, checked on the reference backend:
#: with ``operators`` tenants sharing ``max_sessions`` warm-session slots
#: under a skewed traffic mix (one hot tenant submitting ~half the fleet's
#: requests), the farm must (a) beat the naive one-session-at-a-time
#: baseline by ``min_fleet_speedup`` in fleet RHS/s, (b) keep every cold
#: tenant's p95 latency within ``max_cold_p95_degradation`` of the same
#: tenant served alone (no noisy-neighbour starvation), and (c) actually
#: exercise eviction/re-warm churn (``min_evictions``).
FARM_GATE = {
    "backend": "numpy",
    "matrix": "Laplace3D16",
    "operators": 8,
    "max_sessions": 6,
    "min_fleet_speedup": 1.5,
    "max_cold_p95_degradation": 3.0,
    "min_evictions": 1,
}


def run_farm(
    out: Optional[pathlib.Path] = None,
    *,
    grid: int = 16,
    operators: int = 8,
    max_sessions: int = 6,
    workers: int = 3,
    hot_requests: int = 24,
    cold_requests: int = 4,
    tol: float = 1e-8,
    repeats: int = 3,
) -> pathlib.Path:
    """Multi-tenant solver-farm benchmark → BENCH_farm.json (with gate).

    ``operators`` copies of one Laplace3D system, registered and warmed
    independently (the serving cost structure, not the numerics, is under
    test); tenant 0 is *hot* (``hot_requests``), the rest are cold
    (``cold_requests`` each).  Per backend, ``repeats`` **cold-only** farm
    runs (no hot tenant) give each cold tenant's hot-free p95 baseline;
    then the **farm** (every tenant through one :class:`SolverFarm` with
    ``max_sessions < operators``) and the **naive** baseline (the same
    trace served sequentially by one warm :class:`OperatorSession` at a
    time, rebuilt on every operator switch) are interleaved over
    ``repeats``.  The throughput ratio uses each one's best run; a cold
    tenant's p95 is its minimum over the runs.
    """
    from repro.config import rng
    from repro.matrices import laplace3d
    from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
    from repro.serve import OperatorSession, SolverFarm

    label = f"Laplace3D{grid}"
    keys = [f"op{i}" for i in range(operators)]
    hot, cold = keys[0], keys[1:]
    counts = {k: (hot_requests if k == hot else cold_requests) for k in keys}
    total = sum(counts.values())
    # One matrix and one preconditioner instance *per operator*: tenants
    # are served concurrently, and both the matrix (backend plans cache
    # kernel scratch on it) and the polynomial preconditioner (recurrence
    # scratch) are mutable solver state that must not be shared across
    # concurrently-dispatched operators (see SolverFarm.register).  Real
    # deployments register distinct operators anyway; the identical
    # spectra here just keep the per-request work uniform across tenants.
    # Setup cost is paid outside any timed window, as a deployment pays
    # it at registration time.
    matrices = {k: laplace3d(grid) for k in keys}
    preconds = {k: GmresPolynomialPreconditioner(matrices[k], degree=16) for k in keys}
    session_kwargs = dict(restart=10, tol=tol, max_restarts=60)
    # Per-operator batching width, as a deployment would tune it: the hot
    # tenant coalesces to 8-wide blocks, the cold tenants' full burst is
    # exactly one 4-wide block (so a burst dispatches immediately instead
    # of waiting out the micro-batch window for stragglers).
    max_blocks = {k: (8 if k == hot else 4) for k in keys}
    B = {
        k: rng(3000 + i).standard_normal((matrices[hot].n_rows, counts[k]))
        for i, k in enumerate(keys)
    }

    # The naive baseline replays this deterministic trace: hot bursts of 4
    # interleaved with one request from each cold tenant — the arrival
    # pattern the farm's clients also approximate.
    trace: List[tuple] = []
    remaining = dict(counts)
    while any(remaining.values()):
        for _ in range(4):
            if remaining[hot]:
                trace.append((hot, counts[hot] - remaining[hot]))
                remaining[hot] -= 1
        for k in cold:
            if remaining[k]:
                trace.append((k, counts[k] - remaining[k]))
                remaining[k] -= 1
    check(len(trace) == total, f"[farm] naive trace has {len(trace)} != {total} requests")

    entries: List[Dict[str, object]] = []
    summary_speedups: Dict[str, float] = {}
    summary_p95: Dict[str, float] = {}
    summary_evictions: Dict[str, int] = {}

    for backend in each_backend():

        def run_naive() -> int:
            """Serve the trace with one warm session at a time; return the rebuilds."""
            current: Optional[str] = None
            session: Optional[OperatorSession] = None
            switches = 0
            try:
                for key, idx in trace:
                    if key != current:
                        if session is not None:
                            session.close()
                        session = OperatorSession(
                            matrices[key],
                            name=f"naive-{key}",
                            preconditioner=preconds[key],
                            max_block=max_blocks[key],
                            **session_kwargs,
                        )
                        current, switches = key, switches + 1
                    result = session.solve(B[key][:, idx])
                    check(result.converged, f"naive {key}[{idx}] {result.status}")
            finally:
                if session is not None:
                    session.close()
            return switches

        def run_fleet(selected: List[str]) -> tuple:
            """Drive ``selected`` tenants concurrently through one farm."""
            farm = SolverFarm(
                max_sessions=max_sessions,
                workers=workers,
                queue_depth=max(128, hot_requests * 2),
                fairness="weighted",
                max_wait_ms=2.0,
                name="bench",
            )
            try:
                for k in selected:
                    farm.register(
                        k,
                        matrices[k],
                        preconditioner=preconds[k],
                        max_block=max_blocks[k],
                        **session_kwargs,
                    )

                def client(k: str) -> None:
                    futures = [farm.submit(k, B[k][:, j]) for j in range(counts[k])]
                    for j, f in enumerate(futures):
                        result = f.result(timeout=600)
                        check(result.converged, f"{k}[{j}] {result.status}")

                wall = drive_clients(
                    {f"tenant-{k}": partial(client, k) for k in selected},
                    f"[farm] {backend}",
                )
                return wall, farm.stats()
            finally:
                farm.close()

        # Hot-free baseline first, then the contended farm and naive runs
        # interleaved across repeats.
        cold_runs = repeat_runs({"cold-only": partial(run_fleet, cold)}, repeats)
        runs = repeat_runs(
            {"farm": partial(run_fleet, keys), "naive": partial(timed, run_naive)}, repeats
        )

        def best_p95(fleet_runs: List[tuple]) -> Dict[str, float]:
            return {
                k: min(stats.tenants[k].serve.latency.p95_ms for _, stats in fleet_runs)
                for k in cold
            }

        baseline_p95 = best_p95(cold_runs["cold-only"])
        cold_best_p95 = best_p95(runs["farm"])
        farm_wall, farm_stats = best_run(runs["farm"])
        best_naive = best_run(runs["naive"])[0]
        naive_switches = runs["naive"][-1][1]

        # Fault-tolerance quiescence gate: a healthy benchmark load must
        # not leak requests (submitted == completed + failed) nor trigger
        # any of the failure machinery — deadlines, cancellations and
        # breaker trips all belong to chaos runs, not this one.
        fleet = farm_stats.fleet
        check(
            fleet.requests_submitted == fleet.requests_completed + fleet.requests_failed,
            f"[farm] {backend}: telemetry does not reconcile: "
            f"{fleet.requests_submitted} submitted != {fleet.requests_completed} "
            f"completed + {fleet.requests_failed} failed",
        )
        check(
            not (fleet.requests_timed_out or fleet.requests_cancelled
                 or farm_stats.breaker_trips),
            f"[farm] {backend}: spurious failure-path activity under healthy load: "
            f"timed_out={fleet.requests_timed_out} "
            f"cancelled={fleet.requests_cancelled} "
            f"breaker_trips={farm_stats.breaker_trips}",
        )
        farm_rps = total / farm_wall
        naive_rps = total / best_naive
        speedup = farm_rps / naive_rps
        worst_ratio = max(
            (cold_best_p95[k] / baseline_p95[k] if baseline_p95[k] > 0 else 0.0)
            for k in cold
        )
        summary_speedups[backend] = speedup
        summary_p95[backend] = worst_ratio
        summary_evictions[backend] = farm_stats.evictions

        common = dict(
            benchmark="farm", backend=backend, matrix=label, config="poly16", dtype="double",
            operators=operators, max_sessions=max_sessions, workers=workers, requests=total,
            tolerance=tol,
        )
        entries.append(
            dict(
                common,
                mode="naive",
                wall_seconds=best_naive,
                rhs_per_second=naive_rps,
                session_rebuilds=naive_switches,
            )
        )
        entries.append(
            dict(
                common,
                mode="farm",
                wall_seconds=farm_wall,
                rhs_per_second=farm_rps,
                fleet_speedup_vs_naive=speedup,
                evictions=farm_stats.evictions,
                sessions_created=farm_stats.sessions_created,
                sessions_live=farm_stats.sessions_live,
                latency_p50_ms=fleet.latency.p50_ms,
                latency_p95_ms=fleet.latency.p95_ms,
                worst_cold_p95_degradation=worst_ratio,
                requests_timed_out=fleet.requests_timed_out,
                requests_cancelled=fleet.requests_cancelled,
                breaker_trips=farm_stats.breaker_trips,
            )
        )
        for k in keys:
            tenant = farm_stats.tenants[k]
            entries.append(
                dict(
                    common,
                    mode="farm_tenant",
                    tenant=k,
                    role="hot" if k == hot else "cold",
                    requests=tenant.serve.requests_completed,
                    fairness_share=tenant.fairness_share,
                    expected_share=tenant.expected_share,
                    evictions=tenant.evictions,
                    queue_wait_p95_ms=tenant.serve.queue_wait.p95_ms,
                    latency_p50_ms=tenant.serve.latency.p50_ms,
                    latency_p95_ms=tenant.serve.latency.p95_ms,
                    hot_free_latency_p95_ms=baseline_p95.get(k),
                )
            )
        print(
            f"[farm] {backend}: {total} requests / {operators} operators -> "
            f"farm {farm_rps:.1f} RHS/s vs naive {naive_rps:.1f} RHS/s "
            f"({speedup:.2f}x), evictions {farm_stats.evictions}, "
            f"worst cold p95 {worst_ratio:.2f}x its hot-free baseline",
            flush=True,
        )

    summary = dict(
        grid=grid, operators=operators, max_sessions=max_sessions, workers=workers,
        hot_requests=hot_requests, cold_requests=cold_requests, tolerance=tol,
        repeats=repeats, gate=dict(FARM_GATE), fleet_speedup_farm_over_naive=summary_speedups,
        worst_cold_p95_degradation=summary_p95, evictions=summary_evictions,
    )
    path = write_bench_json("farm", entries, summary=summary, out=out)
    backend = FARM_GATE["backend"]
    speedup = summary_speedups.get(backend, 0.0)
    worst_ratio = summary_p95.get(backend, math.inf)
    evictions = summary_evictions.get(backend, 0)
    gate(
        "farm",
        [failure for failed, failure in (
            (speedup < FARM_GATE["min_fleet_speedup"],
             f"{backend} fleet speedup {speedup:.2f}x "
             f"< {FARM_GATE['min_fleet_speedup']}x vs naive"),
            (worst_ratio > FARM_GATE["max_cold_p95_degradation"],
             f"{backend} cold-tenant p95 degraded {worst_ratio:.2f}x "
             f"> {FARM_GATE['max_cold_p95_degradation']}x by the hot neighbour"),
            (evictions < FARM_GATE["min_evictions"],
             f"{backend}: no session evictions observed (LRU churn not exercised)"),
        ) if failed],
        f"{backend} {speedup:.2f}x fleet RHS/s, cold p95 {worst_ratio:.2f}x solo, "
        f"{evictions} evictions",
    )
    return path


# ---------------------------------------------------------------------- #
# CLI                                                                    #
# ---------------------------------------------------------------------- #
#: CLI flag -> (runner taking the parsed arguments, help text), in run
#: order.  The module docstring describes each mode in full.
MODES: Dict[str, Tuple[Callable[[argparse.Namespace], pathlib.Path], str]] = {
    "smoke": (lambda a: run_smoke(out=a.out), "scaled fig1/fig5 smoke run (BENCH_smoke.json)"),
    "backends": (lambda a: run_backend_comparison(a.grid, out=a.out),
                 "kernel-backend SpMV/SpMM comparison (BENCH_backends.json)"),
    "solve": (lambda a: run_solve(out=a.out), "end-to-end GMRES(50) solves (BENCH_solve.json)"),
    "solve-block": (lambda a: run_solve_block(out=a.out),
                    "Block-GMRES vs sequential, >=2x per-RHS gate (BENCH_block.json)"),
    "serve": (lambda a: run_serve(out=a.out, clients=a.clients),
              "batched vs unbatched serving, >=2x RHS/s gate (BENCH_serve.json)"),
    "farm": (lambda a: run_farm(out=a.out),
             "solver farm vs naive, fleet RHS/s + fairness + eviction gate (BENCH_farm.json)"),
    "obs": (lambda a: run_obs(out=a.out, clients=a.clients),
            "observability overhead, <2%%/<2%%/<10%% RHS/s gates (BENCH_obs.json and "
            "TRACE_obs.json beside it)"),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro benchmark harness CLI (each mode is described in the "
        "module docstring of benchmarks/_harness.py)"
    )
    for flag, (_, help_text) in MODES.items():
        parser.add_argument(f"--{flag}", action="store_true", help=help_text)
    parser.add_argument("--grid", type=int, default=64, help="Laplace3D grid for --backends")
    parser.add_argument(
        "--clients", type=int, default=8, help="concurrent client threads for --serve and --obs"
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="override the output path (only valid with exactly one mode)",
    )
    args = parser.parse_args(argv)
    selected = [flag for flag in MODES if getattr(args, flag.replace("-", "_"))]
    if not selected:
        parser.error("choose at least one of " + " / ".join(f"--{flag}" for flag in MODES))
    if args.out is not None and len(selected) > 1:
        parser.error("--out is ambiguous with more than one mode")
    for flag in selected:
        MODES[flag][0](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
