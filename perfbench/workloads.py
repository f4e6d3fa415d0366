"""The three workloads: solve-large, solve-small and serve-farm.

Every input is generated here from the run's seed; the program receives
only the generated matrices and right-hand sides.  Each workload offers
``setup`` (timed and repeated for ``setup_s``: at least
``SETUP_MIN_REPEATS`` times and for ``SETUP_BUDGET_S``), ``measure`` (the loop that
runs for the requested seconds, traced or not) and ``probes`` (per-layer
numbers measured from outside at the workload's shape and backend).

Why these three (details in README.md):

* solve-large — Laplace3D48 on the scipy backend: the Krylov basis (~45 MB)
  dwarfs L2, GEMV (Trans)+(No Trans) dominate and Python overhead is
  small.  The paper's regime, where GMRES-IR pays and where
  orthogonalization work shows.
* solve-small — Laplace3D24 on the scipy backend: cache-resident kernels,
  so per-call dispatch is a large share; an orthogonalization change
  should barely move it, a dispatch change should.
* serve-farm — a SolverFarm on the numpy backend: queueing, batching,
  farm dispatch and SpMV-heavy polynomial applies, which the direct
  workloads bypass.  A paced open-loop phase (latency, narrow batches) and
  a saturating burst phase (throughput, wide batches).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.linalg import kernels
from repro.linalg.context import ExecutionContext, use_context
from repro.obs import Observability
from repro.perfmodel import KernelTimer
from repro.serve import ReproServeError, SolverFarm

from .check import TOL, OutputCheck
from .metrics import mean, median, median_of_chunks, percentile
from .probes import (
    POLY_DEGREE,
    SolveRecord,
    kernel_probes,
    matrix_probe,
    preconditioner_probes,
    solver_metrics,
)
from .spans import SpanRecorder

SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 5, 25, 1.0

#: Tail and throughput statistics are taken per third of the run and the
#: median reported (see ``median_of_chunks``).
CHUNKS = 3

#: Seeded input streams (the second word of every generator seed).
STREAM_DIRECT, STREAM_WARM, STREAM_PACED, STREAM_SCHEDULE, STREAM_BURST = range(5)


def rhs(seed: int, stream: int, index: int, n: int) -> np.ndarray:
    """The ``index``-th right-hand side of an input stream.

    Entries are uniform on [0, 1): the paper's all-ones right-hand side,
    varied by the seed.  Unlike N(0, 1) entries, this keeps the number of
    GMRES-IR refinement cycles the same across seeds (with N(0, 1) on
    Laplace3D48 half the seeds need a sixth cycle), so a seed changes the
    inputs without changing the amount of work.
    """
    return np.random.default_rng([seed, stream, index, n]).uniform(0.0, 1.0, n)


def layer_probes(workload, A, spans: SpanRecorder) -> Dict[str, float]:
    """Kernel, preconditioner and matrix probes at the workload's shape."""
    out: Dict[str, float] = {}
    with spans.span("probe.kernels", "linalg.kernels"):
        out.update(kernel_probes(A, workload.restart, workload.backend, workload.seed))
    with spans.span("probe.preconditioners", "preconditioners"):
        out.update(preconditioner_probes(A, workload.backend, workload.seed))
    with spans.span("probe.matrices", "matrices"):
        out.update(matrix_probe(workload.build_matrices))
    return out


# ====================================================================== #
# direct solves                                                          #
# ====================================================================== #
class SolveWorkload:
    """Closed loop, one caller: fp64 GMRES(50) and GMRES-IR(50) alternate,
    both on the same right-hand side, each to fp64 relres <= 1e-8.

    A request is one right-hand side solved both ways; its latency is the
    two solve times together.  (Pooling the solves instead would put the
    median between the fp64 and the IR mode, where it is a tail statistic
    of each.)  Throughput counts two solves per request.
    """

    backend = "scipy"
    restart = 50

    def __init__(self, name: str, grid: int, seed: int) -> None:
        self.name = name
        self.grid = grid
        self.seed = seed

    def build_matrices(self):
        return repro.matrices.laplace3d(self.grid)

    def setup(self, spans: SpanRecorder, *, meter: bool = False) -> dict:
        """Matrix build plus first use; ``meter`` is unused here because the
        direct solves choose metering per call."""
        with spans.span("matrices.build", "matrices"):
            A = self.build_matrices()
        with spans.span("backends.warm", "linalg.kernels"):
            # First use builds the fp32 copy and the backend's SpMV plans.
            with use_context(ExecutionContext(backend=self.backend, meter=False)):
                for precision in ("double", "single"):
                    Ap = A.astype(precision)
                    kernels.spmv(Ap, np.ones(A.n_rows, dtype=Ap.dtype))
        return {"A": A}

    def teardown(self, state: dict) -> None:
        state.clear()

    def _solve(self, config: str, A, b, timer):
        if config == "fp64":
            return repro.gmres(A, b, precision="double", restart=self.restart,
                               tol=TOL, timer=timer)
        return repro.gmres_ir(A, b, restart=self.restart, tol=TOL, timer=timer)

    def measure(self, state: dict, seconds: float, *, traced: bool,
                spans: SpanRecorder, check: OutputCheck) -> dict:
        A = state["A"]
        times: Dict[str, List[float]] = {"fp64": [], "ir": []}
        records: List[SolveRecord] = []
        latencies: List[float] = []
        start = time.perf_counter()
        pair = 0
        with use_context(ExecutionContext(backend=self.backend, meter=traced)):
            while pair < 3 or time.perf_counter() - start < seconds:
                b = rhs(self.seed, STREAM_DIRECT, pair, A.n_rows)
                request: List[float] = []
                for config in ("fp64", "ir"):
                    timer = KernelTimer(config) if traced else None
                    what = f"{self.name} {config} rhs{pair}"
                    call = "gmres" if config == "fp64" else "gmres_ir"
                    with spans.span(f"solvers.{call}", "solvers", rhs=pair):
                        t0 = time.perf_counter()
                        try:
                            result = self._solve(config, A, b, timer)
                        except Exception as exc:  # counted as a failed operation
                            check.error(what, exc)
                            continue
                        wall = time.perf_counter() - t0
                        if traced:
                            spans.attribute("linalg.kernels", timer.total_wall_seconds())
                    with spans.span("perfbench.check", "perfbench"):
                        ok = check.solution(what, A, b, result.x, result.converged)
                    if ok:
                        times[config].append(wall)
                        request.append(wall)
                    if traced:
                        records.append(SolveRecord(config, wall, result.iterations, timer, pair))
                if len(request) == 2:
                    latencies.append(sum(request))
                pair += 1
        return {
            "times": times,
            "records": records,
            # one number per unit of work, for the tracing overhead
            "cost": median(times["fp64"]) + median(times["ir"]) if all(times.values()) else 0.0,
            "e2e": {
                "fp64_solve_ms": median(times["fp64"]) * 1e3 if times["fp64"] else 0.0,
                "ir_solve_ms": median(times["ir"]) * 1e3 if times["ir"] else 0.0,
                "rhs_per_s": median_of_chunks(
                    latencies, CHUNKS, lambda c: 2 * len(c) / sum(c)) if latencies else 0.0,
                "latency_mean_ms": mean(latencies) * 1e3 if latencies else 0.0,
                "latency_p90_ms": median_of_chunks(
                    latencies, CHUNKS, lambda c: percentile(c, 90)) * 1e3 if latencies else 0.0,
            },
        }

    def probes(self, state: dict, untraced: dict, traced: dict, check: OutputCheck,
               spans: SpanRecorder) -> Dict[str, float]:
        A = state["A"]
        out = solver_metrics(traced["records"])
        times = untraced["times"]
        out["solvers.ir_speedup"] = median(times["fp64"]) / median(times["ir"])
        out.update(layer_probes(self, A, spans))
        # The serve layer at this workload's operator: a one-tenant farm
        # serving a few paced GMRES-IR requests at width 1.
        with spans.span("probe.serve", "serve"):
            farm = SolverFarm(workers=1, queue_depth=8, obs=Observability.disabled(),
                              name="perfbench-probe")
            try:
                farm.register("probe", A, method="gmres-ir", restart=self.restart,
                              tol=TOL, max_block=1)
                gap = 1.5 * median(times["ir"])
                requests = [
                    Request("probe", rhs(self.seed, STREAM_WARM, i, A.n_rows), gap * i)
                    for i in range(3)
                ]
                drive = drive_farm(farm, requests, paced=True, spans=spans)
                out.update(serve_layer_metrics(farm, "probe", [drive], [drive]))
            finally:
                farm.close()
            check_requests(requests, {"probe": A}, check)
        return out


# ====================================================================== #
# the solver farm                                                        #
# ====================================================================== #
@dataclass
class Request:
    """One served right-hand side and what happened to it.

    ``check_requests`` keeps the few numbers the metrics need and drops the
    right-hand side and the result, so memory does not grow with the run.
    """

    tenant: str
    b: Optional[np.ndarray]
    due: float  # seconds after the phase start
    late: float = 0.0
    submit_s: float = 0.0
    done: Optional[float] = None
    result: object = None
    error: Optional[BaseException] = None
    future: object = field(default=None, repr=False)
    solve_s: float = 0.0  # wall time of the batched solve it rode in
    batch: int = 0  # width of that batch
    timer: Optional[KernelTimer] = None  # the batch's (shared) kernel timer


@dataclass
class Drive:
    """One phase of farm traffic."""

    requests: List[Request]
    start: float
    wall: float
    backlog_max: int

    def latency(self, req: Request) -> float:
        """Due time to resolved future; a failed request never resolved."""
        if req.error is not None or req.done is None:
            return float("inf")
        return req.done - (self.start + req.due)


def _resolved(req: Request, _future) -> None:
    req.done = time.perf_counter()


def drive_farm(farm: SolverFarm, requests: List[Request], *, paced: bool,
               spans: SpanRecorder) -> Drive:
    """Submit ``requests`` from this thread (on schedule when ``paced``,
    all at once otherwise) and wait for every one of them."""
    backlog = 0
    start = time.perf_counter()
    for req in requests:
        due = start + req.due
        if paced:
            wait = due - time.perf_counter()
            if wait > 0:
                with spans.span("perfbench.pacing", "perfbench"):
                    time.sleep(wait)
            req.late = time.perf_counter() - due
        backlog = max(backlog, farm.pending())
        with spans.span("serve.submit", "serve", tenant=req.tenant):
            t0 = time.perf_counter()
            try:
                req.future = farm.submit(req.tenant, req.b)
            except ReproServeError as exc:  # rejected or quarantined
                req.error = exc
            req.submit_s = time.perf_counter() - t0
        if req.future is not None:
            req.future.add_done_callback(partial(_resolved, req))
    with spans.span("serve.wait", "serve"):
        for req in requests:
            if req.future is None:
                continue
            try:
                req.result = req.future.result(timeout=150)
            except Exception as exc:  # failed, expired or timed out
                req.error = exc
    return Drive(requests, start, time.perf_counter() - start, backlog)


def check_requests(requests: List[Request], matrices: Dict[str, object],
                   check: OutputCheck) -> None:
    for i, req in enumerate(requests):
        what = f"served {req.tenant} #{i}"
        if req.error is not None:
            check.error(what, req.error)
        else:
            result = req.result
            check.solution(what, matrices[req.tenant], req.b, result.x, result.converged)
            req.solve_s, req.batch = result.solve_seconds, result.batch_size
            req.timer = result.solve_result.timer
        req.b = req.result = req.future = None


def serve_layer_metrics(farm: SolverFarm, batched_tenant: str, drives: List[Drive],
                        paced: List[Drive]) -> Dict[str, float]:
    """serve.* per-layer metrics from the generator's timings and FarmStats."""
    stats = farm.stats()
    fleet = stats.fleet
    submits = [r.submit_s for d in drives for r in d.requests]
    return {
        "serve.submit_us": median(submits) * 1e6,
        "serve.queue_wait_ms": fleet.queue_wait.p50_ms,
        "serve.solve_ms": fleet.solve.p50_ms,
        "serve.batch_width_mean": stats.tenants[batched_tenant].serve.mean_batch_occupancy,
        "serve.backlog_max": max(d.backlog_max for d in drives),
        "serve.generator_late_ms": max(r.late for d in paced for r in d.requests) * 1e3,
        "serve.retry_frac": fleet.requests_retried / max(1, fleet.requests_submitted),
    }


def worker_busy(drives: List[Drive]) -> Tuple[float, float]:
    """Kernel wall and solve wall of the distinct batches behind served
    requests (metered runs only): the work the farm's workers did."""
    batches = {}
    for d in drives:
        for req in d.requests:
            if req.timer is not None:
                batches[id(req.timer)] = (req.timer.total_wall_seconds(), req.solve_s)
    return (sum(k for k, _ in batches.values()), sum(s for _, s in batches.values()))


class ServeFarmWorkload:
    """One generator thread drives a SolverFarm on the numpy backend.

    Tenants: *hot* — Laplace3D24, GMRES-IR, fp32 poly16 preconditioner,
    restart 15, batched up to width 8; *cold* — UniFlow2D64
    (nonsymmetric), fp64 GMRES(50), width 1.  The run is ``CHUNKS`` rounds
    of an open-loop stretch at ``PACED_RATE`` (hot:cold = 3:1; together
    ``PACED_SHARE`` of the run), timed from each request's due time,
    followed by a burst of 48 hot + 16 cold requests that measures
    capacity.
    """

    backend = "numpy"
    restart = 15
    #: Requests per second in the paced phase: an eighth of the burst
    #: capacity (~16 RHS/s on a one-core container), which keeps that core
    #: about a third busy at the narrow widths paced traffic batches into.
    #: At 3 RHS/s (about half busy) queueing amplified the container's slow
    #: spells into run-to-run latency spreads above 0.25.
    PACED_RATE = 2.0
    PACED_SHARE = 0.7
    TENANT_MIX = ("hot", "hot", "hot", "cold")
    BURST = {"hot": 48, "cold": 16}

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed

    def build_matrices(self):
        return {"hot": repro.matrices.laplace3d(24), "cold": repro.matrices.uniflow2d(64)}

    def setup(self, spans: SpanRecorder, *, meter: bool = False) -> dict:
        """Matrices, preconditioner, farm registration and the first solve of
        each tenant; ``meter`` turns on kernel metering in the sessions."""
        with spans.span("matrices.build", "matrices"):
            matrices = self.build_matrices()
        with spans.span("preconditioners.build", "preconditioners"):
            M = repro.GmresPolynomialPreconditioner(
                matrices["hot"], degree=POLY_DEGREE, precision="single")
        with spans.span("serve.register_warm", "serve"):
            farm = SolverFarm(workers=2, queue_depth=256, max_wait_ms=2.0,
                              obs=Observability.disabled(), name="perfbench")
            farm.register("hot", matrices["hot"], method="gmres-ir", preconditioner=M,
                          restart=self.restart, tol=TOL, max_block=8, meter=meter)
            farm.register("cold", matrices["cold"], method="gmres", restart=50,
                          tol=TOL, max_block=1, meter=meter)
            # First traffic creates and warms each tenant's session.
            # One tenant at a time, so the two warm-ups do not contend.
            warm = [Request(t, rhs(self.seed, STREAM_WARM, i, matrices[t].n_rows), 0.0)
                    for i, t in enumerate(("hot", "cold"))]
            for req in warm:
                req.result = farm.submit(req.tenant, req.b).result(timeout=150)
        return {"matrices": matrices, "M": M, "farm": farm, "warm": warm}

    def teardown(self, state: dict) -> None:
        state["farm"].close()
        state.clear()

    def schedule(self, seconds: float) -> List[Tuple[float, str]]:
        """Seeded open-loop arrivals: (seconds after start, tenant).

        A fixed rate with each arrival jittered by up to 25% of the period,
        so seeds differ in timing but not in offered load; the tenant mix is
        exactly 3:1 in every block of four.
        """
        rng = np.random.default_rng([self.seed, STREAM_SCHEDULE])
        period = 1.0 / self.PACED_RATE
        count = int(seconds * self.PACED_RATE)
        jitter = rng.uniform(-0.25, 0.25, size=count)
        tenants = [self.TENANT_MIX[i] for _ in range(0, count, len(self.TENANT_MIX))
                   for i in rng.permutation(len(self.TENANT_MIX))]
        return [((i + 0.5 + jitter[i]) * period, tenants[i]) for i in range(count)]

    def burst_order(self, k: int) -> List[str]:
        tenants = ["hot"] * self.BURST["hot"] + ["cold"] * self.BURST["cold"]
        order = np.random.default_rng([self.seed, STREAM_BURST, k]).permutation(len(tenants))
        return [tenants[i] for i in order]

    def measure(self, state: dict, seconds: float, *, traced: bool,
                spans: SpanRecorder, check: OutputCheck) -> dict:
        farm, matrices = state["farm"], state["matrices"]
        n = {t: A.n_rows for t, A in matrices.items()}
        check_requests(state.pop("warm", []), matrices, check)
        # CHUNKS rounds of (paced stretch, burst): the paced latency sample
        # then spans the whole run, so one slow spell of a shared machine
        # touches only part of it.
        schedule = self.schedule(seconds * self.PACED_SHARE)
        edges = [round(i * len(schedule) / CHUNKS) for i in range(CHUNKS + 1)]
        paced: List[Drive] = []
        bursts: List[Drive] = []
        for k, (a, b) in enumerate(zip(edges, edges[1:])):
            offset = schedule[a][0] - schedule[0][0]
            requests = [Request(t, rhs(self.seed, STREAM_PACED, i, n[t]), due - offset)
                        for i, (due, t) in enumerate(schedule[a:b], start=a)]
            paced.append(drive_farm(farm, requests, paced=True, spans=spans))
            check_requests(requests, matrices, check)
            requests = [Request(t, rhs(self.seed, STREAM_BURST + k, i, n[t]), 0.0)
                        for i, t in enumerate(self.burst_order(k))]
            bursts.append(drive_farm(farm, requests, paced=False, spans=spans))
            check_requests(requests, matrices, check)
        kernel_wall, solve_wall = worker_busy(paced + bursts)
        served = [[r for r in d.requests if r.error is None] for d in bursts]
        rhs_per_s = median(len(ok) / d.wall for ok, d in zip(served, bursts))
        # a request that failed never resolved: it misses any limit, and
        # stands in at its stretch's length
        latencies = [[min(d.latency(r), d.wall) for r in d.requests] for d in paced]
        # The mean, not the median: a paced request is a single ~0.2-s
        # width-1 solve, and on a shared host those come in a fast and a
        # slow cluster (about 180 and 245 ms on a 2-vCPU VM) whose shares
        # shift from run to run.  The sample median jumps between the
        # clusters with the share; the mean follows it in proportion.
        average = mean(x for stretch in latencies for x in stretch)
        p90 = median(percentile(stretch, 90) for stretch in latencies)
        # Burst-phase solve costs: the hot tenant keeps one worker busy
        # throughout, so every cold solve runs under the same contention.
        cold = [r.solve_s for ok in served for r in ok if r.tenant == "cold"]
        # mean per-RHS cost of each burst (batch solve time shared by its width)
        hot = [sum(r.solve_s / r.batch for r in h) / len(h)
               for h in ([r for r in ok if r.tenant == "hot"] for ok in served) if h]
        return {
            "cost": 1.0 / rhs_per_s,
            "serve": serve_layer_metrics(farm, "hot", paced + bursts, paced),
            "worker_busy": {"kernels": kernel_wall, "solvers self": solve_wall - kernel_wall},
            "e2e": {
                "fp64_solve_ms": median(cold) * 1e3 if cold else 0.0,
                "ir_solve_ms": median(hot) * 1e3 if hot else 0.0,
                "rhs_per_s": rhs_per_s,
                "latency_mean_ms": average * 1e3,
                "latency_p90_ms": p90 * 1e3,
            },
        }

    def probes(self, state: dict, untraced: dict, traced: dict, check: OutputCheck,
               spans: SpanRecorder) -> Dict[str, float]:
        """Solver numbers come from direct solves of the hot tenant's
        operator: GMRES-IR(15) with its fp32 poly16 preconditioner vs fp64
        GMRES(15) with the same polynomial built in fp64 (an fp32
        preconditioner caps fp64 GMRES near 1e-5 here)."""
        A = state["matrices"]["hot"]
        preconditioners = {
            "fp64": repro.GmresPolynomialPreconditioner(A, degree=POLY_DEGREE),
            "ir": state["M"],
        }
        b = rhs(self.seed, STREAM_DIRECT, 0, A.n_rows)
        records: List[SolveRecord] = []
        host: Dict[str, float] = {}
        with spans.span("probe.solvers", "solvers"):
            for meter in (False, True):
                with use_context(ExecutionContext(backend=self.backend, meter=meter)):
                    for config in ("fp64", "ir"):
                        timer = KernelTimer(config)
                        solve = repro.gmres if config == "fp64" else repro.gmres_ir
                        kwargs = {"precision": "double"} if config == "fp64" else {}
                        t0 = time.perf_counter()
                        try:
                            result = solve(A, b, restart=self.restart, tol=TOL,
                                           preconditioner=preconditioners[config],
                                           timer=timer, **kwargs)
                        except Exception as exc:  # counted as a failed operation
                            check.error(f"probe {config}", exc)
                            continue
                        wall = time.perf_counter() - t0
                        check.solution(f"probe {config}", A, b, result.x, result.converged)
                        if meter:
                            records.append(SolveRecord(config, wall, result.iterations, timer, 0))
                        else:
                            host[config] = wall
        out = solver_metrics(records)
        out["solvers.ir_speedup"] = host["fp64"] / host["ir"]
        out.update(traced["serve"])
        out.update(layer_probes(self, A, spans))
        return out


WORKLOADS = ("solve-large", "solve-small", "serve-farm")


def make_workload(name: str, seed: int):
    if name == "solve-large":
        return SolveWorkload(name, 48, seed)
    if name == "solve-small":
        return SolveWorkload(name, 24, seed)
    if name == "serve-farm":
        return ServeFarmWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
