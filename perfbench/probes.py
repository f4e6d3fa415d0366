"""Outside probes: the per-call cost of one layer's public function.

Each probe runs at the workload's own shape, backend and precision and
calls only public API (``repro.linalg.kernels``, ``repro.ortho``,
``Preconditioner.apply``, the matrix generators).  Bytes and operations
per byte are computed from array sizes by the library's cost model and are
labelled as computed; no bandwidth or roofline ratio is reported, because
the arrays (at most ~45 MB) fit in the host's last-level cache and there
is no accelerator to take a roofline from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.linalg import kernels
from repro.linalg.context import ExecutionContext, use_context
from repro.linalg.multivector import MultiVector
from repro.ortho import make_ortho_manager
from repro.perfmodel import KernelTimer
from repro.preconditioners import GmresPolynomialPreconditioner

from .metrics import CONFIGS, FRAC_LABELS, median

#: Degree of the polynomial preconditioner (the serve-farm hot tenant's).
POLY_DEGREE = 16


#: Each probe takes at least 5 samples of about 2 ms and runs for 0.25 s.
PROBE_MIN_SAMPLES, PROBE_SAMPLE_S, PROBE_BUDGET_S = 5, 2e-3, 0.25


def per_call_us(fn: Callable[[], object]) -> float:
    """Median microseconds per call, over samples of several calls each."""
    fn()
    start = time.perf_counter()
    fn()
    single = time.perf_counter() - start
    inner = max(1, int(PROBE_SAMPLE_S / max(single, 1e-7)))
    samples: List[float] = []
    deadline = time.perf_counter() + PROBE_BUDGET_S
    while len(samples) < PROBE_MIN_SAMPLES or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return median(samples) * 1e6


def kernel_probes(matrix, basis_width: int, backend: str, seed: int) -> Dict[str, float]:
    """Dispatch overhead, SpMV, both GEMVs and one CGS2 step, unmetered."""
    rng = np.random.default_rng([seed, 99])
    n = matrix.n_rows
    out: Dict[str, float] = {}
    with use_context(ExecutionContext(backend=backend, meter=False)):
        x, y = rng.standard_normal(64), rng.standard_normal(64)
        out["kernels.dispatch_us"] = (
            per_call_us(lambda: kernels.dot(x, y)) - per_call_us(lambda: np.dot(x, y))
        )
        for precision, tag in (("double", "fp64"), ("single", "fp32")):
            A = matrix.astype(precision)
            dtype = A.dtype
            v = rng.standard_normal(n).astype(dtype)
            w = np.empty(n, dtype=dtype)
            out[f"kernels.spmv_us.{tag}"] = per_call_us(lambda: kernels.spmv(A, v, out=w))
            basis = MultiVector(n, basis_width + 1, precision)
            for _ in range(basis_width):
                col = rng.standard_normal(n)
                basis.append(col / np.linalg.norm(col))
            V = basis.block()
            h = np.full(basis_width, 1e-6, dtype=dtype)
            work = np.empty(n, dtype=dtype)
            out[f"kernels.gemv_t_us.{tag}"] = per_call_us(
                lambda: kernels.gemv_transpose(V, v, out=h))
            h.fill(1e-6)
            out[f"kernels.gemv_n_us.{tag}"] = per_call_us(
                lambda: kernels.gemv_notrans(V, h, w, work=work))
            ortho = make_ortho_manager("cgs2")
            w0 = rng.standard_normal(n).astype(dtype)

            def cgs2_step() -> None:
                np.copyto(w, w0)
                ortho.orthogonalize(basis, w)

            out[f"ortho.cgs2_us.{tag}"] = per_call_us(cgs2_step)
    return out


def preconditioner_probes(matrix, backend: str, seed: int) -> Dict[str, float]:
    """Build time (median of 3) and one fp32 apply of the poly16 preconditioner."""
    builds = []
    with use_context(ExecutionContext(backend=backend, meter=False)):
        for _ in range(3):
            start = time.perf_counter()
            M = GmresPolynomialPreconditioner(matrix, degree=POLY_DEGREE, precision="single")
            builds.append(time.perf_counter() - start)
        x = np.random.default_rng([seed, 98]).standard_normal(matrix.n_rows).astype(np.float32)
        y = np.empty_like(x)
        apply_us = per_call_us(lambda: M.apply(x, out=y))
    return {"preconditioners.build_s": median(builds), "preconditioners.apply_us": apply_us}


def matrix_probe(build: Callable[[], object]) -> Dict[str, float]:
    """Median of 3 builds of the workload's matrices."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        build()
        times.append(time.perf_counter() - start)
    return {"matrices.build_s": median(times)}


@dataclass
class SolveRecord:
    """One metered solve: its configuration, wall time and kernel timer."""

    config: str
    wall: float
    iterations: int
    timer: KernelTimer
    rhs_index: int


def solver_metrics(records: List[SolveRecord]) -> Dict[str, float]:
    """Kernel breakdown, solver self time, computed bytes and the V100 model.

    ``time_frac`` shares are of the solves' wall time, so with the solver
    self time they add up to one.  Iteration counts, computed bytes and
    operations, and modelled V100 times come from the solve of the seed's
    first right-hand side, so they repeat exactly for a seed.
    """
    out: Dict[str, float] = {}
    for cfg in CONFIGS:
        recs = [r for r in records if r.config == cfg]
        wall = sum(r.wall for r in recs)
        iterations = sum(r.iterations for r in recs)
        by_label: Dict[str, float] = {}
        for r in recs:
            for label, seconds in r.timer.wall_seconds_by_label().items():
                by_label[label] = by_label.get(label, 0.0) + seconds
        kernel_wall = sum(by_label.values())
        named = 0.0
        for frac, label in FRAC_LABELS.items():
            seconds = by_label.get(label, 0.0)
            named += seconds
            out[f"kernels.time_frac.{frac}.{cfg}"] = seconds / wall
        out[f"kernels.time_frac.other.{cfg}"] = (kernel_wall - named) / wall
        out[f"solvers.self_us_per_iter.{cfg}"] = (wall - kernel_wall) / iterations * 1e6
        first = min(recs, key=lambda r: r.rhs_index)
        nbytes = first.timer.total_bytes()
        flops = sum(rec.flops for rec in first.timer.records)
        out[f"kernels.bytes_per_iter.{cfg}"] = nbytes / first.iterations
        out[f"kernels.flops_per_byte.{cfg}"] = flops / nbytes
        out[f"solvers.iterations.{cfg}"] = first.iterations
        out[f"perfmodel.v100_ms.{cfg}"] = first.timer.total_model_seconds() * 1e3
    out["solvers.ir_iteration_ratio"] = out["solvers.iterations.ir"] / out["solvers.iterations.fp64"]
    out["perfmodel.v100_ir_speedup"] = out["perfmodel.v100_ms.fp64"] / out["perfmodel.v100_ms.ir"]
    return out
