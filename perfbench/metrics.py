"""Metric catalogue and the small statistics the benchmark reports.

``E2E`` and ``PER_LAYER`` are the single source of the metric names and
units; ``BENCHMARK.json`` at the repository root lists the same names
(``selftest.py`` checks that the two agree).  Every workload reports every
name: the solver configurations "fp64" and "ir" and the serve metrics are
defined per workload in ``workloads.py``.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Callable, Dict, Iterable, List, Sequence

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: The two solver configurations every workload compares.
CONFIGS = ("fp64", "ir")

#: Kernel labels of the paper's breakdown (Fig. 4 / Table I) by their
#: KernelTimer label; every other label counts as "other".
FRAC_LABELS = {
    "spmv": "SpMV",
    "gemv_t": "GEMV (Trans)",
    "gemv_n": "GEMV (No Trans)",
    "norm": "Norm",
}
FRACS = tuple(FRAC_LABELS) + ("other",)

#: Layers of the per-layer time table, named after the repro modules, plus
#: the benchmark's own glue and what no span covers.
LAYERS = (
    "matrices",
    "preconditioners",
    "linalg.kernels",
    "solvers",
    "serve",
    "perfbench",
    "unattributed",
)

E2E: Dict[str, str] = {
    "fp64_solve_ms": "ms",
    "ir_solve_ms": "ms",
    "rhs_per_s": "1/s",
    "latency_mean_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer() -> Dict[str, str]:
    names: Dict[str, str] = {
        "matrices.build_s": "s",
        "preconditioners.build_s": "s",
        "preconditioners.apply_us": "us",
        "kernels.dispatch_us": "us",
    }
    for prec in ("fp64", "fp32"):
        for kernel in ("spmv", "gemv_t", "gemv_n"):
            names[f"kernels.{kernel}_us.{prec}"] = "us"
        names[f"ortho.cgs2_us.{prec}"] = "us"
    for cfg in CONFIGS:
        for frac in FRACS:
            names[f"kernels.time_frac.{frac}.{cfg}"] = "fraction"
        names[f"kernels.bytes_per_iter.{cfg}"] = "B-computed"
        names[f"kernels.flops_per_byte.{cfg}"] = "flop/B-computed"
        names[f"solvers.iterations.{cfg}"] = "count"
        names[f"solvers.self_us_per_iter.{cfg}"] = "us"
        names[f"perfmodel.v100_ms.{cfg}"] = "ms"
    names.update({
        "solvers.ir_iteration_ratio": "ratio",
        "solvers.ir_speedup": "ratio",
        "perfmodel.v100_ir_speedup": "ratio",
        "serve.submit_us": "us",
        "serve.queue_wait_ms": "ms",
        "serve.solve_ms": "ms",
        "serve.batch_width_mean": "count",
        "serve.backlog_max": "count",
        "serve.generator_late_ms": "ms",
        "serve.retry_frac": "fraction",
        "trace.overhead_frac": "fraction",
    })
    for layer in LAYERS:
        names[f"layers.{layer}.self_frac"] = "fraction"
    return names


PER_LAYER: Dict[str, str] = _per_layer()


def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of no samples")
    return float(statistics.fmean(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered: List[float] = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median_of_chunks(values: Sequence[float], chunks: int,
                     stat: Callable[[Sequence[float]], float]) -> float:
    """Median over ``chunks`` contiguous, near-equal slices of ``values`` of
    ``stat`` taken on each slice.

    For tail and throughput statistics: a slow spell of a shared machine
    that covers less than half of the slices does not move the result,
    where it would move the same statistic taken over the whole run.
    """
    k = max(1, min(chunks, len(values)))
    edges = [round(i * len(values) / k) for i in range(k + 1)]
    return median(stat(values[a:b]) for a, b in zip(edges, edges[1:]))


def result_line(correct: bool, attempted: int, failed: int, values: Dict[str, float],
                units: Dict[str, str]) -> dict:
    """The benchmark's final JSON object: exactly the names in ``units``."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise KeyError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
