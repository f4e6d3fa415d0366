"""Kernel plans shared by threads that use one matrix.

The backends cache per-matrix kernel plans, with reusable scratch buffers,
in ``CsrMatrix.backend_cache``.  These tests drive one matrix from two
threads at once and check that nobody reads another thread's partial
results: each thread's products match the single-thread result bit for
bit, concurrent solves on a shared matrix (and its cached fp32 copy)
converge, and a farm serving one matrix under two keys resolves every
request as converged.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro
from repro.backends import get_backend
from repro.config import rng, set_config
from repro.matrices import laplace3d
from repro.serve import SolverFarm
from repro.sparse import from_scipy

BACKENDS = ["numpy", "scipy"]
THREADS = 2
CALLS = 300


@pytest.fixture(autouse=True)
def _fast_thread_switching():
    """Switch threads often so unguarded scratch would be hit mid-kernel."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def run_threads(target, n=THREADS):
    """Run ``target(index, barrier)`` on ``n`` threads and re-raise failures."""
    barrier = threading.Barrier(n)
    errors = []

    def body(index):
        try:
            target(index, barrier)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "worker thread hung"
    if errors:
        raise errors[0]


def stencil_matrix():
    """Stencil operator: numpy SpMM takes the DIA path."""
    return laplace3d(20)


def scattered_matrix():
    """Random sparsity over far too many diagonals for DIA: CSR gather path."""
    import scipy.sparse as sp

    n = 6000
    a = sp.random(n, n, density=2e-3, random_state=rng(3), format="csr")
    a = a + sp.identity(n, format="csr")
    return from_scipy(a.tocsr(), name="scattered")


MATRICES = {"stencil": stencil_matrix, "scattered": scattered_matrix}


def mismatches(backend, matrix, inputs, product, out_layout="C"):
    """Per-thread count of concurrent products differing from the serial one."""
    expected = [product(backend, matrix, x, None) for x in inputs]
    counts = [0] * len(inputs)

    def work(index, barrier):
        x = inputs[index]
        out = np.empty(expected[index].shape, dtype=x.dtype, order=out_layout)
        barrier.wait()
        for _ in range(CALLS):
            product(backend, matrix, x, out)
            if not np.array_equal(out, expected[index]):
                counts[index] += 1

    run_threads(work, len(inputs))
    return counts


def spmv(backend, matrix, x, out):
    return backend.spmv(matrix, x, out=out)


def spmm(backend, matrix, X, out):
    return backend.spmm(matrix, X, out=out)


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("kind", sorted(MATRICES))
class TestSharedMatrixKernels:
    def test_spmv_out_is_thread_safe(self, backend_name, kind):
        backend = get_backend(backend_name)
        matrix = MATRICES[kind]()
        inputs = [rng(10 + i).standard_normal(matrix.n_cols) for i in range(THREADS)]
        assert mismatches(backend, matrix, inputs, spmv) == [0] * THREADS

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_spmm_out_is_thread_safe(self, backend_name, kind, layout):
        # A Fortran block with a C output (and vice versa) routes through
        # every staging buffer the backends cache on the matrix.
        backend = get_backend(backend_name)
        matrix = MATRICES[kind]()
        inputs = [
            np.asarray(rng(20 + i).standard_normal((matrix.n_cols, 4)), order=layout)
            for i in range(THREADS)
        ]
        out_layout = "F" if layout == "C" else "C"
        counts = mismatches(backend, matrix, inputs, spmm, out_layout=out_layout)
        assert counts == [0] * THREADS


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("method", ["gmres", "gmres_ir"])
def test_concurrent_solves_on_shared_matrix_converge(backend_name, method):
    matrix = laplace3d(16)
    solve = getattr(repro, method)
    results = [[] for _ in range(THREADS)]

    def work(index, barrier):
        with repro.use_backend(backend_name):
            barrier.wait()
            for j in range(3):
                b = rng(100 * index + j).standard_normal(matrix.n_rows)
                results[index].append(solve(matrix, b, restart=30, tol=1e-8))

    run_threads(work)
    for per_thread in results:
        assert len(per_thread) == 3
        assert all(r.converged for r in per_thread)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_farm_keys_sharing_one_matrix_converge(backend_name):
    set_config(backend=backend_name)
    matrix = laplace3d(16)
    keys = ["a", "b"]
    with SolverFarm(workers=2, max_sessions=2, queue_depth=64, max_wait_ms=2.0) as farm:
        for key in keys:
            farm.register(key, matrix, restart=15, tol=1e-8, max_restarts=60)
        futures = [
            farm.submit(key, rng(1000 * k + i).standard_normal(matrix.n_rows))
            for i in range(10)
            for k, key in enumerate(keys)
        ]
        results = [f.result(timeout=120) for f in futures]
    assert len(results) == 20
    assert all(r.converged for r in results)
