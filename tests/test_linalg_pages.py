"""Tests for page-backed Krylov storage (:mod:`repro.linalg.pages`).

Covers the helper itself (zeroed, writable, laid out like ``np.zeros``,
empty arrays, the huge-page hint), the workspaces built on it on both kernel backends, the
private mapping a forked child cannot write through, and the reason it
exists: repeated fp64 GMRES and GMRES-IR rounds no longer grow the
malloc heap.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.linalg import MultiVector
from repro.linalg.context import use_backend
from repro.linalg.pages import page_zeros
from repro.matrices import laplace3d
from repro.solvers import block_gmres, gmres
from repro.solvers.block_gmres import BlockGmresWorkspace
from repro.solvers.gmres import GmresWorkspace


def assert_fresh(array, shape, dtype, order):
    assert array.shape == shape and array.dtype == dtype
    assert array.flags.writeable
    assert array.flags["F_CONTIGUOUS" if order == "F" else "C_CONTIGUOUS"]
    assert not array.any()


class TestPageZeros:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_np_zeros(self, dtype, order):
        array = page_zeros((37, 5), dtype, order=order)
        assert_fresh(array, (37, 5), dtype, order)
        assert isinstance(array.base, mmap.mmap)
        array[:, 2] = 3.0
        assert array.sum() == 3.0 * 37

    def test_length_and_numpy_integer_shapes(self):
        assert page_zeros(11, np.float64).shape == (11,)
        assert page_zeros(np.int64(11), np.float64).shape == (11,)

    @pytest.mark.parametrize("shape", [0, (0, 4), (7, 0)])
    def test_empty_takes_no_mapping(self, shape):
        array = page_zeros(shape, np.float64, order="F")
        assert array.size == 0
        assert not isinstance(array.base, mmap.mmap)

    @pytest.mark.skipif(
        not os.path.exists("/sys/kernel/mm/transparent_hugepage/enabled"),
        reason="needs Linux transparent huge pages",
    )
    def test_asks_for_huge_pages_like_numpy(self):
        array = page_zeros(1 << 20, np.float64)
        address = array.ctypes.data
        with open("/proc/self/smaps") as smaps:
            lines = smaps.read().splitlines()
        inside = False
        for line in lines:
            field = line.split()[0]
            if not field.endswith(":"):  # a mapping's header: lo-hi perms ...
                lo, hi = (int(bound, 16) for bound in field.split("-"))
                inside = lo <= address < hi
            elif inside and field == "VmFlags:":
                assert "hg" in line.split()[1:]  # madvise(MADV_HUGEPAGE)
                return
        pytest.fail("mapping not found in /proc/self/smaps")


@pytest.mark.parametrize("backend", ["numpy", "scipy"])
class TestWorkspaces:
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_gmres_workspace_buffers(self, backend, precision):
        A = laplace3d(6)
        n = A.n_rows
        dtype = np.float64 if precision == "double" else np.float32
        with use_backend(backend):
            ws = GmresWorkspace(n, 8, precision)
            assert_fresh(ws.basis.block(9), (n, 9), dtype, "F")
            for vector in (ws.w, ws.r, ws.z, ws.update, ws.basis._work):
                assert_fresh(vector, (n,), dtype, "C")
            assert ws.storage_bytes() == n * 9 * dtype().itemsize
            if precision == "double":
                # A solve writes through the views; the layout is unchanged.
                assert gmres(A, np.ones(n), restart=8, tol=1e-8, workspace=ws).converged
                assert ws.basis.block(9).flags["F_CONTIGUOUS"]
                assert ws.basis.block(9).any()

    def test_block_workspace_buffers(self, backend):
        A = laplace3d(6)
        n = A.n_rows
        with use_backend(backend):
            ws = BlockGmresWorkspace(n, 4, 3, "double")
            assert_fresh(ws.basis.block(15), (n, 15), np.float64, "F")
            for block in (ws.W, ws.R, ws.Z, ws.update):
                assert_fresh(block, (n, 3), np.float64, "F")
            assert_fresh(ws.gemm_work(2), (n, 2), np.float64, "C")
            assert ws.storage_bytes() == n * 15 * 8
            B = np.ones((n, 3)) + np.arange(3)
            pooled = block_gmres(A, B, restart=4, tol=1e-8, workspace=ws)
            fresh = block_gmres(A, B, restart=4, tol=1e-8)
            assert np.array_equal(pooled.X, fresh.X)
            for block in (ws.W, ws.R, ws.Z, ws.update):
                assert block.flags["F_CONTIGUOUS"]


def test_empty_workspaces():
    V = MultiVector(0, 3)
    assert V.block(3).shape == (0, 3) and V.storage_bytes() == 0
    ws = GmresWorkspace(0, 5, "double")
    assert ws.w.shape == (0,) and ws.storage_bytes() == 0
    block = BlockGmresWorkspace(0, 2, 2, "single")
    assert block.W.shape == (0, 2) and block.gemm_work(1).shape == (0, 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs POSIX fork")
def test_forked_child_cannot_write_into_parent_basis():
    ws = GmresWorkspace(1000, 4, "double")
    ws.basis.column(1)[:] = 2.0
    ws.w[:] = 2.0
    pid = os.fork()
    if pid == 0:  # child: write, check its own copy, leave without cleanup
        ws.basis.column(1)[:] = 7.0
        ws.w[:] = 7.0
        os._exit(0 if (ws.basis.column(1) == 7.0).all() else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert (ws.basis.column(1) == 2.0).all()
    assert (ws.w == 2.0).all()


HEAP_ROUNDS = """
import ctypes
import numpy as np
from repro.matrices import laplace3d
from repro.solvers import gmres, gmres_ir

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
A = laplace3d(32)
b = np.ones(A.n_rows)
for _ in range(4):
    gmres(A, b, restart=50, tol=1e-8)
    gmres_ir(A, b, restart=50, tol=1e-8)
    print(libc.mallinfo2().arena)
"""


def _has_mallinfo2() -> bool:
    return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallinfo2")


@pytest.mark.skipif(not _has_mallinfo2(), reason="needs glibc mallinfo2")
def test_repeated_solves_do_not_grow_the_heap():
    """Freed Krylov bases must not pile up on the malloc heap.

    glibc raises its mmap threshold to the size of each freed mmapped
    block, so malloc-backed bases end up on the heap and stay resident
    after the solve; page-backed ones are unmapped instead.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", HEAP_ROUNDS],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    arena = [int(line) for line in proc.stdout.split()]
    assert len(arena) == 4
    assert arena[-1] - arena[0] <= 4 * 2**20, [a / 2**20 for a in arena]
