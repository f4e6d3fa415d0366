"""SpMM edge cases the Block-GMRES path leans on, pinned on both backends.

The batched kernel must agree with a loop of single-vector SpMVs for
every operand shape/layout the block solvers produce: ``k = 1`` (and
``k = 0``) column blocks, Fortran-ordered basis panels, sliced
(non-contiguous) operands, empty-row and zero-nnz matrices, and
stencil matrices that take the cached DIA fast path as well as
irregular matrices that take the gather path.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backends import get_backend
from repro.config import rng
from repro.matrices import laplace3d
from repro.sparse.csr import CsrMatrix

BACKENDS = ["numpy", "scipy"]
DTYPES = [np.float16, np.float32, np.float64]

#: dtype-appropriate agreement between spmm and looped spmv (they may sum
#: in different orders, e.g. the DIA fast path vs the CSR row reduce).
RTOL = {np.float16: 2e-2, np.float32: 2e-5, np.float64: 1e-12}
ATOL = {np.float16: 2e-2, np.float32: 1e-5, np.float64: 1e-13}


def _random_csr(n_rows, n_cols, density, seed, dtype=np.float64):
    A = sp.random(n_rows, n_cols, density=density, random_state=rng(seed), format="csr")
    return CsrMatrix(A.data.astype(dtype), A.indices, A.indptr, A.shape)


def _assert_matches_looped_spmv(backend, matrix, X, Y):
    """Each spmm column must equal the corresponding spmv to dtype tolerance."""
    dt = matrix.data.dtype.type
    for j in range(X.shape[1]):
        ref = backend.spmv(matrix, np.ascontiguousarray(X[:, j]))
        np.testing.assert_allclose(
            Y[:, j], ref, rtol=RTOL[dt], atol=ATOL[dt], err_msg=f"column {j}"
        )


@pytest.mark.parametrize("name", BACKENDS)
class TestSpmmEdgeCases:
    def test_k1_column_block(self, name):
        backend = get_backend(name)
        A = _random_csr(40, 30, 0.15, 0)
        X = rng(1).standard_normal((30, 1))
        Y = backend.spmm(A, X)
        assert Y.shape == (40, 1)
        _assert_matches_looped_spmv(backend, A, X, Y)
        out = np.empty((40, 1))
        assert backend.spmm(A, X, out=out) is out
        _assert_matches_looped_spmv(backend, A, X, out)

    def test_k0_column_block(self, name):
        backend = get_backend(name)
        A = _random_csr(10, 10, 0.3, 2)
        Y = backend.spmm(A, np.empty((10, 0)))
        assert Y.shape == (10, 0)
        out = np.empty((10, 0))
        assert backend.spmm(A, np.empty((10, 0)), out=out) is out

    def test_fortran_ordered_operands(self, name):
        backend = get_backend(name)
        A = _random_csr(50, 50, 0.1, 3)
        X = np.asfortranarray(rng(3).standard_normal((50, 4)))
        out = np.asfortranarray(np.empty((50, 4)))
        Y = backend.spmm(A, X, out=out)
        assert Y is out
        _assert_matches_looped_spmv(backend, A, X, Y)
        np.testing.assert_allclose(Y, backend.spmm(A, np.ascontiguousarray(X)))

    def test_sliced_noncontiguous_operands(self, name):
        backend = get_backend(name)
        A = _random_csr(30, 30, 0.2, 4)
        big = rng(4).standard_normal((30, 8))
        X = big[:, ::2]  # non-contiguous column slice
        assert not X.flags.c_contiguous and not X.flags.f_contiguous
        Y = backend.spmm(A, X)
        _assert_matches_looped_spmv(backend, A, X, Y)
        out_big = np.zeros((30, 8))
        out = out_big[:, ::2]
        assert backend.spmm(A, X, out=out) is out
        _assert_matches_looped_spmv(backend, A, X, out)
        # untouched interleaved columns stay zero
        np.testing.assert_array_equal(out_big[:, 1::2], 0)

    def test_empty_rows(self, name):
        backend = get_backend(name)
        D = np.zeros((6, 4))
        D[0, 1] = 2.0
        D[3, 0] = -1.0
        D[3, 3] = 4.0
        A = CsrMatrix.from_scipy(sp.csr_matrix(D))
        X = rng(5).standard_normal((4, 3))
        Y = backend.spmm(A, X)
        np.testing.assert_allclose(Y, D @ X, rtol=1e-13)
        out = np.full((6, 3), np.nan)
        backend.spmm(A, X, out=out)
        np.testing.assert_allclose(out, D @ X, rtol=1e-13)
        _assert_matches_looped_spmv(backend, A, X, Y)

    def test_zero_nnz_matrix(self, name):
        backend = get_backend(name)
        A = CsrMatrix.from_scipy(sp.csr_matrix((5, 3)))
        X = rng(6).standard_normal((3, 2))
        np.testing.assert_array_equal(backend.spmm(A, X), np.zeros((5, 2)))
        out = np.full((5, 2), 7.0)
        backend.spmm(A, X, out=out)
        np.testing.assert_array_equal(out, 0)

    @pytest.mark.parametrize("dtype", DTYPES, ids=["fp16", "fp32", "fp64"])
    def test_stencil_matrix_dia_path_matches_looped_spmv(self, name, dtype):
        """Stencil matrices (DIA-eligible on the numpy backend) stay correct."""
        backend = get_backend(name)
        A = laplace3d(6).astype(np.dtype(dtype).name)  # n = 216, 7 diagonals
        X = np.asfortranarray(rng(7).standard_normal((A.n_cols, 5)).astype(dtype))
        out = np.asfortranarray(np.empty((A.n_rows, 5), dtype=dtype))
        Y = backend.spmm(A, X, out=out)
        assert Y is out
        _assert_matches_looped_spmv(backend, A, X, Y)
        # out= path and allocating path agree bitwise on the same backend.
        np.testing.assert_array_equal(Y, backend.spmm(A, X))

    def test_irregular_matrix_gather_path(self, name):
        """Matrices with too many diagonals take the gather path."""
        backend = get_backend(name)
        A = _random_csr(80, 80, 0.08, 8)
        X = rng(8).standard_normal((80, 6))
        out = np.empty((80, 6))
        Y = backend.spmm(A, X, out=out)
        _assert_matches_looped_spmv(backend, A, X, Y)
        np.testing.assert_array_equal(Y, backend.spmm(A, X))

    def test_duplicate_entries_are_summed(self, name):
        """A (row, col) stored twice counts twice, as in the SpMV.

        CSR validation allows duplicate entries; a stencil-shaped matrix
        carrying one must not take a DIA path that keeps only one copy.
        """
        backend = get_backend(name)
        n = 6
        data, indices, indptr = [], [], [0]
        for i in range(n):
            row = [(j, -1.0) for j in (i - 1, i + 1) if 0 <= j < n]
            row += [(i, 1.0), (i, 2.0)] if i == 2 else [(i, 4.0)]
            for j, v in sorted(row, key=lambda e: e[0]):
                indices.append(j)
                data.append(v)
            indptr.append(len(indices))
        A = CsrMatrix(np.array(data), np.array(indices), np.array(indptr), (n, n))
        D = np.diag(np.full(n, 4.0)) - np.eye(n, k=1) - np.eye(n, k=-1)
        D[2, 2] = 3.0
        X = rng(12).standard_normal((n, 3))
        np.testing.assert_allclose(backend.spmm(A, X), D @ X, rtol=1e-13)
        out = np.empty((n, 3), order="F")
        assert backend.spmm(A, X, out=out) is out
        np.testing.assert_allclose(out, D @ X, rtol=1e-13)
        _assert_matches_looped_spmv(backend, A, X, out)

    def test_shape_validation(self, name):
        backend = get_backend(name)
        A = _random_csr(20, 10, 0.2, 9)
        with pytest.raises(ValueError):
            backend.spmm(A, np.ones(10))  # 1-D
        with pytest.raises(ValueError):
            backend.spmm(A, np.ones((11, 2)))  # wrong row count
        with pytest.raises(ValueError):
            backend.spmm(A, np.ones((10, 2)), out=np.empty((20, 3)))

    def test_rectangular_stencil_like(self, name):
        """DIA slicing handles rectangular shapes (offsets past the square)."""
        backend = get_backend(name)
        D = np.zeros((4, 7))
        for i in range(4):
            D[i, i] = 2.0
            D[i, i + 3] = -1.0
        A = CsrMatrix.from_scipy(sp.csr_matrix(D))
        X = rng(10).standard_normal((7, 3))
        np.testing.assert_allclose(backend.spmm(A, X), D @ X, rtol=1e-13)
        out = np.empty((4, 3))
        backend.spmm(A, X, out=out)
        np.testing.assert_allclose(out, D @ X, rtol=1e-13)


def test_instrumented_spmm_agrees_with_looped_spmv():
    """The metered spmm wrapper and CsrMatrix.matmat agree with looped spmv."""
    from repro.linalg import kernels

    A = laplace3d(5)
    X = rng(11).standard_normal((A.n_cols, 4))
    Y = kernels.spmm(A, X)
    for j in range(4):
        np.testing.assert_allclose(
            Y[:, j], kernels.spmv(A, np.ascontiguousarray(X[:, j])), rtol=1e-12
        )
    np.testing.assert_array_equal(A.matmat(X), Y)
