"""MultiVector: the block of Krylov basis vectors.

Plays the role of the Kokkos-backed Belos ``MultiVector`` adapter from
Section IV of the paper: a pre-allocated ``n × (m+1)`` block holding the
Krylov basis of a restarted GMRES cycle, with the two block operations that
dominate orthogonalization cost (``V_j^T w`` and ``w -= V_j h``) routed
through the metered kernels.

The storage is column-major (Fortran order) so that "the first ``j``
columns" is a contiguous view — the same reason Kokkos uses LayoutLeft for
these blocks — which keeps the NumPy GEMV calls cache-friendly per the
HPC-Python guidance on memory layout.  The block and its scratch vector
are page-backed (:func:`~repro.linalg.pages.page_zeros`), so a dropped
basis goes back to the operating system instead of staying on the malloc
heap.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..precision import Precision, as_precision
from . import kernels
from .pages import page_zeros

__all__ = ["MultiVector"]


class MultiVector:
    """A fixed-capacity block of dense vectors in one precision.

    The block starts zeroed and lives in its own memory mapping, released
    to the operating system when the last view of it dies.

    Parameters
    ----------
    length:
        Vector length ``n``.
    capacity:
        Maximum number of vectors (``m + 1`` for GMRES(m)).
    precision:
        Storage precision of the block.
    """

    __slots__ = ("_block", "_count", "_work", "precision")

    def __init__(self, length: int, capacity: int, precision="double") -> None:
        if length < 0 or capacity <= 0:
            raise ValueError("length must be >= 0 and capacity positive")
        prec = as_precision(precision)
        self.precision: Precision = prec
        self._block = page_zeros((length, capacity), prec.dtype, order="F")
        # Length-n scratch handed to the GEMV update kernel so the
        # subtraction/combination passes never allocate an intermediate.
        self._work = page_zeros(length, prec.dtype)
        self._count = 0

    # ------------------------------------------------------------------ #
    # shape / storage queries                                            #
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Vector length ``n``."""
        return self._block.shape[0]

    @property
    def capacity(self) -> int:
        """Maximum number of vectors the block can hold."""
        return self._block.shape[1]

    @property
    def count(self) -> int:
        """Number of vectors currently stored."""
        return self._count

    @property
    def dtype(self) -> np.dtype:
        return self._block.dtype

    def storage_bytes(self) -> int:
        """Bytes of device memory the block occupies (used for OOM checks)."""
        return int(self._block.nbytes)

    # ------------------------------------------------------------------ #
    # vector access                                                      #
    # ------------------------------------------------------------------ #
    def column(self, j: int) -> np.ndarray:
        """Writable view of column ``j`` (must be < capacity)."""
        if not 0 <= j < self.capacity:
            raise IndexError(f"column {j} out of range (capacity {self.capacity})")
        return self._block[:, j]

    def block(self, j: Optional[int] = None) -> np.ndarray:
        """Contiguous view of the first ``j`` columns (default: all stored)."""
        j = self._count if j is None else j
        if not 0 <= j <= self.capacity:
            raise IndexError(f"block size {j} out of range")
        return self._block[:, :j]

    def column_block(self, start: int, count: int) -> np.ndarray:
        """Writable view of ``count`` consecutive columns from ``start``.

        Because the storage is Fortran-ordered, the view is itself
        F-contiguous — the shape block solvers hand to ``spmm``/``gemm``.
        """
        if start < 0 or count < 0 or start + count > self.capacity:
            raise IndexError(
                f"column block [{start}, {start + count}) out of range "
                f"(capacity {self.capacity})"
            )
        return self._block[:, start : start + count]

    def append(self, vector: np.ndarray) -> int:
        """Copy ``vector`` into the next free column; returns its index."""
        if self._count >= self.capacity:
            raise RuntimeError("MultiVector is full")
        vector = np.asarray(vector)
        if vector.shape != (self.length,):
            raise ValueError("vector has wrong length")
        j = self._count
        self._block[:, j] = vector  # implicit cast to the block's precision
        self._count += 1
        return j

    def set_count(self, count: int) -> None:
        """Reset the number of stored vectors (e.g. on restart)."""
        if not 0 <= count <= self.capacity:
            raise ValueError("count out of range")
        self._count = count

    def reset(self) -> None:
        """Forget all stored vectors (storage is reused, not zeroed)."""
        self._count = 0

    # ------------------------------------------------------------------ #
    # metered block operations                                           #
    # ------------------------------------------------------------------ #
    def project(
        self,
        w: np.ndarray,
        j: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``h = V_j^T w`` against the first ``j`` stored vectors (metered).

        ``out``, when given, is the caller-owned length-``j`` coefficient
        buffer the result is written into.
        """
        V = self.block(j)
        return kernels.gemv_transpose(V, w, out=out)

    def subtract_projection(
        self, w: np.ndarray, h: np.ndarray, j: Optional[int] = None
    ) -> np.ndarray:
        """``w -= V_j h`` in place (metered, allocation-free — the
        intermediate ``V_j h`` lands in this block's scratch vector)."""
        V = self.block(j)
        return kernels.gemv_notrans(V, h, w, work=self._work)

    def combine(
        self,
        coefficients: np.ndarray,
        j: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``x = V_j y`` — form the solution update from the Krylov basis (metered).

        Writes into ``out`` when given (caller-owned, length ``n``; it is
        zeroed first and must not alias the scratch or the basis).  The
        sign is folded into the update kernel (``alpha=+1``), so no negated
        copy of the coefficients is made.
        """
        V = self.block(j)
        coefficients = np.asarray(coefficients, dtype=self.dtype)
        if out is None:
            out = np.zeros(self.length, dtype=self.dtype)
        else:
            if out.shape != (self.length,):
                raise ValueError("combine output buffer has wrong length")
            out[:] = 0
        # out = 0 + V y via the metered update kernel keeps labels consistent.
        return kernels.gemv_notrans(V, coefficients, out, alpha=1.0, work=self._work)

    # ------------------------------------------------------------------ #
    # metered block-of-vectors (BLAS-3) operations                       #
    # ------------------------------------------------------------------ #
    def project_block(
        self,
        W: np.ndarray,
        j: Optional[int] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``H = V_j^T W`` for a block of vectors ``W`` (n × k) (metered).

        The BLAS-3 pass of block Gram-Schmidt: the basis is read once for
        all ``k`` columns.  ``out``, when given, is the caller-owned
        C-contiguous ``(j, k)`` coefficient block.
        """
        V = self.block(j)
        return kernels.gemm_transpose(V, W, out=out)

    def subtract_projection_block(
        self,
        W: np.ndarray,
        H: np.ndarray,
        j: Optional[int] = None,
        *,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``W -= V_j H`` in place on the block ``W`` (metered).

        ``work`` is caller-owned ``(n, k)`` C-contiguous scratch for the
        intermediate product (the block analogue of the internal scratch
        :meth:`subtract_projection` uses); without it the call allocates.
        """
        V = self.block(j)
        return kernels.gemm_notrans(V, H, W, work=work)

    def combine_block(
        self,
        coefficients: np.ndarray,
        j: Optional[int] = None,
        out: Optional[np.ndarray] = None,
        *,
        work: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``X = V_j Y`` — form a block of solution updates (metered).

        ``out``, when given, is a caller-owned ``(n, k)`` block (it is
        zeroed first; must not alias the basis); ``work`` as in
        :meth:`subtract_projection_block`.  The sign is folded into the
        update kernel (``alpha=+1``), matching :meth:`combine`.
        """
        V = self.block(j)
        coefficients = np.asarray(coefficients, dtype=self.dtype)
        if coefficients.ndim != 2:
            raise ValueError("combine_block expects a 2-D coefficient block")
        k = coefficients.shape[1]
        if out is None:
            out = np.zeros((self.length, k), dtype=self.dtype, order="F")
        else:
            if out.shape != (self.length, k):
                raise ValueError("combine_block output buffer has wrong shape")
            out[:] = 0
        return kernels.gemm_notrans(V, coefficients, out, alpha=1.0, work=work)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MultiVector n={self.length} count={self._count}/{self.capacity} "
            f"dtype={self.dtype.name}>"
        )
