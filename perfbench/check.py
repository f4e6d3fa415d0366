"""Output check made from outside the program.

Every returned solution gets its fp64 relative residual ``||b - A x|| /
||b||`` recomputed here with ``scipy.sparse``, independently of the
residual the solver reports.  An operation that raised, did not converge,
returned a non-finite solution or misses the tolerance counts as failed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

#: The fp64 relative residual every solve must reach (the paper's target).
TOL = 1e-8


class OutputCheck:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.failures: List[str] = []
        self._operators: Dict[int, sp.csr_matrix] = {}

    def operator(self, matrix) -> sp.csr_matrix:
        """fp64 scipy copy of a repro ``CsrMatrix``, built from its arrays."""
        key = id(matrix)
        op = self._operators.get(key)
        if op is None:
            op = sp.csr_matrix(
                (np.asarray(matrix.data, dtype=np.float64),
                 np.asarray(matrix.indices), np.asarray(matrix.indptr)),
                shape=matrix.shape,
            )
            self._operators[key] = op
        return op

    def relative_residual(self, matrix, b: np.ndarray, x: np.ndarray) -> float:
        b64 = np.asarray(b, dtype=np.float64)
        r = b64 - self.operator(matrix) @ np.asarray(x, dtype=np.float64)
        return float(np.linalg.norm(r) / np.linalg.norm(b64))

    def solution(self, what: str, matrix, b: np.ndarray, x: Optional[np.ndarray],
                 converged: bool) -> bool:
        """Record one returned solution; True when it meets the tolerance."""
        self.attempted += 1
        if x is None or not np.all(np.isfinite(x)):
            return self._fail(f"{what}: no finite solution")
        relres = self.relative_residual(matrix, b, x)
        self.worst = max(self.worst, relres)
        if not converged or not relres <= TOL:
            return self._fail(f"{what}: converged={converged} relres={relres:.3e}")
        return True

    def error(self, what: str, exc: BaseException) -> None:
        """Record an operation that raised or was refused."""
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def _fail(self, message: str) -> bool:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        return False

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
