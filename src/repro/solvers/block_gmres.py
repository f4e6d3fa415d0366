"""Block-GMRES: batched multi-right-hand-side solves on one operator.

The paper's central observation is that GMRES throughput is bandwidth
bound in its SpMV and orthogonalization kernels.  When many right-hand
sides share one matrix — the serving workload of the roadmap — the fix is
to advance a *block* of right-hand sides together:

* one ``spmm`` per block iteration streams the matrix through memory once
  for all ``k`` right-hand sides instead of once per RHS;
* orthogonalization happens against a shared Krylov basis with BLAS-3
  ``gemm`` kernels (block CGS2, :mod:`repro.ortho.block`), reading the
  basis once per pass for all ``k`` vectors;
* the ``k`` right-hand sides share one Krylov space of dimension
  ``k × steps``, so each column typically converges in far fewer (block)
  iterations than it would alone.

The module provides the cycle routine (:func:`run_block_gmres_cycle`),
the restarted driver with per-column convergence tracking and deflation
of converged columns at restarts (:func:`block_gmres`), the blocked
mixed-precision refinement wrapper (:func:`block_gmres_ir`), and the
top-level :func:`solve_many` entry point that chunks an arbitrary number
of right-hand sides into blocks.

Least squares is handled by :class:`~repro.linalg.dense.BlockGivensWorkspace`,
the band-Hessenberg generalization of the Givens machinery, which yields
the per-column *implicit* residual norms GMRES monitors every iteration.
All cycle-steady-state kernels follow the PR-2 ``out=``/``work=`` buffer
contract, so a block iteration allocates nothing once the
:class:`BlockGmresWorkspace` exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from ..config import get_config
from ..linalg import kernels
from ..linalg.dense import BlockGivensWorkspace
from ..linalg.multivector import MultiVector
from ..linalg.pages import page_zeros
from ..obs.probe import ProbeEvent
from ..ortho import BlockOrthogonalizationManager, make_block_ortho_manager
from ..perfmodel.timer import KernelTimer, use_timer
from ..precision import Precision, as_precision
from ..preconditioners.base import IdentityPreconditioner, Preconditioner
from ..preconditioners.mixed import wrap_for_precision
from ..sparse.csr import CsrMatrix
from .gmres import _fp64_relative_residual
from .result import ConvergenceHistory, MultiSolveResult, SolverStatus
from .status import LossOfAccuracyTest, SolveControl, StagnationTest

__all__ = [
    "BlockGmresWorkspace",
    "BlockCycleOutcome",
    "run_block_gmres_cycle",
    "block_gmres",
    "block_gmres_ir",
    "solve_many",
]


class BlockGmresWorkspace:
    """Pre-allocated storage for restarted Block-GMRES cycles.

    Holds the shared Krylov basis (``n × (restart+1)·p`` MultiVector), the
    band-Hessenberg QR workspace, and the block scratch of the
    steady-state iteration (residual / preconditioner / update blocks and
    the per-step implicit-norm table), all in the working precision — the
    block analogue of :class:`~repro.solvers.gmres.GmresWorkspace`.

    Deflation shrinks the *active* block width ``k`` below ``block_size``
    between cycles; all block buffers are sliced to the active width
    (leading columns of Fortran-ordered blocks stay contiguous), and the
    few width-dependent C-contiguous scratch blocks are cached per ``k``
    (reallocated once per deflation event, never per iteration).  Every
    buffer whose size scales with ``n`` is page-backed, as in
    :class:`~repro.solvers.gmres.GmresWorkspace`.
    """

    def __init__(self, n: int, restart: int, block_size: int, precision) -> None:
        if restart <= 0 or block_size <= 0:
            raise ValueError("restart and block_size must be positive")
        self.precision = as_precision(precision)
        self.restart = int(restart)
        self.block_size = int(block_size)
        dtype = self.precision.dtype
        capacity = (self.restart + 1) * self.block_size
        self.basis = MultiVector(n, capacity, self.precision)
        self.givens = BlockGivensWorkspace(
            self.restart * self.block_size, self.block_size, dtype=dtype
        )
        self.W = page_zeros((n, self.block_size), dtype, order="F")
        self.R = page_zeros((n, self.block_size), dtype, order="F")
        self.Z = page_zeros((n, self.block_size), dtype, order="F")
        self.update = page_zeros((n, self.block_size), dtype, order="F")
        #: per-(block step, column) implicit residual norms of the cycle
        self.implicit = np.empty((self.restart, self.block_size), dtype=np.float64)
        self._gemm_work: dict = {}
        self._ycoef: dict = {}

    def gemm_work(self, k: int) -> np.ndarray:
        """C-contiguous ``(n, k)`` scratch for the BLAS-3 update kernels."""
        buf = self._gemm_work.get(k)
        if buf is None:
            buf = self._gemm_work[k] = page_zeros(
                (self.basis.length, k), self.precision.dtype
            )
        return buf

    def ycoef(self, k: int) -> np.ndarray:
        """C-contiguous ``(restart·k, k)`` coefficient buffer for the LS solve."""
        buf = self._ycoef.get(k)
        if buf is None:
            buf = self._ycoef[k] = np.empty(
                (self.restart * k, k), dtype=self.precision.dtype
            )
        return buf

    def storage_bytes(self) -> int:
        """Device memory held by the Krylov basis (for OOM checks)."""
        return self.basis.storage_bytes()

    def accommodates(self, n: int, restart: int, block_size: int, precision) -> bool:
        """True if this workspace can run a solve of the given shape.

        A workspace is reusable for any solve on the same vector length
        and precision whose restart and block width do not exceed the
        capacities it was built with — every cycle buffer is sliced to the
        active width, so a wider pooled workspace yields bit-identical
        numerics to a fresh exact-size one.
        """
        return (
            self.basis.length == n
            and self.restart >= restart
            and self.block_size >= block_size
            and self.precision.dtype == as_precision(precision).dtype
        )


def _resolve_workspace(
    workspace: Optional[BlockGmresWorkspace],
    n: int,
    restart: int,
    block_size: int,
    precision,
) -> BlockGmresWorkspace:
    """Validate a caller-provided workspace or allocate a fresh one.

    The batch-entry hook of the serve layer: an
    :class:`~repro.serve.OperatorSession` owns a pool of pre-allocated
    workspaces and passes one in per dispatch, so steady-state serving
    allocates no Krylov storage (the PR-2 allocation-free contract extended
    across whole solves).
    """
    if workspace is None:
        return BlockGmresWorkspace(n, restart, block_size, precision)
    if not workspace.accommodates(n, restart, block_size, precision):
        raise ValueError(
            f"provided workspace (n={workspace.basis.length}, "
            f"restart={workspace.restart}, block_size={workspace.block_size}, "
            f"precision={workspace.precision.name}) cannot accommodate a "
            f"solve with n={n}, restart={restart}, block_size={block_size}, "
            f"precision={as_precision(precision).name}"
        )
    return workspace


@dataclass
class BlockCycleOutcome:
    """Result of one Block-GMRES restart cycle.

    ``update`` and ``implicit`` are views into workspace scratch, valid
    only until the next cycle runs on the same workspace.
    """

    update: np.ndarray  # (n, k) solution-update block
    iterations: int  # block steps performed
    implicit: np.ndarray = field(default=None)  # (iterations, k) absolute norms
    breakdown: bool = False
    implicit_converged: bool = False


def run_block_gmres_cycle(
    matrix: CsrMatrix,
    R: np.ndarray,
    workspace: BlockGmresWorkspace,
    *,
    ortho: BlockOrthogonalizationManager,
    preconditioner: Preconditioner,
    absolute_targets: Optional[np.ndarray] = None,
    max_steps: Optional[int] = None,
    control: Optional[SolveControl] = None,
) -> BlockCycleOutcome:
    """Run one restart cycle of Block-GMRES and return the update block.

    Parameters
    ----------
    matrix:
        System matrix in the working precision.
    R:
        Current residual block ``B - A X`` (n × k), already in the working
        precision.  Not modified.
    workspace:
        Pre-allocated basis, band-Givens and block scratch; ``k`` may be
        anything up to ``workspace.block_size`` (deflation shrinks it).
    ortho:
        Block orthogonalization manager (block CGS2 by default).
    preconditioner:
        Right preconditioner in the working precision, applied column by
        column (preconditioners are vector operators; the matrix product
        they feed is still batched).
    absolute_targets:
        Per-column absolute implicit-residual targets; the cycle stops
        early once *every* column's estimate is below its target (columns
        share the basis, so none can leave mid-cycle).  ``None`` runs all
        steps (the GMRES-IR inner-cycle convention).
    max_steps:
        Optional cap below the restart length.
    control:
        Optional whole-block :class:`~repro.solvers.SolveControl` polled
        every ``control.check_interval`` block steps; when triggered the
        cycle ends early and still returns the partial update.
    """
    dtype = workspace.precision.dtype
    if matrix.dtype != dtype:
        raise TypeError(
            f"matrix precision {matrix.dtype.name} does not match the "
            f"workspace precision {dtype.name}"
        )
    if R.ndim != 2 or R.shape[0] != matrix.n_rows:
        raise ValueError("residual block has wrong shape")
    if R.dtype != dtype:
        raise TypeError("residual precision does not match the workspace precision")
    k = R.shape[1]
    if k <= 0 or k > workspace.block_size:
        raise ValueError(
            f"block width {k} out of range (workspace block size "
            f"{workspace.block_size})"
        )

    basis = workspace.basis
    givens = workspace.givens
    basis.reset()
    steps = workspace.restart if max_steps is None else min(max_steps, workspace.restart)
    if steps <= 0:
        workspace.update[:, :k] = 0
        return BlockCycleOutcome(
            update=workspace.update[:, :k],
            iterations=0,
            implicit=workspace.implicit[:0, :k],
        )

    # Seed the basis with the QR of the residual block: V₀ S = R.
    basis.column_block(0, k)[:] = R
    s_panel, breakdown = ortho.orthogonalize_block(basis, 0, k)
    basis.set_count(k)
    givens.reset(s_panel[:k, :k])

    implicit = workspace.implicit
    iterations = 0
    implicit_converged = False

    for j in range(steps):
        v_block = basis.column_block(j * k, k)
        if preconditioner.is_identity:
            z_block = v_block
        else:
            z_block = preconditioner.apply_block(v_block, out=workspace.Z[:, :k])
        # One SpMM advances every column; it writes straight into the next
        # basis block (a contiguous view of the Fortran-ordered storage).
        kernels.spmm(matrix, z_block, out=basis.column_block((j + 1) * k, k))
        panel, step_breakdown = ortho.orthogonalize_block(basis, (j + 1) * k, k)
        breakdown = breakdown or step_breakdown
        givens.append_block(panel)
        basis.set_count((j + 2) * k)
        givens.residual_norms(out=implicit[j, :k])
        iterations += 1
        if control is not None:
            control.charge(1)
        if absolute_targets is not None and np.all(
            implicit[j, :k] <= absolute_targets
        ):
            implicit_converged = True
            break
        if (
            control is not None
            and iterations % control.check_interval == 0
            and control.poll() is not None
        ):
            break

    y = givens.solve(out=workspace.ycoef(k)[: iterations * k])
    update = basis.combine_block(
        y, j=iterations * k, out=workspace.update[:, :k], work=workspace.gemm_work(k)
    )
    if not preconditioner.is_identity:
        update = preconditioner.apply_block(update, out=workspace.Z[:, :k])
    return BlockCycleOutcome(
        update=update,
        iterations=iterations,
        implicit=implicit[:iterations, :k],
        breakdown=breakdown,
        implicit_converged=implicit_converged,
    )


class _ColumnTracker:
    """Per-right-hand-side bookkeeping shared by the block drivers.

    Maintains the compacted *active* buffers (deflation removes converged
    columns by shifting the survivors left, so the kernels always see
    contiguous leading columns) and the per-original-column statuses,
    iteration counts and histories.
    """

    def __init__(self, B: np.ndarray, X0: Optional[np.ndarray], dtype) -> None:
        n, p = B.shape
        self.n, self.p = n, p
        # Always a fresh copy: compact() shifts columns in place, and
        # np.asfortranarray would alias a caller block that is already
        # Fortran-ordered in the working dtype.
        self.B = np.array(B, dtype=dtype, order="F", copy=True)
        self.X = np.zeros((n, p), dtype=dtype, order="F")
        if X0 is not None:
            self.X[:] = np.asarray(X0, dtype=dtype).reshape(n, p)
        self.final_X = np.zeros((n, p), dtype=dtype, order="F")
        self.bnorms = np.zeros(p)
        self.active = list(range(p))
        self.statuses: List[Optional[SolverStatus]] = [None] * p
        self.iterations = np.zeros(p, dtype=np.int64)
        self.steps_alive = np.zeros(p, dtype=np.int64)
        self.hit_at = np.full(p, -1, dtype=np.int64)
        self.histories = [ConvergenceHistory() for _ in range(p)]
        self.rel = np.full(p, np.inf)

    @property
    def k(self) -> int:
        return len(self.active)

    def finalize(self, i: int, status: SolverStatus) -> None:
        """Record the terminal status of active slot ``i`` (no compaction)."""
        col = self.active[i]
        self.statuses[col] = status
        if status == SolverStatus.CONVERGED and self.hit_at[col] >= 0:
            self.iterations[col] = self.hit_at[col]
        else:
            self.iterations[col] = self.steps_alive[col]
        self.final_X[:, col] = self.X[:, i]

    def finalize_all(self, status: SolverStatus) -> None:
        for i in range(self.k - 1, -1, -1):
            self.finalize(i, status)
        self.active = []

    def compact(self, extras=()) -> None:
        """Drop finalized columns; shift survivors into the leading slots.

        ``extras`` are companion ``(n, ≥k)`` blocks (e.g. the residual
        block just computed) whose leading columns track the active set
        and must be shifted identically.
        """
        keep = [i for i, col in enumerate(self.active) if self.statuses[col] is None]
        if len(keep) == self.k:
            return
        self.X[:, : len(keep)] = self.X[:, keep]
        self.B[:, : len(keep)] = self.B[:, keep]
        self.bnorms[: len(keep)] = self.bnorms[keep]
        for extra in extras:
            extra[:, : len(keep)] = extra[:, keep]
        self.active = [self.active[i] for i in keep]


def _status_counts(statuses: Sequence[SolverStatus]) -> dict:
    """Per-status column counts for block terminal probe events."""
    counts: dict = {}
    for status in statuses:
        counts[status.name] = counts.get(status.name, 0) + 1
    return counts


def _resolve_controls(
    controls: Optional[Sequence[Optional[SolveControl]]], p: int
) -> Optional[List[Optional[SolveControl]]]:
    """Validate the per-column control list of a batched solve."""
    if controls is None:
        return None
    controls = list(controls)
    if len(controls) != p:
        raise ValueError(
            f"controls must have one entry per right-hand side "
            f"({len(controls)} given for {p} columns)"
        )
    return controls


def block_gmres(
    matrix: CsrMatrix,
    B: np.ndarray,
    X0: Optional[np.ndarray] = None,
    *,
    precision: Union[str, Precision, None] = None,
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, BlockOrthogonalizationManager] = "bcgs2",
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    loss_of_accuracy_check: bool = True,
    stagnation: Optional[StagnationTest] = None,
    fp64_check: bool = True,
    workspace: Optional[BlockGmresWorkspace] = None,
    control: Optional[SolveControl] = None,
    controls: Optional[Sequence[Optional[SolveControl]]] = None,
    probe=None,
) -> MultiSolveResult:
    """Solve ``A X = B`` for a block of right-hand sides with Block-GMRES.

    The ``k`` columns of ``B`` share one Krylov basis: every block
    iteration performs one batched ``spmm`` and BLAS-3 block CGS2, and the
    band-Hessenberg least-squares problem yields a per-column implicit
    residual estimate every iteration.  At every restart the true residual
    of each column is recomputed; columns that meet the tolerance are
    **deflated** — their solution is frozen and the remaining columns
    continue in a narrower block.

    Parameters mirror :func:`repro.solvers.gmres.gmres`, with:

    B:
        Right-hand-side block ``(n, k)`` (a 1-D vector is treated as one
        column).
    restart:
        Number of *block* iterations per cycle: each column sees a Krylov
        space of dimension ``k × restart`` per cycle (memory grows
        accordingly — ``(restart+1)·k`` basis vectors).
    max_iterations:
        Budget in block iterations (default ``restart · max_restarts``).
    stagnation:
        Optional :class:`StagnationTest` template; each column gets an
        independent copy (patience/min_reduction are taken from it), and a
        column that stagnates is deflated with
        ``SolverStatus.STAGNATION`` while the others continue.
    workspace:
        Optional pre-allocated :class:`BlockGmresWorkspace` to reuse (it
        must accommodate this solve's shape — see
        :meth:`BlockGmresWorkspace.accommodates`).  The serve layer pools
        workspaces per block width so repeated dispatches on one operator
        allocate no Krylov storage; numerics are bit-identical to a fresh
        workspace.
    control:
        Optional whole-solve :class:`~repro.solvers.SolveControl` — polled
        at every restart boundary (and every ``check_interval`` block
        steps inside a cycle); when triggered *every* remaining column is
        finalized with the demanded status.
    controls:
        Optional per-column control list (one entry per right-hand side,
        entries may be ``None``).  A triggered column is **deflated** at
        the next restart boundary — its partial iterate is frozen with
        status ``TIMED_OUT`` / ``CANCELLED`` / ``MAX_ITERATIONS`` while
        the other columns keep iterating.  This is how the serve layer
        cancels one request of an in-flight batch within one restart
        cycle without disturbing its batchmates.
    probe:
        Optional convergence probe fed one
        :class:`~repro.obs.ProbeEvent` per restart boundary — the worst
        explicit relative residual over the columns active entering the
        boundary, plus how many columns were deflated at it — and one
        terminal event with the per-status column counts in
        ``extra["statuses"]`` (see :mod:`repro.obs.probe`).

    Returns
    -------
    MultiSolveResult
        Per-column statuses, iteration counts and histories; the kernel
        timer is shared by the whole block.
    """
    cfg = get_config()
    restart = cfg.restart if restart is None else int(restart)
    tol = cfg.rtol if tol is None else float(tol)
    max_restarts = cfg.max_restarts if max_restarts is None else int(max_restarts)
    if max_iterations is None:
        max_iterations = restart * max_restarts
    prec = as_precision(precision if precision is not None else matrix.dtype)
    ortho_mgr = make_block_ortho_manager(ortho) if isinstance(ortho, str) else ortho

    B = np.asarray(B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = matrix.n_rows
    if B.shape[0] != n:
        raise ValueError(f"right-hand-side block must have {n} rows")
    p = B.shape[1]
    if p == 0:
        raise ValueError("right-hand-side block has no columns")
    solver_name = name or f"block-gmres({restart}x{p})-{prec.name}"

    A = matrix.astype(prec)
    if preconditioner is None:
        precond: Preconditioner = IdentityPreconditioner(precision=prec)
    else:
        precond = wrap_for_precision(preconditioner, prec)

    workspace = _resolve_workspace(workspace, n, restart, p, prec)
    timer = timer or KernelTimer(solver_name)
    loa = LossOfAccuracyTest(tolerance=tol) if loss_of_accuracy_check else None
    stagnation_tests = (
        [
            StagnationTest(
                patience=stagnation.patience, min_reduction=stagnation.min_reduction
            )
            for _ in range(p)
        ]
        if stagnation is not None
        else None
    )

    controls = _resolve_controls(controls, p)
    tracker = _ColumnTracker(B, X0, prec.dtype)
    pending_implicit = np.full(p, np.nan)
    total_block_iterations = 0
    restarts = 0
    rnorm = np.zeros(p)

    with use_timer(timer):
        for c in range(p):
            tracker.bnorms[c] = kernels.norm2(tracker.B[:, c])
            if tracker.bnorms[c] == 0.0:
                # Zero right-hand side: the zero vector is the solution.
                tracker.X[:, c] = 0
                tracker.rel[c] = 0.0
        # Deflate zero columns before the first cycle.
        for i in range(p - 1, -1, -1):
            if tracker.bnorms[i] == 0.0:
                tracker.finalize(i, SolverStatus.CONVERGED)
        tracker.compact()

        while tracker.active:
            k = tracker.k
            # True residual block R = B - A X for the active columns.
            w_block = kernels.spmm(A, tracker.X[:, :k], out=workspace.W[:, :k])
            for i in range(k):
                r = kernels.copy(tracker.B[:, i], out=workspace.R[:, i])
                kernels.axpy(-1.0, w_block[:, i], r)
                rnorm[i] = kernels.norm2(r)

            for i, col in enumerate(tracker.active):
                rel = rnorm[i] / tracker.bnorms[i]
                tracker.rel[col] = rel
                tracker.histories[col].record_explicit(
                    int(tracker.steps_alive[col]), rel
                )
                demanded = (
                    controls[col].poll()
                    if controls is not None and controls[col] is not None
                    else None
                )
                if rel <= tol:
                    tracker.finalize(i, SolverStatus.CONVERGED)
                elif not np.isfinite(rel):
                    # A NaN/Inf column cannot recover (and would poison the
                    # shared basis): classify it and deflate.
                    tracker.finalize(i, SolverStatus.BREAKDOWN)
                elif demanded is not None:
                    tracker.finalize(i, demanded)
                elif (
                    loa is not None
                    and np.isfinite(pending_implicit[col])
                    and loa.triggered(
                        pending_implicit[col] / tracker.bnorms[i], rel
                    )
                ):
                    tracker.finalize(i, SolverStatus.LOSS_OF_ACCURACY)
                elif stagnation_tests is not None and stagnation_tests[col].update(rel):
                    tracker.finalize(i, SolverStatus.STAGNATION)
            if probe is not None:
                entering = [tracker.rel[col] for col in tracker.active]
            tracker.compact(extras=(workspace.R,))
            if probe is not None:
                probe(ProbeEvent(
                    solver="block-gmres",
                    kind="restart",
                    iteration=total_block_iterations,
                    restarts=restarts,
                    residual=float(max(entering)),
                    active=tracker.k,
                    deflated=len(entering) - tracker.k,
                ))
            if not tracker.active:
                break
            if control is not None:
                demanded = control.poll()
                if demanded is not None:
                    tracker.finalize_all(demanded)
                    break
            if total_block_iterations >= max_iterations or restarts >= max_restarts:
                tracker.finalize_all(SolverStatus.MAX_ITERATIONS)
                break

            k = tracker.k
            targets = tol * tracker.bnorms[:k]
            remaining = max_iterations - total_block_iterations
            outcome = run_block_gmres_cycle(
                A,
                workspace.R[:, :k],
                workspace,
                ortho=ortho_mgr,
                preconditioner=precond,
                absolute_targets=targets,
                max_steps=min(restart, remaining),
                control=control,
            )
            for i, col in enumerate(tracker.active):
                if controls is not None and controls[col] is not None:
                    controls[col].charge(outcome.iterations)
                base = int(tracker.steps_alive[col])
                hit = -1
                for step in range(outcome.iterations):
                    implicit_abs = float(outcome.implicit[step, i])
                    tracker.histories[col].record_implicit(
                        base + step + 1, implicit_abs / tracker.bnorms[i]
                    )
                    if hit < 0 and implicit_abs <= targets[i]:
                        hit = base + step + 1
                # Only trust the first hit if the estimate stayed below the
                # target through the end of the cycle (it is confirmed by
                # the explicit residual at the next restart).
                if (
                    hit >= 0
                    and outcome.iterations > 0
                    and float(outcome.implicit[outcome.iterations - 1, i])
                    <= targets[i]
                ):
                    tracker.hit_at[col] = hit
                else:
                    tracker.hit_at[col] = -1
                if outcome.iterations > 0:
                    pending_implicit[col] = float(
                        outcome.implicit[outcome.iterations - 1, i]
                    )
                tracker.steps_alive[col] += outcome.iterations
            for i in range(k):
                kernels.axpy(1.0, outcome.update[:, i], tracker.X[:, i])
            total_block_iterations += outcome.iterations
            restarts += 1
            if outcome.iterations == 0:
                # Defensive: no progress possible (e.g. zero residual cycle).
                tracker.finalize_all(SolverStatus.BREAKDOWN)
                break

    rel_fp64 = np.empty(p)
    for col in range(p):
        rel_fp64[col] = (
            _fp64_relative_residual(matrix, B[:, col], tracker.final_X[:, col])
            if fp64_check
            else tracker.rel[col]
        )
    statuses = [s if s is not None else SolverStatus.MAX_ITERATIONS
                for s in tracker.statuses]
    if probe is not None:
        probe(ProbeEvent(
            solver="block-gmres",
            kind="terminal",
            iteration=total_block_iterations,
            restarts=restarts,
            residual=float(np.max(tracker.rel)),
            active=0,
            deflated=0,
            extra={"statuses": _status_counts(statuses)},
        ))
    return MultiSolveResult(
        X=tracker.final_X,
        statuses=statuses,
        iterations=tracker.iterations.copy(),
        block_iterations=total_block_iterations,
        restarts=restarts,
        relative_residuals=tracker.rel.copy(),
        relative_residuals_fp64=rel_fp64,
        histories=tracker.histories,
        timer=timer,
        solver="block-gmres",
        precision=prec.name,
        block_size=p,
        details={
            "restart": restart,
            "tolerance": tol,
            "orthogonalization": ortho_mgr.name,
            "preconditioner": precond.name,
            "basis_bytes": workspace.storage_bytes(),
        },
    )


def block_gmres_ir(
    matrix: CsrMatrix,
    B: np.ndarray,
    X0: Optional[np.ndarray] = None,
    *,
    inner_precision: Union[str, Precision] = "single",
    outer_precision: Union[str, Precision] = "double",
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, BlockOrthogonalizationManager] = "bcgs2",
    refine_every: int = 1,
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    fp64_check: bool = True,
    workspace: Optional[BlockGmresWorkspace] = None,
    control: Optional[SolveControl] = None,
    controls: Optional[Sequence[Optional[SolveControl]]] = None,
    probe=None,
) -> MultiSolveResult:
    """Batched GMRES-IR: blocked fp32 inner cycles with fp64 refinement.

    The blocked analogue of :func:`repro.solvers.gmres_ir.gmres_ir`: the
    outer loop holds the solution block in the outer precision, recomputes
    the true residual block with one batched ``spmm`` per refinement, and
    deflates converged columns; each refinement runs ``refine_every``
    full Block-GMRES cycles in the inner precision on the correction
    system ``A U = R`` (inner implicit residuals are not trusted for
    convergence, exactly as in the single-vector solver).

    ``control`` / ``controls`` behave as in :func:`block_gmres`: a
    whole-solve token finalizes every remaining column when triggered, a
    per-column token deflates just its column at the next refinement
    boundary.  ``probe`` behaves as in :func:`block_gmres` with
    ``kind="refinement"`` events at the outer refinement boundaries.
    """
    cfg = get_config()
    restart = cfg.restart if restart is None else int(restart)
    tol = cfg.rtol if tol is None else float(tol)
    max_restarts = cfg.max_restarts if max_restarts is None else int(max_restarts)
    if max_iterations is None:
        max_iterations = restart * max_restarts
    if refine_every < 1:
        raise ValueError("refine_every must be at least 1")
    inner = as_precision(inner_precision)
    outer = as_precision(outer_precision)
    if inner.bytes > outer.bytes:
        raise ValueError("inner precision must not be wider than the outer precision")
    ortho_mgr = make_block_ortho_manager(ortho) if isinstance(ortho, str) else ortho

    B = np.asarray(B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = matrix.n_rows
    if B.shape[0] != n:
        raise ValueError(f"right-hand-side block must have {n} rows")
    p = B.shape[1]
    if p == 0:
        raise ValueError("right-hand-side block has no columns")
    solver_name = name or f"block-gmres({restart}x{p})-ir-{inner.name}/{outer.name}"

    A_outer = matrix.astype(outer)
    A_inner = matrix.astype(inner)
    if preconditioner is None:
        precond: Preconditioner = IdentityPreconditioner(precision=inner)
    else:
        precond = wrap_for_precision(preconditioner, inner)

    workspace = _resolve_workspace(workspace, n, restart, p, inner)
    timer = timer or KernelTimer(solver_name)

    controls = _resolve_controls(controls, p)
    tracker = _ColumnTracker(B, X0, outer.dtype)
    # Refinement-block scratch, reused across all refinement steps.
    w_outer = np.empty((n, p), dtype=outer.dtype, order="F")
    r_outer = np.empty((n, p), dtype=outer.dtype, order="F")
    correction = np.empty((n, p), dtype=inner.dtype, order="F")
    mixed = inner.dtype != outer.dtype
    r_inner_buf = np.empty((n, p), dtype=inner.dtype, order="F") if mixed else None
    u_buf = np.empty((n, p), dtype=outer.dtype, order="F") if mixed else None
    rhs_buf = (
        np.empty((n, p), dtype=inner.dtype, order="F") if refine_every > 1 else None
    )
    rnorm = np.zeros(p)
    total_block_iterations = 0
    refinements = 0

    with use_timer(timer):
        for c in range(p):
            tracker.bnorms[c] = kernels.norm2(tracker.B[:, c])
            if tracker.bnorms[c] == 0.0:
                tracker.X[:, c] = 0
                tracker.rel[c] = 0.0
        for i in range(p - 1, -1, -1):
            if tracker.bnorms[i] == 0.0:
                tracker.finalize(i, SolverStatus.CONVERGED)
        tracker.compact()

        while tracker.active:
            k = tracker.k
            # Outer (true) residual block in the high precision; booked
            # under "Residual" like the single-vector GMRES-IR.
            w_block = kernels.spmm(
                A_outer, tracker.X[:, :k], out=w_outer[:, :k], label="Residual"
            )
            for i in range(k):
                r = kernels.copy(tracker.B[:, i], out=r_outer[:, i], label="Residual")
                kernels.axpy(-1.0, w_block[:, i], r, label="Residual")
                rnorm[i] = kernels.norm2(r, label="Residual")

            for i, col in enumerate(tracker.active):
                rel = rnorm[i] / tracker.bnorms[i]
                tracker.rel[col] = rel
                tracker.histories[col].record_explicit(
                    int(tracker.steps_alive[col]), rel
                )
                demanded = (
                    controls[col].poll()
                    if controls is not None and controls[col] is not None
                    else None
                )
                if rel <= tol:
                    tracker.finalize(i, SolverStatus.CONVERGED)
                elif not np.isfinite(rel):
                    tracker.finalize(i, SolverStatus.BREAKDOWN)
                elif demanded is not None:
                    tracker.finalize(i, demanded)
            if probe is not None:
                entering = [tracker.rel[col] for col in tracker.active]
            tracker.compact(extras=(r_outer,))
            if probe is not None:
                probe(ProbeEvent(
                    solver="block-gmres-ir",
                    kind="refinement",
                    iteration=total_block_iterations,
                    restarts=refinements,
                    residual=float(max(entering)),
                    active=tracker.k,
                    deflated=len(entering) - tracker.k,
                ))
            if not tracker.active:
                break
            if control is not None:
                demanded = control.poll()
                if demanded is not None:
                    tracker.finalize_all(demanded)
                    break
            if total_block_iterations >= max_iterations or refinements >= max_restarts:
                tracker.finalize_all(SolverStatus.MAX_ITERATIONS)
                break

            k = tracker.k
            # Hand the residual block to the low-precision solver.
            if mixed:
                for i in range(k):
                    kernels.cast(r_outer[:, i], inner, out=r_inner_buf[:, i])
                r_inner = r_inner_buf[:, :k]
            else:
                r_inner = r_outer[:, :k]

            correction[:, :k] = 0
            cycle_rhs = r_inner
            inner_breakdown = False
            for _ in range(refine_every):
                remaining = max_iterations - total_block_iterations
                if remaining <= 0:
                    break
                outcome = run_block_gmres_cycle(
                    A_inner,
                    cycle_rhs,
                    workspace,
                    ortho=ortho_mgr,
                    preconditioner=precond,
                    absolute_targets=None,  # inner residuals are not trusted
                    max_steps=min(restart, remaining),
                    control=control,
                )
                for i, col in enumerate(tracker.active):
                    if controls is not None and controls[col] is not None:
                        controls[col].charge(outcome.iterations)
                    base = int(tracker.steps_alive[col])
                    for step in range(outcome.iterations):
                        tracker.histories[col].record_implicit(
                            base + step + 1,
                            float(outcome.implicit[step, i]) / tracker.bnorms[i],
                        )
                    tracker.steps_alive[col] += outcome.iterations
                for i in range(k):
                    kernels.axpy(1.0, outcome.update[:, i], correction[:, i])
                total_block_iterations += outcome.iterations
                if outcome.breakdown or outcome.iterations == 0:
                    inner_breakdown = True
                    break
                if refine_every > 1:
                    w_in = kernels.spmm(
                        A_inner, correction[:, :k], out=workspace.W[:, :k]
                    )
                    for i in range(k):
                        kernels.copy(r_inner[:, i], out=rhs_buf[:, i])
                        kernels.axpy(-1.0, w_in[:, i], rhs_buf[:, i])
                    cycle_rhs = rhs_buf[:, :k]

            # Promote the correction and update the solution block.
            for i in range(k):
                u = kernels.cast(
                    correction[:, i], outer, out=None if not mixed else u_buf[:, i]
                )
                kernels.axpy(1.0, u, tracker.X[:, i], label="Residual")
            refinements += 1
            if inner_breakdown:
                w_block = kernels.spmm(
                    A_outer, tracker.X[:, :k], out=w_outer[:, :k], label="Residual"
                )
                for i in range(tracker.k - 1, -1, -1):
                    r = kernels.copy(
                        tracker.B[:, i], out=r_outer[:, i], label="Residual"
                    )
                    kernels.axpy(-1.0, w_block[:, i], r, label="Residual")
                    rel = kernels.norm2(r, label="Residual") / tracker.bnorms[i]
                    col = tracker.active[i]
                    tracker.rel[col] = rel
                    tracker.histories[col].record_explicit(
                        int(tracker.steps_alive[col]), rel
                    )
                    tracker.finalize(
                        i,
                        SolverStatus.CONVERGED
                        if rel <= tol
                        else SolverStatus.BREAKDOWN,
                    )
                tracker.active = []
                break

    rel_fp64 = np.empty(p)
    for col in range(p):
        rel_fp64[col] = (
            _fp64_relative_residual(matrix, B[:, col], tracker.final_X[:, col])
            if fp64_check
            else tracker.rel[col]
        )
    statuses = [s if s is not None else SolverStatus.MAX_ITERATIONS
                for s in tracker.statuses]
    if probe is not None:
        probe(ProbeEvent(
            solver="block-gmres-ir",
            kind="terminal",
            iteration=total_block_iterations,
            restarts=refinements,
            residual=float(np.max(tracker.rel)),
            active=0,
            deflated=0,
            extra={"statuses": _status_counts(statuses)},
        ))
    return MultiSolveResult(
        X=tracker.final_X,
        statuses=statuses,
        iterations=tracker.iterations.copy(),
        block_iterations=total_block_iterations,
        restarts=refinements,
        relative_residuals=tracker.rel.copy(),
        relative_residuals_fp64=rel_fp64,
        histories=tracker.histories,
        timer=timer,
        solver="block-gmres-ir",
        precision=f"{inner.name}/{outer.name}",
        block_size=p,
        details={
            "restart": restart,
            "tolerance": tol,
            "refine_every": refine_every,
            "orthogonalization": ortho_mgr.name,
            "preconditioner": precond.name,
            "inner_matrix_bytes": A_inner.storage_bytes(),
            "outer_matrix_bytes": A_outer.storage_bytes(),
            "basis_bytes": workspace.storage_bytes(),
        },
    )


def solve_many(
    matrix: CsrMatrix,
    B: np.ndarray,
    X0: Optional[np.ndarray] = None,
    *,
    method: str = "gmres",
    block_size: Optional[int] = None,
    timer: Optional[KernelTimer] = None,
    workspace: Optional[BlockGmresWorkspace] = None,
    controls: Optional[Sequence[Optional[SolveControl]]] = None,
    **kwargs,
) -> MultiSolveResult:
    """Solve ``A X = B`` for many right-hand sides with the batched path.

    The serving entry point: splits the columns of ``B`` into blocks of at
    most ``block_size`` and runs each block through :func:`block_gmres`
    (``method="gmres"``) or :func:`block_gmres_ir` (``method="gmres-ir"``),
    so every block amortizes its matrix and basis traversals across its
    columns.  One shared :class:`KernelTimer` meters the whole batch.

    Parameters
    ----------
    B:
        Right-hand sides, shape ``(n, n_rhs)`` (a 1-D vector is one RHS).
    block_size:
        Maximum columns per block (default: all of them — one block).
        Memory per block is ``(restart + 1) · block_size`` basis vectors.
    method:
        ``"gmres"`` or ``"gmres-ir"``.
    workspace:
        Optional pre-allocated :class:`BlockGmresWorkspace` shared by all
        chunks (each chunk is at most ``block_size`` columns wide, so one
        workspace of that width serves the whole batch).
    controls:
        Optional per-right-hand-side :class:`~repro.solvers.SolveControl`
        list (entries may be ``None``); each chunk receives the slice for
        its columns.
    kwargs:
        Forwarded to the block driver (restart, tol, preconditioner,
        ``control`` for a whole-batch token, ...).
    """
    drivers = {
        "gmres": ("block-gmres", block_gmres),
        "block-gmres": ("block-gmres", block_gmres),
        "gmres-ir": ("block-gmres-ir", block_gmres_ir),
        "gmres_ir": ("block-gmres-ir", block_gmres_ir),
    }
    if method not in drivers:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted(drivers)}"
        )
    solver_label, driver = drivers[method]

    B = np.asarray(B)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n, p = B.shape
    if p == 0:
        raise ValueError("right-hand-side block has no columns")
    if X0 is not None:
        X0 = np.asarray(X0)
        if X0.ndim == 1:
            X0 = X0.reshape(-1, 1)
        if X0.shape != (n, p):
            raise ValueError("initial-guess block must match the right-hand sides")
    width = p if block_size is None else max(1, min(int(block_size), p))
    timer = timer or KernelTimer(f"solve-many-{solver_label}")
    controls = _resolve_controls(controls, p)

    results = []
    for start in range(0, p, width):
        stop = min(start + width, p)
        results.append(
            driver(
                matrix,
                B[:, start:stop],
                X0[:, start:stop] if X0 is not None else None,
                timer=timer,
                workspace=workspace,
                controls=controls[start:stop] if controls is not None else None,
                **kwargs,
            )
        )
    if len(results) == 1:
        merged = results[0]
        merged.details["block_size"] = width
        return merged

    X = np.concatenate([r.X for r in results], axis=1)
    rel = np.concatenate([r.relative_residuals for r in results])
    rel64 = np.concatenate([r.relative_residuals_fp64 for r in results])
    iterations = np.concatenate([r.iterations for r in results])
    statuses: List[SolverStatus] = []
    histories: List[ConvergenceHistory] = []
    for r in results:
        statuses.extend(r.statuses)
        histories.extend(r.histories)
    details = dict(results[0].details)
    details["block_size"] = width
    details["n_blocks"] = len(results)
    return MultiSolveResult(
        X=X,
        statuses=statuses,
        iterations=iterations,
        block_iterations=sum(r.block_iterations for r in results),
        restarts=sum(r.restarts for r in results),
        relative_residuals=rel,
        relative_residuals_fp64=rel64,
        histories=histories,
        timer=timer,
        solver=solver_label,
        precision=results[0].precision,
        block_size=width,
        details=details,
    )
