"""Restarted GMRES(m) — the paper's Algorithm 1.

Right-preconditioned GMRES with two-pass classical Gram-Schmidt
orthogonalization (CGS2), Givens-rotation least squares, an implicit
residual estimate monitored every iteration, and the true residual
recomputed at every restart.  Everything runs in a single *working
precision* (the Belos solvers are templated on one scalar type); the
multiprecision variants (GMRES-IR, GMRES-FD) are built on top of the cycle
routine exported here.

The solver is deliberately faithful to the kernel sequence of the Belos
implementation the paper measures, because those kernel calls are what the
performance model meters:

* per iteration: 1 SpMV (plus the preconditioner's SpMVs), 2× GEMV-T and
  2× GEMV-N (CGS2), one norm, one vector scale;
* per restart: an SpMV + axpy to recompute the true residual, a small
  host-side triangular solve, one GEMV-N to form the solution update, and
  one extra preconditioner application (right preconditioning recovers
  ``x = x0 + M V y``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from ..config import get_config
from ..linalg import kernels
from ..linalg.dense import GivensWorkspace
from ..linalg.multivector import MultiVector
from ..linalg.pages import page_zeros
from ..obs.probe import ProbeEvent
from ..ortho import OrthogonalizationManager, make_ortho_manager
from ..perfmodel.timer import KernelTimer, use_timer
from ..precision import Precision, as_precision
from ..preconditioners.base import IdentityPreconditioner, Preconditioner
from ..preconditioners.mixed import wrap_for_precision
from ..sparse.csr import CsrMatrix
from .result import ConvergenceHistory, SolveResult, SolverStatus
from .status import LossOfAccuracyTest, SolveControl, StagnationTest

__all__ = ["gmres", "run_gmres_cycle", "CycleOutcome", "GmresWorkspace"]

#: Subdiagonal entries below this absolute value are treated as a lucky breakdown.
BREAKDOWN_TOLERANCE = 1e-30


@dataclass
class CycleOutcome:
    """Result of one GMRES(m) restart cycle."""

    update: np.ndarray
    iterations: int
    implicit_norms: List[float] = field(default_factory=list)
    breakdown: bool = False
    implicit_converged: bool = False

    @property
    def final_implicit_norm(self) -> float:
        return self.implicit_norms[-1] if self.implicit_norms else float("inf")


class GmresWorkspace:
    """Pre-allocated storage reused across restart cycles.

    Holds the Krylov basis :class:`MultiVector` (``n × (m+1)``) and the
    Givens workspace for the Hessenberg least-squares problem, both in the
    working precision.  GMRES-IR keeps one of these for its inner fp32
    solver and reuses it across refinement steps — just like the Belos
    solver object the paper's implementation re-feeds with new right-hand
    sides.

    It also owns the scratch vectors of the steady-state iteration, so a
    solve allocates nothing once the workspace exists:

    * ``w`` / ``r`` — driver scratch for the restart-time true residual
      (``w = A x``, ``r = b - w``);
    * ``z`` — preconditioned-vector buffer inside the cycle (also reused
      for the cycle-final right-preconditioner application);
    * ``update`` — the solution update ``V y`` of a cycle;
    * ``hcol`` — Hessenberg-column-length buffer for the triangular-solve
      coefficients ``y`` at the end of a cycle.

    ``update``/``z`` are handed out through :class:`CycleOutcome`, so the
    outcome of a cycle is only valid until the next cycle runs on the same
    workspace — every solver consumes it immediately.

    The basis and the four length-``n`` vectors are page-backed
    (:func:`~repro.linalg.pages.page_zeros`): when the workspace is
    dropped their memory returns to the operating system, whatever the
    allocator's thresholds.
    """

    def __init__(self, n: int, restart: int, precision) -> None:
        self.precision = as_precision(precision)
        self.restart = int(restart)
        self.basis = MultiVector(n, self.restart + 1, self.precision)
        self.givens = GivensWorkspace(self.restart, dtype=self.precision.dtype)
        dtype = self.precision.dtype
        self.w = page_zeros(n, dtype)
        self.r = page_zeros(n, dtype)
        self.z = page_zeros(n, dtype)
        self.update = page_zeros(n, dtype)
        self.hcol = np.empty(self.restart + 1, dtype=dtype)

    def storage_bytes(self) -> int:
        """Device memory held by the Krylov basis (for OOM checks)."""
        return self.basis.storage_bytes()

    def accommodates(self, n: int, restart: int, precision) -> bool:
        """True if this workspace can run a solve of the given shape.

        Reusable for any solve on the same vector length and precision
        whose restart does not exceed the capacity it was built with
        (cycles are capped by ``max_steps``, so a longer-restart workspace
        yields bit-identical numerics to a fresh exact-size one).
        """
        return (
            self.basis.length == n
            and self.restart >= restart
            and self.precision.dtype == as_precision(precision).dtype
        )


def _resolve_gmres_workspace(
    workspace: "GmresWorkspace | None", n: int, restart: int, precision
) -> GmresWorkspace:
    """Validate a caller-provided workspace or allocate a fresh one.

    The single-vector twin of the Block-GMRES batch-entry hook: the serve
    layer's :class:`~repro.serve.OperatorSession` pools one workspace for
    its width-1 dispatches so steady-state serving allocates no Krylov
    storage.
    """
    if workspace is None:
        return GmresWorkspace(n, restart, precision)
    if not workspace.accommodates(n, restart, precision):
        raise ValueError(
            f"provided workspace (n={workspace.basis.length}, "
            f"restart={workspace.restart}, precision={workspace.precision.name}) "
            f"cannot accommodate a solve with n={n}, restart={restart}, "
            f"precision={as_precision(precision).name}"
        )
    return workspace


def run_gmres_cycle(
    matrix: CsrMatrix,
    residual: np.ndarray,
    residual_norm: float,
    workspace: GmresWorkspace,
    *,
    ortho: OrthogonalizationManager,
    preconditioner: Preconditioner,
    absolute_target: Optional[float] = None,
    max_steps: Optional[int] = None,
    control: Optional[SolveControl] = None,
) -> CycleOutcome:
    """Run one restart cycle of GMRES(m) and return the solution update.

    Parameters
    ----------
    matrix:
        System matrix in the working precision.
    residual:
        Current residual ``b - A x`` (the cycle's right-hand side), already
        in the working precision.  Not modified.
    residual_norm:
        Its 2-norm (computed by the caller, who usually needs it anyway).
    workspace:
        Pre-allocated basis and Givens storage (defines the restart length).
    ortho:
        Orthogonalization manager (CGS2 in the paper).
    preconditioner:
        Right preconditioner in the working precision
        (:class:`IdentityPreconditioner` when unpreconditioned).
    absolute_target:
        If given, the cycle stops early once the implicit residual estimate
        drops below this absolute value (standard GMRES monitors its
        implicit residual).  GMRES-IR passes ``None``: its inner fp32
        residuals "give little information about the convergence of the
        overall problem", so inner cycles always run the full ``m`` steps.
    max_steps:
        Optional cap below the restart length (used by GMRES-FD to stop at
        the precision-switch iteration).
    control:
        Optional :class:`~repro.solvers.SolveControl` polled every
        ``control.check_interval`` Arnoldi steps; when it demands a stop
        the cycle ends early and still returns the partial update (the
        driver classifies the terminal status at the restart boundary).

    Returns
    -------
    CycleOutcome
        The (right-preconditioned) solution update ``M V y`` and the
        per-iteration implicit residual norms (absolute).  The update
        vector is a view into the workspace's scratch and is only valid
        until the next cycle runs on the same workspace; callers fold it
        into their solution immediately.
    """
    dtype = workspace.precision.dtype
    if matrix.dtype != dtype:
        raise TypeError(
            f"matrix precision {matrix.dtype.name} does not match the "
            f"workspace precision {dtype.name}"
        )
    if residual.dtype != dtype:
        raise TypeError("residual precision does not match the workspace precision")

    basis = workspace.basis
    givens = workspace.givens
    basis.reset()
    givens.reset(residual_norm)

    steps = workspace.restart if max_steps is None else min(max_steps, workspace.restart)
    if residual_norm <= 0.0 or steps == 0:
        workspace.update[:] = 0
        return CycleOutcome(update=workspace.update, iterations=0)

    basis.append(residual)
    kernels.scal(1.0 / residual_norm, basis.column(0))

    implicit_norms: List[float] = []
    breakdown = False
    implicit_converged = False
    iterations = 0

    for j in range(steps):
        v_j = basis.column(j)
        z = v_j if preconditioner.is_identity else preconditioner.apply(v_j, out=workspace.z)
        # The SpMV writes straight into the next basis column (a contiguous
        # view of the Fortran-ordered block), so forming the new Arnoldi
        # vector neither allocates nor copies.
        w = kernels.spmv(matrix, z, out=basis.column(j + 1))
        h, h_next = ortho.orthogonalize(basis, w)
        implicit = givens.append_column(h, h_next)
        implicit_norms.append(implicit)
        iterations += 1
        if control is not None:
            control.charge(1)

        if h_next <= BREAKDOWN_TOLERANCE:
            breakdown = True
            implicit_converged = True
            break
        # The next basis vector is always formed (Belos does the same); it is
        # simply unused when the cycle ends at this iteration.
        kernels.scal(1.0 / h_next, w)
        basis.set_count(j + 2)  # column j+1 is already in place
        if absolute_target is not None and implicit <= absolute_target:
            implicit_converged = True
            break
        if (
            control is not None
            and iterations % control.check_interval == 0
            and control.poll() is not None
        ):
            break

    y = givens.solve(out=workspace.hcol[:iterations])
    update = basis.combine(y, j=iterations, out=workspace.update)
    if not preconditioner.is_identity:
        update = preconditioner.apply(update, out=workspace.z)
    return CycleOutcome(
        update=update,
        iterations=iterations,
        implicit_norms=implicit_norms,
        breakdown=breakdown,
        implicit_converged=implicit_converged,
    )


def gmres(
    matrix: CsrMatrix,
    b: np.ndarray,
    x0: Optional[np.ndarray] = None,
    *,
    precision: Union[str, Precision, None] = None,
    restart: Optional[int] = None,
    tol: Optional[float] = None,
    max_iterations: Optional[int] = None,
    max_restarts: Optional[int] = None,
    preconditioner: Optional[Preconditioner] = None,
    ortho: Union[str, OrthogonalizationManager] = "cgs2",
    timer: Optional[KernelTimer] = None,
    name: Optional[str] = None,
    loss_of_accuracy_check: bool = True,
    stagnation: Optional[StagnationTest] = None,
    fp64_check: bool = True,
    workspace: Optional[GmresWorkspace] = None,
    control: Optional[SolveControl] = None,
    probe=None,
) -> SolveResult:
    """Solve ``A x = b`` with restarted GMRES(m) in a single working precision.

    Parameters
    ----------
    matrix:
        System matrix (any precision; converted to the working precision —
        the one-time conversion is not metered, matching how the paper
        excludes the fp32 matrix copy from solve times).
    b, x0:
        Right-hand side and optional initial guess (default zero).
    precision:
        Working precision (default: the matrix's own precision).
    restart:
        Restart length ``m`` (default 50, the paper's setting).
    tol:
        Relative residual tolerance ``||b - A x|| / ||b||`` (default 1e-10).
    max_iterations / max_restarts:
        Iteration budget; whichever is hit first terminates the solve.
    preconditioner:
        Right preconditioner.  If its precision differs from the working
        precision it is wrapped so every application casts (and is charged
        for) the conversion — the paper's "fp32 preconditioner with fp64
        GMRES" configuration.
    ortho:
        Orthogonalization: ``"cgs2"`` (paper default), ``"cgs"`` or ``"mgs"``.
    timer:
        Optional existing :class:`KernelTimer` to record into (a fresh one
        is created otherwise and attached to the result).
    loss_of_accuracy_check:
        Detect implicit/explicit residual divergence and stop with
        ``SolverStatus.LOSS_OF_ACCURACY`` (Section V-F behaviour).
    stagnation:
        Optional :class:`StagnationTest` applied to the explicit residuals.
    fp64_check:
        Also report the final residual recomputed in fp64 (unmetered).
    workspace:
        Optional pre-allocated :class:`GmresWorkspace` to reuse (must
        accommodate this solve's shape).  The serve layer pools one for
        its width-1 dispatches; numerics are bit-identical to a fresh
        workspace.
    control:
        Optional :class:`~repro.solvers.SolveControl` — a cooperative
        deadline / cancellation / iteration-budget token polled at every
        restart boundary and every ``control.check_interval`` inner
        iterations.  A triggered control terminates the solve with status
        ``TIMED_OUT``, ``CANCELLED`` or ``MAX_ITERATIONS`` and returns the
        best iterate reached so far.
    probe:
        Optional convergence probe — a callable fed one
        :class:`~repro.obs.ProbeEvent` per restart boundary (the explicit
        relative residual the solver already computes there) plus one
        terminal event carrying the final status.  See
        :mod:`repro.obs.probe`.

    Returns
    -------
    SolveResult
    """
    cfg = get_config()
    restart = cfg.restart if restart is None else int(restart)
    tol = cfg.rtol if tol is None else float(tol)
    max_restarts = cfg.max_restarts if max_restarts is None else int(max_restarts)
    if max_iterations is None:
        max_iterations = restart * max_restarts
    prec = as_precision(precision if precision is not None else matrix.dtype)
    ortho_mgr = make_ortho_manager(ortho) if isinstance(ortho, str) else ortho
    solver_name = name or f"gmres({restart})-{prec.name}"

    A = matrix.astype(prec)
    b_work = np.asarray(b, dtype=prec.dtype)
    n = A.n_rows
    if b_work.shape != (n,):
        raise ValueError(f"right-hand side must have length {n}")
    x = (
        np.zeros(n, dtype=prec.dtype)
        if x0 is None
        else np.asarray(x0, dtype=prec.dtype).copy()
    )

    if preconditioner is None:
        precond: Preconditioner = IdentityPreconditioner(precision=prec)
    else:
        precond = wrap_for_precision(preconditioner, prec)

    workspace = _resolve_gmres_workspace(workspace, n, restart, prec)
    history = ConvergenceHistory()
    timer = timer or KernelTimer(solver_name)
    loa = LossOfAccuracyTest(tolerance=tol) if loss_of_accuracy_check else None

    status = SolverStatus.MAX_ITERATIONS
    total_iterations = 0
    restarts = 0
    relative_residual = float("inf")
    pending_implicit: Optional[float] = None

    with use_timer(timer):
        bnorm = kernels.norm2(b_work)
        if bnorm == 0.0:
            # Zero right-hand side: the solution is zero.
            if probe is not None:
                probe(ProbeEvent(
                    solver="gmres",
                    kind="terminal",
                    iteration=0,
                    restarts=0,
                    residual=0.0,
                    status=SolverStatus.CONVERGED,
                ))
            result_x = np.zeros(n, dtype=prec.dtype)
            return SolveResult(
                x=result_x,
                status=SolverStatus.CONVERGED,
                iterations=0,
                restarts=0,
                relative_residual=0.0,
                relative_residual_fp64=0.0,
                history=history,
                timer=timer,
                solver="gmres",
                precision=prec.name,
                details={"restart": restart},
            )

        while True:
            # True residual r = b - A x (recomputed at every restart, into
            # the workspace's scratch vectors — no per-restart allocation).
            w = kernels.spmv(A, x, out=workspace.w)
            r = kernels.copy(b_work, out=workspace.r)
            kernels.axpy(-1.0, w, r)
            rnorm = kernels.norm2(r)
            relative_residual = rnorm / bnorm
            history.record_explicit(total_iterations, relative_residual)
            if probe is not None:
                probe(ProbeEvent(
                    solver="gmres",
                    kind="restart",
                    iteration=total_iterations,
                    restarts=restarts,
                    residual=relative_residual,
                ))

            if relative_residual <= tol:
                status = SolverStatus.CONVERGED
                break
            if not np.isfinite(relative_residual):
                # A NaN/Inf residual means the working precision broke down
                # (overflow, or an injected fault); no amount of further
                # iteration recovers, so classify instead of looping.
                status = SolverStatus.BREAKDOWN
                break
            if control is not None:
                demanded = control.poll()
                if demanded is not None:
                    status = demanded
                    break
            if (
                loa is not None
                and pending_implicit is not None
                and loa.triggered(pending_implicit / bnorm, relative_residual)
            ):
                status = SolverStatus.LOSS_OF_ACCURACY
                break
            if stagnation is not None and stagnation.update(relative_residual):
                status = SolverStatus.STAGNATION
                break
            if total_iterations >= max_iterations or restarts >= max_restarts:
                status = SolverStatus.MAX_ITERATIONS
                break

            remaining = max_iterations - total_iterations
            outcome = run_gmres_cycle(
                A,
                r,
                rnorm,
                workspace,
                ortho=ortho_mgr,
                preconditioner=precond,
                absolute_target=tol * bnorm,
                max_steps=min(restart, remaining),
                control=control,
            )
            for k, implicit_abs in enumerate(outcome.implicit_norms, start=1):
                history.record_implicit(total_iterations + k, implicit_abs / bnorm)
            kernels.axpy(1.0, outcome.update, x)
            total_iterations += outcome.iterations
            restarts += 1
            pending_implicit = outcome.final_implicit_norm
            if outcome.iterations == 0:
                # Defensive: no progress possible (e.g. zero residual cycle).
                status = SolverStatus.BREAKDOWN
                break

    if probe is not None:
        probe(ProbeEvent(
            solver="gmres",
            kind="terminal",
            iteration=total_iterations,
            restarts=restarts,
            residual=relative_residual,
            status=status,
        ))
    rel64 = _fp64_relative_residual(matrix, b, x) if fp64_check else relative_residual
    return SolveResult(
        x=x,
        status=status,
        iterations=total_iterations,
        restarts=restarts,
        relative_residual=relative_residual,
        relative_residual_fp64=rel64,
        history=history,
        timer=timer,
        solver="gmres",
        precision=prec.name,
        details={
            "restart": restart,
            "tolerance": tol,
            "orthogonalization": ortho_mgr.name,
            "preconditioner": precond.name,
            "basis_bytes": workspace.storage_bytes(),
        },
    )


def _fp64_relative_residual(matrix: CsrMatrix, b: np.ndarray, x: np.ndarray) -> float:
    """Unmetered fp64 check of ``||b - A x|| / ||b||`` (accuracy verification)."""
    A64 = matrix.astype("double")
    b64 = np.asarray(b, dtype=np.float64)
    x64 = np.asarray(x, dtype=np.float64)
    bnorm = float(np.linalg.norm(b64))
    if bnorm == 0.0:
        return float(np.linalg.norm(A64.matvec(x64)))
    return float(np.linalg.norm(b64 - A64.matvec(x64)) / bnorm)
