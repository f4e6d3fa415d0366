"""Micro-batching scheduler: coalesce single-RHS requests into block solves.

The serving workload is many independent clients, each submitting *one*
right-hand side against a shared operator.  Block-GMRES only pays off
when right-hand sides arrive in blocks, so this module supplies the
missing coupling: a thread-safe queue plus one dispatcher thread that

1. waits for the first request, then keeps collecting until either
   ``max_block`` requests are waiting or ``max_wait_ms`` has elapsed since
   the *oldest* waiting request arrived (whichever comes first);
2. asks the :class:`~repro.serve.policy.BatchingPolicy` how wide the
   dispatch should be, assembles the column block, and runs **one**
   batched solve through the session (one SpMM per block iteration for the
   whole batch);
3. demultiplexes the :class:`~repro.solvers.result.MultiSolveResult` back
   into the per-request futures — each client gets its own column, with
   its own terminal status.

Failure isolation: a request that fails *validation* (wrong shape,
non-finite entries — which would poison the shared Krylov basis of every
batchmate) is rejected at ``submit()`` time and never enters a batch.  A
request that merely fails to *converge* resolves successfully with a
non-``CONVERGED`` status while its batchmates complete normally (the block
solver tracks per-column statuses and deflates converged columns).  On
top of that, a column that did not converge *inside a batch* is retried
once through the width-1 canonical path before its future resolves
(unless the session disables ``retry_failed``): a batch of linearly
dependent right-hand sides — e.g. several clients submitting the same
vector — is rank-deficient as a block and can defeat the shared-basis
solver even though every column alone is easy, so the sequential retry
turns a batching artefact into at most one extra solve.  Only an
unexpected solver exception fails the batch it was part of.

The module is the dispatch core of the serve layer.  Each session and
each farm tenant queues into a :class:`RequestQueue`, whose
:meth:`~RequestQueue.admit` is the one admission path and
:meth:`~RequestQueue.collect` the one batch assembler (steps 1 and 2,
plus deadline expiry and cancel-on-pop); :func:`run_batch` runs and
demultiplexes the batch; and every request, served or not, ends through
:func:`end`, which records it before resolving its future.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from ..obs.log import get_logger, log_event
from ..obs.probe import span_probe
from ..obs.trace import RequestTrace
from ..solvers.result import ConvergenceHistory, SolveResult, SolverStatus
from ..solvers.status import SolveControl
from .errors import DeadlineExceededError
from .telemetry import ServeTelemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .session import OperatorSession

__all__ = [
    "BatchReport",
    "PendingRequest",
    "ServeFuture",
    "RequestQueue",
    "ServeResult",
    "run_batch",
    "end",
    "claimed",
    "complete_future",
    "fail_future",
    "own_exception",
    "sweep_expired",
    "deadline_slack_seconds",
    "validate_rhs",
]


@dataclass
class ServeResult:
    """What a client's future resolves to: one column plus serving metadata.

    The solver fields mirror :class:`~repro.solvers.result.SolveResult`
    (``solve_result`` holds the full per-column object, shared timer and
    all); the serving fields say how the request travelled through the
    scheduler.
    """

    x: np.ndarray
    status: SolverStatus
    iterations: int
    relative_residual: float
    relative_residual_fp64: float
    history: ConvergenceHistory
    solve_result: SolveResult
    #: seconds the request waited in the queue before dispatch
    queue_wait_seconds: float
    #: wall seconds of the batched solve the request rode in
    solve_seconds: float
    #: how many requests shared the batch (1 = unbatched dispatch)
    batch_size: int
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == SolverStatus.CONVERGED

    @property
    def residual_history(self) -> ConvergenceHistory:
        """:class:`~repro.solvers.result.ResultLike` name for ``history``."""
        return self.history

    @property
    def retried(self) -> bool:
        """Re-solved alone after its batch did not converge (module doc)."""
        details = self.solve_result.details
        return "retry_error" in self.details or bool(details.get("retried_sequential"))

    @property
    def latency_seconds(self) -> float:
        """Submit-to-resolution latency as the client experienced it."""
        return self.queue_wait_seconds + self.solve_seconds

    def summary(self) -> str:
        """Solver summary plus one line of serving metadata
        (:class:`~repro.solvers.result.ResultLike`)."""
        lines = [
            self.solve_result.summary(),
            f"  served: batch of {self.batch_size}, "
            f"queue wait {self.queue_wait_seconds * 1e3:.1f} ms, "
            f"solve {self.solve_seconds * 1e3:.1f} ms",
        ]
        return "\n".join(lines)


class ServeFuture(Future):
    """A future whose ``cancel()`` also reaches an in-flight solve.

    While the request is still queued this behaves exactly like
    :class:`concurrent.futures.Future`: ``cancel()`` returns ``True`` and
    the batch assembler drops the request before dispatch.  Once the batch
    is running a standard future can no longer be cancelled — here
    ``cancel()`` still returns ``False`` (the solve cannot be stopped
    *immediately*), but the request's cooperative
    :class:`~repro.solvers.SolveControl` token is signalled, so the solver
    deflates the column at the next poll point and the future resolves
    normally with status ``CANCELLED`` within one restart cycle.
    """

    def __init__(self, control: SolveControl) -> None:
        super().__init__()
        self.control = control
        #: the stored exception and its traceback when it was stored
        self._failure: Optional[Tuple[BaseException, object]] = None

    def set_exception(self, exception: BaseException) -> None:
        # Recorded before any reader can wake.
        self._failure = (exception, exception.__traceback__)
        super().set_exception(exception)

    def result(self, timeout: Optional[float] = None):
        """As :meth:`concurrent.futures.Future.result`, but the stored
        exception is re-raised from its own raise site on every read:
        without the reset each ``result()`` would stack that reader's
        frames onto the exception's one traceback."""
        try:
            return super().result(timeout)
        except BaseException as exc:
            failure = self._failure
            if failure is None or exc is not failure[0]:
                raise  # a timeout or cancellation, not the stored exception
            raise exc.with_traceback(failure[1])

    def cancel(self) -> bool:
        cancelled = super().cancel()
        # Signal the cooperative token regardless of the state transition:
        # for a queued request it is moot (the drop happens at assembly),
        # for an in-flight one it is the only lever that works.
        self.control.cancel()
        return cancelled


class PendingRequest:
    """One queued right-hand side: the validated column, its future, its
    cooperative control token (deadline + cancellation), the enqueue
    timestamp, and — when tracing is on — the request's span state
    machine.  :func:`run_batch` stamps ``queue_wait`` and
    ``solve_seconds`` on dispatch; they stay ``None`` for a request that
    ends without a solve."""

    __slots__ = (
        "b", "future", "control", "deadline_ms", "enqueued_at", "trace",
        "queue_wait", "solve_seconds",
    )

    def __init__(
        self, b: Optional[np.ndarray], *, deadline_ms: Optional[float] = None
    ) -> None:
        self.b = b
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)
        if self.deadline_ms is None:
            self.control = SolveControl()
        else:
            self.control = SolveControl.with_timeout(self.deadline_ms)
        self.future: ServeFuture = ServeFuture(self.control)
        self.enqueued_at = time.perf_counter()
        #: :class:`repro.obs.RequestTrace` when the owner traces, else None.
        self.trace = None
        self.queue_wait: Optional[float] = None
        self.solve_seconds: Optional[float] = None

    @property
    def expired(self) -> bool:
        """True when the request's deadline already lapsed."""
        return self.control.expired()


# --------------------------------------------------------------------- #
# dispatch core shared by sessions and farms: the one terminal event,   #
# admission and batch assembly                                          #
# --------------------------------------------------------------------- #
def complete_future(future: Future, result: object) -> bool:
    """``set_result`` that tolerates a future already resolved elsewhere.

    A client can cancel a future in the hair's breadth between a worker
    popping its request and resolving it; ``set_result`` on a cancelled
    future raises ``InvalidStateError`` and would kill the worker.
    Returns ``True`` when the result actually landed.
    """
    try:
        future.set_result(result)
        return True
    except InvalidStateError:
        return False


def fail_future(future: Future, exc: BaseException) -> bool:
    """``set_exception`` with the same already-resolved tolerance."""
    try:
        future.set_exception(exc)
        return True
    except InvalidStateError:
        return False


def own_exception(exc: BaseException) -> BaseException:
    """A copy of a batch's exception for one of the batch's futures.

    The copy keeps the type clients catch and names the batch exception
    as its ``__cause__`` (whose traceback shows where the batch failed),
    so no two futures share one instance.  An exception whose constructor
    rejects its own ``args`` cannot be copied and is shared as is.
    """
    try:
        own = copy.copy(exc)
    except Exception:  # noqa: BLE001 - an uncopyable type is shared instead
        return exc
    own.__cause__ = exc
    return own


def end(
    request: PendingRequest,
    sinks: Sequence,
    outcome: str,
    *,
    result: Optional[ServeResult] = None,
    exc: Optional[BaseException] = None,
    **attrs: object,
) -> None:
    """The one terminal event of a served request.

    Records ``outcome`` on every telemetry sink, finishes the request
    trace (``attrs`` annotate it), and only then resolves the future —
    with ``exc`` when given, else ``result`` — so whoever the future
    wakes finds the request already counted and its span tree closed.
    ``sinks`` is empty only for a submit refused by a closed owner.
    """
    for sink in sinks:
        sink.record_end(
            outcome,
            result=result,
            exc=exc,
            queue_wait=request.queue_wait,
            solve_seconds=request.solve_seconds,
        )
    if request.trace is not None:
        request.trace.finish(outcome, **attrs)
    if exc is None:
        complete_future(request.future, result)
    else:
        fail_future(request.future, exc)


def claimed(request: PendingRequest, sinks: Sequence) -> bool:
    """Move the future to RUNNING before the service dispatches or ends
    it; a request cancelled while queued ends here as ``"cancelled"``."""
    if request.future.set_running_or_notify_cancel():
        return True
    end(request, sinks, "cancelled")
    return False


def validate_rhs(b: np.ndarray, n_rows: int) -> np.ndarray:
    """Normalize one right-hand side to an owned length-``n_rows`` column.

    The single validation path of the serve layer: shape-checks, rejects
    non-finite entries (they would poison a shared Krylov basis — and a
    direct NaN solve is equally meaningless), and copies so a caller
    mutating its array afterwards cannot corrupt a queued batch.  Raises
    :class:`ValueError` on invalid input.  Takes the operator's
    dimension, so the farm can validate against a registered operator
    without forcing its (possibly evicted) session to be rebuilt first.
    """
    column = np.asarray(b, dtype=np.float64)
    if column.ndim == 2 and column.shape[1] == 1:
        column = column[:, 0]
    if column.ndim != 1 or column.shape[0] != n_rows:
        raise ValueError(
            f"right-hand side must be a length-{n_rows} vector, "
            f"got shape {np.asarray(b).shape}"
        )
    if not np.all(np.isfinite(column)):
        raise ValueError(
            "right-hand side contains non-finite entries; rejecting it "
            "before it can poison a shared Krylov basis"
        )
    return np.array(column, copy=True)


def sweep_expired(queue: Deque[PendingRequest]) -> List[PendingRequest]:
    """Remove and return queued requests whose deadline already lapsed.

    The caller holds the queue's lock; the removed requests still need
    ending (outside the lock) to resolve their futures.
    """
    expired: List[PendingRequest] = []
    if not queue:
        return expired
    keep: List[PendingRequest] = []
    for request in queue:
        (expired if request.expired else keep).append(request)
    if expired:
        queue.clear()
        queue.extend(keep)
    return expired


def _expire(requests: List[PendingRequest], sinks: Sequence) -> None:
    """Fail requests whose deadline lapsed before dispatch."""
    for request in requests:
        if not claimed(request, sinks):
            continue
        budget = request.deadline_ms
        shown = "?" if budget is None else format(budget, ".0f")
        end(
            request,
            sinks,
            "deadline_exceeded",
            exc=DeadlineExceededError(
                f"request deadline of {shown} ms lapsed in the queue; "
                "the request was never dispatched",
                deadline_ms=budget,
            ),
        )


def deadline_slack_seconds(queue: Deque[PendingRequest]) -> Optional[float]:
    """Seconds until the tightest queued deadline (None when none is set).

    The caller holds the queue's lock.  :meth:`RequestQueue.collect` caps
    its micro-batching wait window by this slack, so a near-deadline
    request is dispatched (or expired) promptly instead of being held for
    the full ``max_wait_ms``.
    """
    slack: Optional[float] = None
    for request in queue:
        remaining = request.control.remaining_seconds()
        if remaining is not None and (slack is None or remaining < slack):
            slack = remaining
    return slack


#: An owner's refusal of a submit: the error raised, the trace ``reason``.
Refusal = Tuple[BaseException, str]


class RequestQueue(deque):
    """A deque of :class:`PendingRequest` that admits and batches its own.

    An :class:`~repro.serve.session.OperatorSession` holds one, a
    :class:`~repro.serve.farm.SolverFarm` one per tenant.  It lives under
    its owner's condition variable ``cond`` (hold it for direct access);
    ``closed`` says whether the owner is shutting down, ``owner`` names
    it in errors.
    """

    def __init__(
        self, cond: threading.Condition, closed: Callable[[], bool], owner: str
    ) -> None:
        super().__init__()
        self.cond = cond
        self._closed = closed
        self.owner = owner

    def admit(
        self,
        b: np.ndarray,
        n_rows: int,
        sinks: Sequence,
        tracer,
        *,
        deadline_ms: Optional[float] = None,
        check_locked: Callable[[], Optional[Refusal]],
        **trace_attrs: object,
    ) -> ServeFuture:
        """The one admission path of sessions and farms; returns the future.

        Validates, builds the request and its trace (``trace_attrs`` label
        the root span) and ends a dead-on-arrival request.  Then, in one
        hold of ``cond``: the closed check (``RuntimeError``), the owner's
        ``check_locked`` (``None`` admits, a :data:`Refusal` is raised),
        ``record_submitted`` on every sink and the append — so a request
        is counted before anyone can complete it.
        """
        try:
            column, invalid = validate_rhs(b, n_rows), None
        except ValueError as exc:
            column, invalid = None, exc
        request = PendingRequest(column, deadline_ms=deadline_ms)
        if tracer is not None:
            request.trace = RequestTrace(
                tracer, deadline_ms=deadline_ms, **trace_attrs
            )
        if invalid is not None:
            end(request, sinks, "rejected", exc=invalid, error=repr(invalid))
            return request.future
        if request.expired:
            # Dead on arrival: fail fast through the future, unqueued.
            for sink in sinks:
                sink.record_submitted()
            _expire([request], sinks)
            return request.future
        if request.trace is not None:
            # Before the append: once queued a worker may advance the
            # trace.  A refusal below still finishes one complete tree.
            request.trace.submitted()
        with self.cond:
            if self._closed():
                # Uncounted, unlike a rejection: the submit raises.
                error = RuntimeError(f"{self.owner} is closed; no new requests accepted")
                end(request, (), "closed", exc=error)
                raise error
            refusal = check_locked()
            if refusal is None:
                for sink in sinks:
                    sink.record_submitted()
                self.append(request)
                self.cond.notify_all()
                return request.future
        error, reason = refusal
        end(request, sinks, "rejected", exc=error, reason=reason)
        raise error

    def take_all(self) -> List[PendingRequest]:
        """Empty the queue, returning its requests (caller holds ``cond``)."""
        taken = list(self)
        self.clear()
        return taken

    def abandon(self, requests: List[PendingRequest], sinks: Sequence) -> None:
        """Fail requests a non-draining close took from the queue."""
        error = f"{self.owner} closed before the request was served"
        for request in requests:
            if claimed(request, sinks):
                end(request, sinks, "abandoned", exc=RuntimeError(error))

    def collect(
        self, sinks: Sequence, max_block: int, policy, max_wait_seconds: float
    ) -> List[PendingRequest]:
        """Pop one dispatch's worth of requests, claimed for dispatch.

        Takes ``cond`` itself.  Waits up to the micro-batching window for
        the queue to fill to ``max_block``, then lets ``policy`` choose
        the width.  Requests whose deadline lapsed in the queue, or whose
        client cancelled them, end (recorded on ``sinks``) and are never
        returned; the list may be empty.
        """
        with self.cond:
            expired = sweep_expired(self)
            # Micro-batching window: measured from when assembly of this
            # batch starts (the queue may already hold requests that
            # arrived during the previous solve).  A fresh window per
            # batch lets the in-flight clients' follow-up requests
            # coalesce with the ones that waited, instead of locking the
            # traffic into two alternating half-width cohorts; each batch
            # adds at most one window on top of the in-flight solve to any
            # request's wait.  When more arrivals cannot change the
            # dispatch (width-1 cap, sequential policy) or the owner is
            # closing, the window is pure latency, so it is skipped.  The
            # window is capped by the tightest queued deadline: a
            # near-deadline request is never held for the full window.
            if max_block > 1 and getattr(policy, "mode", "auto") != "sequential":
                window_ends = time.perf_counter() + max_wait_seconds
                while self and len(self) < max_block and not self._closed():
                    remaining = window_ends - time.perf_counter()
                    slack = deadline_slack_seconds(self)
                    if slack is not None:
                        remaining = min(remaining, slack)
                    if remaining <= 0:
                        break
                    self.cond.wait(timeout=remaining)
                    expired.extend(sweep_expired(self))
            expired.extend(sweep_expired(self))
            width = policy.block_width(len(self)) if self else 0
            popped = [self.popleft() for _ in range(width)]
        _expire(expired, sinks)
        # A client that cancelled while queued is dropped here and never
        # enters the block.
        return [request for request in popped if claimed(request, sinks)]


@dataclass
class BatchReport:
    """What one dispatch did — the circuit breaker's food.

    ``statuses`` holds the terminal status of every resolved column,
    ``exception`` the batch-level solver error when the whole dispatch
    blew up, and ``nonfinite`` whether any resolved column carried a
    non-finite residual.  :attr:`hard_failure` / :attr:`healthy`
    implement the breaker's outcome policy: exceptions, breakdowns and
    non-finite results indict the *operator*; deadline and cancellation
    outcomes indict the client's budget and are neutral (neither failure
    nor success).
    """

    width: int
    statuses: List[SolverStatus] = field(default_factory=list)
    exception: Optional[BaseException] = None
    nonfinite: bool = False

    #: statuses that say nothing about the operator's health
    NEUTRAL_STATUSES = (SolverStatus.TIMED_OUT, SolverStatus.CANCELLED)

    @property
    def hard_failure(self) -> bool:
        return (
            self.exception is not None
            or self.nonfinite
            or any(s == SolverStatus.BREAKDOWN for s in self.statuses)
        )

    @property
    def healthy(self) -> bool:
        return not self.hard_failure and any(
            s not in self.NEUTRAL_STATUSES for s in self.statuses
        )


#: Structured-log channel of the dispatch core (see :mod:`repro.obs.log`).
_LOGGER = get_logger("serve")


def _chain_probes(*probes):
    """Fan one solver ``probe=`` stream out to several consumers."""
    live = [p for p in probes if p is not None]
    if not live:
        return None
    if len(live) == 1:
        return live[0]

    def fanout(event):
        for probe in live:
            probe(event)

    return fanout


def run_batch(
    session: "OperatorSession",
    batch: List[PendingRequest],
    sinks: Sequence,
    *,
    tracer=None,
    tenant: Optional[str] = None,
    health=None,
    component: Optional[str] = None,
) -> BatchReport:
    """Run one assembled batch and end its requests (the dispatch core).

    Called by the session's dispatcher and the farm's workers on the
    claimed requests :meth:`RequestQueue.collect` returned: assemble the
    column block, run the batched solve through ``session._solve_block``
    (pinned context, pooled workspaces, one control token per column),
    apply the width-1 retry containment to non-converged columns, and
    :func:`end` each request with its own :class:`ServeResult`.  A solver
    exception ends every request of the batch as ``"error"``; this
    function itself never raises.  Returns a :class:`BatchReport` the farm
    feeds into the tenant's circuit breaker.

    When ``tracer`` (a :class:`repro.obs.Tracer`) is given, the dispatch
    is traced: one ``batch`` span with ``batch_assembly`` / ``solve`` /
    ``demux`` children, solver probe events on the solve span, and every
    request's trace advanced to ``dispatch`` and finished with its
    terminal outcome (after the batch spans close).  ``tenant`` labels the
    farm's batches.  With a sampling tracer, batch spans are only created
    when at least one request of the batch is head-sampled (a fully
    tail-deferred batch costs no span allocations unless its requests get
    kept).

    When ``health`` (a :class:`repro.obs.HealthMonitor`) is given, a
    convergence watch rides the solver probe stream, the finished
    :class:`BatchReport` and solve wall time feed the batch-level
    detectors, and any alert tail-flags every trace of the batch
    (``component`` names the alert scope; defaults to the session name).
    """
    dispatched_at = time.perf_counter()
    for request in batch:
        request.queue_wait = dispatched_at - request.enqueued_at
    width = len(batch)
    if component is None:
        component = session.name
    watch = None if health is None else health.convergence_watch(component)

    batch_span = None
    trace_batch = tracer is not None and (
        tracer.sampler is None
        or any(r.trace is not None and r.trace.sampled for r in batch)
    )
    if trace_batch:
        attrs: Dict[str, object] = {"session": session.name, "width": width}
        if tenant is not None:
            attrs["tenant"] = tenant
        batch_span = tracer.start_span("batch", **attrs)
    for request in batch:
        if request.trace is not None:
            request.trace.dequeued(
                batch=None if batch_span is None else batch_span.span_id,
                width=width,
            )

    assembly_span = (
        None if batch_span is None
        else tracer.start_span("batch_assembly", parent=batch_span)
    )
    B = np.empty((session.n_rows, width), dtype=np.float64, order="F")
    for c, request in enumerate(batch):
        B[:, c] = request.b
    controls = [request.control for request in batch]
    if assembly_span is not None:
        assembly_span.finish()

    retried = 0
    block_iterations = 0
    report = BatchReport(width=width)
    solve_span = None
    try:
        if batch_span is not None:
            solve_span = tracer.start_span("solve", parent=batch_span)
            probe = _chain_probes(watch, span_probe(solve_span))
        else:
            probe = watch
        start = time.perf_counter()
        multi = session._solve_block(B, controls=controls, probe=probe)
        solve_seconds = time.perf_counter() - start
        columns = multi.split()
        for request in batch:
            request.solve_seconds = solve_seconds
        retry_errors: Dict[int, BaseException] = {}
        if width > 1 and session.retry_failed:
            no_retry = (
                SolverStatus.CONVERGED,
                SolverStatus.TIMED_OUT,
                SolverStatus.CANCELLED,
            )
            for c, column in enumerate(columns):
                if column.status in no_retry:
                    # Converged columns need no retry; timed-out and
                    # cancelled ones must not get one — the client's
                    # budget is spent, more solver work would violate it.
                    continue
                # Batch-failure containment: re-solve the column alone
                # through the width-1 canonical path (see module doc).
                # A retry failure is attributable to exactly this
                # request, so it must not touch the batchmates.  The
                # retry inherits the request's control token, keeping
                # the deadline binding across both attempts.
                log_event(
                    _LOGGER,
                    "batch_retry_sequential",
                    session=session.name,
                    tenant=tenant if tenant is not None else "",
                    column=c,
                    width=width,
                    status=column.status.name,
                )
                retry_span = (
                    None if batch_span is None
                    else tracer.start_span("retry", parent=batch_span, column=c)
                )
                start = time.perf_counter()
                try:
                    retry = session._solve_block(
                        np.asfortranarray(B[:, c : c + 1]),
                        controls=[batch[c].control],
                        probe=_chain_probes(
                            watch,
                            None if retry_span is None else span_probe(retry_span),
                        ),
                    ).split()[0]
                except Exception as exc:  # noqa: BLE001 - per-column
                    retry_errors[c] = exc
                    if retry_span is not None:
                        retry_span.finish(error=repr(exc))
                else:
                    retry.details["retried_sequential"] = True
                    columns[c] = retry
                    if retry_span is not None:
                        retry_span.finish(status=retry.status.name)
                batch[c].solve_seconds += time.perf_counter() - start
                retried += 1
        block_iterations = multi.block_iterations
        if solve_span is not None:
            solve_span.finish(block_iterations=block_iterations)
    except Exception as exc:  # noqa: BLE001 - forwarded to the futures
        solve_seconds = time.perf_counter() - dispatched_at
        for request in batch:
            request.solve_seconds = solve_seconds
        report.exception = exc
        if solve_span is not None:
            solve_span.finish(error=repr(exc))
    else:
        report.statuses = [column.status for column in columns]
        report.nonfinite = any(
            not np.isfinite(column.relative_residual) for column in columns
        )
    # Detector verdicts must land before the request traces finish, so a
    # flagged batch's deferred traces are retained by the tail rules.
    alerts = 0 if watch is None else watch.alerts
    if health is not None:
        alerts += health.observe_batch(component, report, solve_seconds)
    if alerts:
        for request in batch:
            if request.trace is not None:
                request.trace.mark_keep()
    results: List[ServeResult] = []
    if report.exception is None:
        demux_span = (
            None if batch_span is None
            else tracer.start_span("demux", parent=batch_span)
        )
        for c, request in enumerate(batch):
            column = columns[c]
            details: Dict[str, object] = {"block_iterations": block_iterations}
            if c in retry_errors:
                # The retry itself blew up: the request still resolves
                # with its (non-converged) batch result; only the
                # retry error is recorded for this one column.
                details["retry_error"] = repr(retry_errors[c])
            results.append(
                ServeResult(
                    x=column.x,
                    status=column.status,
                    iterations=column.iterations,
                    relative_residual=column.relative_residual,
                    relative_residual_fp64=column.relative_residual_fp64,
                    history=column.history,
                    solve_result=column,
                    queue_wait_seconds=request.queue_wait,
                    solve_seconds=request.solve_seconds,
                    batch_size=width,
                    details=details,
                )
            )
        if demux_span is not None:
            demux_span.finish()
    if batch_span is not None:
        batch_span.finish(
            failed=0 if report.exception is None else width,
            retried=retried,
            statuses=[s.name for s in report.statuses],
        )
    for sink in sinks:
        if isinstance(sink, ServeTelemetry):
            sink.record_batch(width, block_iterations)
    for request in batch if report.exception is not None else ():
        end(
            request, sinks, "error",
            exc=own_exception(report.exception), error=repr(report.exception),
        )
    for request, result in zip(batch, results):
        end(request, sinks, result.status.value, result=result, iterations=result.iterations)
    return report
