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

The module is also the dispatch core of the whole serve layer.  Each
:class:`SolveScheduler` and each tenant of a
:class:`~repro.serve.farm.SolverFarm` queues into a :class:`RequestQueue`,
whose :meth:`~RequestQueue.collect` is the one batch assembler (steps 1
and 2 above, plus deadline expiry and cancel-on-pop); :func:`run_batch`
runs and demultiplexes the batch; and :func:`claim_or_end` is the one
terminal path of every request that ends without a solve.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..obs.log import get_logger, log_event
from ..obs.probe import span_probe
from ..obs.trace import RequestTrace
from ..solvers.result import ConvergenceHistory, SolveResult, SolverStatus
from ..solvers.status import SolveControl
from .errors import DeadlineExceededError
from .telemetry import ServeStats, ServeTelemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .session import OperatorSession

__all__ = [
    "BatchReport",
    "PendingRequest",
    "ServeFuture",
    "RequestQueue",
    "ServeResult",
    "SolveScheduler",
    "run_batch",
    "claim_or_end",
    "complete_future",
    "fail_future",
    "sweep_expired",
    "expire_requests",
    "deadline_slack_seconds",
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
    machine (shared by :class:`SolveScheduler` queues and the farm's
    per-tenant queues)."""

    __slots__ = ("b", "future", "control", "deadline_ms", "enqueued_at", "trace")

    def __init__(
        self, b: np.ndarray, *, deadline_ms: Optional[float] = None
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

    @property
    def expired(self) -> bool:
        """True when the request's deadline already lapsed."""
        return self.control.expired()


# --------------------------------------------------------------------- #
# dispatch core shared by sessions and farms: future resolution, the    #
# one terminal path of unserved requests, and batch assembly            #
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


#: Trace outcome of a request that ends without a solve -> the telemetry
#: counter recording it (a session warm-up failure ends as "error").
_UNSERVED_COUNTERS = {
    "cancelled": "record_cancelled",
    "deadline_exceeded": "record_timeout",
    "abandoned": "record_abandoned",
    "error": "record_abandoned",
}


def claim_or_end(
    request: PendingRequest,
    telemetry,
    outcome: Optional[str] = None,
    exc: Optional[BaseException] = None,
    **attrs: object,
) -> bool:
    """Claim ``request`` for dispatch, or end it without a solve.

    The one terminal path of every request that never reaches a solver.
    The future moves to RUNNING (``set_running_or_notify_cancel``); a
    client that cancelled while queued ends here as ``"cancelled"``.
    Otherwise, with no ``outcome`` the request stays claimed and ``True``
    is returned (the caller dispatches it); with an ``outcome``
    (``"deadline_exceeded"``, ``"abandoned"`` or ``"error"``) its future
    fails with ``exc``.  Every ending bumps exactly one counter on
    ``telemetry`` and finishes the request trace with the outcome
    (``attrs`` annotate it), so ``submitted == completed + failed`` and
    the span ledger balance by construction.
    """
    if request.future.set_running_or_notify_cancel():
        if outcome is None:
            return True
        fail_future(request.future, exc)
    else:
        outcome, attrs = "cancelled", {}
    getattr(telemetry, _UNSERVED_COUNTERS[outcome])()
    if request.trace is not None:
        request.trace.finish(outcome, **attrs)
    return False


def sweep_expired(queue: Deque[PendingRequest]) -> List[PendingRequest]:
    """Remove and return queued requests whose deadline already lapsed.

    The caller holds the queue's lock; the removed requests still need
    :func:`expire_requests` (outside the lock) to resolve their futures.
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


def expire_requests(expired: List[PendingRequest], telemetry) -> None:
    """Fail swept-out requests fast with :class:`DeadlineExceededError`."""
    for request in expired:
        budget = request.deadline_ms
        shown = "?" if budget is None else format(budget, ".0f")
        claim_or_end(
            request,
            telemetry,
            "deadline_exceeded",
            DeadlineExceededError(
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


class RequestQueue(deque):
    """A deque of :class:`PendingRequest` that assembles its own batches.

    :class:`SolveScheduler` holds one; :class:`~repro.serve.farm.SolverFarm`
    holds one per tenant.  The deque lives under its owner's condition
    variable ``cond`` — hold it for any direct access — and ``closed``
    reports whether the owner is shutting down.
    """

    def __init__(
        self, cond: threading.Condition, closed: Callable[[], bool]
    ) -> None:
        super().__init__()
        self._cond = cond
        self._closed = closed

    def take_all(self) -> List[PendingRequest]:
        """Empty the queue, returning its requests (caller holds ``cond``)."""
        taken = list(self)
        self.clear()
        return taken

    def collect(
        self, telemetry, max_block: int, policy, max_wait_seconds: float
    ) -> List[PendingRequest]:
        """Pop one dispatch's worth of requests, claimed for dispatch.

        Takes ``cond`` itself.  Waits up to the micro-batching window for
        the queue to fill to ``max_block``, then lets ``policy`` choose
        the width.  Requests whose deadline lapsed in the queue, or whose
        client cancelled them, end through :func:`claim_or_end` (recorded
        in ``telemetry``) and are never returned; the list may be empty.
        """
        with self._cond:
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
                    self._cond.wait(timeout=remaining)
                    expired.extend(sweep_expired(self))
            expired.extend(sweep_expired(self))
            width = policy.block_width(len(self)) if self else 0
            popped = [self.popleft() for _ in range(width)]
        expire_requests(expired, telemetry)
        # A client that cancelled while queued is dropped here and never
        # enters the block.
        return [request for request in popped if claim_or_end(request, telemetry)]


class SolveScheduler:
    """Thread-safe micro-batching front of one :class:`OperatorSession`.

    Parameters
    ----------
    session:
        The owning session; the scheduler calls its ``_solve_block`` for
        each dispatch (pinned context, pooled workspaces).
    max_block:
        Queue capacity per batch — at most this many requests ride in one
        dispatch (also the cap the policy works under).
    max_wait_ms:
        Micro-batching window: a waiting request is dispatched at most
        this many milliseconds after it became the oldest in the queue,
        full batch or not.  The latency/throughput dial: larger windows
        coalesce sparser traffic into wider (cheaper per RHS) blocks at
        the price of queue-wait latency.
    policy:
        :class:`~repro.serve.policy.BatchingPolicy` consulted per dispatch.
    telemetry:
        Optional shared :class:`ServeTelemetry` (a fresh one by default).
    """

    def __init__(
        self,
        session: "OperatorSession",
        *,
        max_block: int,
        max_wait_ms: float,
        policy,
        telemetry: Optional[ServeTelemetry] = None,
    ) -> None:
        if max_block < 1:
            raise ValueError("max_block must be at least 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self._session = session
        self.max_block = int(max_block)
        self.max_wait_seconds = float(max_wait_ms) / 1e3
        self.policy = policy
        self.telemetry = telemetry if telemetry is not None else ServeTelemetry()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._queue = RequestQueue(self._wakeup, lambda: self._closed)
        # The dispatcher thread starts lazily on the first submit():  a
        # registry-cached warm session that is only ever driven through the
        # farm's shared worker pool (or through direct solve()/solve_many()
        # calls) never pins a thread of its own.
        self._dispatcher: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # client side                                                        #
    # ------------------------------------------------------------------ #
    def submit(
        self, b: np.ndarray, *, deadline_ms: Optional[float] = None
    ) -> "Future[ServeResult]":
        """Enqueue one right-hand side; returns a future of its result.

        Validation happens here, synchronously, so a malformed request is
        rejected *before* it can share a Krylov basis with anyone else:
        its future fails with ``ValueError`` and no batchmate sees it.

        ``deadline_ms`` bounds the request end to end: a deadline that
        lapses while the request is still queued fails its future fast
        with :class:`~repro.serve.errors.DeadlineExceededError` (the
        request is never dispatched); one that lapses mid-solve resolves
        the future normally with status ``TIMED_OUT`` and the best
        iterate reached.  Cancelling the returned future while queued
        drops the request before dispatch; cancelling in flight stops the
        solve cooperatively within one restart cycle (status
        ``CANCELLED``).
        """
        tracer = getattr(self._session, "tracer", None)
        try:
            column = self._validated_column(b)
        except ValueError as exc:
            failed: Future = Future()
            failed.set_exception(exc)
            self.telemetry.record_rejected()
            if tracer is not None:
                # Telemetry counts sync rejections as submitted+failed;
                # mirror that with an immediately-closed span tree so the
                # trace ledger reconciles against the counters.
                RequestTrace.rejected(
                    tracer, "rejected", session=self._session.name, error=repr(exc)
                )
            return failed
        request = PendingRequest(column, deadline_ms=deadline_ms)
        if tracer is not None:
            request.trace = RequestTrace(
                tracer, session=self._session.name, deadline_ms=deadline_ms
            )
        if request.expired:
            # Dead on arrival (non-positive budget): fail fast without
            # ever touching the queue — still through the future, so the
            # caller sees a single error surface.
            self.telemetry.record_submitted()
            expire_requests([request], self.telemetry)
            return request.future
        if request.trace is not None:
            # Admission decided before the queue append: once appended the
            # dispatcher may advance the trace concurrently.
            request.trace.submitted()
        with self._wakeup:
            if self._closed:
                if request.trace is not None:
                    # Not counted by telemetry (the submit raises instead
                    # of failing a future), so the outcome is distinct
                    # from the counted rejections.
                    request.trace.finish("closed")
                raise RuntimeError("scheduler is closed; no new requests accepted")
            self._queue.append(request)
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._run,
                    name=f"repro-serve-dispatcher-{self._session.name}",
                    daemon=True,
                )
                self._dispatcher.start()
            self._wakeup.notify_all()
        self.telemetry.record_submitted()
        return request.future

    def _validated_column(self, b: np.ndarray) -> np.ndarray:
        # One validation path for both entry points (see
        # OperatorSession.validate_rhs): shape normalization, the
        # non-finite rejection, and the defensive copy.
        return self._session.validate_rhs(b)

    def stats(self) -> ServeStats:
        """Current :class:`ServeStats` snapshot."""
        return self.telemetry.snapshot()

    @property
    def pending(self) -> int:
        """Requests currently waiting in the queue."""
        with self._lock:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # shutdown                                                           #
    # ------------------------------------------------------------------ #
    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests and shut the dispatcher down.

        ``drain=True`` (default) lets already-queued requests complete;
        ``drain=False`` fails them with :class:`RuntimeError`.
        """
        with self._wakeup:
            dispatcher = self._dispatcher
            if self._closed and (dispatcher is None or not dispatcher.is_alive()):
                return
            self._closed = True
            abandoned = [] if drain else self._queue.take_all()
            self._wakeup.notify_all()
        for request in abandoned:
            claim_or_end(
                request,
                self.telemetry,
                "abandoned",
                RuntimeError("scheduler closed before the request was served"),
            )
        if dispatcher is not None and threading.current_thread() is not dispatcher:
            dispatcher.join(timeout=timeout)

    # ------------------------------------------------------------------ #
    # dispatcher                                                         #
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:
                    return  # closed and drained
            batch = self._queue.collect(
                self.telemetry, self.max_block, self.policy, self.max_wait_seconds
            )
            if batch:
                self._dispatch(batch)

    def _dispatch(self, batch: List[PendingRequest]) -> None:
        run_batch(
            self._session,
            batch,
            self.telemetry,
            tracer=getattr(self._session, "tracer", None),
            health=getattr(self._session, "health", None),
            component=self._session.name,
        )


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
    telemetry: ServeTelemetry,
    *,
    tracer=None,
    tenant: Optional[str] = None,
    health=None,
    component: Optional[str] = None,
) -> BatchReport:
    """Run one assembled batch and resolve its futures (the dispatch core).

    Called by the per-session :class:`SolveScheduler` dispatcher and the
    farm's worker pool (:mod:`repro.serve.farm`) on the claimed requests
    :meth:`RequestQueue.collect` returned: assemble the column block, run the batched solve through ``session._solve_block`` (pinned
    context, pooled workspaces, one per-request control token per
    column), apply the width-1 retry containment to non-converged
    columns, demultiplex per-column :class:`ServeResult` objects into the
    request futures, and account the batch in ``telemetry``.  Solver
    exceptions are forwarded to every future of the batch; this function
    itself never raises.  Returns a :class:`BatchReport` the farm feeds
    into the tenant's circuit breaker.

    When ``tracer`` (a :class:`repro.obs.Tracer`) is given, the dispatch
    is traced: one ``batch`` span with ``batch_assembly`` / ``solve`` /
    ``demux`` children, solver probe events on the solve span, and every
    request's trace advanced to ``dispatch`` and finished with its
    terminal outcome.  ``tenant`` labels the farm's batches.  With a
    sampling tracer, batch spans are only created when at least one
    request of the batch is head-sampled (a fully tail-deferred batch
    costs no span allocations unless its requests get kept).

    When ``health`` (a :class:`repro.obs.HealthMonitor`) is given, a
    convergence watch rides the solver probe stream, the finished
    :class:`BatchReport` and solve wall time feed the batch-level
    detectors, and any alert tail-flags every trace of the batch
    (``component`` names the alert scope; defaults to the session name).
    """
    dispatched_at = time.perf_counter()
    queue_waits = [dispatched_at - r.enqueued_at for r in batch]
    width = len(batch)
    if component is None:
        component = session.name
    watch = None if health is None else health.convergence_watch(component)

    batch_span = None
    probe = None
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

    failed = 0
    retried = 0
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
        solve_times = [solve_seconds] * width
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
                solve_times[c] += time.perf_counter() - start
                retried += 1
        if solve_span is not None:
            solve_span.finish(block_iterations=multi.block_iterations)
    except Exception as exc:  # noqa: BLE001 - forwarded to the futures
        solve_seconds = time.perf_counter() - dispatched_at
        solve_times = [solve_seconds] * width
        failed = width
        report.exception = exc
        if solve_span is not None:
            solve_span.finish(error=repr(exc))
        alerts = 0 if watch is None else watch.alerts
        if health is not None:
            alerts += health.observe_batch(component, report, solve_seconds)
        for request in batch:
            fail_future(request.future, exc)
            if request.trace is not None:
                if alerts:
                    request.trace.mark_keep()
                request.trace.finish("error", error=repr(exc))
    else:
        report.statuses = [column.status for column in columns]
        report.nonfinite = any(
            not np.isfinite(column.relative_residual) for column in columns
        )
        # Detector verdicts must land before the per-request finishes so a
        # flagged batch's deferred traces are retained by the tail rules.
        alerts = 0 if watch is None else watch.alerts
        if health is not None:
            alerts += health.observe_batch(component, report, solve_seconds)
        if alerts:
            for request in batch:
                if request.trace is not None:
                    request.trace.mark_keep()
        demux_span = (
            None if batch_span is None
            else tracer.start_span("demux", parent=batch_span)
        )
        for c, request in enumerate(batch):
            column = columns[c]
            details: Dict[str, object] = {
                "block_iterations": multi.block_iterations
            }
            if c in retry_errors:
                # The retry itself blew up: the request still resolves
                # with its (non-converged) batch result; only the
                # retry error is recorded for this one column.
                details["retry_error"] = repr(retry_errors[c])
            complete_future(
                request.future,
                ServeResult(
                    x=column.x,
                    status=column.status,
                    iterations=column.iterations,
                    relative_residual=column.relative_residual,
                    relative_residual_fp64=column.relative_residual_fp64,
                    history=column.history,
                    solve_result=column,
                    queue_wait_seconds=queue_waits[c],
                    solve_seconds=solve_times[c],
                    batch_size=width,
                    details=details,
                ),
            )
            if request.trace is not None:
                request.trace.finish(
                    column.status.name.lower(), iterations=column.iterations
                )
        if demux_span is not None:
            demux_span.finish()
    if batch_span is not None:
        batch_span.finish(
            failed=failed,
            retried=retried,
            statuses=[s.name for s in report.statuses],
        )
    telemetry.record_batch(
        queue_waits,
        solve_times,
        block_iterations=0 if failed else multi.block_iterations,
        failed=failed,
        retried=retried,
        timed_out=sum(
            1 for s in report.statuses if s == SolverStatus.TIMED_OUT
        ),
        cancelled=sum(
            1 for s in report.statuses if s == SolverStatus.CANCELLED
        ),
    )
    return report
