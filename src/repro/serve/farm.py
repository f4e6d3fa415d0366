"""Solver farm: many operators, many tenants, one shared worker pool.

:class:`~repro.serve.session.OperatorSession` (PR 4) serves one operator
with a dedicated dispatcher thread — the right shape for a single hot
operator, the wrong one for a fleet: N operators would pin N threads and
N warmed sessions regardless of traffic.  The :class:`SolverFarm` is the
multi-tenant form of the same service:

* **registration is cheap** — ``register(key, matrix, ...)`` stores a
  session *factory*; the expensive warm-up happens on first traffic, and
  the warmed session lives in an LRU
  :class:`~repro.serve.registry.SessionRegistry` under a session-count /
  byte budget.  An evicted operator transparently re-warms on its next
  request;
* **queues belong to the farm, not the sessions** — each tenant has a
  bounded :class:`~repro.serve.scheduler.RequestQueue`, so an eviction
  can never lose a future;
* **admission control** — a submit against a full tenant queue raises
  :class:`RejectedError` carrying a ``retry_after_ms`` hint, instead of
  queueing unbounded work (backpressure the client can act on);
* **fault tolerance** — per-request deadlines (queue expiry fails fast
  with :class:`~repro.serve.errors.DeadlineExceededError`, mid-solve
  expiry resolves with status ``TIMED_OUT``), cooperative cancellation
  through the futures, and a per-operator
  :class:`~repro.serve.breaker.CircuitBreaker`: an operator whose solves
  keep breaking down is quarantined (its warmed session evicted, submits
  failing fast with :class:`~repro.serve.errors.CircuitOpenError`) until
  a cool-down elapses and a half-open probe succeeds;
* **a shared worker pool** drains the queues.  Each worker repeatedly
  picks the neediest ready tenant — under ``fairness="weighted"`` the one
  with the smallest served-work/weight ratio (deficit-style weighted
  round-robin, so a hot tenant cannot starve the others beyond its
  weight); under ``"fifo"`` the tenant holding the globally oldest
  request — marks it busy (one worker per tenant at a time: batches must
  not be split across workers), and runs the dispatch core a single
  session's dispatcher runs: the tenant's
  :class:`~repro.serve.scheduler.RequestQueue` assembles the batch and
  :func:`~repro.serve.scheduler.run_batch` solves it;
* **two-level telemetry** — every request ends on the tenant's own
  :class:`~repro.serve.telemetry.ServeTelemetry` *and* the fleet-wide one
  (the sink tuple of :meth:`~repro.serve.telemetry.FarmTelemetry.sink`);
  :meth:`SolverFarm.stats` snapshots the whole farm (per-tenant RHS/s,
  queue depths, fairness shares, evictions) as a
  :class:`~repro.serve.telemetry.FarmStats`.

Every knob defaults from ``ReproConfig.serve``
(:class:`~repro.config.ServeConfig`); constructor arguments override.

Quickstart::

    farm = repro.farm(workers=2, max_sessions=4)
    farm.register("poisson", A, preconditioner=M, restart=15)
    farm.register("helmholtz", B, tol=1e-6)
    with farm:
        futures = [farm.submit("poisson", rhs) for rhs in many_rhs]
        result = await farm.asubmit("helmholtz", other_rhs)  # asyncio front
        print(farm.stats().as_dict())
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional

import numpy as np

from ..config import get_config
from ..obs import resolve_observability
from ..obs.log import get_logger, log_event
from ..obs.metrics import watch_farm
from ..sparse.csr import CsrMatrix
from .breaker import BREAKER_STATES, CircuitBreaker
from .errors import CircuitOpenError, RejectedError
from .registry import SessionRegistry
from .scheduler import (
    BatchReport,
    Refusal,
    RequestQueue,
    ServeResult,
    claimed,
    end,
    run_batch,
)
from .session import OperatorSession
from .telemetry import FarmStats, FarmTelemetry

__all__ = ["RejectedError", "CircuitOpenError", "SolverFarm", "FAIRNESS_MODES"]

#: Recognized values of ``ServeConfig.fairness``.
FAIRNESS_MODES = ("weighted", "fifo")

#: Structured-log channel of the farm (see :mod:`repro.obs.log`).
_LOGGER = get_logger("serve.farm")


class _Tenant:
    """Farm-side state of one registered operator (not the session)."""

    __slots__ = ("key", "n_rows", "weight", "queue", "busy", "served", "breaker")

    def __init__(
        self,
        key: str,
        n_rows: int,
        weight: float,
        breaker: CircuitBreaker,
        queue: RequestQueue,
    ) -> None:
        self.key = key
        self.n_rows = n_rows
        self.weight = weight
        self.queue = queue
        #: a worker is currently batching/dispatching this tenant —
        #: no second worker may touch its queue (batches must coalesce,
        #: not race).
        self.busy = False
        #: requests completed, the numerator of the deficit ratio
        self.served = 0
        #: quarantines the operator after consecutive hard failures
        self.breaker = breaker


class SolverFarm:
    """Multi-operator, multi-tenant solver service over a shared worker pool.

    Parameters (all defaulting from ``ReproConfig.serve``)
    ----------
    max_sessions / max_session_bytes:
        Budgets of the warmed-session LRU cache
        (:class:`~repro.serve.registry.SessionRegistry`).
    queue_depth:
        Bound on each tenant's queue; a submit beyond it raises
        :class:`RejectedError`.
    fairness:
        ``"weighted"`` (deficit-style weighted round-robin, the default)
        or ``"fifo"`` (globally oldest request first).
    workers:
        Size of the shared dispatch pool.  Solves on one *session* are
        serialized on its solve lock (the modelled device is one GPU), but
        workers overlap across tenants: while one dispatch runs, other
        workers batch, validate, warm sessions and demux results.
    max_wait_ms:
        Per-tenant micro-batching window, exactly as in
        :class:`~repro.serve.session.OperatorSession`.
    breaker_threshold / breaker_cooldown_ms:
        Per-operator circuit breaker: ``breaker_threshold`` consecutive
        hard failures (solver exceptions, breakdowns, non-finite results)
        quarantine the operator for ``breaker_cooldown_ms`` — its warmed
        session is evicted and submits fail fast with
        :class:`~repro.serve.errors.CircuitOpenError` — after which one
        probe request decides whether traffic resumes.
    """

    def __init__(
        self,
        *,
        max_sessions: Optional[int] = None,
        max_session_bytes: Optional[int] = None,
        queue_depth: Optional[int] = None,
        fairness: Optional[str] = None,
        workers: Optional[int] = None,
        max_wait_ms: Optional[float] = None,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown_ms: Optional[float] = None,
        name: str = "farm",
        obs=None,
    ) -> None:
        cfg = get_config().serve
        self.name = name
        self.queue_depth = cfg.queue_depth if queue_depth is None else int(queue_depth)
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        self.fairness = cfg.fairness if fairness is None else str(fairness)
        if self.fairness not in FAIRNESS_MODES:
            raise ValueError(
                f"unknown fairness mode {self.fairness!r}; choose from {FAIRNESS_MODES}"
            )
        self.workers = cfg.workers if workers is None else int(workers)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.max_wait_seconds = (
            cfg.max_wait_ms if max_wait_ms is None else float(max_wait_ms)
        ) / 1e3
        self.breaker_threshold = (
            cfg.breaker_threshold
            if breaker_threshold is None
            else int(breaker_threshold)
        )
        self.breaker_cooldown_ms = (
            cfg.breaker_cooldown_ms
            if breaker_cooldown_ms is None
            else float(breaker_cooldown_ms)
        )
        self.obs = resolve_observability(obs)
        #: The farm's tracer (None = tracing off); farm-queued requests
        #: get their span trees from here, not from the sessions.
        self.tracer = self.obs.tracer
        #: Optional HealthMonitor (explicit via obs=): its SLO trackers
        #: are among every tenant's telemetry sinks and the farm
        #: registers itself for breaker/queue health.
        self.health = self.obs.health
        self.telemetry = FarmTelemetry(
            slo=None if self.health is None else self.health.slo,
            scope=self.name,
        )
        if self.health is not None:
            self.health.watch_farm(self)

        def _on_evict(key: str) -> None:
            self.telemetry.record_eviction(key)
            log_event(_LOGGER, "session_evicted", farm=self.name, tenant=key)

        self.registry = SessionRegistry(
            max_sessions=cfg.max_sessions if max_sessions is None else int(max_sessions),
            max_bytes=(
                cfg.max_session_bytes
                if max_session_bytes is None
                else max_session_bytes
            ),
            on_create=self.telemetry.record_creation,
            on_evict=_on_evict,
        )
        self._tenants: Dict[str, _Tenant] = {}
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._threads: List[threading.Thread] = []
        if self.obs.registry is not None:
            watch_farm(self, registry=self.obs.registry)

    # ------------------------------------------------------------------ #
    # registration                                                       #
    # ------------------------------------------------------------------ #
    def register(
        self,
        key: str,
        matrix: Optional[CsrMatrix] = None,
        *,
        factory: Optional[Callable[[], OperatorSession]] = None,
        n_rows: Optional[int] = None,
        weight: float = 1.0,
        **session_kwargs,
    ) -> None:
        """Register operator ``key``; cheap — nothing is warmed yet.

        Either pass ``matrix`` (plus any :class:`OperatorSession` keyword
        arguments, e.g. ``preconditioner=``, ``restart=``, ``method=``) and
        the farm builds the session factory, or pass a ready ``factory``
        together with ``n_rows`` (needed to validate right-hand sides
        without forcing a cold session to warm).  ``weight`` is the
        tenant's fairness share under ``fairness="weighted"``.

        Tenants are served *concurrently* by the worker pool, so state
        shared between operators must be thread-safe.  One
        :class:`CsrMatrix` may back several keys (its cached kernel plans
        lock their scratch buffers), but do not register one stateful
        preconditioner instance under several keys (e.g.
        :class:`~repro.preconditioners.polynomial.GmresPolynomialPreconditioner`
        owns recurrence scratch) — concurrent dispatches would race on
        that scratch.  Within one operator the session solve lock
        serializes everything, so this only matters across keys.
        """
        if weight <= 0:
            raise ValueError("weight must be positive")
        if (matrix is None) == (factory is None):
            raise ValueError("pass exactly one of matrix= or factory=")
        if factory is None:
            rows = matrix.n_rows

            def factory(matrix=matrix, kwargs=dict(session_kwargs)) -> OperatorSession:
                return OperatorSession(matrix, name=f"{self.name}:{key}", **kwargs)

        else:
            if session_kwargs:
                raise ValueError(
                    "session keyword arguments only apply with matrix=; "
                    "bake them into the factory instead"
                )
            if n_rows is None:
                raise ValueError("factory= registration requires n_rows=")
            rows = int(n_rows)
        with self._wakeup:
            if self._closed:
                raise RuntimeError("farm is closed")
            tenant = self._tenants.get(key)
            if tenant is None:
                self._tenants[key] = _Tenant(
                    key,
                    rows,
                    float(weight),
                    CircuitBreaker(
                        threshold=self.breaker_threshold,
                        cooldown_ms=self.breaker_cooldown_ms,
                    ),
                    RequestQueue(self._wakeup, lambda: self._closed, "farm"),
                )
            else:
                tenant.n_rows = rows
                tenant.weight = float(weight)
        self.registry.register(key, factory)

    def registered_keys(self) -> List[str]:
        with self._lock:
            return list(self._tenants)

    # ------------------------------------------------------------------ #
    # client side                                                        #
    # ------------------------------------------------------------------ #
    def submit(
        self, key: str, b: np.ndarray, *, deadline_ms: Optional[float] = None
    ) -> "Future[ServeResult]":
        """Enqueue one right-hand side for operator ``key``.

        Returns a ``Future[ServeResult]``.  Validation failures resolve
        the future with ``ValueError`` (mirroring
        :meth:`OperatorSession.submit`, whose admission path this shares);
        a full tenant queue raises :class:`RejectedError` and a
        quarantined operator :class:`~repro.serve.errors.CircuitOpenError`,
        both *synchronously* — backpressure must reach the caller before
        the work is accepted, not inside the future.

        ``deadline_ms`` bounds the request end to end: expiry while
        queued fails the future fast with
        :class:`~repro.serve.errors.DeadlineExceededError` (the request
        is never dispatched); expiry mid-solve resolves it normally with
        status ``TIMED_OUT``.  Cancelling the future reaches an in-flight
        solve cooperatively (status ``CANCELLED`` within one restart
        cycle).
        """
        with self._lock:
            tenant = self._tenants.get(key)
        if tenant is None:
            raise KeyError(f"no operator registered under key {key!r}")
        return tenant.queue.admit(
            b, tenant.n_rows, self.telemetry.sink(key), self.tracer,
            deadline_ms=deadline_ms, check_locked=lambda: self._check_locked(tenant),
            farm=self.name, tenant=key,
        )

    def _check_locked(self, tenant: _Tenant) -> Optional[Refusal]:
        """:meth:`submit`'s admission check (lock held): admits, starting
        the workers, unless the queue is full or the breaker open."""
        key = tenant.key
        if len(tenant.queue) >= self.queue_depth:
            hint = self._retry_after_ms_locked(tenant)
            self._wakeup.notify_all()
            refusal: Refusal = (RejectedError(
                f"tenant {key!r} queue is full ({self.queue_depth} pending); "
                f"retry in ~{hint:.0f} ms",
                retry_after_ms=hint,
            ), "queue_full")
        else:
            hint = tenant.breaker.admit()
            if hint is None:
                self._ensure_workers_locked()
                return None
            refusal = (CircuitOpenError(
                f"operator {key!r} is quarantined after consecutive solve "
                f"failures; retry in ~{hint:.0f} ms",
                key=key,
                retry_after_ms=hint,
            ), "circuit_open")
        self.telemetry.record_backpressure(key)
        return refusal

    async def asubmit(
        self, key: str, b: np.ndarray, *, deadline_ms: Optional[float] = None
    ) -> ServeResult:
        """Awaitable :meth:`submit` — the ``asyncio`` front of the farm.

        The request rides the same queues and worker pool; only the
        waiting is non-blocking.  :class:`RejectedError` and
        :class:`~repro.serve.errors.CircuitOpenError` raise immediately
        (before any awaiting); validation errors surface as ``ValueError``
        and queue-expired deadlines as
        :class:`~repro.serve.errors.DeadlineExceededError` when awaited.
        """
        import asyncio

        return await asyncio.wrap_future(
            self.submit(key, b, deadline_ms=deadline_ms)
        )

    def _retry_after_ms_locked(self, tenant: _Tenant) -> float:
        """Drain-time estimate for one queue-depth of backlog (a hint)."""
        stats = self.telemetry.sink(tenant.key)[0].snapshot()
        per_batch_ms = stats.solve.mean_ms
        if per_batch_ms <= 0.0:
            per_batch_ms = max(self.max_wait_seconds * 1e3, 1.0)
        session = self.registry.peek(tenant.key)
        width = session.max_block if session is not None else 1
        batches = max(1.0, len(tenant.queue) / max(1, width))
        return per_batch_ms * batches / self.workers

    # ------------------------------------------------------------------ #
    # introspection                                                      #
    # ------------------------------------------------------------------ #
    def pending(self, key: Optional[str] = None) -> int:
        """Queued requests — one tenant's, or the whole farm's."""
        with self._lock:
            if key is not None:
                tenant = self._tenants.get(key)
                return len(tenant.queue) if tenant is not None else 0
            return sum(len(t.queue) for t in self._tenants.values())

    def stats(self) -> FarmStats:
        """Snapshot the whole farm: fleet + per-tenant + registry state."""
        with self._lock:
            weights = {k: t.weight for k, t in self._tenants.items()}
            depths = {k: len(t.queue) for k, t in self._tenants.items()}
        return self.telemetry.snapshot(
            weights=weights,
            queue_depths=depths,
            sessions_live=self.registry.live_count,
            estimated_session_bytes=self.registry.estimated_bytes(),
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def breaker_states(self) -> Dict[str, int]:
        """Each tenant's breaker state as a :data:`BREAKER_STATES` index.

        ``0`` = closed (healthy), ``1`` = open (quarantined), ``2`` =
        half-open (probing).  This is what the metrics collector exports
        as the ``repro_breaker_state`` gauge.
        """
        with self._lock:
            tenants = list(self._tenants.values())
        return {t.key: BREAKER_STATES.index(t.breaker.state) for t in tenants}

    # ------------------------------------------------------------------ #
    # worker pool                                                        #
    # ------------------------------------------------------------------ #
    def _ensure_workers_locked(self) -> None:
        # Lazy like the scheduler's dispatcher: an idle farm pins no
        # threads until its first request.
        if self._threads:
            return
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-farm-worker-{self.name}-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _pick_tenant_locked(self) -> Optional[_Tenant]:
        """The neediest ready tenant (non-empty queue, no worker on it)."""
        ready = [
            t for t in self._tenants.values() if t.queue and not t.busy
        ]
        if not ready:
            return None
        if self.fairness == "fifo":
            return min(ready, key=lambda t: t.queue[0].enqueued_at)
        # Deficit-style weighted round-robin: serve the tenant with the
        # smallest served-work/weight ratio, ties broken by oldest head
        # request.  A hot tenant's ratio races ahead, so idle-then-active
        # tenants always win the next worker — that is the fairness.
        return min(
            ready, key=lambda t: (t.served / t.weight, t.queue[0].enqueued_at)
        )

    def _worker(self) -> None:
        # Purely event-driven: workers sleep on the condition until a
        # submit, a batch completion or close() notifies them — no idle
        # polling tick.  Liveness argument: a ready tenant (non-empty
        # queue, not busy) is picked without waiting, so queued deadlines
        # are always in the hands of some worker's batch assembler, which
        # bounds its own waits by the tightest deadline.
        while True:
            with self._wakeup:
                tenant = self._pick_tenant_locked()
                while tenant is None:
                    if self._closed and not any(
                        t.queue for t in self._tenants.values()
                    ):
                        return
                    self._wakeup.wait()
                    tenant = self._pick_tenant_locked()
                tenant.busy = True
            try:
                self._serve_one(tenant)
            finally:
                with self._wakeup:
                    tenant.busy = False
                    self._wakeup.notify_all()

    def _serve_one(self, tenant: _Tenant) -> None:
        """Batch and dispatch one round of ``tenant``'s queue (tenant is busy).

        Any exception is contained: session build failures resolve the
        queued futures (never raise into the worker loop), and
        :func:`run_batch` already forwards solver errors to the futures.
        The batch outcome feeds the tenant's circuit breaker; a trip
        quarantines the operator (evicts its warmed session).
        """
        sinks = self.telemetry.sink(tenant.key)
        try:
            session = self.registry.get_or_create(tenant.key)
        except Exception as exc:  # noqa: BLE001 - forwarded to the futures
            # The factory (warm-up) failed: fail this tenant's currently
            # queued requests — batchmates-to-be of the broken session —
            # and keep the farm serving everyone else.  A broken factory
            # is as hard a failure as a broken solve, so it feeds the
            # breaker too.
            with self._wakeup:
                doomed = tenant.queue.take_all()
            log_event(
                _LOGGER,
                "session_warmup_failed",
                level=logging.WARNING,
                farm=self.name,
                tenant=tenant.key,
                doomed=len(doomed),
                error=repr(exc),
            )
            for request in doomed:
                if claimed(request, sinks):
                    end(request, sinks, "error", exc=exc, error=repr(exc))
            self._feed_breaker(
                tenant, BatchReport(width=len(doomed), exception=exc)
            )
            return
        batch = tenant.queue.collect(
            sinks, session.max_block, session.policy, self.max_wait_seconds
        )
        if not batch:
            return
        report = run_batch(
            session,
            batch,
            sinks,
            tracer=self.tracer,
            tenant=tenant.key,
            health=self.health,
            component=f"{self.name}/{tenant.key}",
        )
        self._feed_breaker(tenant, report)
        with self._lock:
            tenant.served += len(batch)

    def _feed_breaker(self, tenant: _Tenant, report: BatchReport) -> None:
        """Update ``tenant``'s breaker from one dispatch outcome.

        Hard failures (exceptions, breakdowns, non-finite results) count
        against the operator; healthy dispatches reset the streak; a
        batch made up purely of timed-out/cancelled columns says nothing
        about the operator and leaves the breaker untouched.  Exactly on
        a trip the warmed session is evicted — quarantine, not just
        rejection — so a poisoned session cannot serve the probe either.
        """
        if report.hard_failure:
            if tenant.breaker.record_failure():
                self.registry.evict(tenant.key)
                self.telemetry.record_breaker_trip(tenant.key)
                log_event(
                    _LOGGER,
                    "breaker_open",
                    level=logging.WARNING,
                    farm=self.name,
                    tenant=tenant.key,
                    threshold=self.breaker_threshold,
                    cooldown_ms=self.breaker_cooldown_ms,
                    cause=(
                        repr(report.exception)
                        if report.exception is not None
                        else "nonfinite" if report.nonfinite else "breakdown"
                    ),
                )
        elif report.healthy:
            tenant.breaker.record_success()

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting requests, stop the workers, release the sessions.

        ``drain=True`` (default) serves everything already queued first;
        ``drain=False`` fails queued requests with :class:`RuntimeError`.
        """
        with self._wakeup:
            if self._closed and not self._threads:
                return
            self._closed = True
            abandoned = [] if drain else [
                (tenant, tenant.queue.take_all()) for tenant in self._tenants.values()
            ]
            threads = list(self._threads)
            self._threads.clear()
            self._wakeup.notify_all()
        for tenant, requests in abandoned:
            tenant.queue.abandon(requests, self.telemetry.sink(tenant.key))
        for thread in threads:
            if threading.current_thread() is not thread:
                thread.join(timeout=timeout)
        self.registry.release_all()

    def __enter__(self) -> "SolverFarm":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SolverFarm {self.name!r} tenants={len(self._tenants)} "
            f"workers={self.workers} fairness={self.fairness!r} "
            f"sessions={self.registry.live_count}/{self.registry.max_sessions}>"
        )
