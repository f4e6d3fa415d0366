"""Stateful lifecycle test: the serve ledgers under random request histories.

The hand-written race tests pin individual interleavings; this module lets
Hypothesis compose them.  A :class:`~hypothesis.stateful.RuleBasedStateMachine`
drives a one-worker :class:`~repro.serve.SolverFarm` and, separately, an
:class:`~repro.serve.OperatorSession` on a small stencil matrix through
random sequences of

* plain submits (bursts of one to four right-hand sides, to any
  operator; the farm keeps one warmed session for two healthy operators,
  so alternating between them churns evictions);
* invalid submits (wrong shape, non-finite entries);
* submits with an already-lapsed or a short deadline;
* cancellation of a recent future (queued, in flight or finished);
* a solver fault injected through :mod:`repro.testing.faults` (on the
  farm this also exercises the session warm-up failure path and the
  circuit breaker);
* a final ``close(drain=True|False)``.

Every future carries a done-callback checking that the ledger is never
ahead of admissions (``completed + failed <= submitted``).  At quiescence
(after ``close``, which joins the workers) every future is done, the
telemetry ledger balances
(``requests_submitted == requests_completed + requests_failed``), the
head-sampling tracer holds no open span, and every counted request was
either kept as exactly one ``request`` root span or counted as sampled
out.

The tier-1 run uses the derandomized ``lifecycle`` profile registered in
``conftest.py``; set ``REPRO_LIFECYCLE_PROFILE=lifecycle-chaos`` for the
larger example budget the CI chaos job runs.
"""

from __future__ import annotations

import concurrent.futures
import os

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
)

from repro.backends import get_backend
from repro.linalg.context import use_backend
from repro.matrices import laplace2d
from repro.obs import Sampler, Tracer
from repro.serve import (
    CircuitOpenError,
    OperatorSession,
    RejectedError,
    SolverFarm,
)
from repro.testing import FaultInjectingBackend, fault_injecting_session_factory

MATRIX = laplace2d(6)  # n = 36: every solve takes a few milliseconds

SESSION_KWARGS = dict(restart=10, tol=1e-8, max_restarts=40, max_block=4)

#: Per-request deadlines: dead on arrival, or short enough to lapse in
#: the queue or mid-solve.
DEADLINES_MS = (-1.0, 0.0, 0.3, 2.0)

#: Bound on any single wait; a future still pending after it is a hang.
WAIT_S = 30.0

#: Farm operators: two healthy farm operators sharing one session slot,
#: and the fault-injected one (the session machine has one operator).
KEYS = ("ok", "ok2", "faulty")

PROFILE = settings.get_profile(os.environ.get("REPRO_LIFECYCLE_PROFILE", "lifecycle"))


class _Lifecycle(RuleBasedStateMachine):
    """Rules shared by the farm and the session machines.

    Subclasses provide ``_submit(b, deadline_ms, key)`` (returning the
    future, or raising an admission error), ``_stats()`` and
    ``_close(drain)``.  ``self.faulty`` is the fault-injecting backend
    behind the operator the ``fault`` rule targets.
    """

    def __init__(self) -> None:
        super().__init__()
        # Half the requests are head-sampled; the rest run deferred and
        # are tail-kept (failures, slow outliers) or counted sampled out.
        self.tracer = Tracer(sampler=Sampler(head_rate=0.5))
        self.faulty = FaultInjectingBackend(get_backend("numpy"), seed=0)
        self.futures: list = []
        self.ledger_ahead: list = []
        self.drain = True
        self.rng = np.random.default_rng(0)

    # -- helpers ------------------------------------------------------- #
    def _rhs(self) -> np.ndarray:
        return self.rng.standard_normal(MATRIX.n_rows)

    def _check_ledger(self, future) -> None:
        # Runs on whichever thread resolves the future; an assertion
        # raised here would be swallowed, so violations are collected.
        stats = self._stats()
        if stats.requests_completed + stats.requests_failed > stats.requests_submitted:
            self.ledger_ahead.append(stats)

    def _track(self, b, *, deadline_ms=None, key="ok"):
        try:
            future = self._submit(b, deadline_ms=deadline_ms, key=key)
        except (RejectedError, CircuitOpenError):
            return None
        future.add_done_callback(self._check_ledger)
        self.futures.append(future)
        return future

    # -- rules --------------------------------------------------------- #
    @initialize(drain=st.booleans())
    def choose_close(self, drain):
        # The run ends with close(drain=...): drawn up front so that the
        # close is always the final step.
        self.drain = drain

    @rule(count=st.integers(1, 4), key=st.sampled_from(KEYS))
    def submit(self, count, key):
        for _ in range(count):
            self._track(self._rhs(), key=key)

    @rule(kind=st.sampled_from(["shape", "nan"]))
    def submit_invalid(self, kind):
        b = self._rhs()
        if kind == "shape":
            b = b[:-1]
        else:
            b[3] = np.nan
        future = self._track(b)
        assert future is not None and future.done()
        assert isinstance(future.exception(), ValueError)

    @rule(deadline_ms=st.sampled_from(DEADLINES_MS))
    def submit_with_deadline(self, deadline_ms):
        self._track(self._rhs(), deadline_ms=deadline_ms)

    @rule(back=st.integers(0, 7))
    def cancel(self, back):
        # Which futures exist depends on thread timing (an admission error
        # leaves none), so the draw must not: pick by recency, and let a
        # cancel of a finished future be the no-op it is.
        if self.futures:
            self.futures[-1 - back % len(self.futures)].cancel()

    @rule()
    def fault(self):
        # Every kernel call raises until the faulted request resolves;
        # batchmates that share its dispatch fail with it.
        self.faulty.exception_rate = 1.0
        try:
            future = self._track(self._rhs(), key="faulty")
            if future is not None:
                concurrent.futures.wait([future], timeout=WAIT_S)
                assert future.done(), "faulted request hung"
        finally:
            self.faulty.exception_rate = 0.0

    @rule()
    def settle(self):
        done, pending = concurrent.futures.wait(self.futures, timeout=WAIT_S)
        assert not pending, f"{len(pending)} futures hung"

    # -- quiescence checks --------------------------------------------- #
    def teardown(self):
        self._close(self.drain)
        assert all(f.done() for f in self.futures)
        stats = self._stats()
        assert stats.requests_submitted == (
            stats.requests_completed + stats.requests_failed
        ), stats
        assert not self.ledger_ahead, self.ledger_ahead[0]
        assert self.tracer.open_spans == 0
        roots = [
            s for s in self.tracer.finished_spans()
            if s.name == "request" and s.parent_id is None
        ]
        assert len(roots) + self.tracer.sampled_out_traces == (
            stats.requests_submitted
        )


class FarmLifecycle(_Lifecycle):
    def __init__(self) -> None:
        super().__init__()
        self.farm = SolverFarm(
            workers=1,
            max_wait_ms=2.0,
            queue_depth=16,
            max_sessions=1,
            obs=self.tracer,
        )
        self.farm.register("ok", MATRIX, **SESSION_KWARGS)
        self.farm.register("ok2", MATRIX, **SESSION_KWARGS)
        self.farm.register(
            "faulty",
            factory=fault_injecting_session_factory(
                MATRIX, self.faulty, **SESSION_KWARGS
            ),
            n_rows=MATRIX.n_rows,
        )

    def _submit(self, b, *, deadline_ms=None, key="ok"):
        return self.farm.submit(key, b, deadline_ms=deadline_ms)

    def _stats(self):
        return self.farm.stats().fleet

    def _close(self, drain):
        self.farm.close(drain=drain)


class SessionLifecycle(_Lifecycle):
    def __init__(self) -> None:
        super().__init__()
        # The session pins the backend it is built under; the fault rule
        # turns the injection on and off underneath it.
        with use_backend(self.faulty):
            self.session = OperatorSession(
                MATRIX, max_wait_ms=2.0, obs=self.tracer, **SESSION_KWARGS
            )

    def _submit(self, b, *, deadline_ms=None, key="ok"):
        return self.session.submit(b, deadline_ms=deadline_ms)

    def _stats(self):
        return self.session.stats()

    def _close(self, drain):
        self.session.close(drain=drain)


FarmLifecycle.TestCase.settings = PROFILE
SessionLifecycle.TestCase.settings = PROFILE

TestFarmLifecycle = FarmLifecycle.TestCase
TestSessionLifecycle = SessionLifecycle.TestCase
