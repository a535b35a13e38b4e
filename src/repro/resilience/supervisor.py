"""Per-application supervision: admission, deadline, retry.

:class:`AppSupervisor` wraps one application thread in the full resilience
loop.  Where the plain harness spawns ``env.process(thread.run())``
directly, the resilient harness spawns ``env.process(supervisor.run())``
instead, and the supervisor:

1. acquires an admission slot from the :class:`ConcurrencyLimiter` (the
   degradation ladder's gate),
2. starts the attempt as a child process and arms a watchdog deadline
   over it,
3. on success disarms the guard, releases the slot and returns;
4. on a detected fault (:class:`~repro.sim.errors.FaultError` raised by
   the attempt, or an :class:`~repro.sim.errors.Interrupt` carrying
   :class:`~repro.sim.errors.DeadlineExceeded` from the watchdog)
   records the detection, notifies the degradation controller, and —
   budget permitting — resets the thread and retries after a seeded
   exponential backoff.

The supervisor itself *never* fails: a permanently failed application is
recorded (``record.failed``) and the supervisor returns normally, so the
parent's ``AllOf(children)`` barrier completes even under faults.

The wrapped thread is the framework's one app thread,
:class:`~repro.framework.app_thread.AppThread`, used duck-typed through
``run()``, ``reset_for_retry()``, ``record``, ``app`` and ``trace_ctx``:
this module depends only on :mod:`repro.sim`, never on
:mod:`repro.framework`.  A retry re-runs the GPU section from phase 0
(only fleet threads resume from a checkpoint).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.errors import DeadlineExceeded, FaultError, Interrupt
from .retry import RetryPolicy, app_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.engine import Environment
    from .degradation import ConcurrencyLimiter, DegradationController
    from .faults import FaultInjector
    from .watchdog import Watchdog

__all__ = ["AppSupervisor"]


class AppSupervisor:
    """Runs one application thread with retry, deadline and admission.

    Parameters
    ----------
    env:
        Simulation environment.
    thread:
        The application thread to supervise (any object with ``run()``,
        ``reset_for_retry()``, a ``record``, a ``trace_ctx`` and an
        ``app`` with ``app_id``).
    policy:
        Retry policy; ``None`` means a single attempt.
    watchdog, deadline:
        Watchdog instance and per-attempt deadline seconds; either may be
        ``None`` to disable deadline enforcement for this application.
    limiter:
        Admission gate; ``None`` admits unconditionally.
    controller:
        Degradation controller notified of every detected fault.
    injector:
        Fault injector used only for trace marks (retry/deadline
        instants); may be ``None``.
    seed:
        Base seed combined with the app id for backoff jitter.
    budget:
        Shared :class:`~repro.resilience.budget.RetryBudget`, or ``None``
        for unbudgeted retries (the historical behaviour).  When the
        app's class bucket is empty a retry that the policy would allow
        is *denied* instead: the app fails with ``retries_denied``
        incremented, capping system-wide retry amplification.
    """

    def __init__(
        self,
        env: "Environment",
        thread,
        *,
        policy: Optional[RetryPolicy] = None,
        watchdog: Optional["Watchdog"] = None,
        deadline: Optional[float] = None,
        limiter: Optional["ConcurrencyLimiter"] = None,
        controller: Optional["DegradationController"] = None,
        injector: Optional["FaultInjector"] = None,
        seed: int = 0,
        budget=None,
    ) -> None:
        self.env = env
        self.thread = thread
        self.policy = policy if policy is not None else RetryPolicy(max_attempts=1)
        self.watchdog = watchdog
        self.deadline = deadline
        self.limiter = limiter
        self.controller = controller
        self.injector = injector
        self.budget = budget
        self.app_id: str = thread.app.app_id
        self._rng = app_rng(seed, self.app_id)

    def run(self):
        """Process generator: the supervised application lifecycle."""
        env = self.env
        thread = self.thread
        record = thread.record
        attempt = 0
        # Causal tracing: the supervisor annotates the supervised app's
        # trace (backoffs, watchdog fires, budget denials).  Both checks
        # default to None, so unsupervised-style runs pay nothing.
        tracer = env.tracer
        trace_ctx = thread.trace_ctx
        traced = tracer is not None and trace_ctx is not None

        while True:
            attempt += 1
            record.attempts = attempt

            if self.limiter is not None:
                limiter_from = env.now
                yield from self.limiter.acquire()
                if traced and env.now > limiter_from:
                    tracer.record(
                        trace_ctx, "admission.limiter", "admission-limiter",
                        limiter_from, env.now, attempt=attempt,
                    )

            child = env.process(
                thread.run(), name=f"thread-{self.app_id}#a{attempt}"
            )
            guard = None
            if self.watchdog is not None and self.deadline is not None:
                guard = self.watchdog.guard(child, self.deadline, self.app_id)

            try:
                yield child
            except (FaultError, Interrupt) as exc:
                if guard is not None:
                    guard.disarm()
                if self.limiter is not None:
                    self.limiter.release()
                is_deadline = isinstance(exc, Interrupt) and isinstance(
                    exc.cause, DeadlineExceeded
                )
                record.faults_detected += 1
                if is_deadline:
                    record.deadline_hits += 1
                    if self.injector is not None:
                        self.injector.mark_deadline(self.app_id, self.deadline)
                    if traced:
                        tracer.instant(
                            trace_ctx, "watchdog.deadline", "watchdog",
                            env.now, attempt=attempt, deadline=self.deadline,
                        )
                if self.controller is not None:
                    self.controller.note_fault()

                if not self.policy.allows_retry(attempt):
                    record.failed = True
                    record.complete_time = env.now
                    return
                if self.budget is not None and not self.budget.try_spend(
                    record.type_name, env.now
                ):
                    # The policy would retry, but the shared budget is
                    # exhausted: fail rather than amplify.
                    record.retries_denied += 1
                    record.failed = True
                    record.complete_time = env.now
                    if traced:
                        tracer.instant(
                            trace_ctx, "retry.denied", "retry-denied",
                            env.now, attempt=attempt,
                        )
                    return
                record.retries += 1
                delay = self.policy.delay(attempt, self._rng)
                if self.injector is not None:
                    self.injector.mark_retry(self.app_id, attempt, delay)
                thread.reset_for_retry()
                if delay > 0:
                    backoff_from = env.now
                    yield env.timeout(delay)
                    if traced:
                        tracer.record(
                            trace_ctx, "retry.backoff", "retry-backoff",
                            backoff_from, env.now, attempt=attempt,
                        )
                continue

            # Attempt finished cleanly inside its budget.
            if guard is not None:
                guard.disarm()
            if self.limiter is not None:
                self.limiter.release()
            return
