"""Deterministic hedged execution against gray-degraded devices.

A gray-failed device keeps answering heartbeats while running slow, so
the loss/failover machinery never fires — apps placed on it simply crawl.
The :class:`HedgeManager` closes that gap with *speculative replicas*
(the tail-at-scale "hedged request" idea applied to whole applications):

* every ``check_interval`` it scans the running apps in launch order; an
  app whose device the :class:`~repro.resilience.gray.StragglerDetector`
  classifies a straggler, and whose remaining work clears
  ``min_remaining_kernels``, is a hedge candidate;
* a candidate forks a **replica** from its latest durable
  :class:`~repro.fleet.checkpoint.AppCheckpoint`: a second
  :class:`~repro.fleet.thread.FleetAppThread` over the *same*
  :class:`~repro.framework.kernel.KernelApp`, bound to the
  healthiest non-straggler device, re-allocating device memory there and
  re-uploading the checkpoint's HtoD payload exactly like a failover
  migration;
* primary and replica race; the first to finish interrupts the other
  (cancel-on-first-complete).  A replica win is delivered to the primary
  driver as ``Interrupt(HedgeWin)``; a primary win cancels the replica
  with ``Interrupt(HedgeCancelled)``;
* duplicate work is bounded by a per-batch budget: a hedge only launches
  while the *worst case* duplicated kernels (already realized + the
  candidate's full remaining work) stay within ``budget_fraction`` of
  the batch's total kernel count;
* every decision is journaled through the run's fenced journal — the
  ``hedge`` record carries the replica's bind-time fencing token (so a
  hedge onto a device that is then lost cannot write stale checkpoints),
  the ``hedge-done`` record is tokenless (legitimate after any loss).

Everything is a deterministic function of simulation state: scans happen
on the simulated clock, candidates are visited in launch order, targets
break ties by lowest index, and replica retry jitter comes from
:func:`~repro.resilience.retry.replica_rng` — a stream disjoint from the
primaries' ``app_rng`` draws, so enabling hedging never perturbs any
other seeded draw and replay (resume) is byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional

from ..framework.metrics import AppRecord
from ..resilience.retry import RetryPolicy, replica_rng
from ..sim.errors import DeviceLost, FaultError, Interrupt
from .checkpoint import AppCheckpoint
from .thread import FleetAppThread

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.gray import StragglerDetector
    from ..sim.engine import Environment
    from .checkpoint import CheckpointStore
    from .config import FleetConfig, HedgeConfig
    from .coordinator import FailoverCoordinator
    from .registry import DeviceRegistry

__all__ = ["HedgeWin", "HedgeCancelled", "Hedge", "HedgeManager"]


class HedgeWin:
    """Interrupt cause: the app's speculative replica finished first.

    Carries everything the primary driver needs to adopt the replica's
    result: terminal timestamp, winning device/stream, the realized
    duplicate-kernel count, and the replica's harvested metric events
    (merged into the app's record so the run's transfer/kernel accounting
    reflects all work that actually executed).
    """

    def __init__(
        self,
        app_id: str,
        time: float,
        device: int,
        stream: int,
        duplicates: int,
        kernels: list,
        transfers: list,
    ) -> None:
        self.app_id = app_id
        self.time = time
        self.device = device
        self.stream = stream
        self.duplicates = duplicates
        self.kernels = kernels
        self.transfers = transfers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HedgeWin {self.app_id} on dev{self.device} "
            f"at t={self.time:.6g}s>"
        )


class HedgeCancelled:
    """Interrupt cause: the primary finished first; the replica stands down."""

    def __init__(self, app_id: str, time: float) -> None:
        self.app_id = app_id
        self.time = time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HedgeCancelled {self.app_id} at t={self.time:.6g}s>"


@dataclasses.dataclass
class Hedge:
    """One speculative replica's lifecycle record."""

    app_id: str
    replica_idx: int          # 1-based, per app
    source: int               # straggler device the primary was on
    target: int               # device the replica was placed on
    launched: float           # simulation time of the hedge decision
    fork_kernels: int         # checkpointed completed kernels at fork
    remaining: int            # kernels left at fork (worst-case duplicates)
    thread: FleetAppThread
    proc: object = None
    done: bool = False
    winner: str = ""          # "replica" | "primary" | "abandoned"
    duplicates: int = 0       # realized duplicate kernels at settlement


class HedgeManager:
    """Scans for straggler-placed apps and races replicas against them."""

    def __init__(
        self,
        env: "Environment",
        registry: "DeviceRegistry",
        coordinator: "FailoverCoordinator",
        store: "CheckpointStore",
        fleet: "FleetConfig",
        detector: "StragglerDetector",
        *,
        total_kernels: Dict[str, int],
        journal=None,
        fence=None,
        budget=None,
    ) -> None:
        if fleet.hedging is None:
            raise ValueError("fleet config has no hedging section")
        self.env = env
        self.registry = registry
        self.coordinator = coordinator
        self.store = store
        self.fleet = fleet
        self.config: "HedgeConfig" = fleet.hedging
        self.detector = detector
        self.journal = journal
        self.fence = fence
        #: app_id -> total profile kernel launches (the work denominator).
        self.total_kernels = dict(total_kernels)
        self.batch_kernels = sum(self.total_kernels.values())
        #: Hedges currently racing, by app id.
        self.active: Dict[str, Hedge] = {}
        #: Every hedge ever launched, in decision order.
        self.all_hedges: List[Hedge] = []
        #: Journal-shaped decision log (kept even without a journal).
        self.events: List[dict] = []
        #: Replica wins the primary driver has not adopted yet (the
        #: primary was parked mid-failover when its replica finished).
        self._unclaimed: Dict[str, HedgeWin] = {}
        self.hedges_launched = 0
        self.hedge_wins = 0
        self.duplicate_kernels = 0
        #: Candidates skipped because the duplicate-work budget was spent.
        self.budget_denials = 0
        #: Candidates skipped because no healthy non-straggler target existed.
        self.no_target_denials = 0
        #: Shared per-class retry budget
        #: (:class:`~repro.resilience.budget.RetryBudget`) or ``None``.
        #: A hedge is duplicate work exactly like a retry, so launches
        #: spend from the same bucket supervisor retries do.
        self.retry_budget = budget
        #: Candidates skipped because the shared retry budget was empty.
        self.retry_budget_denials = 0
        #: Brownout suspension: at ladder level >= 1 the probe stands the
        #: scanner down — speculative duplicates are the last thing an
        #: overloaded fleet needs.
        self.suspended = False
        self._hedges_per_app: Dict[str, int] = {}
        #: Worst-case duplicated kernels committed so far: realized
        #: duplicates of settled hedges + full remaining work of active
        #: ones (an active replica may duplicate everything it re-runs).
        self._committed = 0
        self._running = False
        # Chain the registry's ground-truth loss hook so replicas on a
        # lost device are interrupted exactly like primaries are.  The
        # coordinator installed its own hook first (construction order).
        self._chained_down = registry.on_down
        registry.on_down = self._device_down

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic straggler scan (idempotent)."""
        if self._running:
            return
        self._running = True
        self.env.process(self._poll_loop(), name="hedge-manager")

    def stop(self) -> None:
        """Stop scanning after the next tick."""
        self._running = False

    @property
    def budget_kernels(self) -> int:
        """The batch's duplicate-work allowance, in kernels."""
        return int(self.config.budget_fraction * self.batch_kernels)

    # -- the scan ----------------------------------------------------------

    def _poll_loop(self):
        while self._running:
            yield self.env.timeout(self.config.check_interval)
            if not self._running:
                return
            self._scan()

    def _scan(self) -> None:
        if self.suspended:
            return
        now = self.env.now
        # Launch order (dict insertion order) keeps the scan deterministic.
        for app_id, thread in self.coordinator.threads.items():
            if self.coordinator.status.get(app_id) != "running":
                continue
            if app_id in self.active:
                continue
            if (
                self._hedges_per_app.get(app_id, 0)
                >= self.config.max_hedges_per_app
            ):
                continue
            fdev = thread.fdev
            if fdev is None or fdev.lost:
                continue
            if not self.detector.is_straggler(fdev.index):
                continue
            ckpt = self.store.get(app_id)
            completed = ckpt.completed_kernels if ckpt is not None else 0
            remaining = self.total_kernels.get(app_id, 0) - completed
            if remaining < self.config.min_remaining_kernels:
                continue
            if self._committed + remaining > self.budget_kernels:
                self.budget_denials += 1
                continue
            target = self._pick_target(fdev.index)
            if target is None:
                self.no_target_denials += 1
                continue
            if self.retry_budget is not None and not self.retry_budget.try_spend(
                thread.record.type_name, now
            ):
                self.retry_budget_denials += 1
                continue
            self._launch(app_id, thread, ckpt, fdev.index, target,
                         remaining, now)

    def _pick_target(self, source: int) -> Optional[int]:
        """Healthiest non-straggler device != source; lowest index wins ties."""
        best_score = None
        best_index = None
        for device in self.registry:
            if device.lost or device.index == source:
                continue
            if self.detector.is_straggler(device.index):
                continue
            score = self.detector.score(device.index).score
            if best_score is None or score > best_score + 1e-12:
                best_score = score
                best_index = device.index
        return best_index

    # -- launching ---------------------------------------------------------

    def _launch(
        self,
        app_id: str,
        primary: FleetAppThread,
        ckpt: Optional[AppCheckpoint],
        source: int,
        target: int,
        remaining: int,
        now: float,
    ) -> None:
        replica_idx = self._hedges_per_app.get(app_id, 0) + 1
        self._hedges_per_app[app_id] = replica_idx
        self.hedges_launched += 1
        self._committed += remaining
        primary.record.hedges += 1

        fork = (
            dataclasses.replace(ckpt)
            if ckpt is not None
            else AppCheckpoint(app_id=app_id)
        )
        # The replica gets its own record (never added to the run's
        # records list): run_attempt needs somewhere to write, and on a
        # win its harvested events are merged into the primary's record.
        shadow = AppRecord(
            app_id=app_id,
            type_name=primary.record.type_name,
            instance=primary.record.instance,
            stream_index=-1,
            launch_index=primary.record.launch_index,
        )
        rthread = FleetAppThread(
            self.env,
            primary.app,
            shadow,
            checkpoint=fork,
            on_checkpoint=self._replica_checkpoint,
        )
        rthread.detector = self.detector
        fdev = self.registry.devices[target]
        rthread.bind(fdev)
        token = self.fence.token(target) if self.fence is not None else None
        rthread.fence_token = token
        if token is not None:
            fork.generation = token.generation

        hedge = Hedge(
            app_id=app_id,
            replica_idx=replica_idx,
            source=source,
            target=target,
            launched=now,
            fork_kernels=fork.completed_kernels,
            remaining=remaining,
            thread=rthread,
        )
        self.active[app_id] = hedge
        self.all_hedges.append(hedge)

        entry = {
            "event": "hedge",
            "app": app_id,
            "replica": replica_idx,
            "from": source,
            "to": target,
            "kernels": fork.completed_kernels,
            "remaining": remaining,
            "t": now,
        }
        self.events.append(dict(entry))
        if self.journal is not None:
            self.journal.record(entry, token=token)

        hedge.proc = self.env.process(
            self._replica_body(hedge),
            name=f"hedge-{app_id}-r{replica_idx}",
        )

    # -- the replica driver ------------------------------------------------

    def _replica_body(self, hedge: Hedge):
        """Run the replica to completion, retrying faults, until cancelled."""
        rthread = hedge.thread
        policy = RetryPolicy(max_attempts=self.fleet.max_attempts)
        rng = replica_rng(self.fleet.seed, hedge.app_id, hedge.replica_idx)
        attempt = 0
        try:
            while True:
                attempt += 1
                try:
                    yield from rthread.run_attempt()
                    break
                except FaultError:
                    if not policy.allows_retry(attempt):
                        self._settle(hedge, "abandoned")
                        return
                    rthread.reset_attempt()
                    yield self.env.timeout(policy.delay(attempt, rng))
        except Interrupt as exc:
            cause = exc.cause
            winner = (
                "primary" if isinstance(cause, HedgeCancelled) else "abandoned"
            )
            self._settle(hedge, winner)
            return
        if hedge.done:
            return
        self._win(hedge)

    def _replica_checkpoint(self, rthread: FleetAppThread) -> None:
        """Journal a replica phase-boundary snapshot (fenced, not stored).

        The checkpoint *store* keeps the primary's lineage only — a
        replica that loses must not have moved the app's durable restart
        point — but the snapshot still goes to the journal under the
        replica's bind-time token, so replay sees the same write order
        and a replica on a since-lost device is fenced off.
        """
        if self.journal is None:
            return
        snapshot = dataclasses.replace(rthread.checkpoint)
        self.journal.record(snapshot.as_entry(), token=rthread.fence_token)

    # -- settlement --------------------------------------------------------

    def _win(self, hedge: Hedge) -> None:
        """The replica finished first: interrupt (or park a win for) the
        primary and account realized duplicates."""
        primary = self.coordinator.threads[hedge.app_id]
        duplicates = max(
            0, primary.checkpoint.completed_kernels - hedge.fork_kernels
        )
        self._close(hedge, "replica", duplicates)
        self.hedge_wins += 1

        rthread = hedge.thread
        win = HedgeWin(
            app_id=hedge.app_id,
            time=self.env.now,
            device=hedge.target,
            stream=rthread.record.stream_index,
            duplicates=duplicates,
            kernels=list(rthread.record.kernels),
            transfers=list(rthread.record.transfers),
        )
        proc = self.coordinator.procs.get(hedge.app_id)
        if (
            proc is not None
            and proc.is_alive
            and self.coordinator.status.get(hedge.app_id) == "running"
        ):
            proc.interrupt(win)
        else:
            # Primary is parked mid-failover; its driver adopts the win
            # via claim_win when it next wakes.
            self._unclaimed[hedge.app_id] = win

    def _settle(self, hedge: Hedge, winner: str) -> None:
        """The replica lost (cancelled, device lost, or out of retries)."""
        if hedge.done:
            return
        duplicates = max(
            0, hedge.thread.checkpoint.completed_kernels - hedge.fork_kernels
        )
        self._close(hedge, winner, duplicates)
        # On a primary win the wasted work is the replica's; attribute it
        # to the app's record (the win path accounts via HedgeWin).
        primary = self.coordinator.threads.get(hedge.app_id)
        if primary is not None:
            primary.record.duplicate_kernels += duplicates

    def _close(self, hedge: Hedge, winner: str, duplicates: int) -> None:
        hedge.done = True
        hedge.winner = winner
        hedge.duplicates = duplicates
        self.active.pop(hedge.app_id, None)
        # Worst-case commitment becomes the realized duplicate count.
        self._committed += duplicates - hedge.remaining
        self.duplicate_kernels += duplicates
        entry = {
            "event": "hedge-done",
            "app": hedge.app_id,
            "replica": hedge.replica_idx,
            "winner": winner,
            "dup": duplicates,
            "t": self.env.now,
        }
        self.events.append(dict(entry))
        if self.journal is not None:
            # Tokenless on purpose: the outcome record is legitimate even
            # after the replica's (or primary's) device generation moved.
            self.journal.record(entry)

    # -- primary-side hooks ------------------------------------------------

    def claim_win(self, app_id: str) -> Optional[HedgeWin]:
        """A parked primary driver collects a replica win it missed."""
        return self._unclaimed.pop(app_id, None)

    def primary_terminal(self, app_id: str) -> None:
        """The primary reached a terminal state: cancel its replica."""
        hedge = self.active.get(app_id)
        if hedge is None:
            return
        proc = hedge.proc
        self._settle(hedge, "primary")
        if proc is not None and proc.is_alive:
            proc.interrupt(HedgeCancelled(app_id, self.env.now))

    def _device_down(self, index: int, now: float) -> None:
        """Ground-truth loss: interrupt replicas racing on the device."""
        if self._chained_down is not None:
            self._chained_down(index, now)
        for hedge in list(self.active.values()):
            if hedge.target != index:
                continue
            if hedge.proc is not None and hedge.proc.is_alive:
                hedge.proc.interrupt(DeviceLost(index, now))

    # -- teardown ----------------------------------------------------------

    def cleanup_replicas(self):
        """Free every replica's device memory (parent thread, end of run)."""
        for hedge in self.all_hedges:
            yield from hedge.thread.release_device()
