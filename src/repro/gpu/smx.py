"""Per-SMX resource accounting for the thread-block scheduler.

Each :class:`SMXState` tracks the four resources the occupancy rules care
about (block slots, threads, shared memory, registers).  The
:class:`SMXArray` aggregates all SMXs of a device and answers the two
questions the block scheduler asks:

* "how many more blocks of kernel K fit right now, and where?"
* "give those resources back" (when a block cohort retires).

Placement is round-robin across SMXs starting from a rotating cursor —
matching the GigaThread engine's breadth-first block distribution and
keeping SMX load balanced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .kernels import KernelDescriptor
from .specs import SMXSpec

__all__ = ["SMXState", "Placement", "SMXArray"]


@dataclass
class SMXState:
    """Mutable free-resource counters of one SMX."""

    index: int
    spec: SMXSpec
    free_blocks: int = 0
    free_threads: int = 0
    free_shared_mem: int = 0
    free_registers: int = 0

    def __post_init__(self) -> None:
        self.free_blocks = self.spec.max_blocks
        self.free_threads = self.spec.max_threads
        self.free_shared_mem = self.spec.shared_memory
        self.free_registers = self.spec.registers

    def fits(self, kernel: KernelDescriptor) -> int:
        """How many more blocks of ``kernel`` fit on this SMX now."""
        # Hot path: manual min-chain over cached kernel attributes.
        n = self.free_blocks
        if n <= 0:
            return 0
        m = self.free_threads // kernel._threads_per_block
        if m < n:
            n = m
        smem = kernel.shared_mem_per_block
        if smem:
            m = self.free_shared_mem // smem
            if m < n:
                n = m
        regs = kernel._registers_per_block
        if regs:
            m = self.free_registers // regs
            if m < n:
                n = m
        return n if n > 0 else 0

    def take(self, kernel: KernelDescriptor, nblocks: int) -> None:
        """Reserve resources for ``nblocks`` blocks of ``kernel``."""
        if nblocks > self.fits(kernel):
            raise ValueError(
                f"SMX {self.index}: cannot host {nblocks} blocks of "
                f"{kernel.name}"
            )
        self.free_blocks -= nblocks
        self.free_threads -= nblocks * kernel._threads_per_block
        self.free_shared_mem -= nblocks * kernel.shared_mem_per_block
        self.free_registers -= nblocks * kernel._registers_per_block

    def give_back(self, kernel: KernelDescriptor, nblocks: int) -> None:
        """Release resources of ``nblocks`` retired blocks of ``kernel``."""
        self.free_blocks += nblocks
        self.free_threads += nblocks * kernel._threads_per_block
        self.free_shared_mem += nblocks * kernel.shared_mem_per_block
        self.free_registers += nblocks * kernel._registers_per_block
        if (
            self.free_blocks > self.spec.max_blocks
            or self.free_threads > self.spec.max_threads
            or self.free_shared_mem > self.spec.shared_memory
            or self.free_registers > self.spec.registers
        ):
            raise ValueError(
                f"SMX {self.index}: resource release exceeds capacity "
                f"(double free of {kernel.name} blocks?)"
            )

    @property
    def busy(self) -> bool:
        """Whether any block is resident."""
        return self.free_blocks < self.spec.max_blocks

    @property
    def resident_threads(self) -> int:
        """Threads currently resident on this SMX."""
        return self.spec.max_threads - self.free_threads


@dataclass(frozen=True)
class Placement:
    """Blocks of one kernel placed on one SMX in one scheduling pass."""

    smx_index: int
    nblocks: int


class SMXArray:
    """All SMXs of a device, with round-robin block placement."""

    def __init__(self, num_smx: int, spec: SMXSpec) -> None:
        if num_smx <= 0:
            raise ValueError("num_smx must be positive")
        self.spec = spec
        self.smxs: List[SMXState] = [SMXState(i, spec) for i in range(num_smx)]
        self._cursor = 0
        # Running device-level counters (kept in sync by place/release so
        # the power model's frequent queries stay O(1)).
        self._resident_blocks = 0
        self._resident_threads = 0
        #: Effective compute speed scale the grid engine last observed
        #: (1.0 = spec clocks, 4.0 = blocks retiring 4x slow).  Written
        #: when cohorts are scheduled under a gray SMX_SLOWDOWN window so
        #: telemetry/health probes can see the degradation ground truth;
        #: placement math never reads it.
        self.speed_scale: float = 1.0

    def __iter__(self) -> Iterator[SMXState]:
        return iter(self.smxs)

    def __len__(self) -> int:
        return len(self.smxs)

    # -- placement --------------------------------------------------------

    def place(self, kernel: KernelDescriptor, max_blocks: int) -> List[Placement]:
        """Place up to ``max_blocks`` blocks of ``kernel``; return placements.

        Distribution is breadth-first round-robin from a persistent cursor
        (like the GigaThread engine's block distributor): blocks are dealt
        in whole "levels" across the SMXs, so loads stay balanced, in
        O(num_smx) time independent of the block count.  Returns an empty
        list when nothing fits; never places more than requested.
        """
        if max_blocks <= 0:
            return []
        n_smx = len(self.smxs)
        if self._resident_blocks >= n_smx * self.spec.max_blocks:
            return []
        start = self._cursor % n_smx
        remaining = max_blocks
        placements: List[Placement] = []
        total_placed = 0
        # Greedy fill in cursor order: each SMX takes as many blocks as it
        # can host before moving on.  The rotating cursor spreads successive
        # cohorts across the array, which keeps long-run SMX load balanced
        # without per-block dealing.
        for offset in range(n_smx):
            idx = (start + offset) % n_smx
            smx = self.smxs[idx]
            n = smx.fits(kernel)
            if n <= 0:
                continue
            if n > remaining:
                n = remaining
            smx.take(kernel, n)
            placements.append(Placement(idx, n))
            total_placed += n
            remaining -= n
            if remaining == 0:
                self._cursor = (idx + 1) % n_smx
                break
        if total_placed:
            self._resident_blocks += total_placed
            self._resident_threads += total_placed * kernel._threads_per_block
        return placements

    def release(self, kernel: KernelDescriptor, placements: List[Placement]) -> None:
        """Return the resources of a retired cohort."""
        total = 0
        for p in placements:
            self.smxs[p.smx_index].give_back(kernel, p.nblocks)
            total += p.nblocks
        self._resident_blocks -= total
        self._resident_threads -= total * kernel._threads_per_block

    # -- device-level introspection ----------------------------------------

    @property
    def busy_smx_count(self) -> int:
        """Number of SMXs with at least one resident block."""
        return sum(1 for s in self.smxs if s.busy)

    @property
    def resident_threads(self) -> int:
        """Total resident threads across the device."""
        return self._resident_threads

    @property
    def resident_blocks(self) -> int:
        """Total resident blocks across the device."""
        return self._resident_blocks

    @property
    def free_block_slots(self) -> int:
        """Unoccupied block slots across the device (O(1))."""
        return len(self.smxs) * self.spec.max_blocks - self._resident_blocks

    @property
    def thread_occupancy(self) -> float:
        """Resident threads / device thread capacity, in [0, 1]."""
        cap = len(self.smxs) * self.spec.max_threads
        return self._resident_threads / cap

    def utilization_snapshot(self) -> Tuple[int, int, float]:
        """(busy SMXs, resident blocks, thread occupancy) for power/logs."""
        return (self.busy_smx_count, self.resident_blocks, self.thread_occupancy)
