"""Device global-memory allocator.

Models ``cudaMalloc``/``cudaFree`` over the K20's ~5 GB of GDDR5 with a
first-fit free list and coalescing on free.  The paper's workloads are far
from exhausting device memory (32 applications x a few MB each), but a real
framework must fail loudly on exhaustion and the allocator's occupancy
statistics feed the utilization reports.

Allocation granularity is 256 bytes (the CUDA texture alignment) — matching
hardware behaviour and keeping offsets aligned for any downstream user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["GpuOutOfMemory", "Allocation", "MemoryAllocator"]

ALIGNMENT = 256


class GpuOutOfMemory(MemoryError):
    """Raised when a ``cudaMalloc`` cannot be satisfied."""


@dataclass(frozen=True)
class Allocation:
    """One live device allocation."""

    offset: int
    size: int          # aligned size actually reserved
    requested: int     # size the caller asked for

    @property
    def end(self) -> int:
        """First byte past the allocation."""
        return self.offset + self.size


def _align(n: int) -> int:
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


class MemoryAllocator:
    """First-fit allocator with free-block coalescing."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        # Sorted, disjoint, coalesced free extents: (offset, size).
        self._free: List[Tuple[int, int]] = [(0, self.capacity)]
        self._live: dict = {}
        self.in_use: int = 0
        self.peak_in_use: int = 0
        self.total_allocs: int = 0
        self.failed_allocs: int = 0

    def __repr__(self) -> str:
        return (
            f"<MemoryAllocator {self.in_use}/{self.capacity} B in use, "
            f"{len(self._live)} allocations>"
        )

    # -- allocation ---------------------------------------------------------

    def alloc(self, nbytes: int) -> Allocation:
        """Reserve ``nbytes`` (rounded up to the 256 B alignment)."""
        if nbytes <= 0:
            raise ValueError(f"allocation of {nbytes} bytes")
        size = _align(nbytes)
        for i, (offset, extent) in enumerate(self._free):
            if extent >= size:
                if extent == size:
                    del self._free[i]
                else:
                    self._free[i] = (offset + size, extent - size)
                allocation = Allocation(offset=offset, size=size, requested=nbytes)
                self._live[offset] = allocation
                self.in_use += size
                self.peak_in_use = max(self.peak_in_use, self.in_use)
                self.total_allocs += 1
                return allocation
        self.failed_allocs += 1
        raise GpuOutOfMemory(
            f"cannot allocate {nbytes} B ({size} B aligned); "
            f"{self.available} B free in {len(self._free)} fragments"
        )

    def free(self, allocation: Allocation) -> None:
        """Release an allocation; adjacent free extents are merged."""
        live = self._live.pop(allocation.offset, None)
        if live is not allocation:
            if live is not None:
                self._live[allocation.offset] = live
            raise ValueError(f"double free or foreign allocation: {allocation}")
        self.in_use -= allocation.size
        # Insert in sorted position, then coalesce neighbours.
        entry = (allocation.offset, allocation.size)
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < entry[0]:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, entry)
        self._coalesce(lo)

    def _coalesce(self, index: int) -> None:
        # Merge with successor first, then predecessor.
        if index + 1 < len(self._free):
            off, size = self._free[index]
            noff, nsize = self._free[index + 1]
            if off + size == noff:
                self._free[index] = (off, size + nsize)
                del self._free[index + 1]
        if index > 0:
            poff, psize = self._free[index - 1]
            off, size = self._free[index]
            if poff + psize == off:
                self._free[index - 1] = (poff, psize + size)
                del self._free[index]

    # -- introspection -------------------------------------------------------

    @property
    def available(self) -> int:
        """Total free bytes (possibly fragmented)."""
        return self.capacity - self.in_use

    @property
    def largest_free_block(self) -> int:
        """Largest single allocatable extent."""
        return max((size for _, size in self._free), default=0)

    def fragmentation(self) -> float:
        """1 - largest_free/total_free; 0 when unfragmented or full."""
        avail = self.available
        if avail == 0:
            return 0.0
        return 1.0 - self.largest_free_block / avail

    def check_invariants(self) -> None:
        """Assert internal consistency (used by property-based tests)."""
        total_free = sum(size for _, size in self._free)
        assert total_free == self.capacity - self.in_use, "free-space accounting"
        prev_end = -1
        for off, size in self._free:
            assert size > 0, "empty free extent"
            assert off > prev_end, "overlapping or unsorted free extents"
            prev_end = off + size
        assert prev_end <= self.capacity, "free extent past capacity"
        # Free extents must be maximal (coalesced): no two adjacent.
        for (off, size), (noff, _) in zip(self._free, self._free[1:]):
            assert off + size < noff, "uncoalesced adjacent free extents"
