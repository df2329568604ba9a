"""Request recycling for looping kernels under the SoA backend.

The co-execution methodology re-launches each kernel in a loop, and
``KernelInstance.warp_program`` deliberately seeds each warp's RNG
independently of the launch number — every launch replays the *same*
request trace.  The object engine already exploits that: it keeps a
process-wide memo of complete warp programs (:mod:`repro.gpu.kernel`)
and replays later launches from it, building fresh
:class:`~repro.request.Request` objects (which are mutated in flight)
for every launch.  Under the SoA backend a per-system cache goes one
step further and recycles those objects across launches, replaying from
the memo's own phase records (it keeps no records of its own).  A warp
whose program is not memoised yet (the first launch in the process, or
a spec the memo cannot key) is generated as usual.

Request recycling
-----------------
Rebuilding ~170k dataclass instances per co-run is itself a measurable
slice of the SoA hot path, so each replayed phase carries a *slot*
(``[live_count, phase]``) shared by its request objects.  The engine
returns every finished request to its slot; when the count reaches
zero the next launch re-yields the *same* ``Phase`` object.  Per
request, reuse is decided by where it travelled: a request that
entered a memory controller's MEM queue may survive as a stale
tombstone reference in the queue's lazy index deques, so its object is
abandoned to the garbage collector and rebuilt from its record (same
fields, fresh identity); PIM requests (popped physically) and requests
that never reached a controller (L2 hits / MSHR merges) are reused in
place, refreshing only the per-flight fields a later stage reads
before writing (the global request id, to keep id consumption
identical to the object engine, and the ``cycle_created`` stamp
guard).  Telemetry reads every hop timestamp, so enabling telemetry
turns recycling off and drops the existing slots.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.gpu.kernel import (
    KernelInstance,
    Phase,
    PhaseRecord,
    WarpProgram,
    rebuild_request,
)
from repro import request as _request_mod


class WarpProgramCache:
    """Per-system recycling slots over the memo's warp records.

    Keyed by ``(kernel_id, sm_slot, warp)``, which fixes a synthetic
    warp program within one system.  Each entry pairs the memo's phase
    record (held here, so an eviction from the bounded memo does not
    strand a running system) with one slot per phase.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int, int], Tuple[Tuple[PhaseRecord, ...], List[Optional[list]]]] = {}
        #: Master switch for request recycling (see module docstring).
        #: Cleared (never re-set) when telemetry needs fresh stamps.
        self.recycle = True
        #: Optional RequestArrays (engine_soa.handles) of the owning
        #: system: replayed requests pin their NoC handle across
        #: launches, so a rebuilt request inherits the handle of the
        #: object it replaces (the record — and therefore every pool
        #: column — is identical; only the object pointer moves).
        self.pool = None

    def disable_recycling(self) -> None:
        """Stop reusing request objects and drop the existing slots.

        Called when telemetry is enabled: recycled requests carry stale
        hop timestamps from earlier flights, which telemetry would fold
        into its latency accounting.  Live requests keep their (now
        orphaned) slots; the counts decay harmlessly.
        """
        self.recycle = False
        self._entries = {}

    def program(self, instance: KernelInstance, sm_slot: int, warp: int) -> Optional[WarpProgram]:
        """A recycling replay of the warp, or None to generate it as usual."""
        if not self.recycle:
            return None
        key = (instance.kernel_id, sm_slot, warp)
        entry = self._entries.get(key)
        if entry is None:
            phases = instance.recorded_program(sm_slot, warp)
            if phases is None:
                return None
            entry = self._entries[key] = (phases, [None] * len(phases))
        return self._replay(entry[0], entry[1], instance.ctx.kernel_id)

    def _replay(
        self, phases: Tuple[PhaseRecord, ...], slots: List[Optional[list]], kernel_id: int
    ) -> Iterator[Phase]:
        for index, (compute_cycles, wait_for_replies, records) in enumerate(phases):
            slot = slots[index]
            if slot is not None and slot[0] == 0:
                # Every request of the previous launch's phase finished:
                # reuse the phase.  Requests that entered a MEM controller
                # queue may survive as stale tombstone references in its
                # lazy index deques, so those objects are abandoned to the
                # GC and rebuilt from their records (same fields, fresh
                # identity); the rest are reused in place, refreshing the
                # global id (identical id-stream consumption to a fresh
                # build) and the one stamp guarded by a read-before-write.
                phase = slot[1]
                requests = phase.requests
                slot[0] = len(requests)
                ids = _request_mod._request_ids
                pool = self.pool
                pool_objs = pool.objs if pool is not None else None
                for idx, request in enumerate(requests):
                    if request.mc_seq >= 0 and not request.is_pim:
                        fresh = rebuild_request(records[idx], kernel_id)
                        fresh._slot = slot
                        if pool_objs is not None:
                            h = request._handle
                            if h >= 0:
                                fresh._handle = h
                                pool_objs[h] = fresh
                        requests[idx] = fresh
                    else:
                        request.id = next(ids)
                        request.cycle_created = -1
                yield phase
                continue
            requests = [rebuild_request(r, kernel_id) for r in records]
            phase = Phase(compute_cycles, requests, wait_for_replies)
            slot = [len(requests), phase]
            for request in requests:
                request._slot = slot
            slots[index] = slot
            yield phase


class ReplayKernelInstance(KernelInstance):
    """Kernel instance whose warp programs recycle requests across launches.

    The cache is shared across launches of the same kernel (it lives on
    the system, keyed by kernel id), so a looping kernel's relaunches
    reuse the request objects of the launch before.
    """

    def __init__(self, spec, ctx, kernel_id: int, seed: int, cache: WarpProgramCache) -> None:
        super().__init__(spec, ctx, kernel_id, seed=seed)
        self._cache = cache

    def warp_program(self, sm_slot: int, warp: int) -> WarpProgram:
        program = self._cache.program(self, sm_slot, warp)
        return program if program is not None else super().warp_program(sm_slot, warp)
