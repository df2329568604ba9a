"""Warp-program record/replay cache for looping kernels.

The co-execution methodology re-launches each kernel in a loop, and
``KernelInstance.warp_program`` deliberately seeds each warp's RNG
independently of the launch number — every launch replays the *same*
request trace.  The object engine regenerates every warp's phases
(numpy RNG draws, address encoding, dataclass construction overhead)
on every launch; only the kernel-wide hot region of a
:class:`~repro.workloads.synthetic.GPUKernelProfile` is built once per
process (:func:`~repro.workloads.synthetic.hot_region`).  Under the SoA
backend the first launch records each warp's phases and later launches
replay them, rebuilding only the
:class:`~repro.request.Request` objects (which are mutated in flight
and must be fresh per launch).

Recording is exact: a replayed phase carries requests with the same
type/address/kernel_id/pim_op/size and the same pre-decoded
channel/bank/row/column, constructed in the same order and at the same
point in the generator protocol (lazily, as each phase is requested),
so global request-id consumption and RNG-free behaviour match the
original stream.  Only the synthetic spec classes are cached — their
programs depend solely on ``(seed, spec name, sm_slot, warp)``; unknown
user specs fall back to normal generation.

Request recycling
-----------------
Rebuilding ~170k dataclass instances per co-run is itself a measurable
slice of the SoA hot path, so each cached phase carries a *slot*
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

from repro.gpu.kernel import KernelInstance, Phase, WarpProgram
from repro import request as _request_mod
from repro.request import Request
from repro.workloads.synthetic import GPUKernelProfile, PIMGemvKernel, PIMStreamKernel

#: Spec classes whose warp programs are launch-invariant by construction.
#: Exact-type match (not isinstance): a subclass may override
#: ``warp_program`` with launch-dependent behaviour.
REPLAYABLE_SPECS = (GPUKernelProfile, PIMStreamKernel, PIMGemvKernel)

#: One recorded request: constructor fields + pre-decoded address fields.
_RequestRecord = Tuple[object, int, int, object, int, int, int, int, int]

#: One recorded phase: (compute_cycles, wait_for_replies, requests).
_PhaseRecord = Tuple[int, bool, Tuple[_RequestRecord, ...]]


def _record_request(request: Request) -> _RequestRecord:
    return (
        request.type,
        request.address,
        request.kernel_id,
        request.pim_op,
        request.size,
        request.channel,
        request.bank,
        request.row,
        request.column,
    )


def _replay_request(record: _RequestRecord) -> Request:
    rtype, address, kernel_id, pim_op, size, channel, bank, row, column = record
    request = Request(type=rtype, address=address, kernel_id=kernel_id, pim_op=pim_op, size=size)
    request.channel, request.bank, request.row, request.column = channel, bank, row, column
    return request


class WarpProgramCache:
    """Per-system cache of recorded warp programs.

    Keyed by ``(kernel_id, sm_slot, warp)`` — the full determinant of a
    synthetic warp program for a fixed system seed.  A recording is only
    replayed once marked complete (the original generator was exhausted);
    a warp abandoned mid-program (never happens in normal runs, but
    cheap to guard) is simply re-recorded on the next launch.
    """

    def __init__(self) -> None:
        self._programs: Dict[Tuple[int, int, int], List[_PhaseRecord]] = {}
        self._complete: Dict[Tuple[int, int, int], bool] = {}
        # Per-program recycling slots, parallel to ``_programs[key]``:
        # ``[live_count, phase]`` or None (recycling off when recorded).
        self._phase_slots: Dict[Tuple[int, int, int], List[Optional[list]]] = {}
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
        self._phase_slots = {}

    def program(self, key: Tuple[int, int, int], factory) -> WarpProgram:
        if self._complete.get(key):
            return self._replay(key, self._programs[key])
        return self._record(key, factory())

    def _record(self, key: Tuple[int, int, int], source: WarpProgram) -> Iterator[Phase]:
        phases: List[_PhaseRecord] = []
        slots: List[Optional[list]] = []
        self._programs[key] = phases
        self._phase_slots[key] = slots
        self._complete[key] = False
        for phase in source:
            phases.append(
                (
                    phase.compute_cycles,
                    phase.wait_for_replies,
                    tuple(_record_request(r) for r in phase.requests),
                )
            )
            if self.recycle:
                slot = [len(phase.requests), phase]
                for request in phase.requests:
                    request._slot = slot
                slots.append(slot)
            else:
                slots.append(None)
            yield phase
        self._complete[key] = True

    def _replay(self, key: Tuple[int, int, int], phases: List[_PhaseRecord]) -> Iterator[Phase]:
        slots = self._phase_slots.get(key) if self.recycle else None
        index = 0
        for compute_cycles, wait_for_replies, records in phases:
            slot = slots[index] if slots is not None else None
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
                        fresh = _replay_request(records[idx])
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
                index += 1
                yield phase
                continue
            requests = [_replay_request(r) for r in records]
            phase = Phase(
                compute_cycles=compute_cycles,
                requests=requests,
                wait_for_replies=wait_for_replies,
            )
            if slots is not None:
                slot = [len(requests), phase]
                for request in requests:
                    request._slot = slot
                slots[index] = slot
            index += 1
            yield phase


class ReplayKernelInstance(KernelInstance):
    """Kernel instance whose warp programs go through a replay cache.

    The cache is shared across launches of the same kernel (it lives on
    the system, keyed by kernel id), so the second and later launches of
    a looping kernel skip RNG and address-encoding work entirely.
    """

    def __init__(self, spec, ctx, kernel_id: int, seed: int, cache: WarpProgramCache) -> None:
        super().__init__(spec, ctx, kernel_id, seed=seed)
        self._cache = cache

    def warp_program(self, sm_slot: int, warp: int) -> WarpProgram:
        key = (self.kernel_id, sm_slot, warp)
        return self._cache.program(key, lambda: super(ReplayKernelInstance, self).warp_program(sm_slot, warp))
