"""Kernel and warp-program abstractions.

A kernel is described by a :class:`KernelSpec` (see
:mod:`repro.workloads`); launching it produces a :class:`KernelInstance`
bound to a set of SM slots.  Each warp executes a *program*: an iterator of
:class:`Phase` objects.  A phase is a stretch of compute cycles followed by
a burst of memory requests; load phases block the warp until every reply
returns (the GPU core model), while PIM/store phases are fire-and-forget
(bounded only by queue backpressure, matching cache-streaming stores).
"""

from __future__ import annotations

import abc
import copy
import dataclasses
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.request import Request


@dataclass
class Phase:
    """One compute-then-memory step of a warp."""

    compute_cycles: int
    requests: List[Request] = field(default_factory=list)
    wait_for_replies: bool = True

    def __post_init__(self) -> None:
        if self.compute_cycles < 0:
            raise ValueError("compute_cycles must be non-negative")


WarpProgram = Iterator[Phase]


class KernelSpec(abc.ABC):
    """Recipe for a kernel's memory behaviour.

    Subclasses generate warp programs lazily; every instantiation (launch)
    runs fresh programs, which is how kernels are re-run in a loop for the
    co-execution methodology (Section III-B).  A replayable spec's later
    launches replay a recorded program (see :class:`KernelInstance`).
    """

    #: Human-readable benchmark name (e.g. ``"gaussian"`` or ``"Stream Add"``).
    name: str = "kernel"
    #: ``"gpu"`` for load/store kernels, ``"pim"`` for PIM kernels.
    kind: str = "gpu"

    @abc.abstractmethod
    def warp_program(self, ctx: "LaunchContext", sm_slot: int, warp: int) -> WarpProgram:
        """Yield this warp's phases."""

    def warps_per_sm(self, ctx: "LaunchContext") -> int:
        return ctx.warps_per_sm

    def issue_width(self, ctx: "LaunchContext") -> int:
        """Requests the SM may inject per cycle when running this kernel.

        PIM kernels are tuned to saturate the memory-subsystem interface
        (Section V); on a dual-issue SM their streaming stores inject two
        requests per cycle, which is what lets eight SMs overwhelm the
        interconnect in the paper's characterization.
        """
        return 2 if self.is_pim else 1

    @property
    def is_pim(self) -> bool:
        return self.kind == "pim"


@dataclass
class LaunchContext:
    """Everything a spec needs to generate concrete addresses.

    ``scale`` linearly shrinks workload sizes so the same specs drive both
    quick tests and longer characterization runs.
    """

    mapper: object  # repro.dram.address.AddressMapper
    num_channels: int
    banks_per_channel: int
    num_sms: int  # SMs allocated to this kernel
    warps_per_sm: int
    rng: object  # numpy Generator
    scale: float = 1.0
    rf_entries_per_bank: int = 8
    kernel_id: int = 0

    def scaled(self, value: int, minimum: int = 1) -> int:
        return max(minimum, int(value * self.scale))


#: Spec classes whose warp programs are pure functions of the replay key
#: (see :class:`KernelInstance`); :mod:`repro.workloads.synthetic`
#: registers its generators here.  Matched by exact type: a subclass may
#: override ``warp_program`` with launch-dependent behaviour.
REPLAYABLE_SPECS: Set[type] = set()

#: Most request records the process-wide replay memo holds; the least
#: recently used warp programs are evicted first.  A record costs about
#: 100 bytes of RSS (200,000 records that were never replayed added
#: 19.4 MB and no wall time), so the memo stays under about 30 MB.
#: Sized for the scaled grids: all 20 x 9 kernel pairs at the default
#: ``ExperimentScale`` (co-runs and standalones, 282,176 records) fit,
#: so a policy-major sweep replays every cell after its first policy;
#: the benchmark workloads need at most 20,400.  One Table I sized pair
#: at scale 1.0 (G17 x P1: 507,904 records) fits only in part.
WARP_MEMO_REQUESTS = 300_000

#: One recorded request: (type, address, pim_op, channel, bank, row, column).
RequestRecord = Tuple[object, int, object, int, int, int, int]
#: One recorded phase: (compute_cycles, wait_for_replies, requests).
PhaseRecord = Tuple[int, bool, Tuple[RequestRecord, ...]]


def rebuild_request(record: RequestRecord, kernel_id: int) -> Request:
    """A fresh request with the recorded fields, stamped with ``kernel_id``."""
    rtype, address, pim_op, channel, bank, row, column = record
    request = Request(type=rtype, address=address, kernel_id=kernel_id, pim_op=pim_op)
    request.channel, request.bank, request.row, request.column = channel, bank, row, column
    return request


class _WarpMemo:
    """Replay key -> a warp's complete phase record, LRU, bounded in requests."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.requests = 0
        self.programs: "OrderedDict[tuple, Tuple[Tuple[PhaseRecord, ...], int]]" = OrderedDict()

    def get(self, key: tuple) -> Optional[Tuple[PhaseRecord, ...]]:
        entry = self.programs.get(key)
        if entry is None:
            return None
        self.programs.move_to_end(key)
        return entry[0]

    def put(self, key: tuple, phases: Tuple[PhaseRecord, ...]) -> None:
        old = self.programs.pop(key, None)
        if old is not None:
            self.requests -= old[1]
        size = sum(len(records) for _, _, records in phases)
        self.programs[key] = (phases, size)
        self.requests += size
        while self.requests > self.capacity:
            _, (_, evicted) = self.programs.popitem(last=False)
            self.requests -= evicted


_warp_memo = _WarpMemo(WARP_MEMO_REQUESTS)


def _replay_key(spec: KernelSpec, ctx: LaunchContext, seed: int) -> Optional[tuple]:
    """Every input a replayable spec's generator reads, minus the warp.

    The generator reads the spec's fields, the launch geometry and its
    RNG, which :meth:`KernelInstance.warp_program` seeds from ``seed``,
    the spec name, the SM slot and the warp.  ``ctx.rng`` is replaced per
    warp and ``ctx.kernel_id`` is stamped on replay, so neither is part
    of the key.  None when the spec is not replayable.
    """
    if type(spec) not in REPLAYABLE_SPECS:
        return None
    key = (
        type(spec),
        tuple(getattr(spec, f.name) for f in dataclasses.fields(spec)),
        type(ctx.mapper),
        ctx.mapper.spec,
        ctx.num_channels,
        ctx.banks_per_channel,
        ctx.num_sms,
        ctx.warps_per_sm,
        ctx.scale,
        ctx.rf_entries_per_bank,
        seed,
    )
    try:
        hash(key)
    except TypeError:  # a mutable field value (e.g. a list of ops)
        return None
    return key


def _record(key: tuple, program: WarpProgram) -> WarpProgram:
    """Pass ``program`` through, memoising it once it runs to exhaustion."""
    phases: List[PhaseRecord] = []
    ops: dict = {}  # equal (frozen) PIM ops share one object in the record
    for phase in program:
        phases.append(
            (
                phase.compute_cycles,
                phase.wait_for_replies,
                tuple(
                    (r.type, r.address, ops.setdefault(r.pim_op, r.pim_op),
                     r.channel, r.bank, r.row, r.column)
                    for r in phase.requests
                ),
            )
        )
        yield phase
    _warp_memo.put(key, tuple(phases))


def _replay(phases: Tuple[PhaseRecord, ...], kernel_id: int) -> WarpProgram:
    """Rebuild a recorded program with fresh requests, one phase at a time.

    Requests are mutated in flight, so every launch gets new objects,
    built at the same point of the generator protocol as the original
    (global request ids are consumed in the same order).
    """
    for compute_cycles, wait_for_replies, records in phases:
        yield Phase(compute_cycles, [rebuild_request(r, kernel_id) for r in records], wait_for_replies)


class KernelInstance:
    """One launch of a kernel across a set of SM slots.

    Each warp's program gets its own deterministic RNG seeded by
    ``(seed, spec name, sm_slot, warp)``.  The launch sequence number is
    deliberately *not* part of the seed: re-running a kernel in a loop
    (the co-execution methodology) replays the same trace, and standalone
    and contended runs of the same kernel see identical request streams —
    a prerequisite for meaningful speedup comparisons.

    The same fact makes a replayable spec's warp program a pure function
    of its replay key (``_replay_key``) plus the SM slot and warp.  The
    first program to run to exhaustion is recorded in a process-wide
    memo, and every later launch with the same key, in this simulation or
    any later one in the process, replays the record instead of drawing
    from the RNG again.
    """

    _next_launch = 0

    def __init__(
        self, spec: KernelSpec, ctx: LaunchContext, kernel_id: int, seed: int = 0
    ) -> None:
        self.spec = spec
        self.ctx = ctx
        self.kernel_id = kernel_id
        self.seed = seed
        self.launch_id = KernelInstance._next_launch
        KernelInstance._next_launch += 1
        self.cycle_launched: Optional[int] = None
        self.cycle_finished: Optional[int] = None
        self._replay_key = _replay_key(spec, ctx, seed)

    def recorded_program(self, sm_slot: int, warp: int) -> Optional[Tuple[PhaseRecord, ...]]:
        """This warp's memoised phase record, or None if there is none yet."""
        if self._replay_key is None:
            return None
        return _warp_memo.get((self._replay_key, sm_slot, warp))

    def warp_program(self, sm_slot: int, warp: int) -> WarpProgram:
        key = self._replay_key
        if key is not None:
            key = (key, sm_slot, warp)
            phases = _warp_memo.get(key)
            if phases is not None:
                # The generator stamps ``ctx.kernel_id``; so does replay.
                return _replay(phases, self.ctx.kernel_id)
        # Seed by the *spec name*, not the kernel id: the same kernel must
        # replay the same trace regardless of the order kernels were added
        # to a system (standalone vs co-execution runs).
        name_seed = zlib.crc32(self.spec.name.encode())
        ctx = copy.copy(self.ctx)
        ctx.rng = np.random.default_rng([self.seed, name_seed, sm_slot, warp])
        program = self.spec.warp_program(ctx, sm_slot, warp)
        return program if key is None else _record(key, program)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_pim(self) -> bool:
        return self.spec.is_pim

    @property
    def duration(self) -> Optional[int]:
        if self.cycle_finished is None or self.cycle_launched is None:
            return None
        return self.cycle_finished - self.cycle_launched
