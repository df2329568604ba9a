"""Exact controller wake-ups against a decide-every-cycle reference.

A memory controller sleeps after an idle decision until the earliest
cycle at which a time-driven input of ``decide()`` can change (bank
``accept_at``, PIM ``busy_until``, refresh, the policy's epoch clock) or
an enqueue wakes it.  That is only sound if no decision it skips could
have come out differently.  The reference here never skips one: its
controllers are dirty before every tick and the system ticks every
controller on every cycle with fast-forwarding off.  The whole
``SimResult`` must come out identical for every registered policy,
including short BLISS and Dyn-F3FS epochs that land inside idle windows.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import SystemConfig
from repro.core.controller import NEVER, MemoryController
from repro.core.policies import PAPER_POLICY_ORDER, PolicySpec, make_policy
from repro.dram.channel import Channel
from repro.dram.timings import DRAMTimings
from repro.pim.executor import PIMExecutor
from repro.pim.isa import PIMOp, PIMOpKind
from repro.request import Request, RequestType, reset_request_ids
from repro.sim.system import GPUSystem
from repro.workloads import get_gpu_kernel, get_pim_kernel

MAX_CYCLES = 8_000

POLICIES = [PolicySpec(name) for name in PAPER_POLICY_ORDER] + [
    PolicySpec("Dyn-F3FS"),
    PolicySpec("SMS"),
    PolicySpec("BLISS", clear_interval=97),
    PolicySpec("Dyn-F3FS", epoch=61),
]
PAIRS = [("G17", "P1"), ("G6", "P7")]


class _EveryCycleController(MemoryController):
    """A controller whose wake gate never closes."""

    def tick(self, cycle):
        self._dirty = True
        return super().tick(cycle)


class _DecideEveryCycleSystem(GPUSystem):
    """Every controller stays active and decides on every cycle."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for controller in self.controllers:
            controller.__class__ = _EveryCycleController

    def _stage_controllers(self) -> None:
        cycle = self.cycle
        for ch, controller in enumerate(self.controllers):
            if controller.tick(cycle) is not None:
                self._busy_channels.add(ch)


def _run(system_cls, policy, vcs, refresh, gpu, pim):
    reset_request_ids()
    config = SystemConfig.scaled(
        num_channels=4, num_sms=4, noc_queue_size=32, banks_per_channel=8
    ).replace(num_virtual_channels=vcs, refresh_enabled=refresh)
    system = system_cls(
        config, policy, seed=1, scale=0.08,
        fast_forward=system_cls is GPUSystem,
    )
    system.add_kernel(get_gpu_kernel(gpu), num_sms=2)
    system.add_kernel(get_pim_kernel(pim), num_sms=2, loop=True)
    return dataclasses.asdict(system.run(max_cycles=MAX_CYCLES))


@pytest.mark.parametrize("gpu,pim", PAIRS, ids=lambda v: v)
@pytest.mark.parametrize("refresh", [False, True], ids=["norefresh", "refresh"])
@pytest.mark.parametrize("vcs", [1, 2], ids=["vc1", "vc2"])
@pytest.mark.parametrize(
    "policy", POLICIES, ids=lambda spec: "-".join([spec.name, *map(str, spec.params.values())])
)
def test_exact_wakes_match_decide_every_cycle(policy, vcs, refresh, gpu, pim):
    reference = _run(_DecideEveryCycleSystem, policy, vcs, refresh, gpu, pim)
    assert _run(GPUSystem, policy, vcs, refresh, gpu, pim) == reference


def _controller(policy_name, **params):
    channel = Channel(0, 4, DRAMTimings())
    pim_exec = PIMExecutor(channel, fus_per_channel=2, rf_entries_per_bank=8)
    return MemoryController(channel, pim_exec, make_policy(policy_name, **params))


def _mem(bank, row):
    request = Request(type=RequestType.MEM_LOAD, address=0)
    request.channel, request.bank, request.row, request.column = 0, bank, row, 0
    return request


def _pim(row):
    request = Request(type=RequestType.PIM, address=0, pim_op=PIMOp(PIMOpKind.LOAD))
    request.channel, request.bank, request.row, request.column = 0, 0, row, 0
    return request


class TestIdleWake:
    def test_empty_queues_sleep_until_enqueue(self):
        ctl = _controller("FCFS")
        assert ctl.tick(0) is None
        assert ctl.next_wake_cycle(0) == NEVER

    def test_waits_for_the_busy_bank(self):
        ctl = _controller("FCFS")
        ctl.enqueue(_mem(bank=0, row=1), 0)
        ctl.enqueue(_mem(bank=0, row=2), 0)
        assert ctl.tick(0) is not None
        assert ctl.tick(1) is None
        accept_at = ctl.channel.banks[0].state.accept_at
        assert accept_at > 2
        assert ctl.next_wake_cycle(1) == accept_at

    def test_waits_for_the_busy_pim_unit(self):
        ctl = _controller("FCFS")
        ctl.enqueue(_pim(row=1), 0)
        ctl.enqueue(_pim(row=2), 0)
        assert ctl.tick(0) is None  # begins the switch to PIM mode
        assert ctl.tick(1) is not None
        assert ctl.tick(2) is None
        assert ctl.pim_exec.busy_until > 3
        assert ctl.next_wake_cycle(2) == ctl.pim_exec.busy_until

    @pytest.mark.parametrize("name,params,wake", [
        ("F3FS", {}, 500),
        ("Dyn-F3FS", {"epoch": 61}, 61),
        ("BLISS", {"clear_interval": 97}, 97),
    ])
    def test_policy_epoch_bounds_the_sleep(self, name, params, wake):
        ctl = _controller(name, **params)
        ctl.channel.banks[0].state.accept_at = 500
        ctl.enqueue(_mem(bank=0, row=1), 50)
        assert ctl.tick(50) is None
        assert ctl.next_wake_cycle(50) == wake

    def test_refresh_deadline_bounds_the_sleep(self):
        ctl = _controller("FCFS")
        ctl.refresh.enabled = True
        ctl.channel.banks[0].state.accept_at = NEVER - 1
        ctl.enqueue(_mem(bank=0, row=1), 0)
        assert ctl.tick(0) is None
        assert ctl.next_wake_cycle(0) == ctl.refresh.next_due_cycle()

    def test_completion_does_not_wake(self):
        ctl = _controller("FCFS")
        ctl.enqueue(_mem(bank=0, row=1), 0)
        ctl.tick(0)
        done_at = ctl.channel.next_completion_cycle()
        ctl.tick(1)
        assert ctl.pop_completed(done_at)
        assert not ctl._dirty
