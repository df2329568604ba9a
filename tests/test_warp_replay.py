"""Process-wide warp-program replay in ``KernelInstance.warp_program``.

A synthetic warp program is a pure function of its replay key (the spec,
the launch geometry, the seed, the SM slot and the warp), so the first
program to run to exhaustion is recorded and later launches replay it.
These tests pin the replayed streams to the golden digests, check that
every key input separates programs, keep non-replayable specs out of the
memo, and bound the memo.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.gpu.kernel as kernel_mod
from repro.config import SystemConfig
from repro.core.policies import PolicySpec
from repro.dram.address import AddressMapper, scaled_address_map
from repro.engine_soa import create_system
from repro.gpu.kernel import KernelInstance
from repro.request import reset_request_ids
from repro.workloads import TraceKernel, get_gpu_kernel, get_pim_kernel, save_trace
from repro.pim.isa import PIMOpKind
from repro.workloads.synthetic import GPUKernelProfile, PIMStreamKernel
from tests.test_golden_streams import GOLDEN, KERNELS, SEED, WARPS, make_ctx, stream_digest


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty memo for the duration of one test."""
    fresh = kernel_mod._WarpMemo(kernel_mod.WARP_MEMO_REQUESTS)
    monkeypatch.setattr(kernel_mod, "_warp_memo", fresh)
    return fresh


def _drain(instance, sm_slot=0, warp=0):
    return [request for phase in instance.warp_program(sm_slot, warp) for request in phase.requests]


@pytest.mark.parametrize("kid", sorted(KERNELS, key=lambda k: (k[0], int(k[1:]))))
def test_replayed_launch_matches_golden(kid, memo, monkeypatch):
    spec = KERNELS[kid]
    assert stream_digest(spec) == GOLDEN[kid]
    assert len(memo.programs) == len(WARPS)

    def regenerate(*args, **kwargs):
        raise AssertionError("a memoised warp program was generated again")

    monkeypatch.setattr(type(spec), "warp_program", regenerate)
    assert stream_digest(spec) == GOLDEN[kid]


def _changed(spec, field):
    value = getattr(spec, field.name)
    if field.name == "kind":
        return "pim" if value == "gpu" else "gpu"
    if field.name == "layout":
        return "separate_rows" if value == "same_row" else "same_row"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 0.5
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, tuple):
        return value[:-1] if len(value) > 1 else value + value
    raise AssertionError(f"no variant for {field.name}={value!r}")


def _variants():
    """(label, spec, ctx, seed): one input of the base launch changed each."""
    for kid in ("G17", "P1", "P7"):
        spec = KERNELS[kid]
        for field in dataclasses.fields(spec):
            changed = dataclasses.replace(spec, **{field.name: _changed(spec, field)})
            yield f"{kid}.{field.name}", kid, changed, make_ctx(), SEED
        for name, value in (
            ("mapper", AddressMapper(scaled_address_map(8))),
            ("num_channels", 8),
            ("banks_per_channel", 8),
            ("num_sms", 3),
            ("warps_per_sm", 2),
            ("scale", 0.03),
            ("rf_entries_per_bank", 16),
        ):
            ctx = make_ctx()
            setattr(ctx, name, value)
            yield f"{kid}.ctx.{name}", kid, spec, ctx, SEED
        yield f"{kid}.seed", kid, spec, make_ctx(), SEED + 1


VARIANTS = list(_variants())


@pytest.mark.parametrize("kid,spec,ctx,seed", [v[1:] for v in VARIANTS], ids=[v[0] for v in VARIANTS])
def test_any_key_input_misses_the_memo(kid, spec, ctx, seed, memo):
    _drain(KernelInstance(KERNELS[kid], make_ctx(), kernel_id=3, seed=SEED))
    assert len(memo.programs) == 1
    _drain(KernelInstance(spec, ctx, kernel_id=3, seed=seed))
    assert len(memo.programs) == 2


class _Subclass(GPUKernelProfile):
    """A subclass may generate launch-dependent programs."""


def test_non_replayable_specs_stay_out(memo, tmp_path):
    # A trace, a subclass, and a spec whose fields cannot be hashed into
    # a key all generate afresh on every launch.
    ctx = make_ctx()
    path = tmp_path / "g17.trace"
    save_trace(get_gpu_kernel("G17"), ctx, path, sm_slots=1)
    fields = {f.name: getattr(get_gpu_kernel("G17"), f.name) for f in dataclasses.fields(GPUKernelProfile)}
    listed_ops = PIMStreamKernel(ops=[(PIMOpKind.LOAD, 0), (PIMOpKind.STORE, 1)])
    for spec in (TraceKernel(path), _Subclass(**fields), listed_ops):
        instance = KernelInstance(spec, make_ctx(), kernel_id=3, seed=SEED)
        assert _drain(instance)
        assert _drain(instance)
    assert not memo.programs


def test_abandoned_program_is_not_memoised(memo):
    # A run that ends mid-kernel leaves its warps' generators unexhausted.
    instance = KernelInstance(get_gpu_kernel("G17"), make_ctx(), kernel_id=3, seed=SEED)
    program = instance.warp_program(0, 0)
    next(program)
    program.close()
    assert not memo.programs


def test_memo_stays_within_its_bound(memo):
    memo.capacity = 200
    instance = KernelInstance(get_pim_kernel("P1"), make_ctx(), kernel_id=3, seed=SEED)
    first = (instance._replay_key, 0, 0)
    for sm_slot in range(2):
        for warp in range(4):
            _drain(instance, sm_slot, warp)
            assert 0 < memo.requests <= memo.capacity
            assert memo.requests == sum(size for _, size in memo.programs.values())
    assert first not in memo.programs  # the least recently used went first
    memo.capacity = 1  # a program larger than the whole memo is not kept
    _drain(instance, 2, 0)
    assert not memo.programs and memo.requests == 0


def _state(request):
    """Every field of a request except its global id."""
    return {f.name: getattr(request, f.name) for f in dataclasses.fields(request) if f.name != "id"}


def test_replayed_requests_are_fresh_and_match_a_generated_launch(memo):
    spec = get_gpu_kernel("G17")
    recorded = _drain(KernelInstance(spec, make_ctx(), kernel_id=3, seed=SEED))
    recorded[0].cycle_issued = 99  # requests are mutated in flight
    # The generator stamps ctx.kernel_id, so replay must too, even when
    # the instance was built with another id.
    ctx = make_ctx()
    ctx.kernel_id = 7
    instance = KernelInstance(spec, ctx, kernel_id=5, seed=SEED)
    replayed = _drain(instance)
    assert len(memo.programs) == 1
    instance._replay_key = None  # the same launch, generated without the memo
    generated = _drain(instance)
    assert len(replayed) == len(generated) == len(recorded)
    for old, new, reference in zip(recorded, replayed, generated):
        assert new is not old and new.id > old.id
        assert _state(new) == _state(reference)
    assert {request.kernel_id for request in replayed} == {7}


@pytest.mark.parametrize(
    "short,long",
    # A short GPU kernel relaunched beside a long one recycles MEM
    # requests (rebuilt from the records); a PIM kernel relaunched beside
    # a GPU kernel recycles PIM requests in place.
    [(get_gpu_kernel("G6"), get_gpu_kernel("G1")), (get_pim_kernel("P7"), get_gpu_kernel("G17"))],
    ids=["G6+G1", "P7+G17"],
)
def test_soa_recycling_replays_the_memo_records(short, long, memo):
    # A cold memo: the SoA system generates the first launches, then
    # recycles requests over the memo's own records (it keeps none of
    # its own) and must still match the object engine.
    results = {}
    for backend in ("soa", "object"):
        reset_request_ids()
        config = SystemConfig.scaled(num_channels=2, num_sms=3, noc_queue_size=16, banks_per_channel=8)
        system = create_system(config, PolicySpec("FR-FCFS"), backend=backend, seed=SEED, scale=0.04)
        system.add_kernel(short, num_sms=1, loop=True)
        system.add_kernel(long, num_sms=2, loop=True)
        result = system.run(max_cycles=12_000)
        results[backend] = dataclasses.asdict(result)
        if backend == "soa":
            assert result.kernels[0].completions >= 3  # a recycled launch
            entries = system._warp_cache._entries.values()
            recorded = {id(phases) for phases, _ in memo.programs.values()}
            assert entries and all(id(phases) in recorded for phases, _ in entries)
    assert results["soa"] == results["object"]
