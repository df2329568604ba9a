"""The benchmark's four workloads and the sweep entry point each one drives.

Every workload is a closed loop over one grid of competitive cells: a
worker takes its next cell only when the current one has finished.  A
run pre-warms one store as the workload defines; each repetition copies
it and runs the timed phase, from the start of the sweep until every
cell of the grid has an outcome.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.policies import PAPER_POLICY_ORDER
from repro.experiments.parallel import GridTask, grid_store_keys
from repro.experiments.runner import CompetitiveOutcome, ExperimentScale, Runner
from repro.experiments.sweep import (
    DEFAULT_GPU_SUBSET,
    DEFAULT_PIM_SUBSET,
    default_grid_tasks,
    run_sweep,
)
from repro.store import ResultStore

#: How long the fabric coordinator keeps serving after completion, so
#: polling workers see ``done`` and exit (outside the timed phase).
FABRIC_LINGER_S = 1.0

#: Upper bound on any single wait for a worker process or thread.  Also
#: the pool's per-cell timeout, which puts a one-worker sweep on the
#: supervised pool (``run_sweep`` runs it in-process otherwise).
WAIT_LIMIT_S = 60.0

#: Workers in the timed phase of the pool and fabric workloads.  With one
#: per core (two on the machine this was tuned on) the coordinating
#: process contends with them, and a slow phase of the shared host
#: stretched their makespan twice as much as the serial workloads' wall
#: time; with one worker the per-cell dispatch, lease, ledger and store
#: costs are measured without that contention.
TIMED_WORKERS = 1

#: A contended kernel still running after this many times its standalone
#: duration is scored as starved.  ``repro sweep`` uses 15; at the small
#: scales a benchmark can afford, whether a starving cell finishes before
#: a 15x cutoff flips from seed to seed and moved a grid's simulated
#: cycles by up to 30% between seeds.  A 3x cutoff keeps every policy in
#: the grid while bounding that tail, so seeds cost alike.
STARVATION_FACTOR = 3


@dataclass(frozen=True)
class Workload:
    name: str
    channels: int
    workload_scale: float
    gpus: Tuple[str, ...]
    pims: Tuple[str, ...]
    policies: Tuple[str, ...]
    vcs: Tuple[int, ...]
    #: "none": cold store; "standalones": the FR-FCFS baselines of every
    #: kernel; "half": every other cell of the grid.
    prewarm: str
    #: "serial": run_sweep in-process; "pool": run_sweep through the
    #: supervised process pool; "fabric": FabricCoordinator plus
    #: ``repro fabric work`` processes over localhost.
    driver: str
    #: Host seconds allotted to one repetition, its share of the
    #: pre-warm included, on the 2-vCPU Xeon this was tuned on.  A run
    #: makes ``--seconds // rep_s`` repetitions (at least two), a count
    #: that does not depend on how fast the host happens to be.
    rep_s: float

    def scale(self, seed: int) -> ExperimentScale:
        return ExperimentScale(
            num_channels=self.channels,
            workload_scale=self.workload_scale,
            seed=seed,
            starvation_factor=STARVATION_FACTOR,
        )

    def tasks(self) -> List[GridTask]:
        return default_grid_tasks(self.gpus, self.pims, self.policies, self.vcs)


_SUBSET = dict(gpus=DEFAULT_GPU_SUBSET, pims=DEFAULT_PIM_SUBSET)
_RESUME = dict(
    channels=4,
    # Small cells, yet large enough that a seed's grid costs about the
    # same as any other's (3% spread in simulated cycles; 0.002 gave 18%).
    workload_scale=0.004,
    policies=tuple(PAPER_POLICY_ORDER),
    vcs=(1, 2),
    prewarm="half",
    **_SUBSET,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The headline number: a cold mini paper grid covering every
        # policy, both VC configurations and the standalone baselines.
        Workload(
            name="paper_grid",
            channels=8,
            workload_scale=0.04,
            gpus=("G17",),
            pims=("P1",),
            policies=tuple(PAPER_POLICY_ORDER),
            vcs=(1, 2),
            prewarm="none",
            driver="serial",
            rep_s=10.0,
        ),
        # The paper's own configuration: F3FS.decide, VC2 iSlip and
        # VCBuffer.heads over L2-filtered (G19), low-locality (G6) and
        # high row-hit (G17) traffic; baselines are pre-warmed.
        Workload(
            name="f3fs_vc2",
            channels=8,
            workload_scale=0.10,
            policies=("F3FS",),
            vcs=(2,),
            prewarm="standalones",
            driver="serial",
            rep_s=5.0,
            **_SUBSET,
        ),
        # A half-done campaign of small cells resumed through the
        # supervised pool: store reads and writes, fingerprints, system
        # builds and pool dispatch on every cell.
        Workload(
            name="resume_pool",
            driver="pool",
            rep_s=10.0,
            **_RESUME,
        ),
        # The same resume through the HTTP lease fabric: lease round
        # trips, the fsynced ledger and the journal.
        Workload(
            name="resume_fabric",
            driver="fabric",
            rep_s=15.0,
            **_RESUME,
        ),
    )
}


def prewarm(workload: Workload, scale: ExperimentScale, store_dir: Path) -> None:
    """Fill a fresh store with the work the workload treats as done."""
    if workload.prewarm == "standalones":
        runner = Runner(scale, store=ResultStore(store_dir))
        for vcs in workload.vcs:
            for gid in workload.gpus:
                runner.gpu_standalone(gid, num_vcs=vcs)
            for pid in workload.pims:
                runner.pim_standalone(pid, num_vcs=vcs)
    elif workload.prewarm == "half":
        report = run_sweep(
            scale,
            workload.tasks()[::2],
            store_dir=str(store_dir),
            max_workers=os.cpu_count() or 1,
        )
        if report.failed:
            raise RuntimeError(f"pre-warm quarantined {report.failed} cell(s)")
    else:
        ResultStore(store_dir)


@dataclass
class SweepResult:
    """What the timed phase left behind, for checking and accounting."""

    outcomes: List
    quarantined: int = 0
    retries: int = 0
    crashed_workers: int = 0
    counters: Optional[Dict] = None  # EngineCounters snapshot (traced runs)


def run_timed(
    workload: Workload,
    scale: ExperimentScale,
    tasks: Sequence[GridTask],
    store_dir: Path,
    work_dir: Path,
    traced: bool,
    clock,
) -> Tuple[float, float, SweepResult]:
    """Run the timed phase; returns ``(start, end, result)`` on ``clock``."""
    if workload.driver == "fabric":
        return _run_fabric(workload, scale, tasks, store_dir, work_dir, traced, clock)
    start = clock()
    report = run_sweep(
        scale,
        tasks,
        store_dir=str(store_dir),
        max_workers=TIMED_WORKERS,
        collect_perf=traced,
        cell_timeout=WAIT_LIMIT_S if workload.driver == "pool" else None,
    )
    end = clock()
    retries = [e for e in report.retry_events if e.get("kind") == "retry"]
    return (
        start,
        end,
        SweepResult(
            outcomes=list(report.outcomes),
            quarantined=report.failed,
            retries=len(retries),
            # A pool child that dies surfaces as a retried "crash" cell.
            crashed_workers=sum(1 for e in retries if e.get("failure") == "crash"),
            counters=report.counters.snapshot() if report.counters else None,
        ),
    )


def worker_command(address: str, scratch: Path, worker_id: str, traced: bool, trace_dir: Path):
    if traced:
        here = Path(__file__).resolve().parent
        return [
            sys.executable,
            str(here / "fabric_worker.py"),
            "--connect", address,
            "--scratch-dir", str(scratch),
            "--id", worker_id,
            "--trace-dir", str(trace_dir),
        ]
    return [
        sys.executable, "-m", "repro", "fabric", "work",
        "--connect", address,
        "--scratch-dir", str(scratch),
        "--id", worker_id,
    ]


def _run_fabric(workload, scale, tasks, store_dir, work_dir, traced, clock):
    from repro.fabric import FabricCoordinator, run_campaign

    coordinator = FabricCoordinator(scale, tasks, str(store_dir))
    announced = threading.Event()
    outcome: Dict = {}

    def serve() -> None:
        try:
            outcome["summary"] = run_campaign(
                coordinator, linger=FABRIC_LINGER_S, announce=lambda c: announced.set()
            )
        except BaseException as exc:  # reported by the caller below
            outcome["error"] = exc
            announced.set()

    procs: List[subprocess.Popen] = []
    start = clock()
    # A daemon, so a campaign that never completes cannot keep the
    # benchmark process alive after it has reported the failure.
    server = threading.Thread(target=serve, name="fabric-coordinator", daemon=True)
    server.start()
    try:
        announced.wait(WAIT_LIMIT_S)
        if "error" in outcome:
            raise RuntimeError(f"fabric coordinator failed: {outcome['error']!r}")
        for i in range(TIMED_WORKERS):
            scratch = work_dir / f"worker-{i}"
            procs.append(
                subprocess.Popen(
                    worker_command(coordinator.address, scratch, f"w{i}", traced, work_dir / "trace"),
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        if not coordinator.completed_event.wait(WAIT_LIMIT_S):
            raise RuntimeError("fabric campaign did not complete in time")
        end = clock()
    finally:
        crashed = _reap(procs, kill=not coordinator.completed_event.is_set())
        server.join(WAIT_LIMIT_S)
    if "error" in outcome:
        raise RuntimeError(f"fabric coordinator failed: {outcome['error']!r}")
    summary = outcome["summary"]
    # Per cell, so a quarantined cell shows as a missing outcome.
    outcomes = []
    for key in grid_store_keys(scale, tasks):
        fields = coordinator.store.get(key, kind="competitive")
        outcomes.append(CompetitiveOutcome(**fields) if fields is not None else None)
    journal = coordinator.store.journal_entries()
    retries = sum(1 for e in journal if e.get("event") in ("fabric_expire", "fabric_fail"))
    return (
        start,
        end,
        SweepResult(
            outcomes=outcomes,
            quarantined=summary["failed"],
            retries=retries,
            crashed_workers=crashed,
        ),
    )


def _reap(procs: List[subprocess.Popen], kill: bool) -> int:
    """Wait for every worker to exit (killing it first if ``kill``);
    returns how many exited non-zero."""
    crashed = 0
    for proc in procs:
        if kill:
            proc.kill()
        try:
            code = proc.wait(WAIT_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        if code != 0:
            crashed += 1
    return crashed
