"""Paper-grid host wall-time benchmark.

    python3 gridbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) from the root of a source
checkout: it pre-warms a store once, then repeats a timed phase on a
fresh copy of that store ``--seconds // rep_s`` times (at least twice;
``rep_s`` is the workload's fixed allotment per repetition, so the count
does not depend on host speed), and prints every metric by name and
unit.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0``: the end-to-end metrics, each the median over the
  repetitions; ``setup_s`` is the import time plus the pre-warm plus
  the median time to copy the pre-warmed store.
* ``--trace 1``: untraced and traced repetitions alternate; the
  per-layer metrics are medians over the traced ones, and
  ``trace.overhead_ratio`` is traced over untraced median wall time.

Every repetition is checked: the SHA-256 of the canonical ``sweep_rows``
must match ``expected_rows.json`` when the seed is recorded there and
must repeat across repetitions of the run, every cell must have a sane
outcome, and ``ResultStore.verify()`` must report no corrupt or stale
entry.  A failed check prints ``"correct": false`` and exits 1.  All
numbers are host time unless the name says cycles (simulated).
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".gridbench_work"
EXPECTED_ROWS = HERE / "expected_rows.json"
MIN_REPS = 2

STAGES = (
    "controllers",
    "mc_ingress",
    "crossbar",
    "l2",
    "writebacks",
    "sms",
    "completions",
    "replies",
    "kernel_completion",
)

END_TO_END_UNITS = {
    "grid_wall_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"sim.stage.{stage}_s": "s" for stage in STAGES},
    "gpu.warp_program_s": "s",
    "gpu.phases": "count",
    "sim.build_calls": "count",
    "sim.build_s": "s",
    "sim.run_s": "s",
    "sim.cycles": "cycles",
    "sim.steps": "count",
    "sim.cycles_skipped": "cycles",
    "sim.us_per_step": "us",
    "experiments.standalone_calls": "count",
    "experiments.standalone_s": "s",
    "experiments.corun_calls": "count",
    "experiments.corun_s": "s",
    "experiments.memo_hits": "count",
    "store.get_calls": "count",
    "store.get_s": "s",
    "store.hit_ratio": "ratio",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.fingerprint_s": "s",
    "resilience.makespan_s": "s",
    "resilience.worker_busy_frac": "ratio",
    "fabric.lease_p50_s": "s",
    "fabric.lease_p90_s": "s",
    "fabric.regrant_gap_p50_s": "s",
    "fabric.ledger_ops": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

#: Failure counters of a traced run.  They are 0 on every healthy run,
#: so they are printed but not reported as metrics (like failed_frac).
FAILURE_COUNTERS = ("resilience.retries", "resilience.quarantined", "fabric.rejects")

#: Public functions the self-test can slow down by a fixed busy wait.
DELAY_TARGETS = {
    "store.put": ("repro.store.disk", "ResultStore", "put"),
    "f3fs.decide": ("repro.core.policies.f3fs", "F3FS", "decide"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--delay",
        default=None,
        metavar="TARGET:SECONDS",
        help="self-test: busy-wait this long in every call of a public "
        f"function during the timed phase ({', '.join(DELAY_TARGETS)})",
    )
    return parser.parse_args(argv)


def clean_environment() -> None:
    """Drop every REPRO_* override; keep all scratch files in the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def install_delay(spec: str):
    """Wrap one public function with a fixed busy wait; returns the undo."""
    import importlib

    target, _, seconds = spec.partition(":")
    module_name, owner_name, attr = DELAY_TARGETS[target]
    owner = getattr(importlib.import_module(module_name), owner_name)
    original = getattr(owner, attr)
    delay = float(seconds)

    def delayed(*args, **kwargs):
        until = time.perf_counter() + delay
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    setattr(owner, attr, delayed)
    return lambda: setattr(owner, attr, original)


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def row_is_sane(row) -> bool:
    numbers = (row["gpu_speedup"], row["pim_speedup"], row["fairness"], row["throughput"])
    return row["cycles"] > 0 and all(math.isfinite(x) and x > 0 for x in numbers)


def simulated_cycles(store, entries) -> int:
    """Cycles of every run whose result the timed phase put in the store."""
    total = 0
    for entry in entries:
        if entry.get("event") == "put":
            document = json.loads(store.object_path(entry["key"]).read_text())
            total += document["value"]["cycles"]
    return total


def run_rep(workload, seed, index, traced, run_dir, template, delay):
    """One set-up (a copy of the pre-warmed store) plus timed phase."""
    from repro.experiments.sweep import sweep_rows
    from repro.store import ResultStore
    from tracer import Tracer, clock
    from workloads import run_timed

    rep_dir = run_dir / f"rep{index}"
    store_dir = rep_dir / "store"
    trace_dir = rep_dir / "trace"
    trace_dir.mkdir(parents=True)
    scale = workload.scale(seed)
    tasks = workload.tasks()

    setup_start = clock()
    shutil.copytree(template, store_dir)
    setup_s = clock() - setup_start
    store = ResultStore(store_dir)
    mark = len(store.journal_entries())

    tracer = Tracer(trace_dir) if traced else None
    undo_delay = install_delay(delay) if delay else None
    if tracer is not None:
        tracer.install()
    try:
        start, end, result = run_timed(workload, scale, tasks, store_dir, rep_dir, traced, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if undo_delay is not None:
            undo_delay()
    wall = end - start
    journal = store.journal_entries()[mark:]

    rows = sweep_rows([o for o in result.outcomes if o is not None])
    missing = sum(1 for o in result.outcomes if o is None)
    insane = sum(1 for row in rows if not row_is_sane(row))
    verify = store.verify()
    rep = {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall,
        "cycles": simulated_cycles(store, journal),
        "cells": len(tasks),
        "digest": rows_digest(rows),
        "missing": missing,
        "insane": insane,
        "crashed_workers": result.crashed_workers,
        "dirty_store": len(verify["corrupt"]) + len(verify["stale"]),
    }
    if traced:
        rep["layers"] = layer_metrics(start, end, result, journal, trace_dir, store_dir)
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(start, end, result, journal, trace_dir, store_dir):
    """Per-layer metrics of one traced timed phase (see ``PER_LAYER_UNITS``)."""
    from repro.fabric import LEDGER_FILENAME, ledger_summary
    from tracer import covered_seconds, load_spans, self_times
    from workloads import TIMED_WORKERS

    spans, totals = load_spans(trace_dir)
    spans = [s for s in spans if s["start"] >= start and s["end"] <= end]
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    names = {}
    for span in spans:
        names.setdefault(span["name"], []).append(span)

    def count(name):
        return len(names.get(name, ()))

    def self_s(name):
        return sum(selfs[s["id"]] for s in names.get(name, ()))

    def duration(span):
        return span["end"] - span["start"]

    def nearest(span, wanted):
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in wanted:
            parent = by_id.get(parent["parent"])
        return parent

    experiment_spans = ("experiments.corun", "experiments.standalone")
    worked = set()
    for span in names.get("sim.run", ()) + names.get("store.get", ()):
        parent = by_id.get(span["parent"])
        while parent is not None:
            worked.add(parent["id"])
            parent = by_id.get(parent["parent"])
    runs = names.get("sim.run", ())
    owners = [nearest(s, experiment_spans) for s in runs]
    standalone_in = {}
    for span in names.get("experiments.standalone", ()):
        standalone_in[span["parent"]] = standalone_in.get(span["parent"], 0.0) + duration(span)
    steps = sum(s["attrs"]["steps"] for s in runs)
    run_s = self_s("sim.run")
    gets = names.get("store.get", ())

    stages = {"seconds": {}}
    if result.counters is not None:
        stages = result.counters
    for path in trace_dir.glob("counters-*.json"):
        for stage, value in json.loads(path.read_text())["seconds"].items():
            stages["seconds"][stage] = stages["seconds"].get(stage, 0.0) + value

    makespan = end - start
    busy = sum(duration(s) for s in names.get("experiments.corun", ()))

    leases, completes, gaps = {}, [], []
    last_complete = {}
    for entry in sorted(journal, key=lambda e: e.get("ts", 0.0)):
        event = entry.get("event")
        if event == "fabric_lease":
            leases[entry["lease_id"]] = entry["ts"]
            if entry["worker"] in last_complete:
                gaps.append(entry["ts"] - last_complete.pop(entry["worker"]))
        elif event == "fabric_complete" and entry["lease_id"] in leases:
            completes.append(entry["ts"] - leases[entry["lease_id"]])
            last_complete[entry["worker"]] = entry["ts"]
    ledger_path = Path(store_dir) / LEDGER_FILENAME
    ledger_ops = ledger_summary(ledger_path)["records"] if ledger_path.exists() else 0

    metrics = {
        **{f"sim.stage.{stage}_s": stages["seconds"].get(stage, 0.0) for stage in STAGES},
        "gpu.warp_program_s": totals.get("gpu.warp_program_s", 0.0),
        "gpu.phases": int(totals.get("gpu.warp_program_n", 0)),
        "sim.build_calls": count("sim.build"),
        "sim.build_s": self_s("sim.build"),
        "sim.run_s": run_s,
        "sim.cycles": sum(s["attrs"]["cycles"] for s in runs),
        "sim.steps": steps,
        "sim.cycles_skipped": sum(s["attrs"]["skipped"] for s in runs),
        "sim.us_per_step": run_s / steps * 1e6 if steps else 0.0,
        "experiments.standalone_calls": sum(
            1 for o in owners if o is not None and o["name"] == "experiments.standalone"
        ),
        "experiments.standalone_s": sum(
            duration(s) for s in names.get("experiments.standalone", ())
        ),
        "experiments.corun_calls": sum(
            1 for o in owners if o is not None and o["name"] == "experiments.corun"
        ),
        "experiments.corun_s": sum(
            duration(s) - standalone_in.get(s["id"], 0.0)
            for s in names.get("experiments.corun", ())
        ),
        "experiments.memo_hits": sum(
            1
            for name in experiment_spans
            for s in names.get(name, ())
            if s["id"] not in worked
        ),
        "store.get_calls": len(gets),
        "store.get_s": self_s("store.get"),
        "store.hit_ratio": (
            sum(1 for s in gets if s["attrs"].get("hit")) / len(gets) if gets else 0.0
        ),
        "store.put_calls": count("store.put"),
        "store.put_s": self_s("store.put"),
        "store.fingerprint_s": self_s("store.fingerprint"),
        "resilience.makespan_s": makespan,
        "resilience.worker_busy_frac": busy / (makespan * TIMED_WORKERS) if makespan else 0.0,
        "resilience.retries": result.retries,
        "resilience.quarantined": result.quarantined,
        "fabric.lease_p50_s": _quantile(completes, 0.5),
        "fabric.lease_p90_s": _quantile(completes, 0.9),
        "fabric.regrant_gap_p50_s": _quantile(gaps, 0.5),
        "fabric.rejects": sum(1 for e in journal if e.get("event") == "fabric_reject"),
        "fabric.ledger_ops": ledger_ops,
        "trace.unattributed_s": makespan - covered_seconds(spans, start, end),
    }
    return metrics


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment_stamp():
    from repro.store import code_version

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": checkout_commit(),
        "code_version": code_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def checkout_commit():
    """The checkout's ``HEAD`` commit, or None when git is absent or the
    checkout is not a repository (git may not look above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def check_reps(reps, expected):
    """Returns ``(failed_cells, problems)`` over every repetition."""
    failed = 0
    problems = []
    first = reps[0]["digest"]
    for i, rep in enumerate(reps):
        # A quarantined cell has no outcome, so it counts as missing.
        bad = rep["missing"] + rep["insane"] + rep["crashed_workers"]
        if expected is not None and rep["digest"] != expected:
            problems.append(f"rep {i}: rows digest {rep['digest']} != recorded {expected}")
            bad = rep["cells"]
        elif rep["digest"] != first:
            problems.append(f"rep {i}: rows digest {rep['digest']} differs from rep 0")
            bad = rep["cells"]
        if rep["dirty_store"]:
            problems.append(f"rep {i}: ResultStore.verify() found {rep['dirty_store']} bad entries")
            bad = max(bad, rep["dirty_store"])
        if rep["missing"] or rep["insane"]:
            problems.append(f"rep {i}: {rep['missing']} missing and {rep['insane']} insane rows")
        if rep["crashed_workers"]:
            problems.append(f"rep {i}: {rep['crashed_workers']} worker(s) exited non-zero")
        failed += min(bad, rep["cells"])
    return failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    clean_environment()
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    import_s = time.monotonic() - _STARTED
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.delay and args.delay.partition(":")[0] not in DELAY_TARGETS:
        print(f"error: --delay target must be one of {', '.join(DELAY_TARGETS)}", file=sys.stderr)
        return 2

    from workloads import prewarm

    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    template = run_dir / "template"
    # With --trace 1, untraced and traced repetitions alternate.
    count = max(MIN_REPS, int(args.seconds // workload.rep_s))
    reps = []
    try:
        began = time.monotonic()
        prewarm(workload, workload.scale(args.seed), template)
        prewarm_s = time.monotonic() - began
        for index in range(count):
            traced = bool(args.trace) and index % 2 == 1
            reps.append(run_rep(workload, args.seed, index, traced, run_dir, template, args.delay))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    with open(EXPECTED_ROWS) as fh:
        expected = json.load(fh).get(workload.name, {}).get(str(args.seed))
    failed, problems = check_reps(reps, expected)
    attempted = sum(rep["cells"] for rep in reps)
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    end_to_end = {
        "grid_wall_s": statistics.median(r["wall_s"] for r in untraced),
        "sim_cycles_per_s": statistics.median(r["cycles"] / r["wall_s"] for r in untraced),
        "setup_s": import_s + prewarm_s + statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"workload {workload.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced repetition(s); rows digest {reps[0]['digest']} "
          f"({'recorded' if expected else 'not recorded for this seed'})")
    for name, value in end_to_end.items():
        print(f"  {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} cells)")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in end_to_end.items()}
    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in (*PER_LAYER_UNITS, *FAILURE_COUNTERS)
            if name != "trace.overhead_ratio"
        }
        layers["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced) / end_to_end["grid_wall_s"]
        )
        for name, value in layers.items():
            note = ""
            if name in FAILURE_COUNTERS:
                note = " (printed only: 0 on a healthy run)"
            elif name.startswith("fabric.") and workload.driver != "fabric":
                note = " (the fabric layer does not run on this workload)"
            print(f"  {name} = {value:.6g} {PER_LAYER_UNITS.get(name, 'count')}{note}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    print("  environment " + json.dumps(environment_stamp(), sort_keys=True))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
