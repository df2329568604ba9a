"""Record the expected rows digest of every workload for a range of seeds.

    python3 gridbench/record_rows.py --seeds 0-31

Each grid is computed with a plain serial :class:`Runner` (no store, no
pool, no fabric), an independent path from the ones the benchmark times,
and its canonical ``sweep_rows`` digest is written to
``expected_rows.json``; grids run in parallel, one per core.  Simulated
results must not change under a performance change, so rerun this only
when a change is meant to alter them, and say so.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def grid_digest(name: str, seed: int):
    from repro.experiments.runner import Runner
    from repro.experiments.sweep import sweep_rows
    from run import rows_digest
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    runner = Runner(workload.scale(seed))
    outcomes = [
        runner.competitive(t.gpu_id, t.pim_id, t.policy, num_vcs=t.num_vcs)
        for t in workload.tasks()
    ]
    return name, seed, rows_digest(sweep_rows(outcomes))


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()

    path = HERE / "expected_rows.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    # Workloads over the same grid and scale share one computation.
    grids = {}
    for name, workload in WORKLOADS.items():
        grids.setdefault((repr(workload.tasks()), workload.scale(0)), []).append(name)
    jobs = [(names[0], seed) for names in grids.values() for seed in parse_seeds(args.seeds)]
    with ProcessPoolExecutor(os.cpu_count(), mp_context=get_context("spawn")) as pool:
        for name, seed, digest in pool.map(grid_digest, *zip(*jobs)):
            for alias in next(n for n in grids.values() if n[0] == name):
                recorded.setdefault(alias, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
    ordered = {
        name: dict(sorted(recorded.get(name, {}).items(), key=lambda kv: int(kv[0])))
        for name in WORKLOADS
    }
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
