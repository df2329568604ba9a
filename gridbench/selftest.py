"""Show that the benchmark can fail: slow one layer, watch its metrics move.

    python3 gridbench/selftest.py --seed 1

For each case, one public function gets a fixed busy wait per call
(``run.py --delay``) during the timed phase.  The workload that
exercises the function must move ``grid_wall_s`` and the matching
per-layer metric beyond the ``grid_wall_s`` bound in ``BENCHMARK.json``;
the workload that bypasses it must keep ``grid_wall_s`` within the bound.
Every run is a traced run (``--trace 1``), which reports the untraced
median wall time next to the per-layer metrics.  Each run measures for
``run_seconds`` from ``BENCHMARK.json``.  Plain and delayed runs
alternate (``PAIRS`` of each) so slow drift in host speed hits both
sides alike; each side is summarised by its median.  Exits 1 if any
expectation fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: (delay target, seconds per call, per-layer metric, exercising
#: workload, bypassing workload)
CASES = (
    ("store.put", 0.04, "store.put_s", "resume_pool", "f3fs_vc2"),
    ("f3fs.decide", 0.00002, "sim.stage.controllers_s", "f3fs_vc2", "resume_pool"),
)

#: Plain and delayed runs per case and workload.
PAIRS = 2

LINE = re.compile(r"^\s+(\S+) = (\S+) ")


def measure(workload: str, seed: int, seconds: int, delay=None):
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1",
    ]
    if delay:
        command += ["--delay", delay]
    out = subprocess.run(command, capture_output=True, text=True, check=True).stdout
    return {m.group(1): float(m.group(2)) for m in map(LINE.match, out.splitlines()) if m}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "grid_wall_s")

    ok = True
    for target, per_call, layer, exercised, bypassed in CASES:
        delay = f"{target}:{per_call}"
        for workload, expect_move in ((exercised, True), (bypassed, False)):
            runs = {None: [], delay: []}
            for _ in range(PAIRS):
                for side in runs:
                    runs[side].append(measure(workload, args.seed, seconds, side))
            base, slow = (
                {k: statistics.median(r[k] for r in runs[side]) for k in runs[side][0]}
                for side in runs
            )
            wall = slow["grid_wall_s"] / base["grid_wall_s"] - 1
            passed = (wall > bound) == expect_move
            detail = ""
            if expect_move:
                layer_change = slow[layer] / base[layer] - 1
                passed = passed and layer_change > bound
                detail = f"; {layer} {base[layer]:.4g} -> {slow[layer]:.4g} s ({layer_change:+.1%})"
            ok = ok and passed
            print(
                f"{'PASS' if passed else 'FAIL'} {target} +{per_call * 1e3:g} ms/call on "
                f"{workload} ({'exercises' if expect_move else 'bypasses'} it): grid_wall_s "
                f"{base['grid_wall_s']:.4g} -> {slow['grid_wall_s']:.4g} s ({wall:+.1%}, "
                f"bound {bound:.0%}){detail}",
                flush=True,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
