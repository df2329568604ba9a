"""Same-machine A/B gate on the paper-grid benchmark.

    python3 benchmarks/gridbench_ab.py --base ../base --head .

Runs ``gridbench/run.py --workload paper_grid --seed 1 --seconds 20
--trace 0`` in two source checkouts, 3 pairs, alternating base and head
(and which of the two runs first in a pair), so both see the same drift
of the host's speed.  Fails (exit 1) if any run does not report
``"correct": true``, or if head's median ``grid_wall_s`` exceeds base's
by more than the bound ``BENCHMARK.json`` (in the head checkout) gives
that metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRIC = "grid_wall_s"
WORKLOAD = "paper_grid"
SEED = 1
SECONDS = 20
PAIRS = 3


def run_once(checkout: Path) -> dict:
    command = [
        sys.executable, "gridbench/run.py", "--workload", WORKLOAD,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.head / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)
    walls = {"base": [], "head": []}
    correct = True
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            doc = run_once(getattr(args, side))
            ok = doc.get("correct") is True
            correct &= ok
            if ok:
                walls[side].append(doc["metrics"][METRIC]["value"])
            print(f"pair {pair + 1} {side}: correct={ok} {METRIC}="
                  f"{walls[side][-1] if ok else 'n/a'}", flush=True)
    if not correct:
        print("FAIL: a run did not report \"correct\": true")
        return 1
    base = statistics.median(walls["base"])
    head = statistics.median(walls["head"])
    ratio = head / base
    verdict = "FAIL" if ratio > 1 + bound else "ok"
    print(f"{verdict}: median {METRIC} base {base:.3f} s, head {head:.3f} s, "
          f"head/base {ratio:.3f} (bound {1 + bound:.2f})")
    return 1 if verdict == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
