"""Run every workload over several seeds and report each metric's spread.

    python3 gridbench/spread.py --seeds 1-10 [--workloads paper_grid ...] \\
        [--trajectory gridbench/trajectory.jsonl --set A]

``--seeds`` is a comma-separated list of seeds and inclusive ranges, so
``1-10`` gives ten seeds and ``1,1,1,1,1`` five runs of seed 1.  For each
workload and end-to-end metric it prints the median and the
interquartile range (``statistics.quantiles(values, n=4)``) as a share of
the median, beside the metric's bound from ``BENCHMARK.json``.  With
``--trajectory`` the summary, stamped with the machine, the set label
and the start and end time, is appended as one JSON line.  Runs are
sequential; run nothing else on the machine meanwhile.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    env = next((json.loads(l.split("environment ", 1)[1]) for l in lines if "  environment " in l), {})
    return proc.returncode, json.loads(lines[-1]) if lines else None, env


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,1,1,1,1")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trajectory", default=None)
    parser.add_argument("--set", default=None, help="label of this set in the trajectory")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    started = now()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    env = {}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in seeds:
            code, result, env = run_once(workload, seed, bench["run_seconds"])
            if code != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {code})", flush=True)
                ok = False
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        row = {"failed": failed, "attempted": attempted}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            row[name] = {"median": median, "iqr_share": (q3 - q1) / median, "values": vals}
            print(f"{workload:14s} {name:17s} median {median:10.4g}  "
                  f"spread {(q3 - q1) / median:6.1%}  bound {bounds[name]:.0%}", flush=True)
        summary[workload] = row
    if args.trajectory:
        entry = {
            "set": args.set,
            "measured": [started, now()],
            "environment": env,
            "seeds": seeds,
            "run_seconds": bench["run_seconds"],
            "workloads": summary,
        }
        with open(args.trajectory, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
