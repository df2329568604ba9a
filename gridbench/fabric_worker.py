"""Traced fabric worker: ``repro fabric work`` with spans and stage counters.

Used only by the traced run of ``resume_fabric``.  It drives the same
public :class:`repro.fabric.FabricWorker` loop the ``repro fabric work``
command drives, with the benchmark's span tracer installed and a
:class:`~repro.experiments.runner.Runner` that keeps engine stage
counters.  At exit it writes the counters next to its spans.

    python3 gridbench/fabric_worker.py --connect HOST:PORT \\
        --scratch-dir DIR --id NAME --trace-dir DIR
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

from repro.experiments.runner import Runner  # noqa: E402
from repro.fabric import FabricWorker  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", required=True)
    parser.add_argument("--scratch-dir", required=True)
    parser.add_argument("--id", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()

    perf = []

    def runner_factory(scale, store):
        runner = Runner(scale, store=store, perf_counters=True)
        perf.append(runner.perf)
        return runner

    tracer = Tracer(Path(args.trace_dir))
    tracer.install()
    try:
        FabricWorker(
            args.id, args.connect, args.scratch_dir, runner_factory=runner_factory
        ).run()
    finally:
        tracer.uninstall()
        if perf:
            path = Path(args.trace_dir) / f"counters-{os.getpid()}.json"
            path.write_text(json.dumps(perf[-1].snapshot()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
