"""The serving stack's benchmark: one command, every answer checked.

    python3 perfbench/run.py --workload delta-1pct --seed 1 --seconds 30 --trace 0

Each run executes four workloads as phases (see ``perfbench/phases.py``):
``lone-http``, ``zipf-open``, ``refresh-routed`` and ``batch-offline``.
``--workload`` picks the size of the training deltas ``refresh-routed``
folds in (``delta-1pct``: 1% of the training log each; ``delta-5pct``:
5%). ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays
the workloads with spans, runs the per-layer sweep
(``perfbench/layers.py``) and prints the per-layer metrics instead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Training artifacts are
built once per checkout under ``.bench_build/perfbench``; results and
spans of every run are written there too.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    from perfbench.prep import WORKLOAD_DELTA

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_DELTA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the programs a run launched are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from perfbench.bench import run

    result, report = run(ROOT, WORK, args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
