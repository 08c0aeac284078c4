"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload review-ingest --seed 1 --seconds 30 --trace 0

Run from the root of a trailnet checkout. The workload's inputs are made
from ``--seed``, the CLI chain is repeated for ``--seconds``, and the
outputs are checked. Standard output ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). The line before it
is a JSON report with input sizes and hashes, percentiles, sample counts
and any failed operation. The exit code is 0 only when every operation
succeeded, and 2 when the checkout lacks trailnet's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The program under test and the generators and oracles the benchmark reuses.
REQUIRED = ("src/trailnet/cli.py", "tests/reviewgen.py", "tests/oracles.py")
WORK_DIR = ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["review-ingest", "wide-alphabet", "parallel-replay"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a trailnet checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import harness
    import workloads

    workdir = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = workloads.generate(args.workload, args.seed)
        result = harness.measure(w, workdir, args.seconds, bool(args.trace), ROOT)
    finally:
        shutil.rmtree(workdir)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it
    report = result.pop("report")
    report["seed"] = args.seed
    print(json.dumps(report, sort_keys=True))
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
