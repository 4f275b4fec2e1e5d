"""The driver's entry point: one workload, one JSON object on the last line.

``python3 benchmarks/wall/run.py --workload W --seed N --seconds S --trace 0|1``
"""

import argparse
import json
import sys
from pathlib import Path

# Run as a script, so the checkout root is not on the path yet.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.wall import runner, spec  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=spec.workloads())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        doc = runner.one_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except runner.RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    for error in doc["errors"]:
        print(f"incorrect: {error}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": doc["failed"] == 0,
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": doc["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
