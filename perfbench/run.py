"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload exchange-1k --seed 42 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced and a traced simulation of the same seed,
checks that they agree, and prints the per-layer ledger.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every run passed its checks, 1 when some failed, and 2 when none could
run (for instance without the ``src/`` tree beside this directory).
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import SRC, WORKLOADS, end_to_end, measure, per_layer


def main(argv=None) -> int:
    """Parse arguments, measure the workload and print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "simulation.py").is_file():
        print(f"no simulator source under {SRC}", file=sys.stderr)
        return 2
    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not out.plain or (args.trace and not out.traced):
        print("no run completed", file=sys.stderr)
        return 2
    metrics = per_layer(out) if args.trace else end_to_end(out)
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
