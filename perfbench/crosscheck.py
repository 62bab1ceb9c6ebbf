"""Cross-check the traced layer ledger against a cProfile module grouping.

Usage, from the repository root::

    python3 perfbench/crosscheck.py --workload exchange-1k --seed 42

Runs the workload twice in this process: once traced, printing each
layer's share of the traced wall time and the sum of all shares, and
once under cProfile, printing each module's share of the summed
``tottime`` (functions outside ``repro`` are grouped as ``builtins``).
The two groupings differ by construction: a layer's self time includes
every unwrapped function it calls, while cProfile charges each function
to the module that defines it.
"""

from __future__ import annotations

import argparse
import cProfile
import collections
import pstats
import sys

from harness import SRC, WORKLOADS, simulate


def module_of(filename: str) -> str:
    """``.../src/repro/core/irq.py`` -> ``core.irq``; else ``builtins``."""
    marker = "/repro/"
    if marker not in filename or not filename.endswith(".py"):
        return "builtins"
    return filename.split(marker, 1)[1][: -len(".py")].replace("/", ".")


def main() -> None:
    """Print both groupings for one workload and seed."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    record = simulate(workload.spec(args.seed, traced=True))
    wall = record["host_s"]["wall"]
    print(f"traced ledger, wall {wall:.3f} s")
    total = 0.0
    for layer, entry in sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        total += entry["self_s"]
        print(f"  {layer:24s} {entry['self_s'] / wall:7.1%}")
    print(f"  {'sum of shares':24s} {total / wall:7.1%}")

    profiler = cProfile.Profile()
    profiler.runcall(simulate, workload.spec(args.seed, traced=False))
    by_module: collections.Counter = collections.Counter()
    for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(profiler).stats.items():
        by_module[module_of(filename)] += tottime
    profiled = sum(by_module.values())
    print(f"cProfile tottime by module, total {profiled:.3f} s")
    for module, seconds in by_module.most_common(15):
        print(f"  {module:24s} {seconds / profiled:7.1%}")


if __name__ == "__main__":
    main()
