"""Benchmark of the weblex CLI on four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload web-curated --seed 1 --seconds 30 --trace 0

Workloads: web-curated, su-subword, phb-phrase, eval-metrics (see
bench/README.md). Progress lines start with '#'; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}. With
--trace 0 the metrics are end to end; with --trace 1 they are per
layer, from an in-process replay with spans. The CLI is run from the
sources under src/; without them the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOAD_NAMES = ("web-curated", "su-subword", "phb-phrase", "eval-metrics")
SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "weblex" / "__init__.py").is_file():
        print(f"bench: weblex sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    measure = harness.measure_traced if args.trace else harness.measure
    result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
