#!/usr/bin/env python
"""Run the four standard parameter sweeps and write CSV results.

Each sweep varies one knob (user count, block bonus, fee rate, mean block
interval) over its default grid while holding everything else at the default
market. Results land in --out-dir as per-instance CSVs plus *_means.csv and
*_meta.json siblings.

The default market prices capacity above what any single miner's valuation
can cover, so the cleared welfare is zero on every default grid. Pass a smaller
--unit-cost (for example 0.001) to see an allocating regime.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from edgeauction import (
    DEFAULT_UNIT_COST,
    SWEEPABLE_PARAMETERS,
    default_sweep_spec,
    emit_results,
    run_sweep,
    sweep_metadata,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results", help="directory for CSV output")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--instances", type=int, default=100, help="instances per grid value (default 100)"
    )
    parser.add_argument(
        "--unit-cost",
        type=float,
        default=DEFAULT_UNIT_COST,
        help="per-unit capacity cost (default %(default)s, the standard market)",
    )
    args = parser.parse_args(argv)
    try:
        return _run(args)
    # A failed write or a refused setting, reported as the edgeauction command does.
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    # emit_results makes the directory, so a refused setting leaves none behind.
    out_dir = Path(args.out_dir)
    for param in SWEEPABLE_PARAMETERS:
        spec = default_sweep_spec(
            param,
            instances_per_point=args.instances,
            base_seed=args.seed,
            unit_cost=args.unit_cost,
        )
        points, means = run_sweep(spec)
        written = emit_results(
            points,
            means,
            "csv",
            out_dir / f"sweep_{param}.csv",
            sweep_param=param,
            metadata=sweep_metadata(spec),
        )
        print(f"== {param} ==")
        for mean in means:
            print(
                f"  {param}={mean.grid_value:g}: "
                f"welfare {mean.welfare:.6f}, winners {mean.winner_count:.2f}, "
                f"payments {mean.total_payment:.6f}"
            )
        for path in written:
            print(f"  wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
