#!/usr/bin/env python3
"""Pathfinder vs. layer-uniform random pruning across model seeds.

Writes comparison.csv, summary.json, and manifest.json to --out and prints a
per-seed table.  `--plain-family` switches off the structured instance family
(unclustered data, unscaled weights) to show what happens on degenerate toys.
"""

import argparse
import os
import sys

from moe_pathfinder import __version__
from moe_pathfinder.harness import (
    ExperimentConfig,
    comparison_csv,
    comparison_summary,
    run_comparison,
    run_manifest,
)
from moe_pathfinder.numerics import _write_atomic, save_json


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="number of model seeds")
    parser.add_argument("--retention", type=float, default=0.5)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--plain-family", action="store_true")
    parser.add_argument("--no-importance", action="store_true")
    parser.add_argument("--no-transition", action="store_true")
    parser.add_argument("--out", default="results/comparison")
    args = parser.parse_args()

    kwargs = dict(
        model_seeds=tuple(range(args.seeds)),
        target_retention=args.retention,
        use_importance=not args.no_importance,
        use_transition=not args.no_transition,
    )
    if args.plain_family:
        kwargs.update(expert_scale=1.0, router_gain=1.0, data_clusters=0)
    config = ExperimentConfig(**kwargs)

    report = run_comparison(config, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    _write_atomic(os.path.join(args.out, "comparison.csv"), comparison_csv(report).encode())
    save_json(os.path.join(args.out, "summary.json"), comparison_summary(report))
    save_json(
        os.path.join(args.out, "manifest.json"),
        run_manifest(config, __version__, {"out": args.out}),
    )

    print(f"{'seed':>6} {'pathfinder':>12} {'rand median':>12} {'ratio':>7}  win")
    for o in report.outcomes:
        ratio = o.pathfinder_error / o.random_median if o.random_median else float("nan")
        print(
            f"{o.model_seed:>6} {o.pathfinder_error:>12.4e} {o.random_median:>12.4e} "
            f"{ratio:>7.2f}  {'yes' if o.win else 'no'}"
        )
    print(f"\npathfinder wins {report.wins}/{len(report.outcomes)} seeds -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
