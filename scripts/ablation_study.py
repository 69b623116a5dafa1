#!/usr/bin/env python3
"""Ablation of the two path-weight signals: importance scores (nodes) and
transition intensities (edges), each left out of the per-node path scores.
"""

import argparse
import sys

import numpy as np

from moe_pathfinder.harness import ExperimentConfig, run_comparison


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    variants = [
        ("importance + transition", True, True),
        ("transition only", False, True),
        ("importance only", True, False),
    ]
    print(f"{'variant':<26} {'wins':>6} {'mean error':>12} {'mean ratio':>11}")
    for name, use_imp, use_tr in variants:
        config = ExperimentConfig(
            model_seeds=tuple(range(args.seeds)),
            use_importance=use_imp,
            use_transition=use_tr,
        )
        report = run_comparison(config, jobs=args.jobs)
        errs = [o.pathfinder_error for o in report.outcomes]
        ratios = [o.pathfinder_error / o.random_median for o in report.outcomes]
        print(
            f"{name:<26} {report.wins:>4}/{len(report.outcomes)} "
            f"{np.mean(errs):>12.4e} {np.mean(ratios):>11.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
