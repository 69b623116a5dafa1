"""File-based pipeline CLI.

Each subcommand is one pipeline stage reading and writing plain files, so
every intermediate artifact (sample graphs, path sets, masks) can be
inspected and re-run.  All randomness takes an explicit --seed; re-running a
stage with identical inputs overwrites its outputs byte-identically.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 invariant
violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import __version__
from .calibration import build_calibration_set, load_calibration, save_calibration
from .errors import FormatError, InvariantError
from .harness import (
    ExperimentConfig,
    comparison_csv,
    comparison_summary,
    eval_mask,
    export_heatmap,
    map_jobs,
    run_comparison,
    run_manifest,
)
from .model import (
    MoEConfig,
    SampleBatch,
    gen_data,
    gen_model,
    load_model,
    save_model,
)
from .numerics import load_json, load_tensor, save_json, save_tensor
from .planner import (
    PathSet,
    load_pathset,
    oracle_selfcheck,
    save_pathset,
    top_m_paths_dp,
)
from .pruner import (
    apply_mask,
    load_mask,
    mask_from_pathsets,
    save_mask,
    save_remap,
    save_report,
    selection_frequency,
    target_sparsity_search,
    RetentionReport,
)
from .scoring import load_graph, save_graph, score_sample


@dataclass
class PipelineManifest:
    """Record of one staged run: artifact paths, seeds, tool version."""

    tool_version: str
    stages: dict
    seeds: dict

    def to_json(self) -> dict:
        return {"tool_version": self.tool_version, "stages": self.stages, "seeds": self.seeds}


def _parse_manifest(obj) -> PipelineManifest:
    stages, seeds = dict(obj["stages"]), dict(obj["seeds"])
    return PipelineManifest(str(obj.get("tool_version", "unknown")), stages, seeds)


def update_manifest(path, stage: str, outputs, seed: int | None = None) -> None:
    if os.path.exists(path):
        manifest = load_json(path, "manifest", _parse_manifest)
    else:
        manifest = PipelineManifest(__version__, {}, {})
    manifest.tool_version = __version__
    manifest.stages[stage] = outputs
    if seed is not None:
        manifest.seeds[stage] = seed
    save_json(path, manifest.to_json())


def load_manifest(path) -> PipelineManifest:
    """Load and validate: every referenced file must exist."""
    manifest = load_json(path, "manifest", _parse_manifest)
    for stage, outputs in manifest.stages.items():
        for entry in outputs if isinstance(outputs, list) else [outputs]:
            if not os.path.exists(entry):
                raise FormatError(f"manifest {path}: stage {stage} references missing {entry}")
    return manifest


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _resolve_jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        return max(1, jobs)
    env = os.environ.get("MOE_PATHFINDER_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


# ---------------------------------------------------------------- data files


def save_data(samples: list[SampleBatch], seed: int, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    stacked = np.stack([s.tokens for s in samples])
    save_tensor(os.path.join(dirpath, "tokens.tnsr"), stacked)
    meta = {
        "n_samples": len(samples),
        "tokens_per_sample": int(stacked.shape[1]),
        "hidden_dim": int(stacked.shape[2]),
        "seed": seed,
        "blob": "tokens.tnsr",
    }
    save_json(os.path.join(dirpath, "data.json"), meta)


def load_data(dirpath) -> list[SampleBatch]:
    meta_path = os.path.join(dirpath, "data.json")
    blob, n_samples = load_json(
        meta_path, "data manifest", lambda meta: (str(meta["blob"]), int(meta["n_samples"]))
    )
    blob_path = os.path.join(dirpath, blob)
    stacked = load_tensor(blob_path)
    if stacked.ndim != 3 or stacked.shape[0] != n_samples:
        raise FormatError(
            f"data blob {blob_path} has shape {stacked.shape}, "
            f"but {meta_path} lists {n_samples} samples"
        )
    return [SampleBatch(stacked[i]) for i in range(stacked.shape[0])]


# ----------------------------------------------------------------- handlers


def _config_from_flags(args) -> MoEConfig:
    return MoEConfig(
        num_layers=args.layers,
        experts_per_layer=args.experts,
        hidden_dim=args.dim,
        top_k=args.topk,
        nonlinearity=args.nonlinearity,
    )


def cmd_gen_model(args) -> int:
    try:
        config = _config_from_flags(args)
    except ValueError as e:
        sys.stderr.write(f"gen-model: {e}\n")
        return 1
    model = gen_model(config, args.seed)
    save_model(model, args.out)
    if args.manifest:
        update_manifest(args.manifest, "gen-model", args.out, args.seed)
    print(f"wrote model to {args.out}")
    return 0


def cmd_gen_data(args) -> int:
    model = load_model(args.model)
    samples = gen_data(model.config, args.samples, args.tokens, args.seed)
    save_data(samples, args.seed, args.out)
    if args.manifest:
        update_manifest(args.manifest, "gen-data", args.out, args.seed)
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    samples = load_data(args.data)
    calib = build_calibration_set(samples, args.k, args.seed, args.max_iters)
    save_calibration(calib, args.out)
    if args.manifest:
        update_manifest(args.manifest, "calibrate", args.out, args.seed)
    print(f"selected {len(calib.sample_ids)} of {len(samples)} samples -> {args.out}")
    return 0


def cmd_score(args) -> int:
    model = load_model(args.model)
    samples = load_data(args.data)
    if args.calibration:
        ids = load_calibration(args.calibration).sample_ids
        for i in ids:
            if not (0 <= i < len(samples)):
                raise FormatError(
                    f"calibration set {args.calibration}: id {i} out of range "
                    f"for {len(samples)} samples"
                )
    else:
        ids = list(range(len(samples)))
    graphs = map_jobs(partial(score_sample, model), [samples[i] for i in ids], _resolve_jobs(args))
    os.makedirs(args.out, exist_ok=True)
    index = {
        "num_layers": model.config.num_layers,
        "experts_per_layer": model.config.experts_per_layer,
        "samples": [],
    }
    for i, graph in zip(ids, graphs):
        name = save_graph(graph, args.out, f"sample{i:04d}")
        index["samples"].append({"id": i, "graph": name})
    save_json(os.path.join(args.out, "graphs.json"), index)
    if args.manifest:
        update_manifest(args.manifest, "score", args.out)
    print(f"scored {len(ids)} samples -> {args.out}")
    return 0


def _load_index(dirpath, name: str, entry: str, keys: tuple[str, ...]) -> dict:
    """A stage index: its integer `keys`, and "samples" as (id, file) pairs
    read from each sample's "id" and `entry` fields."""

    def parse(obj) -> dict:
        index = {key: int(obj[key]) for key in keys}
        index["samples"] = [(int(e["id"]), str(e[entry])) for e in obj["samples"]]
        return index

    return load_json(os.path.join(dirpath, name), "index", parse)


def _load_graphs(dirpath) -> tuple[dict, list]:
    """graphs.json and every graph it lists, each checked against its L x Ne."""
    index = _load_index(dirpath, "graphs.json", "graph", ("num_layers", "experts_per_layer"))
    L, n = index["num_layers"], index["experts_per_layer"]
    graphs = [load_graph(dirpath, name) for _, name in index["samples"]]
    for (_, name), g in zip(index["samples"], graphs):
        if (g.num_layers, g.experts_per_layer) != (L, n):
            raise FormatError(
                f"graph {os.path.join(dirpath, name)} is {g.num_layers} x {g.experts_per_layer} "
                f"(L x Ne), but {os.path.join(dirpath, 'graphs.json')} lists {L} x {n}"
            )
    return index, graphs


def cmd_plan(args) -> int:
    index, graphs = _load_graphs(args.graphs)
    pathsets = map_jobs(partial(top_m_paths_dp, m=args.m), graphs, _resolve_jobs(args))
    os.makedirs(args.out, exist_ok=True)
    out_index = {
        "m": args.m,
        "num_layers": index["num_layers"],
        "experts_per_layer": index["experts_per_layer"],
        "samples": [],
    }
    for (i, _), ps in zip(index["samples"], pathsets):
        name = f"sample{i:04d}.paths.json"
        save_pathset(ps, os.path.join(args.out, name))
        out_index["samples"].append({"id": i, "paths": name})
    save_json(os.path.join(args.out, "paths.json"), out_index)
    if args.manifest:
        update_manifest(args.manifest, "plan", args.out)
    print(f"planned top-{args.m} paths for {len(graphs)} samples -> {args.out}")
    return 0


def _load_path_index(dirpath) -> tuple[dict, list[PathSet]]:
    """paths.json and every path set it lists, each checked to hold at least
    one path and only paths that fit the index's L x Ne."""
    index = _load_index(dirpath, "paths.json", "paths", ("m", "num_layers", "experts_per_layer"))
    L, n = index["num_layers"], index["experts_per_layer"]
    pathsets = []
    for _, name in index["samples"]:
        path = os.path.join(dirpath, name)
        ps = load_pathset(path)
        if not ps.paths or any(
            len(p.experts) != L or not all(0 <= i < n for i in p.experts) for p in ps.paths
        ):
            raise FormatError(
                f"path set {path} is empty or does not fit the {L} x {n} (L x Ne) "
                f"that {os.path.join(dirpath, 'paths.json')} lists"
            )
        pathsets.append(ps)
    return index, pathsets


def cmd_prune(args) -> int:
    if args.m is not None and args.target_retention is not None:
        sys.stderr.write("prune: --m and --target-retention are mutually exclusive\n")
        return 1
    if args.paths and (args.m is not None or args.target_retention is not None):
        sys.stderr.write("prune: --paths already fixes m; drop --m/--target-retention\n")
        return 1
    if not args.paths and not args.graphs:
        sys.stderr.write("prune: need either --paths or --graphs\n")
        return 1
    if args.graphs and args.m is None and args.target_retention is None:
        sys.stderr.write("prune: --graphs needs one of --m or --target-retention\n")
        return 1

    os.makedirs(args.out, exist_ok=True)
    if args.paths:
        index, pathsets = _load_path_index(args.paths)
        mask = mask_from_pathsets(pathsets, index["experts_per_layer"])
        report = RetentionReport.from_mask(mask, index["m"], len(pathsets))
    else:
        gindex, graphs = _load_graphs(args.graphs)
        if args.m is not None:
            pathsets = [top_m_paths_dp(g, args.m) for g in graphs]
            mask = mask_from_pathsets(pathsets, gindex["experts_per_layer"])
            report = RetentionReport.from_mask(mask, args.m, len(graphs))
        else:
            mask, report = target_sparsity_search(
                graphs, args.target_retention, m_max=args.m_max
            )

    mask_path = os.path.join(args.out, "mask.json")
    report_path = os.path.join(args.out, "report.json")
    save_mask(mask, mask_path)
    save_report(report, report_path)
    outputs = [mask_path, report_path]
    if args.model:
        model = load_model(args.model)
        _check_mask_fits(mask, mask_path, model, args.model)
        pruned, kept = apply_mask(model, mask)
        pruned_dir = os.path.join(args.out, "pruned-model")
        save_model(pruned, pruned_dir)
        save_remap(kept, os.path.join(pruned_dir, "remap.json"))
        outputs.append(pruned_dir)
    if args.manifest:
        update_manifest(args.manifest, "prune", outputs)
    print(
        f"mask retains {report.retained_total} experts "
        f"(fraction {report.retention_fraction!r}) with m={report.m_used} -> {args.out}"
    )
    return 0


def _check_mask_fits(mask, mask_path, model, model_path) -> None:
    cfg = model.config
    if mask.keep.shape != (cfg.num_layers, cfg.experts_per_layer):
        raise FormatError(
            f"mask {mask_path} is {mask.num_layers} x {mask.experts_per_layer} (L x Ne), "
            f"but model {model_path} is {cfg.num_layers} x {cfg.experts_per_layer}"
        )


def cmd_eval(args) -> int:
    model = load_model(args.model)
    mask = load_mask(args.mask)
    _check_mask_fits(mask, args.mask, model, args.model)
    samples = load_data(args.data)
    result = eval_mask(model, mask, samples)
    obj = {
        "mean_final_error": result.mean_final_error,
        "per_layer_errors": result.per_layer_errors,
        "retention_fraction": result.retention_fraction,
    }
    save_json(args.out, obj)
    if args.manifest:
        update_manifest(args.manifest, "eval", args.out)
    print(f"mean final-layer error {result.mean_final_error!r} -> {args.out}")
    return 0


def cmd_heatmap(args) -> int:
    index, pathsets = _load_path_index(args.paths)
    L, n = index["num_layers"], index["experts_per_layer"]

    def parse_outliers(pairs) -> set[tuple[int, int]]:
        outliers = {(int(l), int(i)) for l, i in pairs}
        if not all(0 <= l < L and 0 <= i < n for l, i in outliers):
            raise ValueError(f"an outlier lies outside {L} x {n} (L x Ne)")
        return outliers

    outliers = load_json(args.outliers, "outlier file", parse_outliers) if args.outliers else None
    counts = selection_frequency(pathsets, L, n, outliers)
    export_heatmap(counts, args.out)
    if args.manifest:
        update_manifest(args.manifest, "heatmap", args.out)
    print(f"wrote heatmap for {len(pathsets)} path sets -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    try:
        moe = _config_from_flags(args)
        config = ExperimentConfig(
            moe=moe,
            model_seeds=tuple(range(args.seed, args.seed + args.trials)),
            data_seed=args.data_seed,
            eval_seed=args.eval_seed,
            mask_seed=args.mask_seed,
            pool_size=args.pool,
            tokens_per_sample=args.tokens,
            calibration_k=args.k,
            n_eval_samples=args.eval_samples,
            target_retention=args.retention,
            n_random_masks=args.random_masks,
            use_importance=not args.no_importance,
            use_transition=not args.no_transition,
            kmeans_seed=args.kmeans_seed,
            centers_seed=args.centers_seed,
            expert_scale=args.expert_scale,
            router_gain=args.router_gain,
            data_clusters=args.clusters,
            cluster_radius=args.cluster_radius,
        )
    except ValueError as e:
        sys.stderr.write(f"compare: {e}\n")
        return 1
    report = run_comparison(config, jobs=_resolve_jobs(args))
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "comparison.csv")
    with open(csv_path, "w", newline="") as f:
        f.write(comparison_csv(report))
    summary_path = os.path.join(args.out, "summary.json")
    save_json(summary_path, comparison_summary(report))
    save_json(
        os.path.join(args.out, "manifest.json"),
        run_manifest(config, __version__, {"comparison": csv_path, "summary": summary_path}),
    )
    print(f"pathfinder wins {report.wins}/{len(report.outcomes)} seeds -> {args.out}")
    return 0


def cmd_selfcheck(args) -> int:
    passes, mismatches = oracle_selfcheck(args.trials, args.seed)
    print(f"oracle: {passes}/{args.trials}")
    if mismatches:
        for line in mismatches:
            sys.stderr.write(line + "\n")
        raise InvariantError(f"{len(mismatches)} oracle mismatches")
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> _Parser:
    parser = _Parser(prog="moe-pathfinder", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_manifest(p):
        p.add_argument("--manifest", help="pipeline manifest JSON to update")

    p = sub.add_parser("gen-model", help="generate a seeded toy MoE model")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--experts", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--topk", type=int, required=True)
    p.add_argument("--nonlinearity", choices=["none", "tanh"], default="tanh")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("gen-data", help="generate seeded sample batches")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tokens", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("calibrate", help="k-means calibration-set selection")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("score", help="score samples into weighted graphs")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--calibration", help="restrict to a calibration set's sample ids")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("plan", help="top-m path search per scored sample")
    p.add_argument("--graphs", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("prune", help="build the retention mask and pruned model")
    p.add_argument("--paths", help="path-set directory from `plan`")
    p.add_argument("--graphs", help="graph directory from `score`")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--target-retention", type=float, default=None)
    p.add_argument("--m-max", type=int, default=65536)
    p.add_argument("--model", help="also materialize the pruned model")
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("eval", help="reconstruction error of a mask on data")
    p.add_argument("--model", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("heatmap", help="selection-frequency CSV from path sets")
    p.add_argument("--paths", required=True)
    p.add_argument("--outliers", help="JSON list of [layer, expert] pairs")
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("compare", help="pathfinder vs random masks across seeds")
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--experts", type=int, default=8)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--topk", type=int, default=2)
    p.add_argument("--nonlinearity", choices=["none", "tanh"], default="tanh")
    p.add_argument("--seed", type=int, required=True, help="first model seed")
    p.add_argument("--trials", type=int, default=10, help="number of model seeds")
    p.add_argument("--data-seed", type=int, default=1000)
    p.add_argument("--eval-seed", type=int, default=2000)
    p.add_argument("--mask-seed", type=int, default=3000)
    p.add_argument("--kmeans-seed", type=int, default=4000)
    p.add_argument("--pool", type=int, default=64)
    p.add_argument("--tokens", type=int, default=32)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--eval-samples", type=int, default=16)
    p.add_argument("--retention", type=float, default=0.5)
    p.add_argument("--random-masks", type=int, default=20)
    p.add_argument("--centers-seed", type=int, default=5000)
    p.add_argument("--expert-scale", type=float, default=2.5)
    p.add_argument("--router-gain", type=float, default=64.0)
    p.add_argument("--clusters", type=int, default=4,
                   help="token-data clusters; 0 for unclustered data")
    p.add_argument("--cluster-radius", type=float, default=0.15)
    p.add_argument("--no-importance", action="store_true")
    p.add_argument("--no-transition", action="store_true")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("selfcheck", help="planner vs brute-force oracle suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except FormatError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (InvariantError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
