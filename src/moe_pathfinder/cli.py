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
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
from .numerics import load_tensor, save_tensor
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


def update_manifest(path, stage: str, outputs, seed: int | None = None) -> None:
    if os.path.exists(path):
        with open(path) as f:
            obj = json.load(f)
    else:
        obj = {"tool_version": __version__, "stages": {}, "seeds": {}}
    obj["tool_version"] = __version__
    obj["stages"][stage] = outputs
    if seed is not None:
        obj["seeds"][stage] = seed
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")


def load_manifest(path) -> PipelineManifest:
    """Load and validate: every referenced file must exist."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except OSError as e:
        raise FormatError(f"cannot read manifest {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"malformed manifest {path}: {e}") from e
    for stage, outputs in obj.get("stages", {}).items():
        entries = outputs if isinstance(outputs, list) else [outputs]
        for entry in entries:
            if not os.path.exists(entry):
                raise FormatError(f"manifest {path}: stage {stage} references missing {entry}")
    return PipelineManifest(
        tool_version=obj.get("tool_version", "unknown"),
        stages=obj.get("stages", {}),
        seeds=obj.get("seeds", {}),
    )


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
    with open(os.path.join(dirpath, "data.json"), "w") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")


def load_data(dirpath) -> list[SampleBatch]:
    meta_path = os.path.join(dirpath, "data.json")
    try:
        with open(meta_path) as f:
            meta = json.load(f)
    except OSError as e:
        raise FormatError(f"cannot read data manifest: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"malformed data manifest {meta_path}: {e}") from e
    stacked = load_tensor(os.path.join(dirpath, meta["blob"]))
    if stacked.ndim != 3 or stacked.shape[0] != meta["n_samples"]:
        raise FormatError(f"data blob shape {stacked.shape} disagrees with manifest")
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


def _score_worker(payload):
    model, sample = payload
    return score_sample(model, sample)


def cmd_score(args) -> int:
    model = load_model(args.model)
    samples = load_data(args.data)
    if args.calibration:
        ids = load_calibration(args.calibration).sample_ids
        for i in ids:
            if not (0 <= i < len(samples)):
                raise FormatError(f"calibration id {i} out of range for {len(samples)} samples")
    else:
        ids = list(range(len(samples)))
    jobs = _resolve_jobs(args)
    payloads = [(model, samples[i]) for i in ids]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            graphs = list(ex.map(_score_worker, payloads))
    else:
        graphs = [_score_worker(p) for p in payloads]
    os.makedirs(args.out, exist_ok=True)
    index = {
        "num_layers": model.config.num_layers,
        "experts_per_layer": model.config.experts_per_layer,
        "samples": [],
    }
    for i, graph in zip(ids, graphs):
        name = save_graph(graph, args.out, f"sample{i:04d}")
        index["samples"].append({"id": i, "graph": name})
    with open(os.path.join(args.out, "graphs.json"), "w") as f:
        json.dump(index, f, indent=2)
        f.write("\n")
    if args.manifest:
        update_manifest(args.manifest, "score", args.out)
    print(f"scored {len(ids)} samples -> {args.out}")
    return 0


def _load_graph_index(dirpath) -> dict:
    path = os.path.join(dirpath, "graphs.json")
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise FormatError(f"cannot read graph index {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"malformed graph index {path}: {e}") from e


def _plan_worker(payload):
    graph, m = payload
    return top_m_paths_dp(graph, m)


def cmd_plan(args) -> int:
    index = _load_graph_index(args.graphs)
    graphs = [(entry["id"], load_graph(args.graphs, entry["graph"])) for entry in index["samples"]]
    jobs = _resolve_jobs(args)
    payloads = [(g, args.m) for _, g in graphs]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            pathsets = list(ex.map(_plan_worker, payloads))
    else:
        pathsets = [_plan_worker(p) for p in payloads]
    os.makedirs(args.out, exist_ok=True)
    out_index = {
        "m": args.m,
        "num_layers": index["num_layers"],
        "experts_per_layer": index["experts_per_layer"],
        "samples": [],
    }
    for (i, _), ps in zip(graphs, pathsets):
        name = f"sample{i:04d}.paths.json"
        save_pathset(ps, os.path.join(args.out, name))
        out_index["samples"].append({"id": i, "paths": name})
    with open(os.path.join(args.out, "paths.json"), "w") as f:
        json.dump(out_index, f, indent=2)
        f.write("\n")
    if args.manifest:
        update_manifest(args.manifest, "plan", args.out)
    print(f"planned top-{args.m} paths for {len(graphs)} samples -> {args.out}")
    return 0


def _load_path_index(dirpath) -> tuple[dict, list[PathSet]]:
    path = os.path.join(dirpath, "paths.json")
    try:
        with open(path) as f:
            index = json.load(f)
    except OSError as e:
        raise FormatError(f"cannot read path index {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"malformed path index {path}: {e}") from e
    pathsets = [load_pathset(os.path.join(dirpath, entry["paths"])) for entry in index["samples"]]
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
        n_experts = index["experts_per_layer"]
        mask = mask_from_pathsets(pathsets, n_experts)
        report = RetentionReport(
            retained_per_layer=[int(c) for c in mask.keep.sum(axis=1)],
            retained_total=mask.retained_total(),
            retention_fraction=mask.retention_fraction(),
            m_used=index["m"],
            samples_used=len(pathsets),
        )
    else:
        gindex = _load_graph_index(args.graphs)
        graphs = [load_graph(args.graphs, e["graph"]) for e in gindex["samples"]]
        if args.m is not None:
            pathsets = [top_m_paths_dp(g, args.m) for g in graphs]
            mask = mask_from_pathsets(pathsets, gindex["experts_per_layer"])
            report = RetentionReport(
                retained_per_layer=[int(c) for c in mask.keep.sum(axis=1)],
                retained_total=mask.retained_total(),
                retention_fraction=mask.retention_fraction(),
                m_used=args.m,
                samples_used=len(graphs),
            )
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
    with open(args.out, "w") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
    if args.manifest:
        update_manifest(args.manifest, "eval", args.out)
    print(f"mean final-layer error {result.mean_final_error!r} -> {args.out}")
    return 0


def cmd_heatmap(args) -> int:
    index, pathsets = _load_path_index(args.paths)
    outliers = None
    if args.outliers:
        try:
            with open(args.outliers) as f:
                outliers = {(int(l), int(i)) for l, i in json.load(f)}
        except (OSError, json.JSONDecodeError, TypeError, ValueError) as e:
            raise FormatError(f"bad outlier file {args.outliers}: {e}") from e
    counts = selection_frequency(
        pathsets, index["num_layers"], index["experts_per_layer"], outliers
    )
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
    with open(summary_path, "w") as f:
        json.dump(comparison_summary(report), f, indent=2)
        f.write("\n")
    manifest_path = os.path.join(args.out, "manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(
            run_manifest(config, __version__, {"comparison": csv_path, "summary": summary_path}),
            f,
            indent=2,
        )
        f.write("\n")
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
