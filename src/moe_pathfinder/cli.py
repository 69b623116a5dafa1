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
from contextlib import contextmanager
from functools import cache, partial

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
    MoEModel,
    SampleBatch,
    gen_data,
    gen_model,
    load_model,
    sample_blocks,
    save_model,
)
from .numerics import (
    _write_atomic, as_index, load_index, load_json, load_tensor, save_index, save_json, strict,
)
from .planner import PathSet, load_pathset, oracle_selfcheck, top_m_paths_dp
from .pruner import (
    M_MAX,
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
from .scoring import load_graph, save_graph, score_samples


def _parse_manifest(obj) -> dict:
    """The manifest's stage -> outputs and stage -> seed maps."""
    return {"stages": dict(obj["stages"]), "seeds": dict(obj["seeds"])}


def update_manifest(path, stage: str, outputs, seed: int | None = None) -> None:
    """Record a stage's outputs (and seed) in the staged-run manifest,
    stamped with this tool version; any other top-level key is dropped."""
    if os.path.exists(path):
        manifest = load_json(path, "manifest", _parse_manifest)
    else:
        manifest = {"stages": {}, "seeds": {}}
    manifest["stages"][stage] = outputs
    if seed is not None:
        manifest["seeds"][stage] = seed
    save_json(path, {"tool_version": __version__, **manifest})


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not a fraction in (0, 1]")
    return value


# ---------------------------------------------------------------- data files


def save_data(samples: list[SampleBatch], seed: int, dirpath) -> None:
    stacked = np.stack([s.tokens for s in samples])
    meta = {
        "n_samples": len(samples),
        "tokens_per_sample": int(stacked.shape[1]),
        "hidden_dim": int(stacked.shape[2]),
        "seed": seed,
        "blob": "tokens.tnsr",
    }
    save_index(dirpath, "data.json", meta, [("tokens.tnsr", stacked)])


def load_data(dirpath) -> list[SampleBatch]:
    """The samples of a gen-data directory; a blob that is empty or whose
    shape disagrees with data.json is a FormatError naming it."""
    blob_path, shape = load_index(dirpath, "data.json", "data manifest", lambda meta, member: (
        member(meta["blob"]),
        tuple(as_index(meta[k], k) for k in ("n_samples", "tokens_per_sample", "hidden_dim")),
    ))
    meta_path = os.path.join(dirpath, "data.json")
    stacked = load_tensor(blob_path)
    if stacked.ndim == 3 and 0 in stacked.shape[:2]:
        raise FormatError(
            f"data blob {blob_path} has shape {stacked.shape}: "
            + ("no samples" if stacked.shape[0] == 0 else "no tokens per sample")
        )
    if stacked.shape != shape:
        raise FormatError(
            f"data blob {blob_path} has shape {stacked.shape}, but {meta_path} lists "
            f"{shape[0]} samples of {shape[1]} tokens of width {shape[2]}"
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
    if args.k > len(samples):
        sys.stderr.write(f"calibrate: --k {args.k} exceeds the {len(samples)} samples\n")
        return 1
    calib = build_calibration_set(samples, args.k, args.seed)
    save_calibration(calib, args.out)
    if args.manifest:
        update_manifest(args.manifest, "calibrate", args.out, args.seed)
    print(f"selected {len(calib.sample_ids)} of {len(samples)} samples -> {args.out}")
    return 0


def cmd_score(args) -> int:
    model = _load_unpruned_model(args.model)
    samples = load_data(args.data)
    _check_data_fits(samples, args.data, model, args.model)
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
    # workers take whole blocks, so the graph bytes do not depend on --jobs
    blocks = list(sample_blocks([samples[i] for i in ids]))
    with _finite_forward(args.model, args.data):
        graphs = [
            g for gs in map_jobs(partial(strict, score_samples, model), blocks, args.jobs)
            for g in gs
        ]
    names = [save_graph(graph, args.out, f"sample{i:04d}") for i, graph in zip(ids, graphs)]
    save_index(args.out, "graphs.json", {
        "num_layers": model.config.num_layers, "experts_per_layer": model.config.experts_per_layer,
        "samples": [{"id": i, "graph": name} for i, name in zip(ids, names)],
    })
    if args.manifest:
        update_manifest(args.manifest, "score", args.out)
    print(f"scored {len(ids)} samples -> {args.out}")
    return 0


def _load_index(dirpath, name: str, entry: str, keys: tuple[str, ...]) -> dict:
    """A stage index: its integer `keys`, and "samples" as (id, path) pairs
    read from each sample's "id" and `entry` fields: at least one, and no id
    twice."""

    def parse(obj, member) -> dict:
        index = {key: as_index(obj[key], key, 1) for key in keys}
        index["samples"] = [
            (as_index(e["id"], "sample id"), member(e[entry])) for e in obj["samples"]
        ]
        ids = [i for i, _ in index["samples"]]
        if not ids or len(set(ids)) != len(ids):
            raise ValueError(f"samples must list at least one sample, each id once, got ids {ids}")
        return index

    return load_index(dirpath, name, "index", parse)


def _load_graphs(dirpath) -> tuple[dict, list]:
    """graphs.json and every graph it lists, each checked against its L x Ne."""
    index = _load_index(dirpath, "graphs.json", "graph", ("num_layers", "experts_per_layer"))
    L, n = index["num_layers"], index["experts_per_layer"]
    graphs = [load_graph(*os.path.split(path)) for _, path in index["samples"]]
    for (_, path), g in zip(index["samples"], graphs):
        if (g.num_layers, g.experts_per_layer) != (L, n):
            raise FormatError(
                f"graph {path} is {g.num_layers} x {g.experts_per_layer} "
                f"(L x Ne), but {os.path.join(dirpath, 'graphs.json')} lists {L} x {n}"
            )
    return index, graphs


def cmd_plan(args) -> int:
    index, graphs = _load_graphs(args.graphs)
    pathsets = map_jobs(partial(top_m_paths_dp, m=args.m), graphs, args.jobs)
    names = [f"sample{i:04d}.paths.json" for i, _ in index["samples"]]
    save_index(args.out, "paths.json", {
        "m": args.m,
        "num_layers": index["num_layers"],
        "experts_per_layer": index["experts_per_layer"],
        "samples": [{"id": i, "paths": name} for (i, _), name in zip(index["samples"], names)],
    }, [(name, ps.to_json()) for name, ps in zip(names, pathsets)])
    if args.manifest:
        update_manifest(args.manifest, "plan", args.out)
    print(f"planned top-{args.m} paths for {len(graphs)} samples -> {args.out}")
    return 0


def _load_path_index(dirpath) -> tuple[dict, list[PathSet]]:
    """paths.json and every path set it lists, each checked to hold at least
    one path, at most m, and only paths that fit the index's m and L x Ne."""
    index = _load_index(dirpath, "paths.json", "paths", ("m", "num_layers", "experts_per_layer"))
    m, L, n = index["m"], index["num_layers"], index["experts_per_layer"]
    pathsets = []
    for _, path in index["samples"]:
        ps = load_pathset(path)
        if ps.m != m or not 0 < len(ps.paths) <= m or any(
            len(p.experts) != L or not all(0 <= i < n for i in p.experts) for p in ps.paths
        ):
            raise FormatError(
                f"path set {path} is empty or does not fit the m = {m} and {L} x {n} (L x Ne) "
                f"that {os.path.join(dirpath, 'paths.json')} lists"
            )
        pathsets.append(ps)
    return index, pathsets


def cmd_prune(args) -> int:
    # the parser already requires exactly one of --paths and --graphs
    if (args.graphs is None) != (args.target_retention is None) or (args.paths and args.m_max):
        sys.stderr.write(
            "prune: --graphs needs --target-retention, and --paths takes neither it nor --m-max\n"
        )
        return 1

    if args.paths:
        index, pathsets = _load_path_index(args.paths)
        mask = mask_from_pathsets(pathsets, index["experts_per_layer"])
        report = RetentionReport.from_mask(mask, index["m"], len(pathsets))
    else:
        mask, report = target_sparsity_search(
            _load_graphs(args.graphs)[1], args.target_retention, args.m_max or M_MAX
        )

    if args.model:  # a bad --model fails the stage before it writes anything
        model = _load_unpruned_model(args.model)
        _check_mask_fits(mask, args.paths or args.graphs, model, args.model)
    mask_path = os.path.join(args.out, "mask.json")
    report_path = os.path.join(args.out, "report.json")
    pruned_dir = os.path.join(args.out, "pruned-model")
    os.makedirs(pruned_dir if args.model else args.out, exist_ok=True)
    save_mask(mask, mask_path)
    save_report(report, report_path)
    outputs = [mask_path, report_path]
    if args.model:
        pruned, kept = apply_mask(model, mask)
        # remap.json first, so that model.json is the last file written
        save_remap(kept, os.path.join(pruned_dir, "remap.json"))
        save_model(pruned, pruned_dir)
        outputs.append(pruned_dir)
    if args.manifest:
        update_manifest(args.manifest, "prune", outputs)
    print(
        f"mask retains {report.retained_total} experts "
        f"(fraction {report.retention_fraction!r}) with m={report.m_used} -> {args.out}"
    )
    return 0


def _load_unpruned_model(path) -> MoEModel:
    """score, prune and eval index experts on one L x N_e grid, so a model
    whose layers do not all hold the experts_per_layer of its model.json, as
    a pruned model's do not, is a FormatError naming both counts."""
    model = load_model(path)
    counts = [len(layer.experts) for layer in model.layers]
    n = model.config.experts_per_layer
    if set(counts) != {n}:
        raise FormatError(
            f"model {path} holds {counts} experts per layer, but "
            f"{os.path.join(path, 'model.json')} lists experts_per_layer {n}; "
            "score, prune and eval need an unpruned model, with that many in every layer"
        )
    return model


def _check_mask_fits(mask, mask_source, model, model_path) -> None:
    """mask_source names the mask file, or the directory it was built from."""
    cfg = model.config
    if mask.keep.shape != (cfg.num_layers, cfg.experts_per_layer):
        raise FormatError(
            f"mask from {mask_source} is {mask.num_layers} x {mask.experts_per_layer} "
            f"(L x Ne), but model {model_path} is {cfg.num_layers} x {cfg.experts_per_layer}"
        )


def _check_data_fits(samples, data_path, model, model_path) -> None:
    d = model.config.hidden_dim
    if samples and samples[0].tokens.shape[1] != d:  # one blob, so one width
        raise FormatError(
            f"data {data_path} has tokens of width {samples[0].tokens.shape[1]}, "
            f"but model {model_path} has hidden_dim {d}"
        )


@contextmanager
def _finite_forward(model_path, data_path):
    """Every blob is finite, yet the forward of this model on this data may
    still overflow: that pair of inputs is a format error naming both."""
    try:
        yield
    except FloatingPointError as e:
        raise FormatError(
            f"model {model_path} on data {data_path} overflows the forward pass ({e})"
        ) from e


def cmd_eval(args) -> int:
    model = _load_unpruned_model(args.model)
    mask = load_mask(args.mask)
    _check_mask_fits(mask, args.mask, model, args.model)
    samples = load_data(args.data)
    _check_data_fits(samples, args.data, model, args.model)
    with _finite_forward(args.model, args.data):
        result = strict(eval_mask, model, mask, samples)
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
        return {(as_index(l, "outlier layer", 0, L), as_index(i, "outlier expert", 0, n))
                for l, i in pairs}

    outliers = load_json(args.outliers, "outlier file", parse_outliers) if args.outliers else None
    counts = selection_frequency(pathsets, L, n, outliers)
    export_heatmap(counts, args.out)
    if args.manifest:
        update_manifest(args.manifest, "heatmap", args.out)
    print(f"wrote heatmap for {len(pathsets)} path sets -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    try:
        config = ExperimentConfig(
            moe=_config_from_flags(args),
            model_seeds=tuple(range(args.seed, args.seed + args.trials)),
            use_importance=not args.no_importance,
            use_transition=not args.no_transition,
            **{field: getattr(args, field) for _, _, field in COMPARE_FLAGS},
        )
    except ValueError as e:
        sys.stderr.write(f"compare: {e}\n")
        return 1
    try:
        report = run_comparison(config, jobs=args.jobs)
    except FloatingPointError as e:
        sys.stderr.write(
            f"compare: this instance family overflows the forward pass ({e}); "
            "lower --expert-scale or --router-gain, or pick a bounded --nonlinearity\n"
        )
        return 1
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "comparison.csv")
    _write_atomic(csv_path, comparison_csv(report).encode())
    summary_path = os.path.join(args.out, "summary.json")
    save_json(summary_path, comparison_summary(report))
    save_json(
        os.path.join(args.out, "manifest.json"),
        run_manifest(config, __version__, {"comparison": csv_path, "summary": summary_path}),
    )

    print(f"{'seed':>6} {'pathfinder':>12} {'rand median':>12} {'ratio':>7}  win")
    ratios = []
    for o in report.outcomes:
        ratios.append(o.pathfinder_error / o.random_median if o.random_median else float("nan"))
        print(
            f"{o.model_seed:>6} {o.pathfinder_error:>12.4e} {o.random_median:>12.4e} "
            f"{ratios[-1]:>7.2f}  {'yes' if o.win else 'no'}"
        )
    mean_error = np.mean([o.pathfinder_error for o in report.outcomes])
    print(
        f"\npathfinder wins {report.wins}/{len(report.outcomes)} seeds -> {args.out} "
        f"(mean error {mean_error:.4e}, mean ratio {np.mean(ratios):.2f})"
    )
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

# compare flags that set one ExperimentConfig field each, with the field's
# default as theirs
COMPARE_FLAGS = (
    ("--data-seed", int, "data_seed"),
    ("--eval-seed", int, "eval_seed"),
    ("--mask-seed", int, "mask_seed"),
    ("--kmeans-seed", int, "kmeans_seed"),
    ("--pool", _positive_int, "pool_size"),
    ("--tokens", _positive_int, "tokens_per_sample"),
    ("--k", _positive_int, "calibration_k"),
    ("--eval-samples", _positive_int, "n_eval_samples"),
    ("--retention", _fraction, "target_retention"),
    ("--random-masks", _positive_int, "n_random_masks"),
    ("--centers-seed", int, "centers_seed"),
    ("--expert-scale", float, "expert_scale"),
    ("--router-gain", float, "router_gain"),
    ("--clusters", int, "data_clusters"),
    ("--cluster-radius", float, "cluster_radius"),
)


@cache
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parse_args keeps no state
    between calls, so every call of main parses as a fresh parser would."""
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
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--tokens", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("calibrate", help="k-means calibration-set selection")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("score", help="score samples into weighted graphs")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--calibration", help="restrict to a calibration set's sample ids")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("plan", help="top-m path search per scored sample")
    p.add_argument("--graphs", required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("-o", "--out", required=True)
    add_manifest(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("prune", help="build the retention mask and pruned model")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--paths", help="path-set directory from `plan`")
    source.add_argument("--graphs", help="graph directory from `score`")
    p.add_argument("--target-retention", type=_fraction)
    p.add_argument("--m-max", type=_positive_int)
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
    default = ExperimentConfig()
    p.add_argument("--layers", type=int, default=default.moe.num_layers)
    p.add_argument("--experts", type=int, default=default.moe.experts_per_layer)
    p.add_argument("--dim", type=int, default=default.moe.hidden_dim)
    p.add_argument("--topk", type=int, default=default.moe.top_k)
    p.add_argument("--nonlinearity", choices=["none", "tanh"], default=default.moe.nonlinearity)
    p.add_argument("--seed", type=int, required=True, help="first model seed")
    p.add_argument("--trials", type=_positive_int, default=len(default.model_seeds),
                   help="number of model seeds")
    for flag, kind, field in COMPARE_FLAGS:
        p.add_argument(flag, type=kind, default=getattr(default, field), dest=field,
                       help="token-data clusters; 0 for unclustered data"
                       if flag == "--clusters" else None)
    p.add_argument("--no-importance", action="store_true")
    p.add_argument("--no-transition", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("selfcheck", help="planner vs brute-force oracle suite")
    p.add_argument("--trials", type=_positive_int, default=100)
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
        # a bad manifest fails the stage before it writes anything
        if getattr(args, "manifest", None) and os.path.exists(args.manifest):
            load_json(args.manifest, "manifest", _parse_manifest)
        return args.func(args)
    except FormatError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except (InvariantError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except OSError as e:  # reads are FormatErrors, so this is an output path
        sys.stderr.write(f"error: cannot write output: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
