"""Desk-scale experiments: pathfinder vs. random pruning, signal ablations,
calibration-K sweeps, planted-expert recovery, and heatmap export.

The evaluation metric is the final-hidden-state reconstruction error of the
pruned model against the full model on held-out samples; the toy model has no
task, and the pruning signals themselves are reconstruction-based, so this is
the natural internal measure.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .calibration import build_calibration_set
from .model import MoEConfig, MoEModel, SampleBatch, gen_data, gen_model, model_forward
from .numerics import Rng
from .pruner import PruneMask, RetentionReport, target_sparsity_search
from .scoring import SampleGraph, score_sample


@dataclass(frozen=True)
class ExperimentConfig:
    """Comparison-experiment settings.

    The default instance family is deliberately non-degenerate: raw
    uniform[-1/sqrt(d), 1/sqrt(d)] weights contract hidden norms by ~0.6 per
    layer, which drives deep-layer routing to uniform and leaves nothing for
    any pruning policy to find (even a population-frequency oracle mask ties
    random there).  So experiment models scale experts by expert_scale (norm
    preservation through the gated mixture) and routers by router_gain
    (confident routing, as trained MoEs have), and experiment data is drawn
    from data_clusters separated token clusters (the multi-domain setting the
    calibration stage exists for).  Setting expert_scale=1, router_gain=1,
    data_clusters=0 recovers the raw generators.
    """

    moe: MoEConfig = MoEConfig(
        num_layers=6, experts_per_layer=8, hidden_dim=32, top_k=2, nonlinearity="tanh"
    )
    model_seeds: tuple[int, ...] = tuple(range(10))
    data_seed: int = 1000
    eval_seed: int = 2000
    mask_seed: int = 3000
    centers_seed: int = 5000
    pool_size: int = 64
    tokens_per_sample: int = 32
    calibration_k: int = 8
    n_eval_samples: int = 16
    target_retention: float = 0.5
    n_random_masks: int = 20
    use_importance: bool = True
    use_transition: bool = True
    m_max: int = 65536
    kmeans_seed: int = 4000
    expert_scale: float = 2.5
    router_gain: float = 64.0
    data_clusters: int = 4
    cluster_radius: float = 0.15

    def __post_init__(self):
        if not (self.use_importance or self.use_transition):
            raise ValueError("at least one of use_importance/use_transition must be on")
        if self.expert_scale <= 0 or self.router_gain <= 0:
            raise ValueError("expert_scale and router_gain must be positive")
        if self.data_clusters < 0 or self.cluster_radius < 0:
            raise ValueError("data_clusters and cluster_radius must be nonnegative")


@dataclass
class EvalResult:
    mean_final_error: float
    per_layer_errors: list[float]
    retention_fraction: float


@dataclass
class SeedOutcome:
    model_seed: int
    pathfinder_error: float
    random_errors: list[float]
    random_median: float
    win: bool
    retention_fraction: float
    m_used: int


@dataclass
class ComparisonReport:
    config: ExperimentConfig
    outcomes: list[SeedOutcome]

    @property
    def wins(self) -> int:
        return sum(1 for o in self.outcomes if o.win)


def derive_seeds(base: int, count: int) -> list[int]:
    """Independent child seeds from one base, via the shared PRNG stream."""
    rng = Rng(base)
    return [rng.next_u64() for _ in range(count)]


def experiment_model(config: ExperimentConfig, seed: int) -> MoEModel:
    """Instance-family model: gen_model(seed) with experts scaled by
    expert_scale and router rows by router_gain."""
    model = gen_model(config.moe, seed)
    if config.expert_scale != 1.0 or config.router_gain != 1.0:
        for layer in model.layers:
            layer.router = config.router_gain * layer.router
            layer.experts = [config.expert_scale * w for w in layer.experts]
    return model


def clustered_data(
    moe: MoEConfig,
    n_samples: int,
    tokens_per_sample: int,
    n_clusters: int,
    radius: float,
    centers_seed: int,
    noise_seed: int,
) -> list[SampleBatch]:
    """Multi-domain token data: cluster centers drawn uniform on
    [-1/sqrt(d), 1/sqrt(d)]^d from centers_seed, samples cycle through the
    clusters (sample i belongs to cluster i mod n_clusters), tokens are the
    center plus per-entry uniform noise of half-width radius/sqrt(d)."""
    d = moe.hidden_dim
    bound = 1.0 / np.sqrt(d)
    crng = Rng(centers_seed)
    centers = [crng.uniform_array((d,), -bound, bound) for _ in range(n_clusters)]
    nrng = Rng(noise_seed)
    return [
        SampleBatch(
            centers[i % n_clusters][None, :]
            + nrng.uniform_array((tokens_per_sample, d), -radius * bound, radius * bound)
        )
        for i in range(n_samples)
    ]


def experiment_data(
    config: ExperimentConfig, n_samples: int, centers_seed: int, noise_seed: int
) -> list[SampleBatch]:
    if config.data_clusters == 0:
        return gen_data(config.moe, n_samples, config.tokens_per_sample, noise_seed)
    return clustered_data(
        config.moe,
        n_samples,
        config.tokens_per_sample,
        config.data_clusters,
        config.cluster_radius,
        centers_seed,
        noise_seed,
    )


def random_mask(
    num_layers: int, experts_per_layer: int, retention_fraction: float, seed: int
) -> PruneMask:
    """Layer-uniform baseline: each layer keeps ceil(fraction * N_e) experts
    drawn uniformly without replacement."""
    if not (0.0 < retention_fraction <= 1.0):
        raise ValueError("retention_fraction must be in (0, 1]")
    per_layer = max(1, int(np.ceil(retention_fraction * experts_per_layer)))
    rng = Rng(seed)
    keep = np.zeros((num_layers, experts_per_layer), dtype=bool)
    for l in range(num_layers):
        pool = list(range(experts_per_layer))
        for _ in range(per_layer):
            idx = rng.randrange(len(pool))
            keep[l, pool.pop(idx)] = True
    return PruneMask(keep)


def ablate_graph(
    graph: SampleGraph, use_importance: bool = True, use_transition: bool = True
) -> SampleGraph:
    """Neutralize excluded signals by zeroing their log weights (constant 1 in
    the linear domain).  The returned graph is for planning only; its linear
    fields are left untouched."""
    if not (use_importance or use_transition):
        raise ValueError("cannot ablate both signals")
    log_node = graph.log_node if use_importance else np.zeros_like(graph.log_node)
    log_edge = graph.log_edge if use_transition else np.zeros_like(graph.log_edge)
    return SampleGraph(
        num_layers=graph.num_layers,
        experts_per_layer=graph.experts_per_layer,
        layer_scores=graph.layer_scores,
        transitions=graph.transitions,
        log_node=log_node,
        log_edge=log_edge,
    )


def eval_mask(
    model: MoEModel, mask: PruneMask | None, eval_samples: list[SampleBatch]
) -> EvalResult:
    """Mean squared final-hidden-state gap per token between the full forward
    and the masked forward, averaged over samples; plus per-layer gaps."""
    L = model.config.num_layers
    layer_errs = np.zeros(L)
    retention = 1.0 if mask is None else mask.retention_fraction()
    for sample in eval_samples:
        full = model_forward(model, sample)
        pruned = model_forward(model, sample, mask=mask)
        n_tokens = sample.tokens.shape[0]
        for l in range(1, L + 1):
            diff = full.hidden_states[l] - pruned.hidden_states[l]
            layer_errs[l - 1] += float(np.sum(diff * diff)) / n_tokens
    layer_errs /= len(eval_samples)
    final_err = float(layer_errs[-1])
    return EvalResult(final_err, [float(e) for e in layer_errs], retention)


def pathfinder_mask(
    model: MoEModel,
    calibration_samples: list[SampleBatch],
    target_retention: float,
    use_importance: bool = True,
    use_transition: bool = True,
    m_max: int = 65536,
) -> tuple[PruneMask, RetentionReport]:
    graphs = [score_sample(model, s) for s in calibration_samples]
    graphs = [ablate_graph(g, use_importance, use_transition) for g in graphs]
    return target_sparsity_search(graphs, target_retention, m_max=m_max)


def _seed_outcome(
    config: ExperimentConfig,
    model_seed: int,
    pool_seed: int,
    eval_seed: int,
    mask_seed: int,
    centers_seed: int,
) -> SeedOutcome:
    model = experiment_model(config, model_seed)
    pool = experiment_data(config, config.pool_size, centers_seed, pool_seed)
    calib = build_calibration_set(pool, config.calibration_k, config.kmeans_seed)
    calib_samples = [pool[i] for i in calib.sample_ids]
    mask, report = pathfinder_mask(
        model,
        calib_samples,
        config.target_retention,
        config.use_importance,
        config.use_transition,
        config.m_max,
    )
    eval_samples = experiment_data(config, config.n_eval_samples, centers_seed, eval_seed)
    pf_err = eval_mask(model, mask, eval_samples).mean_final_error

    rand_errs = []
    for rs in derive_seeds(mask_seed, config.n_random_masks):
        rmask = random_mask(
            config.moe.num_layers,
            config.moe.experts_per_layer,
            report.retention_fraction,
            rs,
        )
        rand_errs.append(eval_mask(model, rmask, eval_samples).mean_final_error)
    median = float(np.median(rand_errs))
    return SeedOutcome(
        model_seed=model_seed,
        pathfinder_error=pf_err,
        random_errors=rand_errs,
        random_median=median,
        win=pf_err <= median,
        retention_fraction=report.retention_fraction,
        m_used=report.m_used,
    )


def _seed_task(args) -> SeedOutcome:
    return _seed_outcome(*args)


def map_jobs(fn, items, jobs: int = 1) -> list:
    """[fn(x) for x in items], spread over `jobs` worker processes when
    jobs > 1; the order of results follows items either way."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(fn, items))
    return [fn(x) for x in items]


def run_comparison(config: ExperimentConfig, jobs: int = 1) -> ComparisonReport:
    """Per model seed: generate model and data, calibrate, score, plan, prune
    at the target retention, then compare against layer-uniform random masks
    of identical retention on held-out samples.  Seeds run in parallel when
    jobs > 1; outcomes are order-preserved either way."""
    pool_seeds = derive_seeds(config.data_seed, len(config.model_seeds))
    eval_seeds = derive_seeds(config.eval_seed, len(config.model_seeds))
    mask_seeds = derive_seeds(config.mask_seed, len(config.model_seeds))
    centers_seeds = derive_seeds(config.centers_seed, len(config.model_seeds))
    tasks = [
        (config, ms, pool_seeds[i], eval_seeds[i], mask_seeds[i], centers_seeds[i])
        for i, ms in enumerate(config.model_seeds)
    ]
    return ComparisonReport(config=config, outcomes=map_jobs(_seed_task, tasks, jobs))


def comparison_csv(report: ComparisonReport) -> str:
    """Flat error table, one row per (seed, mask); floats via repr so reruns
    are byte-identical."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model_seed", "mask", "mask_id", "final_error", "retention"])
    for o in report.outcomes:
        writer.writerow([o.model_seed, "pathfinder", 0, repr(o.pathfinder_error), repr(o.retention_fraction)])
        for j, err in enumerate(o.random_errors):
            writer.writerow([o.model_seed, "random", j, repr(err), repr(o.retention_fraction)])
    return buf.getvalue()


def comparison_summary(report: ComparisonReport) -> dict:
    return {
        "wins": report.wins,
        "n_seeds": len(report.outcomes),
        "per_seed": [
            {
                "model_seed": o.model_seed,
                "pathfinder_error": o.pathfinder_error,
                "random_median": o.random_median,
                "win": o.win,
                "retention_fraction": o.retention_fraction,
                "m_used": o.m_used,
            }
            for o in report.outcomes
        ],
    }


def run_manifest(config: ExperimentConfig, version: str, outputs: dict) -> dict:
    cfg = asdict(config)
    cfg["moe"] = asdict(config.moe)
    return {"tool_version": version, "config": cfg, "outputs": outputs}


def export_heatmap(counts: np.ndarray, path) -> None:
    """CSV with header layer,expert,count in layer-major order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["layer", "expert", "count"])
        for l in range(counts.shape[0]):
            for i in range(counts.shape[1]):
                writer.writerow([l, i, int(counts[l, i])])


def planted_model(
    config: MoEConfig, seed: int
) -> tuple[MoEModel, list[int], list[SampleBatch]]:
    """Ground-truth-known instance: one dominant expert per layer.

    Starting from gen_model(seed), the planted expert's weights are replaced
    by 10x the entrywise absolute values of its draw (roughly 10x the norm of
    its peers, and nonnegative), and its router row by a constant positive
    row scaled to bias its routing logit by about +10 on the nonnegative
    token data this generator emits.  Nonnegative inputs make the planted
    logit reliably positive, and tanh keeps hidden states nonnegative, so
    dominance propagates through every layer.
    """
    model = gen_model(config, seed)
    rng = Rng(seed).spawn()
    d = config.hidden_dim
    planted = [rng.randrange(config.experts_per_layer) for _ in range(config.num_layers)]
    for l, p in enumerate(planted):
        layer = model.layers[l]
        layer.experts[p] = 10.0 * np.abs(layer.experts[p])
        layer.router[p] = np.full(d, 20.0 / np.sqrt(d))
    n_calib = 8
    tokens = 16
    bound = 1.0 / np.sqrt(d)
    samples = [
        SampleBatch(rng.uniform_array((tokens, d), 0.0, bound)) for _ in range(n_calib)
    ]
    return model, planted, samples


def planted_recovery_trial(config: MoEConfig, seed: int) -> tuple[bool, bool]:
    """(pathfinder recovered all planted experts, random mask recovered all)
    at retention 1/N_e."""
    model, planted, samples = planted_model(config, seed)
    retention = 1.0 / config.experts_per_layer
    mask, _ = pathfinder_mask(model, samples, retention)
    pf_hit = all(mask.keep[l, p] for l, p in enumerate(planted))
    rmask = random_mask(config.num_layers, config.experts_per_layer, retention, seed + 1)
    rand_hit = all(rmask.keep[l, p] for l, p in enumerate(planted))
    return pf_hit, rand_hit


def sweep_calibration_k(
    config: ExperimentConfig, k_values: list[int]
) -> list[tuple[int, float]]:
    """Mean pathfinder error across model seeds for each calibration K."""
    results = []
    for k in k_values:
        cfg = replace(config, calibration_k=k)
        report = run_comparison(cfg)
        mean_err = float(np.mean([o.pathfinder_error for o in report.outcomes]))
        results.append((k, mean_err))
    return results
