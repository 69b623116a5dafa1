"""The benchmark's workloads: inputs made from the seed, one unit of timed
work, and the checks on its outputs.

Every input seed is drawn from `random.Random("<workload>:<seed>")`, so the
program sees only generated models and data, and the same seed always gives
the same inputs.  A pass is a fixed number of units; the count depends only
on `--seconds`, so outputs (and `error_ratio`) repeat exactly for one seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import replace

import numpy as np

from moe_pathfinder import cli, harness
from moe_pathfinder.calibration import build_calibration_set
from moe_pathfinder.harness import ExperimentConfig
from moe_pathfinder.model import MoEConfig, gen_data, gen_model, load_model, model_forward
from moe_pathfinder.planner import load_pathset, top_m_paths_dp
from moe_pathfinder.pruner import (
    PruneMask,
    apply_mask,
    mask_from_pathsets,
    save_mask,
    save_report,
    selection_frequency,
    target_sparsity_search,
)
from moe_pathfinder.scoring import score_sample

# Stated tolerance for float outputs compared against a reference computed
# another way.  Reordered sums (batched eval, vectorized PRNG) move floats by
# ~1e-16 relative; anything past this is a wrong result.
REL_TOL = 1e-9
ABS_TOL = 1e-12


class Ledger:
    """Operations attempted and failed: units, CLI stage calls, checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def near(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def final_error(model, pruned, samples) -> float:
    """Mean squared final-hidden-state gap per token between `model` and a
    materialized `pruned` model, averaged over samples: the eval metric,
    recomputed without the masked forward."""
    total = 0.0
    for s in samples:
        diff = model_forward(model, s).hidden_states[-1] - model_forward(pruned, s).hidden_states[-1]
        total += float(np.sum(diff * diff)) / s.tokens.shape[0]
    return total / len(samples)


def masked_gap(model, mask, pruned, samples) -> float:
    """Largest final-hidden-state gap between the masked forward and the
    forward of the materialized pruned model."""
    return max(
        float(np.max(np.abs(model_forward(model, s, mask=mask).hidden_states[-1]
                            - model_forward(pruned, s).hidden_states[-1])))
        for s in samples
    )


def brute_force_top_m(log_node: np.ndarray, log_edge: np.ndarray, m: int):
    """Top-m paths by scoring all N^L expert sequences at once.

    Weights are accumulated in layer order, edge before node, like the
    program's planner, so equal inputs give bit-equal weights; ties break
    toward the lexicographically smaller sequence."""
    L, n = log_node.shape
    w = log_node[0].copy()
    for l in range(1, L):
        w = (w[..., None] + log_edge[l - 1].reshape((1,) * (l - 1) + (n, n))) + log_node[l]
    flat = w.ravel()
    order = np.lexsort((np.arange(flat.size), -flat))[:m]
    seqs = [tuple(int(i) for i in np.unravel_index(k, w.shape)) for k in order]
    return seqs, [float(flat[k]) for k in order]


def oracle_check(ledger: Ledger, name: str, graph, m: int, pathset) -> None:
    ref_seqs, ref_w = brute_force_top_m(graph.log_node, graph.log_edge, m)
    ok = [p.experts for p in pathset.paths] == ref_seqs and all(
        near(p.log_weight, w) for p, w in zip(pathset.paths, ref_w))
    ledger.check(name, ok, f"planner paths differ from brute force (m={m})")


def tree_digest(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for fn in files:
            path = os.path.join(dirpath, fn)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(f.read()).hexdigest()
    return dict(sorted(out.items()))


def tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


# ------------------------------------------------- comparison workloads


class ComparisonWorkload:
    """One unit is `harness.run_comparison` on one model seed."""

    unit_name = "model seed"

    def __init__(self, name: str, base: ExperimentConfig, units_per_second: float,
                 seed: int, seconds: int, oracle: bool):
        self.base = base
        self.oracle = oracle
        rng = random.Random(f"{name}:{seed}")
        count = max(1, round(units_per_second * seconds))
        self.configs = [
            replace(
                base,
                model_seeds=(rng.getrandbits(32),),
                data_seed=rng.getrandbits(32),
                eval_seed=rng.getrandbits(32),
                mask_seed=rng.getrandbits(32),
                centers_seed=rng.getrandbits(32),
                kmeans_seed=rng.getrandbits(32),
            )
            for _ in range(count)
        ]
        moe = base.moe
        self.target_count = math.ceil(base.target_retention * moe.num_layers * moe.experts_per_layer)

    @property
    def units_per_pass(self) -> int:
        return len(self.configs)

    def run_unit(self, i: int, tracer=None):
        return harness.run_comparison(self.configs[i], jobs=1).outcomes[0]

    def collect(self, raw):
        return raw

    def input_key(self, i: int) -> int:
        return i

    def same(self, a, b) -> bool:
        return a == b

    def unit_checks(self, ledger: Ledger, i: int, o) -> None:
        values = [o.pathfinder_error, o.random_median, o.retention_fraction, *o.random_errors]
        ledger.check(f"unit {i} finite", all(math.isfinite(v) for v in values),
                     f"non-finite output in {values}")
        moe = self.base.moe
        retained = round(o.retention_fraction * moe.num_layers * moe.experts_per_layer)
        ledger.check(f"unit {i} retained count", retained == self.target_count,
                     f"retained {retained}, expected {self.target_count}")

    def error_ratio(self, outputs) -> float:
        """Mean over model seeds.  It repeats exactly, like the median, but
        moves less from one seed set to the next (bootstrap over 70 desk
        seeds: quartile spread 0.081 of the value at 24 seeds, 0.097 for
        the median)."""
        return float(np.mean([o.pathfinder_error / o.random_median for o in outputs]))

    def run_checks(self, ledger: Ledger, outputs) -> None:
        """Rebuild unit 0 from public functions, materialize its masks with
        `apply_mask`, and recompute the errors through the pruned models."""
        cfg, o = self.configs[0], outputs[0]
        pool_seed = harness.derive_seeds(cfg.data_seed, 1)[0]
        eval_seed = harness.derive_seeds(cfg.eval_seed, 1)[0]
        mask_seed = harness.derive_seeds(cfg.mask_seed, 1)[0]
        centers_seed = harness.derive_seeds(cfg.centers_seed, 1)[0]
        model = harness.experiment_model(cfg, cfg.model_seeds[0])
        pool = harness.experiment_data(cfg, cfg.pool_size, centers_seed, pool_seed)
        calib = build_calibration_set(pool, cfg.calibration_k, cfg.kmeans_seed)
        graphs = [score_sample(model, pool[i]) for i in calib.sample_ids]
        mask, report = target_sparsity_search(graphs, cfg.target_retention, m_max=cfg.m_max)
        ledger.check("search reproduces m_used", report.m_used == o.m_used,
                     f"m_used {report.m_used} vs {o.m_used}")
        samples = harness.experiment_data(cfg, cfg.n_eval_samples, centers_seed, eval_seed)

        pruned, _ = apply_mask(model, mask)
        worst = masked_gap(model, mask, pruned, samples)
        ledger.check("masked forward equals materialized forward", worst <= ABS_TOL,
                     f"max abs gap {worst:.3e}")
        err = final_error(model, pruned, samples)
        ledger.check("pathfinder error matches materialized model", near(o.pathfinder_error, err),
                     f"{o.pathfinder_error!r} vs {err!r}")
        rseed = harness.derive_seeds(mask_seed, cfg.n_random_masks)[0]
        rmask = harness.random_mask(cfg.moe.num_layers, cfg.moe.experts_per_layer,
                                    report.retention_fraction, rseed)
        rerr = final_error(model, apply_mask(model, rmask)[0], samples)
        ledger.check("random-mask error matches materialized model",
                     near(o.random_errors[0], rerr), f"{o.random_errors[0]!r} vs {rerr!r}")
        if self.oracle:
            oracle_check(ledger, "planner equals brute force", graphs[0], o.m_used,
                         top_m_paths_dp(graphs[0], o.m_used))

    def close(self) -> None:
        pass


# ------------------------------------------------------- CLI pipeline


class CliPipeline:
    """One unit is the staged README pipeline through `cli.main(argv)`, in a
    fresh directory, on the raw generators at desk scale."""

    unit_name = "pipeline pass"
    LAYERS, EXPERTS, DIM, TOPK = 6, 8, 32, 2
    SAMPLES, TOKENS, K, M, RETENTION = 64, 32, 8, 4, 0.75
    RANDOM_MASKS = 5
    ORACLE_SAMPLES = 4

    def __init__(self, seed: int, seconds: int, workdir: str):
        rng = random.Random(f"cli-pipeline:{seed}")
        self.model_seed = rng.getrandbits(32)
        self.data_seed = rng.getrandbits(32)
        self.calib_seed = rng.getrandbits(32)
        self.mask_seeds = [rng.getrandbits(32) for _ in range(self.RANDOM_MASKS)]
        self.units_per_pass = max(2, round(seconds / 10))
        self.workdir = workdir
        self._count = 0
        self.first_dir: str | None = None
        self._error_ratio = float("nan")  # set by run_checks
        self.target_count = math.ceil(self.RETENTION * self.LAYERS * self.EXPERTS)
        os.makedirs(workdir, exist_ok=True)

    def stages(self, d: str) -> list[tuple[str, list[str], str]]:
        p = lambda *parts: os.path.join(d, *parts)  # noqa: E731
        return [
            ("gen_model", ["gen-model", "--layers", str(self.LAYERS), "--experts", str(self.EXPERTS),
                           "--dim", str(self.DIM), "--topk", str(self.TOPK),
                           "--seed", str(self.model_seed), "-o", p("model")], p("model")),
            ("gen_data", ["gen-data", "--model", p("model"), "--samples", str(self.SAMPLES),
                          "--tokens", str(self.TOKENS), "--seed", str(self.data_seed),
                          "-o", p("data")], p("data")),
            ("calibrate", ["calibrate", "--data", p("data"), "--k", str(self.K),
                           "--seed", str(self.calib_seed), "-o", p("calib.json")], p("calib.json")),
            ("score", ["score", "--model", p("model"), "--data", p("data"), "--jobs", "1",
                       "-o", p("graphs")], p("graphs")),
            ("plan", ["plan", "--graphs", p("graphs"), "--m", str(self.M), "--jobs", "1",
                      "-o", p("paths")], p("paths")),
            ("prune", ["prune", "--paths", p("paths"), "--model", p("model"),
                       "-o", p("pruned")], p("pruned")),
            ("prune", ["prune", "--graphs", p("graphs"), "--target-retention", str(self.RETENTION),
                       "--model", p("model"), "-o", p("pruned-target")], p("pruned-target")),
            ("eval", ["eval", "--model", p("model"), "--mask", p("pruned-target", "mask.json"),
                      "--data", p("data"), "-o", p("eval.json")], p("eval.json")),
            ("heatmap", ["heatmap", "--paths", p("paths"), "-o", p("heatmap.csv")], p("heatmap.csv")),
        ]

    def run_unit(self, i: int, tracer=None):
        """Runs every stage in a fresh directory; returns (directory, exit
        codes with stderr).  Stops at the first stage that fails."""
        d = os.path.join(self.workdir, f"unit{self._count:04d}")
        self._count += 1
        os.makedirs(d)
        codes = []
        for stage, argv, out in self.stages(d):
            err = io.StringIO()
            span = tracer.open(f"cli.{stage}") if tracer else None
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            finally:
                if tracer:
                    tracer.close(span)
            if tracer:
                tracer.counts[f"cli.{stage}_bytes_out"] += tree_bytes(out)
            codes.append((stage, rc, err.getvalue().strip()))
            if rc != 0:
                break
        return d, codes

    def collect(self, raw):
        """Untimed: digest the unit's artifacts; keep only the first unit's
        directory, for the run checks."""
        d, codes = raw
        digest = tree_digest(d)
        if self.first_dir is None:
            self.first_dir = d
        else:
            shutil.rmtree(d)
        return codes, digest

    def input_key(self, i: int) -> int:
        return 0  # every unit runs the same pipeline on the same seeds

    def same(self, a, b) -> bool:
        return a[1] == b[1]

    def unit_checks(self, ledger: Ledger, i: int, out) -> None:
        codes, _ = out
        for stage, rc, err in codes:
            ledger.check(f"unit {i} stage {stage} exit", rc == 0, f"exit {rc}: {err}")

    def error_ratio(self, outputs) -> float:
        return self._error_ratio

    def run_checks(self, ledger: Ledger, outputs) -> None:
        """Compare the first pass's artifacts with an in-process reference,
        a brute-force planner and the materialized pruned model."""
        d = self.first_dir
        if d is None:
            ledger.check("pipeline produced artifacts", False)
            return
        cfg = MoEConfig(self.LAYERS, self.EXPERTS, self.DIM, self.TOPK)
        model = gen_model(cfg, self.model_seed)
        data = gen_data(cfg, self.SAMPLES, self.TOKENS, self.data_seed)
        graphs = [score_sample(model, s) for s in data]
        pathsets = [top_m_paths_dp(g, self.M) for g in graphs]
        mask_t, report_t = target_sparsity_search(graphs, self.RETENTION)
        ref = os.path.join(self.workdir, "reference")
        os.makedirs(ref, exist_ok=True)
        save_mask(mask_from_pathsets(pathsets, self.EXPERTS), os.path.join(ref, "paths-mask.json"))
        save_mask(mask_t, os.path.join(ref, "mask.json"))
        save_report(report_t, os.path.join(ref, "report.json"))
        harness.export_heatmap(selection_frequency(pathsets, self.LAYERS, self.EXPERTS),
                               os.path.join(ref, "heatmap.csv"))
        for produced, expected in [
            ("pruned/mask.json", "paths-mask.json"),
            ("pruned-target/mask.json", "mask.json"),
            ("pruned-target/report.json", "report.json"),
            ("heatmap.csv", "heatmap.csv"),
        ]:
            ledger.check(f"{produced} equals reference", _same_bytes(
                os.path.join(d, produced), os.path.join(ref, expected)), "bytes differ")

        try:
            with open(os.path.join(d, "pruned-target", "mask.json")) as f:
                mask = PruneMask.from_json(json.load(f))
            with open(os.path.join(d, "pruned-target", "report.json")) as f:
                report = json.load(f)
            with open(os.path.join(d, "eval.json")) as f:
                result = json.load(f)
            pruned = load_model(os.path.join(d, "pruned-target", "pruned-model"))
        except (OSError, ValueError, KeyError) as e:
            ledger.check("pipeline artifacts readable", False, repr(e))
            return
        ledger.check("retained count",
                     report["retained_total"] == mask.retained_total() == self.target_count,
                     f"report {report['retained_total']}, mask {mask.retained_total()}, "
                     f"expected {self.target_count}")
        trimmed = [tuple(t) for t in report["trimmed"]]
        ledger.check(
            "report.json agrees with mask.json",
            report["retained_per_layer"] == [int(c) for c in mask.keep.sum(axis=1)]
            and len(set(trimmed)) == len(trimmed)
            and not any(mask.keep[l, i] for l, i in trimmed),
            "per-layer counts or trimmed experts disagree with the mask")
        floats = [result["mean_final_error"], result["retention_fraction"], *result["per_layer_errors"]]
        ledger.check("eval.json finite", all(math.isfinite(v) for v in floats), str(floats))

        worst = masked_gap(model, mask, pruned, data)
        ledger.check("masked forward equals materialized forward", worst <= ABS_TOL,
                     f"max abs gap {worst:.3e}")
        err = final_error(model, pruned, data)
        ledger.check("eval error matches materialized model", near(result["mean_final_error"], err),
                     f"{result['mean_final_error']!r} vs {err!r}")

        for i in range(self.ORACLE_SAMPLES):
            ps = load_pathset(os.path.join(d, "paths", f"sample{i:04d}.paths.json"))
            oracle_check(ledger, f"plan sample {i} equals brute force", graphs[i], self.M, ps)

        rand = [
            harness.eval_mask(model, harness.random_mask(self.LAYERS, self.EXPERTS,
                                                         mask.retention_fraction(), s),
                              data).mean_final_error
            for s in self.mask_seeds
        ]
        self._error_ratio = result["mean_final_error"] / float(np.median(rand))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


# ----------------------------------------------------------- registry

DESK_CONFIG = ExperimentConfig()
WIDE_CONFIG = ExperimentConfig(
    moe=MoEConfig(num_layers=7, experts_per_layer=12, hidden_dim=16, top_k=2),
    pool_size=32,
    calibration_k=8,
    n_eval_samples=8,
    n_random_masks=4,
)

def make(name: str, seed: int, seconds: int, workdir: str):
    if name == "desk-compare":
        return ComparisonWorkload(name, DESK_CONFIG, 0.8, seed, seconds, oracle=True)
    if name == "wide-search":
        return ComparisonWorkload(name, WIDE_CONFIG, 1.2, seed, seconds, oracle=False)
    if name == "cli-pipeline":
        return CliPipeline(seed, seconds, workdir)
    raise ValueError(f"unknown workload {name!r}")
