"""Opt-in tracing of the program's public functions, from outside the program.

`Tracer.install()` replaces each traced function with a wrapper, both in the
module that defines it and in every `moe_pathfinder` module that imported it
by name, so calls made through either name are seen.  Each wrapper records a
span (name, start, end, parent span, unit id) and updates counts; spans stay
in memory in flat arrays until `write()` saves them at the end of the run.
`uninstall()` restores every original function.

Bookkeeping that needs the call's result (file sizes, iteration counts) runs
after the span has closed, so it is charged to the caller's span, not to the
traced function.
"""

from __future__ import annotations

import gzip
import hashlib
import inspect
import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

CLI_STAGES = ("gen_model", "gen_data", "calibrate", "score", "plan", "prune", "eval", "heatmap")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def dp_candidates(num_layers: int, n: int, m: int) -> tuple[int, int]:
    """(candidates built, prefixes kept) by the per-node top-m DP, computed
    from the graph shape: layer l extends min(m, N^(l-1)) prefixes at each
    of N nodes across N^2 edges and keeps min(m, N^l) per node."""
    built = sum(n * n * min(m, n ** (l - 1)) for l in range(1, num_layers))
    kept = sum(n * min(m, n**l) for l in range(1, num_layers))
    return built, kept


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_unit = array("i")
        # 1 when no enclosing span has the same name, so inclusive totals
        # never count a nested call twice
        self.span_outer = array("b")
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self.unit = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.m_used: list[int] = []
        self._distinct_forwards: set[tuple[bytes, bytes]] = set()
        self._model_key: tuple[object, bytes] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_unit.append(self.unit)
        self.span_outer.append(0 if self._active[name] else 1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._active[name] += 1
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.names[self.span_name[idx]]] -= 1

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    # ---------------------------------------------------------- patching

    def _wrap(self, fn, name: str, after):
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, result, bound.arguments)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import moe_pathfinder.numerics as numerics

        modules = [
            m for key, m in sorted(sys.modules.items())
            if key.startswith("moe_pathfinder.") and m is not None
        ]
        for home, attr, name, after in TRACED:
            if attr.startswith("Rng."):
                method = attr.split(".", 1)[1]
                original = getattr(numerics.Rng, method)
                self._patch(numerics.Rng, method, self._wrap(original, name, after))
                continue
            original = getattr(sys.modules[f"moe_pathfinder.{home}"], attr)
            wrapped = self._wrap(original, name, after)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- results

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: inclusive seconds, self seconds, call count."""
        n = len(self.span_name)
        start = np.frombuffer(self.span_start, dtype=np.float64, count=n)
        end = np.frombuffer(self.span_end, dtype=np.float64, count=n)
        dur = end - start
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        outer = np.frombuffer(self.span_outer, dtype=np.int8, count=n).astype(bool)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        self_t = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        return (
            {nm: float(incl[i]) for i, nm in enumerate(self.names)},
            {nm: float(self_t[i]) for i, nm in enumerate(self.names)},
            {nm: int(calls[i]) for i, nm in enumerate(self.names)},
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics named in BENCHMARK.json, from this trace."""
        incl, _, calls = self.totals()
        c = self.counts
        t = lambda nm: incl.get(nm, 0.0)  # noqa: E731
        n = lambda nm: calls.get(nm, 0)  # noqa: E731
        lf_calls = n("model.layer_forward")
        searches = n("pruner.search")
        out = {
            "numerics.rng_s": (t("numerics.rng"), "s"),
            "numerics.rng_draws": (c["rng_draws"], "count"),
            "numerics.tensor_write_s": (t("numerics.tensor_write"), "s"),
            "numerics.tensor_read_s": (t("numerics.tensor_read"), "s"),
            "numerics.tensor_bytes_written": (c["tensor_bytes_written"], "B"),
            "numerics.tensor_bytes_read": (c["tensor_bytes_read"], "B"),
            "model.gen_s": (t("model.gen"), "s"),
            "model.forward_s": (t("model.forward"), "s"),
            "model.forward_calls": (n("model.forward"), "count"),
            "model.tokens_forwarded": (c["tokens_forwarded"], "count"),
            "model.route_s": (t("model.route"), "s"),
            "model.route_calls": (n("model.route"), "count"),
            "model.layer_forward_s": (t("model.layer_forward"), "s"),
            "model.router_passes_per_layer": (
                (n("model.route") + lf_calls) / lf_calls if lf_calls else 0.0, "ratio"),
            "calibration.build_s": (t("calibration.build"), "s"),
            "calibration.kmeans_iters": (c["kmeans_iters"], "count"),
            "scoring.score_s": (t("scoring.score"), "s"),
            "scoring.samples_scored": (n("scoring.score"), "count"),
            "scoring.graph_write_s": (t("scoring.graph_write"), "s"),
            "scoring.graph_read_s": (t("scoring.graph_read"), "s"),
            "scoring.graph_bytes": (c["graph_bytes"], "B"),
            "scoring.transition_bytes_frac": (
                c["transition_bytes"] / c["graph_bytes"] if c["graph_bytes"] else 0.0, "ratio"),
            "planner.dp_s": (t("planner.dp"), "s"),
            "planner.dp_calls": (n("planner.dp"), "count"),
            "planner.candidates": (c["dp_candidates"], "count"),
            "planner.kept_per_candidate": (
                c["dp_kept"] / c["dp_candidates"] if c["dp_candidates"] else 0.0, "ratio"),
            "pruner.search_s": (t("pruner.search"), "s"),
            "pruner.plans_per_sample": (
                c["plans_in_search"] / c["samples_searched"] if c["samples_searched"] else 0.0,
                "count"),
            "pruner.m_used": (float(np.mean(self.m_used)) if self.m_used else 0.0, "count"),
            "pruner.trimmed": (c["trimmed"] / searches if searches else 0.0, "count"),
            "pruner.apply_mask_s": (t("pruner.apply_mask"), "s"),
            "harness.eval_s": (t("harness.eval"), "s"),
            "harness.eval_calls": (n("harness.eval"), "count"),
            "harness.full_forward_reuse": (
                len(self._distinct_forwards) / c["full_forwards"] if c["full_forwards"] else 1.0,
                "ratio"),
            "harness.random_mask_s": (t("harness.random_mask"), "s"),
        }
        for stage in CLI_STAGES:
            out[f"cli.{stage}_s"] = (t(f"cli.{stage}"), "s")
            out[f"cli.{stage}_bytes_out"] = (c[f"cli.{stage}_bytes_out"], "B")
        return out

    def write(self, path, extra: dict) -> None:
        """Spans as columns (gzipped JSON) plus per-name totals."""
        incl, self_t, calls = self.totals()
        obj = dict(extra)
        obj["by_name"] = {
            nm: {"incl_s": incl[nm], "self_s": self_t[nm], "calls": calls[nm]}
            for nm in self.names
        }
        obj["counts"] = dict(self.counts)
        obj["spans"] = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "unit": self.span_unit.tolist(),
        }
        with gzip.open(path, "wt") as f:
            json.dump(obj, f)


# ------------------------------------------- after-call bookkeeping
# Each hook gets the tracer, the call's result and its arguments by name.


def _after_uniform_array(tr, result, a):
    tr.counts["rng_draws"] += math.prod(a["shape"])


def _after_single_draw(tr, result, a):
    tr.counts["rng_draws"] += 1


def _after_save_tensor(tr, result, a):
    tr.counts["tensor_bytes_written"] += _file_size(a["path"])


def _after_load_tensor(tr, result, a):
    tr.counts["tensor_bytes_read"] += _file_size(a["path"])


def _after_forward(tr, result, a):
    tr.counts["tokens_forwarded"] += a["x"].tokens.shape[0]
    if a["mask"] is None and tr.active("harness.eval"):
        tr.counts["full_forwards"] += 1


def _after_kmeans(tr, result, a):
    tr.counts["kmeans_iters"] += result.n_iters


def _after_save_graph(tr, result, a):
    total = _file_size(os.path.join(a["dirpath"], result))
    blobs = sum(
        _file_size(os.path.join(a["dirpath"], f"{a['stem']}.t{l}.tnsr"))
        for l in range(a["graph"].num_layers - 1)
    )
    tr.counts["graph_bytes"] += total + blobs
    tr.counts["transition_bytes"] += blobs


def _after_dp(tr, result, a):
    graph = a["graph"]
    built, kept = dp_candidates(graph.num_layers, graph.experts_per_layer, a["m"])
    tr.counts["dp_candidates"] += built
    tr.counts["dp_kept"] += kept
    if tr.active("pruner.search"):
        tr.counts["plans_in_search"] += 1


def _after_search(tr, result, a):
    _, report = result
    tr.counts["samples_searched"] += len(a["graphs"])
    tr.counts["trimmed"] += len(report.trimmed)
    tr.m_used.append(report.m_used)


def _weights_key(model) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for layer in model.layers:
        h.update(np.ascontiguousarray(layer.router).tobytes())
        for w in layer.experts:
            h.update(np.ascontiguousarray(w).tobytes())
    return h.digest()


def _after_eval(tr, result, a):
    # content keys, so a model reloaded from disk counts as the same model
    model = a["model"]
    if tr._model_key is None or tr._model_key[0] is not model:
        tr._model_key = (model, _weights_key(model))
    mkey = tr._model_key[1]
    for s in a["eval_samples"]:
        skey = hashlib.blake2b(np.ascontiguousarray(s.tokens).tobytes(), digest_size=16).digest()
        tr._distinct_forwards.add((mkey, skey))


# (home module, attribute, span name, bookkeeping after the call or None);
# "Rng.x" names a method of numerics.Rng
TRACED = [
    ("numerics", "Rng.uniform_array", "numerics.rng", _after_uniform_array),
    ("numerics", "Rng.randrange", "numerics.rng", _after_single_draw),
    ("numerics", "Rng.choice_weighted", "numerics.rng", _after_single_draw),
    ("numerics", "save_tensor", "numerics.tensor_write", _after_save_tensor),
    ("numerics", "load_tensor", "numerics.tensor_read", _after_load_tensor),
    ("model", "gen_model", "model.gen", None),
    ("model", "model_forward", "model.forward", _after_forward),
    ("model", "route", "model.route", None),
    ("model", "layer_forward", "model.layer_forward", None),
    ("calibration", "build_calibration_set", "calibration.build", None),
    ("calibration", "kmeans", "calibration.kmeans", _after_kmeans),
    ("scoring", "score_sample", "scoring.score", None),
    ("scoring", "save_graph", "scoring.graph_write", _after_save_graph),
    ("scoring", "load_graph", "scoring.graph_read", None),
    ("planner", "top_m_paths_dp", "planner.dp", _after_dp),
    ("pruner", "target_sparsity_search", "pruner.search", _after_search),
    ("pruner", "apply_mask", "pruner.apply_mask", None),
    ("harness", "eval_mask", "harness.eval", _after_eval),
    ("harness", "random_mask", "harness.random_mask", None),
]
