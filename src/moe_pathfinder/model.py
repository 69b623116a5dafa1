"""Toy mixture-of-experts model: generation, forward pass with trace capture,
and on-disk serialization.

Experts are single d x d linear maps and a layer's output feeds the next layer
through an elementwise nonlinearity; there is no attention or residual stream.
Top-k gate weights are renormalized over the selected experts.  Ties in top-k
selection always break toward the lower expert index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvariantError
from .numerics import (
    Rng, load_json, load_tensor, matmul_transpose, save_json, save_tensor, softmax_rows,
)

NONLINEARITIES = ("none", "tanh")


@dataclass(frozen=True)
class MoEConfig:
    num_layers: int
    experts_per_layer: int
    hidden_dim: int
    top_k: int
    nonlinearity: str = "tanh"
    # set after pruning, when layers no longer share one expert count
    layer_expert_counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.num_layers < 2:
            raise ValueError("num_layers must be >= 2 (first and last layer are distinct)")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if not (1 <= self.top_k <= self.experts_per_layer):
            raise ValueError("top_k must satisfy 1 <= top_k <= experts_per_layer")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")
        if self.layer_expert_counts is not None:
            if len(self.layer_expert_counts) != self.num_layers:
                raise ValueError("layer_expert_counts length must equal num_layers")
            if any(c < 1 for c in self.layer_expert_counts):
                raise ValueError("every layer must keep at least one expert")

    def expert_count(self, layer: int) -> int:
        if self.layer_expert_counts is not None:
            return self.layer_expert_counts[layer]
        return self.experts_per_layer


@dataclass
class MoELayer:
    experts: list[np.ndarray]  # each d x d
    router: np.ndarray  # n_experts x d

    def validate(self, d: int) -> None:
        n = len(self.experts)
        if self.router.shape != (n, d):
            raise ValueError(f"router shape {self.router.shape} != ({n}, {d})")
        for i, w in enumerate(self.experts):
            if w.shape != (d, d):
                raise ValueError(f"expert {i} shape {w.shape} != ({d}, {d})")

    def subset(self, ids) -> "MoELayer":
        """The layer that keeps experts `ids` (ascending) and their router
        rows, in order.  The expert matrices are shared, not copied."""
        return MoELayer([self.experts[i] for i in ids], self.router[ids])


@dataclass
class MoEModel:
    config: MoEConfig
    layers: list[MoELayer]

    def validate(self) -> None:
        if len(self.layers) != self.config.num_layers:
            raise ValueError("layer count does not match config")
        for l, layer in enumerate(self.layers):
            if len(layer.experts) != self.config.expert_count(l):
                raise ValueError(f"layer {l} expert count does not match config")
            layer.validate(self.config.hidden_dim)


@dataclass
class SampleBatch:
    tokens: np.ndarray  # n_tokens x d


@dataclass
class ForwardTrace:
    """routing_probs[l] is the softmax layer l gated with: the full routing
    softmax (bit-identical to `route`) unmasked, and under a mask the softmax
    over the retained experts, zero elsewhere."""

    hidden_states: list[np.ndarray]  # L+1 entries, hidden_states[0] is the input
    layer_outputs: list[np.ndarray]  # L entries, pre-nonlinearity
    routing_probs: list[np.ndarray]  # L entries, n_tokens x N_e gating softmax
    selected_experts: list[np.ndarray]  # L entries, n_tokens x k' sorted index sets


def route(layer: MoELayer, h: np.ndarray) -> np.ndarray:
    """Full routing distribution per token: softmax(h @ router.T) rows.
    layer_forward computes the same softmax in place."""
    return softmax_rows(matmul_transpose(h, layer.router))


def layer_forward(
    layer: MoELayer, h: np.ndarray, top_k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One MoE layer: softmax over the router logits, pick the top-k'
    experts per token (k' = min(top_k, number of experts)), renormalize
    their gates, and mix the selected expert outputs.

    Returns (output, selected, probs): selected is n_tokens x k' of sorted
    expert indices and probs the n_tokens x N_e softmax the gates came from.
    """
    probs = softmax_rows(matmul_transpose(h, layer.router))
    k = min(top_k, len(layer.experts))

    # stable argsort on -probs: equal probabilities resolve to the lower index
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    selected = np.sort(order, axis=1)
    gates = np.take_along_axis(probs, selected, axis=1)
    gates = gates / gates.sum(axis=1, keepdims=True)

    out = np.zeros((h.shape[0], h.shape[1]))
    for i in np.unique(selected):
        rows, cols = np.nonzero(selected == i)
        expert_out = matmul_transpose(h[rows], layer.experts[i])
        out[rows] += gates[rows, cols, None] * expert_out
    return out, selected, probs


def retained_ids(model: MoEModel, mask) -> list[np.ndarray]:
    """Each layer's kept expert ids, ascending, under `mask` (a PruneMask).
    Its keep grid must have one row per layer and one column per expert of
    every layer, so a mask does not fit a pruned model; a layer that keeps
    no expert is an InvariantError naming it."""
    keep = mask.keep
    counts = [len(layer.experts) for layer in model.layers]
    if keep.shape[0] != len(counts) or any(c != keep.shape[1] for c in counts):
        raise ValueError(
            f"mask shape {keep.shape} does not match model layers of {counts} experts"
        )
    empty = np.flatnonzero(~keep.any(axis=1))
    if empty.size:
        raise InvariantError(f"layer {empty[0]} fully pruned: mask retains no experts")
    return [np.flatnonzero(row) for row in keep]


def _apply_nonlinearity(y: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(y)
    return y


def layer_states(model: MoEModel, h: np.ndarray, mask=None):
    """Yield (output, selected, probs, next_hidden) for each layer in turn:
    layer_forward's three results and the nonlinearity of its output, which
    feeds the next layer.  A caller that keeps only what it needs holds one
    layer's states at a time; model_forward keeps them all.

    Under a PruneMask each layer runs as its pruned layer, `layer.subset` of
    the kept ids, as apply_mask builds it; selected is mapped back to the
    layer's expert ids and probs is zero for the experts pruned.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.config.hidden_dim:
        raise ValueError(
            f"sample width {h.shape} does not match hidden_dim {model.config.hidden_dim}"
        )
    top_k = model.config.top_k
    kept = retained_ids(model, mask) if mask is not None else [None] * len(model.layers)
    for layer, ids in zip(model.layers, kept):
        if ids is None:
            y, selected, p = layer_forward(layer, h, top_k)
        else:
            y, local, local_p = layer_forward(layer.subset(ids), h, top_k)
            selected = ids[local]
            p = np.zeros((h.shape[0], len(layer.experts)))
            p[:, ids] = local_p
        h = _apply_nonlinearity(y, model.config.nonlinearity)
        yield y, selected, p, h


def model_forward(model: MoEModel, x: SampleBatch, mask=None) -> ForwardTrace:
    """Run all layers, recording hidden states, pre-nonlinearity outputs, the
    gating softmax, and the per-token selections; one router pass per layer.
    `mask` is as in layer_states; an all-true mask gives the same trace as
    none."""
    h = np.asarray(x.tokens, dtype=np.float64)
    trace = ForwardTrace([h], [], [], [])
    for y, selected, p, h in layer_states(model, h, mask):
        trace.layer_outputs.append(y)
        trace.routing_probs.append(p)
        trace.selected_experts.append(selected)
        trace.hidden_states.append(h)
    return trace


def gen_model(config: MoEConfig, seed: int) -> MoEModel:
    """Seed-deterministic model with all weights i.i.d. uniform on
    [-1/sqrt(d), 1/sqrt(d)].

    Draw order is part of the file-format contract: one SplitMix64 stream
    seeded with `seed`; per layer, first the router (row-major), then each
    expert 0..N_e-1 (row-major).
    """
    rng = Rng(seed)
    d = config.hidden_dim
    bound = 1.0 / np.sqrt(d)
    layers = []
    for _ in range(config.num_layers):
        router = rng.uniform_array((config.experts_per_layer, d), -bound, bound)
        experts = [
            rng.uniform_array((d, d), -bound, bound)
            for _ in range(config.experts_per_layer)
        ]
        layers.append(MoELayer(experts=experts, router=router))
    return MoEModel(config=config, layers=layers)


def gen_data(
    config: MoEConfig, n_samples: int, tokens_per_sample: int, seed: int
) -> list[SampleBatch]:
    """Seed-deterministic samples with tokens i.i.d. uniform on
    [-1/sqrt(d), 1/sqrt(d)], drawn sample by sample, row-major."""
    rng = Rng(seed)
    bound = 1.0 / np.sqrt(config.hidden_dim)
    return [
        SampleBatch(rng.uniform_array((tokens_per_sample, config.hidden_dim), -bound, bound))
        for _ in range(n_samples)
    ]


def save_model(model: MoEModel, dirpath) -> None:
    """model.json manifest plus one .tnsr blob per router/expert."""
    model.validate()
    os.makedirs(dirpath, exist_ok=True)
    manifest_layers = []
    for l, layer in enumerate(model.layers):
        router_blob = f"layer{l}.router.tnsr"
        expert_blobs = [f"layer{l}.expert{i}.tnsr" for i in range(len(layer.experts))]
        save_tensor(os.path.join(dirpath, router_blob), layer.router)
        for blob, w in zip(expert_blobs, layer.experts):
            save_tensor(os.path.join(dirpath, blob), w)
        manifest_layers.append({"router": router_blob, "experts": expert_blobs})
    cfg = model.config
    manifest = {
        "config": {
            "num_layers": cfg.num_layers,
            "experts_per_layer": cfg.experts_per_layer,
            "hidden_dim": cfg.hidden_dim,
            "top_k": cfg.top_k,
            "nonlinearity": cfg.nonlinearity,
            "layer_expert_counts": list(cfg.layer_expert_counts)
            if cfg.layer_expert_counts is not None
            else None,
        },
        "layers": manifest_layers,
    }
    save_json(os.path.join(dirpath, "model.json"), manifest)


def _parse_model_manifest(manifest) -> tuple[MoEConfig, list[tuple[str, list[str]]]]:
    c = manifest["config"]
    counts = c.get("layer_expert_counts")
    config = MoEConfig(
        num_layers=c["num_layers"],
        experts_per_layer=c["experts_per_layer"],
        hidden_dim=c["hidden_dim"],
        top_k=c["top_k"],
        nonlinearity=c["nonlinearity"],
        layer_expert_counts=tuple(counts) if counts is not None else None,
    )
    blobs = [(str(e["router"]), [str(b) for b in e["experts"]]) for e in manifest["layers"]]
    if len(blobs) != config.num_layers:
        raise ValueError(f"{len(blobs)} layers listed, config says {config.num_layers}")
    for l, (_, experts) in enumerate(blobs):
        if len(experts) != config.expert_count(l):
            raise ValueError(
                f"layer {l} lists {len(experts)} experts, expected {config.expert_count(l)}"
            )
    return config, blobs


def load_model(dirpath) -> MoEModel:
    config, blobs = load_json(
        os.path.join(dirpath, "model.json"), "model manifest", _parse_model_manifest
    )
    d = config.hidden_dim

    def load_blob(name, shape, what):
        path = os.path.join(dirpath, name)
        w = load_tensor(path)
        if w.shape != shape:
            raise FormatError(f"{path}: {what} blob has shape {w.shape}, expected {shape}")
        return w

    layers = []
    for l, (router_blob, expert_blobs) in enumerate(blobs):
        router = load_blob(router_blob, (config.expert_count(l), d), f"layer {l} router")
        experts = [
            load_blob(b, (d, d), f"layer {l} expert {i}") for i, b in enumerate(expert_blobs)
        ]
        layers.append(MoELayer(experts=experts, router=router))
    return MoEModel(config=config, layers=layers)
