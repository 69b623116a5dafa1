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
    hidden_states: list[np.ndarray]  # L+1 entries, hidden_states[0] is the input
    layer_outputs: list[np.ndarray]  # L entries, pre-nonlinearity
    routing_probs: list[np.ndarray]  # L entries, full (unmasked) softmax per token
    selected_experts: list[np.ndarray]  # L entries, n_tokens x k' sorted index sets


def route(layer: MoELayer, h: np.ndarray) -> np.ndarray:
    """Full routing distribution per token: softmax(h @ router.T) rows."""
    return softmax_rows(matmul_transpose(h, layer.router))


def layer_forward(
    layer: MoELayer,
    h: np.ndarray,
    top_k: int,
    retained: set[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One MoE layer: mask non-retained logits to -inf, softmax, pick the
    top-k' experts per token (k' = min(top_k, |retained|)), renormalize their
    gates, and mix the selected expert outputs.

    Returns (output, selected) where selected is n_tokens x k' of sorted
    expert indices.
    """
    n_experts = len(layer.experts)
    logits = matmul_transpose(h, layer.router)
    if retained is not None:
        retained_idx = sorted(retained)
        if not retained_idx:
            raise InvariantError("layer fully pruned: no retained experts")
        if retained_idx[0] < 0 or retained_idx[-1] >= n_experts:
            raise ValueError("retained expert index out of range")
        if len(retained_idx) == n_experts:
            retained = None  # keeps the masked path bit-identical to unmasked
    if retained is not None:
        masked = np.full_like(logits, -np.inf)
        masked[:, retained_idx] = logits[:, retained_idx]
        logits = masked
        k = min(top_k, len(retained_idx))
    else:
        k = min(top_k, n_experts)
    probs = softmax_rows(logits)

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
    return out, selected


def _apply_nonlinearity(y: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(y)
    return y


def model_forward(model: MoEModel, x: SampleBatch, mask=None) -> ForwardTrace:
    """Run all layers, recording hidden states, pre-nonlinearity outputs, the
    full routing softmax, and the per-token selections.

    `mask` is a PruneMask (or any object with a `retained(layer)` method);
    passing an all-true mask is exactly equivalent to passing None.
    """
    h = np.asarray(x.tokens, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.config.hidden_dim:
        raise ValueError(
            f"sample width {h.shape} does not match hidden_dim {model.config.hidden_dim}"
        )
    hidden = [h]
    outputs, probs, selections = [], [], []
    for l, layer in enumerate(model.layers):
        retained = mask.retained(l) if mask is not None else None
        probs.append(route(layer, h))
        y, selected = layer_forward(layer, h, model.config.top_k, retained)
        outputs.append(y)
        selections.append(selected)
        h = _apply_nonlinearity(y, model.config.nonlinearity)
        hidden.append(h)
    return ForwardTrace(hidden, outputs, probs, selections)


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
