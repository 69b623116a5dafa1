"""Toy mixture-of-experts model: generation, forward pass with trace capture,
and on-disk serialization.

Experts are single d x d linear maps and a layer's output feeds the next layer
through an elementwise nonlinearity; there is no attention or residual stream.
Top-k gate weights are renormalized over the selected experts.  Ties in top-k
selection always break toward the lower expert index.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import FormatError, InvariantError
from .numerics import (
    Rng, as_index, load_index, load_tensor, pairwise_sum, save_index, softmax_rows,
)

NONLINEARITIES = ("none", "tanh")


@dataclass(frozen=True)
class MoEConfig:
    num_layers: int
    experts_per_layer: int
    hidden_dim: int
    top_k: int
    nonlinearity: str = "tanh"

    def __post_init__(self):
        if self.num_layers < 2:
            raise ValueError("num_layers must be >= 2 (first and last layer are distinct)")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if not (1 <= self.top_k <= self.experts_per_layer):
            raise ValueError("top_k must satisfy 1 <= top_k <= experts_per_layer")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")


@dataclass
class MoELayer:
    experts: np.ndarray  # n_experts x d x d; expert i maps h to h @ experts[i].T
    router: np.ndarray  # n_experts x d

    def validate(self, l: int, config: MoEConfig) -> None:
        """The one rule for layer l's arrays, which save_model and load_model
        both apply: its expert count n is the router's row count, the router
        is n x d and the experts n x d x d, with d the hidden_dim, and
        1 <= n <= experts_per_layer.  A failure is a ValueError naming the
        layer and both numbers."""
        d, n_max = config.hidden_dim, config.experts_per_layer
        n = self.router.shape[0] if self.router.ndim else 0
        if self.router.shape != (n, d):
            raise ValueError(f"layer {l} router blob has shape {self.router.shape}, "
                             f"expected (n, {d}) for hidden_dim {d}")
        if self.experts.shape != (n, d, d):
            raise ValueError(f"layer {l} experts blob has shape {self.experts.shape}, "
                             f"expected ({n}, {d}, {d}) to match the router")
        if not 1 <= n <= n_max:
            raise ValueError(f"layer {l} holds {n} experts, not 1 to experts_per_layer {n_max}")

    def subset(self, ids) -> "MoELayer":
        """The layer that keeps experts `ids` (ascending) and their router
        rows, in order, as copies: writing to it leaves this layer as is."""
        return MoELayer(self.experts[ids], self.router[ids])


@dataclass
class MoEModel:
    config: MoEConfig
    layers: list[MoELayer]

    def validate(self) -> None:
        if len(self.layers) != self.config.num_layers:
            raise ValueError("layer count does not match config")
        for l, layer in enumerate(self.layers):
            layer.validate(l, self.config)


@dataclass
class SampleBatch:
    tokens: np.ndarray  # n_tokens x d


@dataclass
class ForwardTrace:
    """routing_probs[l] is the softmax layer l gated with, bit-identical to
    `route`.  A masked trace is the pruned model's trace: selected_experts
    holds indices into the layer's kept experts (apply_mask's kept[l]), and
    routing_probs has one column per kept expert."""

    hidden_states: list[np.ndarray]  # L+1 entries, hidden_states[0] is the input
    layer_outputs: list[np.ndarray]  # L entries, pre-nonlinearity
    routing_probs: list[np.ndarray]  # L entries, n_tokens x n_l gating softmax
    selected_experts: list[np.ndarray]  # L entries, n_tokens x k' sorted index sets


def route(layer: MoELayer, h: np.ndarray) -> np.ndarray:
    """Full routing distribution per token: softmax(h @ router.T) rows.
    layer_forward computes the same softmax in place."""
    return softmax_rows(h @ layer.router.T)


def expert_outputs(layer: MoELayer, h: np.ndarray) -> np.ndarray:
    """Every expert's raw output h @ W_i.T for the whole batch, stacked
    N_e x n_tokens x d: the one product that computes expert outputs."""
    return np.matmul(h[None], layer.experts.transpose(0, 2, 1))


def layer_forward(
    layer: MoELayer, h: np.ndarray, top_k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One MoE layer: softmax over the router logits, pick the top-k'
    experts per token (k' = min(top_k, number of experts)), renormalize
    their gates, and mix the selected experts' outputs, gathered from
    expert_outputs.

    Returns (output, selected, probs, outs): selected is n_tokens x k' of
    sorted expert indices, probs the C-contiguous n_tokens x N_e softmax the
    gates came from, and outs every expert's output, as expert_outputs
    stacks them.

    Each step is a few vector operations over all tokens: k' rounds of a
    row argmax pick the top-k', and argmax takes the first of equal maxima,
    so equal probabilities resolve to the lower index, as a stable argsort
    of -probs ranks them.  The gates sum in numpy's row-sum order
    (pairwise_sum), so no float differs from the per-row form.
    """
    probs = softmax_rows(h @ layer.router.T)
    T, n = probs.shape
    k = min(top_k, n)

    # each round marks one pick per token below every probability
    picked = probs.copy()
    tokens = np.arange(T)
    starts = tokens * n  # flat index of each token's expert 0
    for _ in range(k):
        picked.ravel()[starts + picked.argmax(axis=1)] = -1.0
    flat = np.flatnonzero(picked < 0).reshape(T, k)  # each token's picks, ascending
    selected = flat - starts[:, None]
    gates = probs.ravel()[flat]
    gates /= pairwise_sum(gates.T)[:, None]

    outs = expert_outputs(layer, h)
    mixed = np.take(outs.reshape(n * T, h.shape[1]), selected * T + tokens[:, None], axis=0)
    return np.einsum("tk,tkd->td", gates, mixed), selected, probs, outs


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


def apply_mask(model: MoEModel, mask) -> tuple[MoEModel, list[list[int]]]:
    """(pruned, kept): the model whose layers are the `subset`s (copies) of
    the experts `mask` keeps, and each layer's original ids in their new
    order, kept[l][new_id] == old_id.  The one builder of pruned layers."""
    kept = retained_ids(model, mask)
    layers = [layer.subset(ids) for layer, ids in zip(model.layers, kept)]
    return MoEModel(model.config, layers), [ids.tolist() for ids in kept]


def _apply_nonlinearity(y: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(y)
    return y


def layer_states(model: MoEModel, h: np.ndarray):
    """Yield (output, selected, probs, outs, next_hidden) for each layer in
    turn: layer_forward's four results and the nonlinearity of its output,
    which feeds the next layer.  A caller that keeps only what it needs
    holds one layer's states at a time; model_forward keeps them all but
    the expert outputs.  To run a pruned model, pass apply_mask's.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.config.hidden_dim:
        raise ValueError(
            f"sample width {h.shape} does not match hidden_dim {model.config.hidden_dim}"
        )
    for layer in model.layers:
        y, selected, p, outs = layer_forward(layer, h, model.config.top_k)
        h = _apply_nonlinearity(y, model.config.nonlinearity)
        yield y, selected, p, outs, h


# Rows per stacked forward, in evaluation and scoring.  Measured with
# `bench/run.py --seed 1 --seconds 10` on a 2-core x86-64 VM (numpy 2.4.6,
# one BLAS thread): a desk-compare seed took 0.16 s at 512 rows, 0.20 s at
# 256 and 0.26 s at 128, for 1.0 and 1.4 MB less peak RSS (41.8 MB at 512);
# stacking cli-pipeline's whole 2048-row eval set raised its peak RSS from
# 43.7 MB (512-row blocks) to 48.9 MB.
BLOCK_ROWS = 512


def sample_blocks(samples: list[SampleBatch]):
    """Consecutive runs of whole samples that share one token count, each
    with at most BLOCK_ROWS rows; a sample larger than that is a block of its
    own.  Every sample of a block has the same length, so a per-sample
    statistic over a block's stacked rows is a reshape reduction."""
    block, rows = [], 0
    for sample in samples:
        n = sample.tokens.shape[0]
        if block and (rows + n > BLOCK_ROWS or n != block[0].tokens.shape[0]):
            yield block
            block, rows = [], 0
        block.append(sample)
        rows += n
    if block:
        yield block


def model_forward(model: MoEModel, x: SampleBatch, mask=None) -> ForwardTrace:
    """Run all layers, recording hidden states, pre-nonlinearity outputs, the
    gating softmax, and the per-token selections; one router pass per layer.
    Under a PruneMask `mask` it runs apply_mask's pruned model, so the trace
    is that model's; an all-true mask gives the same trace as none."""
    if mask is not None:
        model = apply_mask(model, mask)[0]
    h = np.asarray(x.tokens, dtype=np.float64)
    trace = ForwardTrace([h], [], [], [])
    for y, selected, p, _, h in layer_states(model, h):
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
        experts = rng.uniform_array((config.experts_per_layer, d, d), -bound, bound)
        layers.append(MoELayer(experts=experts, router=router))
    return MoEModel(config=config, layers=layers)


def gen_data(
    config: MoEConfig, n_samples: int, tokens_per_sample: int, seed: int
) -> list[SampleBatch]:
    """Seed-deterministic samples with tokens i.i.d. uniform on
    [-1/sqrt(d), 1/sqrt(d)], drawn sample by sample, row-major, in one
    array."""
    bound = 1.0 / np.sqrt(config.hidden_dim)
    shape = (n_samples, tokens_per_sample, config.hidden_dim)
    return [SampleBatch(tokens) for tokens in Rng(seed).uniform_array(shape, -bound, bound)]


def save_model(model: MoEModel, dirpath) -> None:
    """model.json manifest plus two .tnsr blobs per layer: the n x d router
    and the n x d x d experts.  A pruned layer's n is its blobs' first
    dimension."""
    model.validate()
    blobs, members = [], []
    for l, layer in enumerate(model.layers):
        router, experts = f"layer{l}.router.tnsr", f"layer{l}.experts.tnsr"
        blobs.append({"router": router, "experts": experts})
        members += [(router, layer.router), (experts, layer.experts)]
    save_index(dirpath, "model.json", {"config": asdict(model.config), "layers": blobs}, members)


def _parse_model_manifest(manifest, member) -> tuple[MoEConfig, list[tuple[str, str]]]:
    c = manifest["config"]
    config = MoEConfig(
        num_layers=as_index(c["num_layers"], "num_layers", 2),
        experts_per_layer=as_index(c["experts_per_layer"], "experts_per_layer", 1),
        hidden_dim=as_index(c["hidden_dim"], "hidden_dim", 1),
        top_k=as_index(c["top_k"], "top_k", 1),
        nonlinearity=c["nonlinearity"],
    )
    blobs = [(member(e["router"]), member(e["experts"])) for e in manifest["layers"]]
    if len(blobs) != config.num_layers:
        raise ValueError(f"{len(blobs)} layers listed, config says {config.num_layers}")
    return config, blobs


def load_model(dirpath) -> MoEModel:
    """The model of a save_model directory; a layer whose blobs break
    MoELayer.validate is a FormatError naming both blobs and model.json."""
    config, blobs = load_index(dirpath, "model.json", "model manifest", _parse_model_manifest)
    manifest = os.path.join(dirpath, "model.json")
    layers = []
    for l, (router_path, experts_path) in enumerate(blobs):
        layer = MoELayer(router=load_tensor(router_path), experts=load_tensor(experts_path))
        try:
            layer.validate(l, config)
        except ValueError as e:
            raise FormatError(f"{router_path} and {experts_path} do not fit {manifest}: {e}") from e
        layers.append(layer)
    return MoEModel(config=config, layers=layers)
