"""Per-sample graph weights.

For every layer: activation strength (mean per-token output norm of each
expert), routing preference (mean routing probability), per-expert
reconstruction loss against the traced layer output, and the importance
score softmax(-loss) with multiplicative boundary corrections at the first
(own routing preference) and last (own activation strength) layers.
The transition between adjacent layers is the rank-1 outer product
activation x next-layer routing preference, so a path's log weight splits
into one score per expert: its clamped log importance, plus its clamped log
activation toward the next layer, plus its clamped log routing preference
from the previous one.  A graph holds the four per-layer vectors and these
per-node scores; on disk it is the vectors alone, one (L, 4, N_e) row of a
`.tnsr` blob that stacks every sample's (check_scores is the one rule for
such arrays), and loading recomputes the scores.

Everything is computed for all experts, routed-to or not, from one forward
pass per block of stacked samples (model.sample_blocks): each layer's
states, including the batched product that evaluates every expert on the
layer's input and that the layer mixed its top-k from, are scored as the
pass yields them, each sample's statistics as means over its own rows.
Logs are clamped at 1e-300 so genuinely-zero weights stay finite and
simply rank last.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .model import MoEModel, SampleBatch, layer_states, sample_blocks
from .numerics import load_tensor, save_tensor, softmax_rows

LOG_CLAMP = 1e-300
_GRAPH_FIELDS = ("activation", "routing", "recon_loss", "importance")


@dataclass
class SampleGraph:
    scores: np.ndarray  # L x 4 x N_e, each layer's vectors in _GRAPH_FIELDS order
    node_scores: np.ndarray  # L x N_e; a path's log weight sums one per layer

    @property
    def num_layers(self) -> int:
        return self.scores.shape[0]

    @property
    def experts_per_layer(self) -> int:
        return self.scores.shape[2]

    @property
    def log_node(self) -> np.ndarray:
        """L x N_e clamped log importances: the paper's node log weights."""
        return clamped_log(self.scores[:, 3])

    @property
    def log_edge(self) -> np.ndarray:
        """(L-1) x N_e x N_e clamped log transition intensities, the rank-1
        products activation x next-layer routing: the paper's edge log
        weights, built on each access."""
        return clamped_log(self.scores[:-1, 0, :, None] * self.scores[1:, 1, None, :])


def clamped_log(values: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(values, LOG_CLAMP))


def activation_strength(outs: np.ndarray) -> np.ndarray:
    """Mean per-token output norm of each expert, over the token axis (the
    second to last) of expert outputs: N_e for model.expert_outputs, N_e x n
    for them split into n samples of equal length."""
    return np.sqrt(np.einsum("...j,...j->...", outs, outs)).mean(axis=-1)


def reconstruction_loss(outs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean per-token squared error of each expert's output against y, over
    the token axis as in activation_strength.  The errors overwrite outs, so
    scoring a layer allocates no second array of its size."""
    diff = np.subtract(y, outs, out=outs)
    return np.einsum("...j,...j->...", diff, diff).mean(axis=-1)


def score_samples(model: MoEModel, samples: list[SampleBatch]) -> np.ndarray:
    """Each sample's (L, 4, N_e) score array, in order, as one (n, L, 4, N_e)
    array, from one unmasked forward pass per block of sample_blocks;
    graph_from_scores builds a sample's graph from its row.

    Each layer is scored from the states layer_states yields for the block:
    a sample's routing preference is the mean of its rows of the routing
    softmax, and its rows of the expert outputs give activation and
    reconstruction against the layer output.  The importance is
    softmax(-loss), computed by the routing softmax over every sample's row,
    times the sample's own routing preference at the first layer or its own
    activation strength at the last.

    A row's floats depend on its block, not on the sample alone: BLAS
    rounds a product by its row count, so the same sample scored beside
    other samples, or in a block of another size, can differ in the last
    place (`score --calibration` and a full `score` may write different
    bytes for one sample).  They do not depend on how blocks are spread
    over workers.
    """
    L, N_e = model.config.num_layers, model.config.experts_per_layer
    scores = np.empty((len(samples), L, len(_GRAPH_FIELDS), N_e))
    start = 0
    for block in sample_blocks(samples):
        n, T = len(block), block[0].tokens.shape[0]
        rows = scores[start:start + n]
        start += n
        x = np.concatenate([s.tokens for s in block])
        # next, not enumerate: enumerate's reused tuple would keep a layer's
        # arrays alive through the next layer's products
        states = layer_states(model, x)
        for l in range(L):
            y, _, p, outs, _ = next(states)
            outs = outs.reshape(len(outs), n, T, -1)
            act = activation_strength(outs).T
            routing = p.reshape(n, T, -1).mean(axis=1)
            # the last use of outs, which reconstruction_loss overwrites;
            # contiguous rows, so each row's softmax sums as a lone row does
            losses = np.ascontiguousarray(reconstruction_loss(outs, y.reshape(n, T, -1)).T)
            imp = softmax_rows(-losses)
            if l == 0:
                imp = imp * routing
            elif l == L - 1:
                imp = imp * act
            rows[:, l] = np.stack([act, routing, losses, imp], axis=1)
            del y, p, outs
    return scores


def score_sample(model: MoEModel, x: SampleBatch) -> SampleGraph:
    """The graph of score_samples's row for one sample."""
    return graph_from_scores(score_samples(model, [x])[0])


def graph_from_scores(
    scores: np.ndarray, use_importance: bool = True, use_transition: bool = True
) -> SampleGraph:
    """The sample graph over an (L, 4, N_e) score array.  Each node score
    adds, in this order, the clamped log importance, the clamped log
    activation (all but the last layer) and the clamped log routing
    preference (all but the first); an ablation leaves out the importance or
    the two transition terms."""
    if not (use_importance or use_transition):
        raise ValueError("at least one of use_importance/use_transition must be on")
    activation, routing, _, importance = np.moveaxis(scores, 1, 0)
    node_scores = np.zeros(importance.shape)
    if use_importance:
        node_scores += clamped_log(importance)
    if use_transition:
        node_scores[:-1] += clamped_log(activation[:-1])
        node_scores[1:] += clamped_log(routing[1:])
    if not np.all(np.isfinite(node_scores)):
        raise ValueError("graph log weights must be finite")
    return SampleGraph(scores, node_scores)


def save_graph(graph: SampleGraph, dirpath, stem: str) -> str:
    """Write `{stem}.tnsr`, the graph's (L, 4, N_e) score array; returns its
    filename.  Node scores are not stored: they are rebuilt on load."""
    os.makedirs(dirpath, exist_ok=True)
    name = f"{stem}.tnsr"
    save_tensor(os.path.join(dirpath, name), graph.scores)
    return name


def check_scores(scores: np.ndarray, path, ids=None) -> None:
    """The one shape and range rule for score arrays read from `path`: one
    graph's (L, 4, N_e) array, or a stack of one per sample id, no dimension
    zero, every entry nonnegative and routing's at most 1.  A FormatError names
    the path and the first bad entry's sample id (in a stack), layer and field."""
    lead = () if ids is None else (len(ids),)
    if (scores.ndim != len(lead) + 3 or scores.shape[:len(lead)] != lead
            or scores.shape[-2] != len(_GRAPH_FIELDS) or 0 in scores.shape):
        expected = "(L, 4, N_e)" if ids is None else f"({len(ids)}, L, 4, N_e), one graph per id"
        raise FormatError(f"graph {path} has shape {scores.shape}, expected {expected}")
    # every vector is nonnegative by construction and routing is a mean of
    # probabilities; importance is not bounded by 1 at the last layer
    hi = np.array([1.0 if field == "routing" else np.inf for field in _GRAPH_FIELDS])
    bad = ~((scores >= 0.0) & (scores <= hi[:, None])).all(axis=-1)
    if bad.any():
        *k, l, f = np.argwhere(bad)[0]
        sample = f"sample {ids[k[0]]} " if k else ""
        raise FormatError(
            f"graph {path}: {sample}layer {l} field {_GRAPH_FIELDS[f]!r} must lie in [0, {hi[f]:g}]"
        )


def load_graph(dirpath, name: str) -> SampleGraph:
    """Read a graph written by save_graph, checked by check_scores; its node
    scores are rebuilt by graph_from_scores, bit-identical to the saved ones."""
    path = os.path.join(dirpath, name)
    scores = load_tensor(path)
    check_scores(scores, path)
    return graph_from_scores(scores)
