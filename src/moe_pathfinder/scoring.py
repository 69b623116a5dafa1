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
per-node scores; a graph file stores only the vectors, and loading
recomputes the scores.

Everything is computed for all experts, routed-to or not, from exactly one
forward pass plus one output evaluation per (layer, expert).  Logs are
clamped at 1e-300 so genuinely-zero weights stay finite and simply rank
last.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace, MoELayer, MoEModel, SampleBatch, model_forward
from .numerics import load_json, matmul_transpose, save_json, softmax_rows

LOG_CLAMP = 1e-300


@dataclass
class LayerScore:
    activation: np.ndarray  # N_e, mean per-token expert output norm
    routing: np.ndarray  # N_e, mean per-token routing probability of this layer
    recon_loss: np.ndarray  # N_e
    importance: np.ndarray  # N_e


@dataclass
class SampleGraph:
    num_layers: int
    experts_per_layer: int
    layer_scores: list[LayerScore]
    node_scores: np.ndarray  # L x N_e; a path's log weight sums one per layer

    @property
    def log_node(self) -> np.ndarray:
        """L x N_e clamped log importances: the paper's node log weights."""
        return np.stack([clamped_log(s.importance) for s in self.layer_scores])

    @property
    def log_edge(self) -> np.ndarray:
        """(L-1) x N_e x N_e clamped log transition intensities: the paper's
        edge log weights, built on each access."""
        s, n = self.layer_scores, self.experts_per_layer
        edges = [
            clamped_log(transition_intensity(s[l].activation, s[l + 1].routing))
            for l in range(self.num_layers - 1)
        ]
        return np.stack(edges) if edges else np.zeros((0, n, n))


def clamped_log(values: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(values, LOG_CLAMP))


def expert_outputs(layer: MoELayer, h: np.ndarray) -> list[np.ndarray]:
    """Each expert's raw output h @ W_i.T for the whole batch."""
    return [matmul_transpose(h, w) for w in layer.experts]


def activation_strength(outs: list[np.ndarray]) -> np.ndarray:
    """Mean per-token output norm of each expert, from expert_outputs."""
    return np.array([np.sqrt(np.einsum("ij,ij->i", o, o)).mean() for o in outs])


def transition_intensity(activation: np.ndarray, routing_next: np.ndarray) -> np.ndarray:
    """Rank-1 outer product: t[i, j] = activation[i] * routing_next[j]."""
    if len(activation) != len(routing_next):
        raise ValueError("activation and routing vectors must have equal length")
    return np.outer(activation, routing_next)


def reconstruction_loss(outs: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    """Mean per-token squared error of each expert's output against y."""
    losses = []
    for o in outs:
        diff = y - o
        losses.append(np.einsum("ij,ij->i", diff, diff).mean())
    return np.array(losses)


def score_sample(model: MoEModel, x: SampleBatch) -> SampleGraph:
    trace = model_forward(model, x)
    return score_trace(model, trace)


def score_trace(model: MoEModel, trace: ForwardTrace) -> SampleGraph:
    """Assemble the sample graph from an unmasked trace.

    The routing preference is the mean of the trace's routing softmax, and
    each layer's expert outputs are computed once for activation,
    reconstruction, and the last-layer correction.  The importance is
    softmax(-loss), computed by the routing softmax, times the layer's own
    routing preference at the first layer or its own activation strength
    at the last.
    """
    L = model.config.num_layers
    scores: list[LayerScore] = []
    for l, layer in enumerate(model.layers):
        h = trace.hidden_states[l]
        y = trace.layer_outputs[l]
        outs = expert_outputs(layer, h)
        act = activation_strength(outs)
        routing = trace.routing_probs[l].mean(axis=0)
        losses = reconstruction_loss(outs, y)
        imp = softmax_rows(-losses[None, :])[0]
        if l == 0:
            imp = imp * routing
        elif l == L - 1:
            imp = imp * act
        scores.append(LayerScore(act, routing, losses, imp))
    return graph_from_scores(scores)


def graph_from_scores(
    scores: list[LayerScore], use_importance: bool = True, use_transition: bool = True
) -> SampleGraph:
    """The sample graph over per-layer scores.  Each node score adds, in this
    order, the clamped log importance, the clamped log activation (all but
    the last layer) and the clamped log routing preference (all but the
    first); an ablation leaves out the importance or the two transition
    terms."""
    if not (use_importance or use_transition):
        raise ValueError("at least one of use_importance/use_transition must be on")
    L, n = len(scores), len(scores[0].importance)
    node_scores = np.zeros((L, n))
    for l, s in enumerate(scores):
        if use_importance:
            node_scores[l] += clamped_log(s.importance)
        if use_transition and l < L - 1:
            node_scores[l] += clamped_log(s.activation)
        if use_transition and l > 0:
            node_scores[l] += clamped_log(s.routing)
    if not np.all(np.isfinite(node_scores)):
        raise ValueError("graph log weights must be finite")
    return SampleGraph(L, n, scores, node_scores)


_GRAPH_FIELDS = ("activation", "routing", "recon_loss", "importance")


def save_graph(graph: SampleGraph, dirpath, stem: str) -> str:
    """Write `{stem}.json` with the per-layer score vectors; returns its
    filename.  Node scores are not stored: they are rebuilt on load."""
    os.makedirs(dirpath, exist_ok=True)
    obj = {
        "num_layers": graph.num_layers,
        "experts_per_layer": graph.experts_per_layer,
        "layers": [
            {field: getattr(s, field).tolist() for field in _GRAPH_FIELDS}
            for s in graph.layer_scores
        ],
    }
    name = f"{stem}.json"
    save_json(os.path.join(dirpath, name), obj)
    return name


def _parse_scores(obj) -> list[LayerScore]:
    L = int(obj["num_layers"])
    n = int(obj["experts_per_layer"])
    layers = obj["layers"]
    if L < 1 or n < 1 or len(layers) != L:
        raise ValueError(
            f"{len(layers)} layers listed, num_layers is {L}, experts_per_layer is {n}"
        )
    scores = []
    for l, entry in enumerate(layers):
        fields = {}
        for field in _GRAPH_FIELDS:
            v = np.array(entry[field], dtype=np.float64)
            if v.shape != (n,) or not np.all(np.isfinite(v)):
                raise ValueError(f"layer {l} field {field!r} must hold {n} finite numbers")
            fields[field] = v
        scores.append(LayerScore(**fields))
    return scores


def load_graph(dirpath, name: str) -> SampleGraph:
    """Read a graph written by save_graph.  Every per-layer vector must hold
    experts_per_layer finite numbers; the node scores are recomputed by
    graph_from_scores, as score_trace computes them, so the rebuilt graph is
    bit-identical to the one saved."""
    return graph_from_scores(load_json(os.path.join(dirpath, name), "graph", _parse_scores))
