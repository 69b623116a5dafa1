"""Per-sample graph weights.

For every layer: activation strength (mean per-token output norm of each
expert), routing preference (mean routing probability), per-expert
reconstruction loss against the traced layer output, and the importance
score softmax(-loss) with multiplicative boundary corrections at the first
(own routing preference) and last (own activation strength) layers.
Transition matrices between adjacent layers are the rank-1 outer products
activation x next-layer routing preference, so a graph file stores only the
four per-layer vectors and the transitions are recomputed when it is loaded.

Everything is computed for all experts, routed-to or not, from exactly one
forward pass plus one output evaluation per (layer, expert).  Log fields are
clamped at 1e-300 before the log so genuinely-zero weights stay finite and
simply rank last.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .model import ForwardTrace, MoELayer, MoEModel, SampleBatch, model_forward, route
from .numerics import load_json, matmul_transpose, save_json, softmax

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
    transitions: list[np.ndarray]  # L-1 matrices, N_e x N_e
    log_node: np.ndarray  # L x N_e
    log_edge: np.ndarray  # (L-1) x N_e x N_e


def clamped_log(values: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(values, LOG_CLAMP))


def expert_outputs(layer: MoELayer, h: np.ndarray) -> list[np.ndarray]:
    """Each expert's raw output h @ W_i.T for the whole batch."""
    return [matmul_transpose(h, w) for w in layer.experts]


def activation_strength(layer: MoELayer, h: np.ndarray) -> np.ndarray:
    outs = expert_outputs(layer, h)
    return activation_strength_from_outputs(outs)


def activation_strength_from_outputs(outs: list[np.ndarray]) -> np.ndarray:
    return np.array([np.sqrt(np.einsum("ij,ij->i", o, o)).mean() for o in outs])


def routing_preference(next_layer: MoELayer, h: np.ndarray) -> np.ndarray:
    """Mean over tokens of the next layer's full routing softmax."""
    return route(next_layer, h).mean(axis=0)


def transition_intensity(activation: np.ndarray, routing_next: np.ndarray) -> np.ndarray:
    """Rank-1 outer product: t[i, j] = activation[i] * routing_next[j]."""
    if len(activation) != len(routing_next):
        raise ValueError("activation and routing vectors must have equal length")
    return np.outer(activation, routing_next)


def reconstruction_loss(layer: MoELayer, h: np.ndarray, y: np.ndarray) -> np.ndarray:
    outs = expert_outputs(layer, h)
    return reconstruction_loss_from_outputs(outs, y)


def reconstruction_loss_from_outputs(outs: list[np.ndarray], y: np.ndarray) -> np.ndarray:
    losses = []
    for o in outs:
        diff = y - o
        losses.append(np.einsum("ij,ij->i", diff, diff).mean())
    return np.array(losses)


def importance_scores(
    losses: np.ndarray,
    position: str,
    routing_first: np.ndarray | None = None,
    activation_last: np.ndarray | None = None,
) -> np.ndarray:
    """softmax(-loss), times the layer's own routing preference at the first
    layer or its own activation strength at the last layer."""
    base = softmax(-np.asarray(losses, dtype=np.float64))
    if position == "interior":
        return base
    if position == "first":
        if routing_first is None:
            raise ValueError("first layer needs its routing preference vector")
        return base * routing_first
    if position == "last":
        if activation_last is None:
            raise ValueError("last layer needs its activation strength vector")
        return base * activation_last
    raise ValueError(f"unknown position {position!r}")


def score_sample(model: MoEModel, x: SampleBatch) -> SampleGraph:
    trace = model_forward(model, x)
    return score_trace(model, trace)


def score_trace(model: MoEModel, trace: ForwardTrace) -> SampleGraph:
    """Assemble the sample graph from a captured trace.

    Reuses the trace's routing softmax for every routing preference and each
    layer's once-computed expert outputs for activation, reconstruction, and
    the last-layer correction.
    """
    L = model.config.num_layers
    scores: list[LayerScore] = []
    for l, layer in enumerate(model.layers):
        h = trace.hidden_states[l]
        y = trace.layer_outputs[l]
        outs = expert_outputs(layer, h)
        act = activation_strength_from_outputs(outs)
        routing = trace.routing_probs[l].mean(axis=0)
        losses = reconstruction_loss_from_outputs(outs, y)
        if l == 0:
            imp = importance_scores(losses, "first", routing_first=routing)
        elif l == L - 1:
            imp = importance_scores(losses, "last", activation_last=act)
        else:
            imp = importance_scores(losses, "interior")
        scores.append(LayerScore(act, routing, losses, imp))
    return graph_from_scores(scores)


def graph_from_scores(scores: list[LayerScore]) -> SampleGraph:
    """The sample graph over per-layer scores: rank-1 transitions between
    adjacent layers and the clamped log node and edge weights."""
    L, n = len(scores), len(scores[0].importance)
    transitions = [
        transition_intensity(scores[l].activation, scores[l + 1].routing)
        for l in range(L - 1)
    ]
    log_node = np.stack([clamped_log(s.importance) for s in scores])
    if transitions:
        log_edge = np.stack([clamped_log(t) for t in transitions])
    else:
        log_edge = np.zeros((0, n, n))
    return SampleGraph(L, n, scores, transitions, log_node, log_edge)


_GRAPH_FIELDS = ("activation", "routing", "recon_loss", "importance")


def save_graph(graph: SampleGraph, dirpath, stem: str) -> str:
    """Write `{stem}.json` with the per-layer score vectors; returns its
    filename.  Transitions are not stored: they are rebuilt on load."""
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
    experts_per_layer finite numbers; transitions are recomputed with
    transition_intensity, which is the same single multiply score_trace does,
    so the rebuilt graph is bit-identical to the one saved."""
    return graph_from_scores(load_json(os.path.join(dirpath, name), "graph", _parse_scores))
