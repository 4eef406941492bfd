"""Shared-trunk, multi-head feed-forward networks with exact reverse-mode gradients.

A model is a stack of shared hidden layers (the trunk) feeding several
task-specific branches (heads). Each head has optional hidden layers and a
final affine output: softmax probabilities for classification, a raw scalar
for regression. Hidden activations are ReLU throughout, with the subgradient
at zero taken as zero. All arithmetic is float64.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

CLASSIFICATION = "classification"
REGRESSION = "regression"

LOG_FLOOR = 1e-12

Layer = tuple[str, str]  # the names of one affine layer's weight and bias


@dataclass(frozen=True)
class HeadSpec:
    """One task-specific branch: hidden widths plus the output layer kind."""

    hidden_layers: tuple[int, ...]
    kind: str
    num_classes: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if any(w < 1 for w in self.hidden_layers):
            raise ConfigError(f"head hidden widths must be >= 1, got {self.hidden_layers}")
        if self.kind == CLASSIFICATION:
            if self.num_classes < 2:
                raise ConfigError(f"classification head needs num_classes >= 2, got {self.num_classes}")
        elif self.kind == REGRESSION:
            if self.num_classes != 1:
                raise ConfigError("regression head must have num_classes == 1")
        else:
            raise ConfigError(f"unknown head kind {self.kind!r}")

    @property
    def output_dim(self) -> int:
        return self.num_classes if self.kind == CLASSIFICATION else 1


@dataclass(frozen=True)
class NetworkTopology:
    """Layer shapes of the whole model.

    With ``shared_layers`` empty and a single head with no hidden layers the
    model degenerates to plain logistic/linear regression.
    """

    input_dim: int
    shared_layers: tuple[int, ...]
    heads: tuple[HeadSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "shared_layers", tuple(int(w) for w in self.shared_layers))
        object.__setattr__(self, "heads", tuple(self.heads))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(w < 1 for w in self.shared_layers):
            raise ConfigError(f"shared layer widths must be >= 1, got {self.shared_layers}")
        if len(self.heads) < 1:
            raise ConfigError("topology needs at least one head")

    @property
    def num_tasks(self) -> int:
        return len(self.heads)

    @property
    def trunk_output_dim(self) -> int:
        return self.shared_layers[-1] if self.shared_layers else self.input_dim

    @cached_property
    def layers(self) -> tuple[tuple[Layer, ...], tuple[tuple[Layer, ...], ...]]:
        """The (weight, bias) parameter names of the trunk's layers and of each head's.

        Layer (W, b) computes ``a @ params[W] + params[b]``. Each is followed
        by a ReLU except a head's last layer, its output affine.
        """
        def layer(prefix: str) -> Layer:
            return f"{prefix}.W", f"{prefix}.b"

        trunk = tuple(layer(f"trunk.{i}") for i in range(len(self.shared_layers)))
        heads = tuple(tuple(layer(f"head.{j}.{l}") for l in range(len(h.hidden_layers) + 1))
                      for j, h in enumerate(self.heads))
        return trunk, heads

    @cached_property
    def param_layout(self) -> "ParamLayout":
        """Every parameter array's (name, shape, is_bias) and place in the flat vector."""
        trunk, heads = self.layers
        stacks = [(trunk, self.input_dim, self.shared_layers)] + [
            (layers, self.trunk_output_dim, (*head.hidden_layers, head.output_dim))
            for layers, head in zip(heads, self.heads)
        ]
        entries = []
        for layers, fan_in, widths in stacks:
            for (w, b), width in zip(layers, widths):
                entries += [(w, (fan_in, width), False), (b, (width,), True)]
                fan_in = width
        return ParamLayout(entries)

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "shared_layers": list(self.shared_layers),
            "heads": [
                {
                    "hidden_layers": list(h.hidden_layers),
                    "output": {"kind": h.kind, "num_classes": h.num_classes}
                    if h.kind == CLASSIFICATION
                    else {"kind": h.kind},
                }
                for h in self.heads
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkTopology":
        heads = []
        for h in d["heads"]:
            out = h["output"]
            kind = out["kind"]
            num_classes = int(out.get("num_classes", 2)) if kind == CLASSIFICATION else 1
            heads.append(HeadSpec(tuple(h.get("hidden_layers", ())), kind, num_classes))
        return cls(int(d["input_dim"]), tuple(d.get("shared_layers", ())), tuple(heads))


@dataclass(frozen=True)
class LossWeights:
    """Per-task weights of the combined training objective."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if any(v < 0 for v in self.values):
            raise ConfigError(f"loss weights must be non-negative, got {self.values}")
        if not any(v > 0 for v in self.values):
            raise ConfigError("at least one loss weight must be positive")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def scaled(self, c: float) -> "LossWeights":
        return LossWeights(tuple(c * v for v in self.values))


def as_loss_weights(weights: LossWeights | Sequence[float]) -> LossWeights:
    if isinstance(weights, LossWeights):
        return weights
    return LossWeights(tuple(weights))


class ParamLayout:
    """Where each parameter array of one topology sits in the flat parameter vector.

    Iterating yields ``(name, shape, is_bias)`` in layout order: the trunk,
    then each head, each layer's weight before its bias. In the vector all
    weights come first, in that order, then all biases, so the weights are
    the one leading slice ``[:n_weights]``.
    """

    def __init__(self, entries: Sequence[tuple[str, tuple[int, ...], bool]]):
        self.entries = tuple(entries)
        self.names = tuple(name for name, _, _ in self.entries)
        self.n_weights = sum(math.prod(shape) for _, shape, is_bias in self.entries if not is_bias)
        offsets = {False: 0, True: self.n_weights}
        self._matrices: list[tuple[str, slice, tuple[int, ...]]] = []
        self._vectors: list[tuple[str, slice]] = []
        for name, shape, is_bias in self.entries:
            span = slice(offsets[is_bias], offsets[is_bias] + math.prod(shape))
            offsets[is_bias] = span.stop
            if is_bias:
                self._vectors.append((name, span))
            else:
                self._matrices.append((name, span, shape))
        self.size = offsets[True]

    def __iter__(self):
        return iter(self.entries)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter array as a view into ``flat``."""
        views = {name: flat[s].reshape(shape) for name, s, shape in self._matrices}
        views.update({name: flat[s] for name, s in self._vectors})
        return views

    def as_vector(self, named: Mapping[str, np.ndarray]) -> "ParamVector":
        """``named`` itself if it is a vector of this layout, else a checked copy of it."""
        if isinstance(named, ParamVector) and named.layout is self:
            return named
        if set(named) != set(self.names):
            raise DataError(
                f"parameter names {sorted(named)} do not match the layout's {sorted(self.names)}"
            )
        vector = ParamVector(self, np.empty(self.size))
        for name, view in vector.items():
            arr = np.asarray(named[name], dtype=np.float64)
            if arr.shape != view.shape:
                raise DataError(f"parameter {name} has shape {arr.shape}, expected {view.shape}")
            view[...] = arr
        return vector


class ParamVector(Mapping):
    """One contiguous float64 vector, ``flat``, read by name as arrays of the layout.

    Each named array is a view: writing into it writes into ``flat``.
    """

    def __init__(self, layout: ParamLayout, flat: np.ndarray):
        self.layout = layout
        self.flat = flat

    @cached_property
    def arrays(self) -> dict[str, np.ndarray]:
        return self.layout.views(self.flat)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __iter__(self):
        return iter(self.layout.names)

    def __len__(self) -> int:
        return len(self.layout.names)


def param_layout(topology: NetworkTopology) -> ParamLayout:
    """The topology's parameter layout, built on first use and kept on the topology."""
    return topology.param_layout


def n_parameters(topology: NetworkTopology) -> int:
    return param_layout(topology).size


@dataclass
class ModelState:
    """All weight matrices and bias vectors: one flat vector, read by layer name.

    Weight ``trunk.i.W`` has shape (fan_in, fan_out) and acts as ``x @ W + b``.
    ``params`` may be given as any mapping from name to array; it is then
    checked against the topology's layout and copied into a new vector.
    Treated as immutable: optimizers return fresh states instead of mutating.
    """

    topology: NetworkTopology
    params: ParamVector

    def __post_init__(self):
        self.params = param_layout(self.topology).as_vector(self.params)


def init_params(topology: NetworkTopology, seed: int) -> ModelState:
    """Glorot-uniform weights, zero biases; deterministic per seed.

    Each weight is drawn uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)),
    in layout order, from one seeded generator.
    """
    rng = np.random.default_rng(seed)
    layout = param_layout(topology)
    params = ParamVector(layout, np.zeros(layout.size))
    for name, shape, is_bias in layout:
        if not is_bias:
            fan_in, fan_out = shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            params[name][...] = rng.uniform(-a, a, size=shape)
    return ModelState(topology, params)


@dataclass
class ForwardCache:
    """Each layer's input and affine output for one batch.

    ``trunk_acts[i]`` and ``trunk_pre[i]`` are trunk layer i's input and
    affine output; ``trunk_acts`` starts at the batch and ends at the trunk
    output. ``head_acts[j][l]`` is the input of layer l of head j,
    ``head_pre[j]`` holds its hidden layers and ``head_out[j]`` its output.
    """

    trunk_acts: list[np.ndarray]
    trunk_pre: list[np.ndarray]
    head_acts: list[list[np.ndarray]]
    head_pre: list[list[np.ndarray]]
    head_out: list[np.ndarray]
    probs: list[np.ndarray | None]

    @property
    def batch_size(self) -> int:
        return self.trunk_acts[0].shape[0]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; stable for large logits."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _affine(state: ModelState, layer: Layer, a: np.ndarray) -> np.ndarray:
    w, b = layer
    return a @ state.params[w] + state.params[b]


def _relu_layers(state: ModelState, layers: Sequence[Layer], a: np.ndarray) -> tuple[list, list]:
    """Run ReLU layers forward from ``a``: the activations from ``a`` on, and pre-activations."""
    acts = [a]
    pre: list[np.ndarray] = []
    for layer in layers:
        z = _affine(state, layer, acts[-1])
        pre.append(z)
        acts.append(relu(z))
    return acts, pre


def forward(state: ModelState, batch: np.ndarray) -> tuple[list[np.ndarray], ForwardCache]:
    """Run the model on a batch, returning per-task predictions and the cache.

    Classification heads emit row-stochastic probability matrices (N, K);
    regression heads emit length-N vectors.
    """
    topo = state.topology
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"batch must be 2-D, got shape {x.shape}")
    if x.shape[1] != topo.input_dim:
        raise DataError(f"batch has {x.shape[1]} columns, model expects {topo.input_dim}")
    if not np.all(np.isfinite(x)):
        raise DataError("batch contains non-finite values")

    trunk, heads = topo.layers
    trunk_acts, trunk_pre = _relu_layers(state, trunk, x)
    hidden = [_relu_layers(state, layers[:-1], trunk_acts[-1]) for layers in heads]
    head_out = [_affine(state, layers[-1], acts[-1]) for layers, (acts, _) in zip(heads, hidden)]
    probs = [softmax(out) if head.kind == CLASSIFICATION else None
             for head, out in zip(topo.heads, head_out)]
    predictions = [out[:, 0] if p is None else p for out, p in zip(head_out, probs)]
    head_acts, head_pre = [acts for acts, _ in hidden], [pre for _, pre in hidden]
    cache = ForwardCache(trunk_acts, trunk_pre, head_acts, head_pre, head_out, probs)
    return predictions, cache


def predict(state: ModelState, batch: np.ndarray) -> list[np.ndarray]:
    return forward(state, batch)[0]


def loss_cls(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, floored at 1e-12."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 2:
        raise DataError(f"probs must be 2-D, got shape {p.shape}")
    if y.shape != (p.shape[0],):
        raise DataError(f"labels shape {y.shape} does not match {p.shape[0]} rows")
    if y.size == 0:
        raise DataError("empty batch")
    y = y.astype(np.int64)
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise DataError(f"label out of range [0, {p.shape[1]})")
    picked = p[np.arange(p.shape[0]), y]
    return float(-np.mean(np.log(np.maximum(picked, LOG_FLOOR))))


def loss_reg(preds: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error."""
    a = np.asarray(preds, dtype=np.float64).reshape(-1)
    b = np.asarray(targets, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise DataError(f"length mismatch: {a.shape[0]} predictions vs {b.shape[0]} targets")
    if a.size == 0:
        raise DataError("empty batch")
    return float(np.mean((b - a) ** 2))


def loss_mtl(task_losses: Sequence[float], weights: LossWeights | Sequence[float]) -> float:
    """Weighted sum of per-task losses."""
    w = as_loss_weights(weights)
    losses = [float(v) for v in task_losses]
    if len(losses) != len(w):
        raise DataError(f"{len(losses)} task losses vs {len(w)} weights")
    return float(sum(lam * l for lam, l in zip(w.values, losses)))


def task_loss(head: HeadSpec, prediction: np.ndarray, target: np.ndarray) -> float:
    if head.kind == CLASSIFICATION:
        return loss_cls(prediction, target)
    return loss_reg(prediction, target)


def _check_cache(state: ModelState, cache: ForwardCache) -> None:
    topo = state.topology
    if len(cache.trunk_pre) != len(topo.shared_layers) or len(cache.head_out) != topo.num_tasks:
        raise DataError("cache does not match model topology")
    if cache.trunk_acts[0].shape[1] != topo.input_dim:
        raise DataError("cache batch width does not match model input_dim")
    for j, head in enumerate(topo.heads):
        if cache.head_out[j].shape[1] != head.output_dim:
            raise DataError(f"cache output width mismatch for head {j}")


def _head_output_grad(
    head: HeadSpec, cache: ForwardCache, j: int, target: np.ndarray, lam: float
) -> np.ndarray:
    """Gradient of the weighted task loss w.r.t. the head's final affine output."""
    n = cache.batch_size
    if head.kind == CLASSIFICATION:
        probs = cache.probs[j]
        y = np.asarray(target).astype(np.int64)
        if y.shape != (n,):
            raise DataError(f"labels for head {j} have shape {y.shape}, expected ({n},)")
        if y.min() < 0 or y.max() >= head.num_classes:
            raise DataError(f"label out of range [0, {head.num_classes}) for head {j}")
        # fused softmax + cross-entropy gradient
        grad = probs.copy()
        grad[np.arange(n), y] -= 1.0
        return grad * (lam / n)
    y = np.asarray(target, dtype=np.float64).reshape(-1)
    if y.shape != (n,):
        raise DataError(f"targets for head {j} have shape {y.shape}, expected ({n},)")
    return (cache.head_out[j] - y[:, None]) * (2.0 * lam / n)


def _backprop(
    state: ModelState, layers: Sequence[Layer], acts: Sequence[np.ndarray],
    pre: Sequence[np.ndarray], grad: np.ndarray, grads: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Carry ``grad`` from the output of ``layers`` back to the first one's input.

    ``acts[i]`` and ``pre[i]`` are layer i's input and affine output. A
    layer with a ``pre`` entry is ReLU and ``grad`` arrives at its
    activation; a last layer past the end of ``pre`` is a head's output
    affine. Given a dict, ``grads`` receives every layer's W and b gradients
    and the pass ends with layer 0's: it returns the gradient at layer 0's
    affine output, since training needs none at the batch.
    """
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        if i < len(pre):
            grad = grad * (pre[i] > 0)
        if grads is not None:
            np.matmul(acts[i].T, grad, out=grads[w])
            grad.sum(axis=0, out=grads[b])
            if i == 0:
                break
        grad = grad @ state.params[w].T
    return grad


def backward(
    state: ModelState,
    cache: ForwardCache,
    targets: Sequence[np.ndarray],
    weights: LossWeights | Sequence[float],
) -> ParamVector:
    """Exact gradients of the weighted multi-task loss for every parameter.

    ``targets`` holds one array per head: integer labels for classification,
    real targets for regression. The trunk gradient is the sum of the
    lambda-scaled back-flows of all heads.
    """
    w = as_loss_weights(weights)
    topo = state.topology
    _check_cache(state, cache)
    if len(targets) != topo.num_tasks or len(w) != topo.num_tasks:
        raise DataError(f"expected {topo.num_tasks} targets and weights")

    trunk, heads = topo.layers
    layout = param_layout(topo)
    # every entry is written below: each layer's W and b exactly once
    grads = ParamVector(layout, np.empty(layout.size))
    d_trunk = np.zeros_like(cache.trunk_acts[-1])
    for j, head in enumerate(topo.heads):
        d_out = _head_output_grad(head, cache, j, targets[j], w.values[j])
        d_head = _backprop(state, heads[j], cache.head_acts[j], cache.head_pre[j], d_out,
                           grads.arrays)
        if trunk:  # else the head's input is the batch
            d_trunk += d_head @ state.params[heads[j][0][0]].T
    _backprop(state, trunk, cache.trunk_acts, cache.trunk_pre, d_trunk, grads.arrays)
    return grads


def input_gradients(
    state: ModelState, batch: np.ndarray, task_index: int, target_class: int | None = None
) -> np.ndarray:
    """Per-sample gradient of one head's raw output w.r.t. the input features.

    For classification heads the differentiated quantity is the pre-softmax
    logit of ``target_class``; for regression heads it is the scalar output.
    Returns an (N, D) matrix.
    """
    topo = state.topology
    if not 0 <= task_index < topo.num_tasks:
        raise ConfigError(f"task_index {task_index} out of range for {topo.num_tasks} heads")
    head = topo.heads[task_index]
    if head.kind == CLASSIFICATION:
        if target_class is None:
            raise ConfigError("target_class is required for classification heads")
        if not 0 <= target_class < head.num_classes:
            raise ConfigError(f"target_class {target_class} out of range [0, {head.num_classes})")
    _, cache = forward(state, batch)
    return output_gradient(state, cache, task_index, target_class)


def output_gradient(
    state: ModelState, cache: ForwardCache, task_index: int,
    target_class: int | None = None, layer: int = 0,
) -> np.ndarray:
    """Per-sample gradient of one head's raw output w.r.t. trunk layer ``layer``'s input.

    Layer 0's input is the batch, and ``layer`` equal to the trunk depth
    means the trunk output. The output is the logit of ``target_class`` for
    a classification head and the scalar output for a regression head.
    """
    trunk, heads = state.topology.layers
    head = state.topology.heads[task_index]
    d_out = np.zeros_like(cache.head_out[task_index])
    d_out[:, target_class if head.kind == CLASSIFICATION else 0] = 1.0
    j, below = task_index, slice(layer, None)
    grad = _backprop(state, heads[j], cache.head_acts[j], cache.head_pre[j], d_out)
    return _backprop(state, trunk[below], cache.trunk_acts[below], cache.trunk_pre[below], grad)


MODEL_FORMAT_VERSION = 1


def model_to_dict(state: ModelState, normalization_stats: dict | None = None) -> dict:
    """JSON-ready model dict; float values survive the round trip exactly."""
    d = {
        "version": MODEL_FORMAT_VERSION,
        "topology": state.topology.to_dict(),
        "params": {name: arr.tolist() for name, arr in state.params.items()},
    }
    if normalization_stats is not None:
        d["normalization_stats"] = normalization_stats
    return d


def model_from_dict(d: dict) -> tuple[ModelState, dict | None]:
    """Model state and normalization stats from a model dict.

    Parameters enter the program from outside only through here, so every
    one is checked: no unknown names, no missing ones, the layout's shape,
    and finite values.
    """
    if not isinstance(d, dict):
        raise ConfigError("model document must be a JSON object")
    for key in ("version", "topology", "params"):
        if key not in d:
            raise ConfigError(f"model document has no {key!r} entry")
    if d["version"] != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model format version {d['version']!r}")
    try:
        topo = NetworkTopology.from_dict(d["topology"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed topology: {exc!r}") from None
    if not isinstance(d["params"], dict):
        raise ConfigError("model params must be a JSON object")
    layout = param_layout(topo)
    unknown = sorted(set(d["params"]) - set(layout.names))
    if unknown:
        raise ConfigError(f"unknown parameter {unknown[0]}")
    params = ParamVector(layout, np.empty(layout.size))
    for name, view in params.items():
        if name not in d["params"]:
            raise ConfigError(f"missing parameter {name}")
        try:
            arr = np.asarray(d["params"][name], dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {name} is not an array of numbers") from None
        if arr.shape != view.shape:
            raise ConfigError(f"parameter {name} has shape {arr.shape}, expected {view.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"parameter {name} has non-finite values")
        view[...] = arr
    stats = d.get("normalization_stats")
    if stats is not None and not isinstance(stats, dict):
        raise ConfigError("model normalization_stats must be a JSON object")
    return ModelState(topo, params), stats


def save_model(state: ModelState, path: str | Path, normalization_stats: dict | None = None) -> None:
    Path(path).write_text(json.dumps(model_to_dict(state, normalization_stats), indent=2) + "\n")


def load_model(path: str | Path) -> tuple[ModelState, dict | None]:
    """Read a model file written by ``save_model``; any fault names the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"model file {path} is not valid JSON: {exc}") from None
    try:
        return model_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"model file {path}: {exc}") from None
