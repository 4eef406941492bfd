"""Shared-trunk, multi-head feed-forward networks with exact reverse-mode gradients.

A model is a stack of shared hidden layers (the trunk) feeding several
task-specific branches (heads). Each head has optional hidden layers and a
final affine output: softmax probabilities for classification, a raw scalar
for regression. Hidden activations are ReLU throughout, with the subgradient
at zero taken as zero. All arithmetic is float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

CLASSIFICATION = "classification"
REGRESSION = "regression"

LOG_FLOOR = 1e-12


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


def param_layout(topology: NetworkTopology) -> list[tuple[str, tuple[int, ...], bool]]:
    """Deterministic (name, shape, is_bias) listing of every parameter array."""
    layout: list[tuple[str, tuple[int, ...], bool]] = []
    fan_in = topology.input_dim
    for i, width in enumerate(topology.shared_layers):
        layout.append((f"trunk.{i}.W", (fan_in, width), False))
        layout.append((f"trunk.{i}.b", (width,), True))
        fan_in = width
    trunk_out = fan_in
    for j, head in enumerate(topology.heads):
        fan_in = trunk_out
        widths = list(head.hidden_layers) + [head.output_dim]
        for l, width in enumerate(widths):
            layout.append((f"head.{j}.{l}.W", (fan_in, width), False))
            layout.append((f"head.{j}.{l}.b", (width,), True))
            fan_in = width
    return layout


def n_parameters(topology: NetworkTopology) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in param_layout(topology))


@dataclass
class ModelState:
    """All weight matrices and bias vectors, keyed by layer name.

    Weight ``trunk.i.W`` has shape (fan_in, fan_out) and acts as ``x @ W + b``.
    Treated as immutable: optimizers return fresh states instead of mutating.
    """

    topology: NetworkTopology
    params: dict[str, np.ndarray]


def init_params(topology: NetworkTopology, seed: int) -> ModelState:
    """Glorot-uniform weights, zero biases; deterministic per seed.

    Each weight is drawn uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)),
    in layout order, from one seeded generator.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape, is_bias in param_layout(topology):
        if is_bias:
            params[name] = np.zeros(shape, dtype=np.float64)
        else:
            fan_in, fan_out = shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            params[name] = rng.uniform(-a, a, size=shape)
    return ModelState(topology, params)


@dataclass
class ForwardCache:
    """Per-layer pre-activations and activations for one batch."""

    batch: np.ndarray
    trunk_pre: list[np.ndarray]
    trunk_act: list[np.ndarray]
    trunk_out: np.ndarray
    head_pre: list[list[np.ndarray]]
    head_act: list[list[np.ndarray]]
    head_out: list[np.ndarray]
    probs: list[np.ndarray | None]

    @property
    def batch_size(self) -> int:
        return self.batch.shape[0]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; stable for large logits."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


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

    trunk_pre: list[np.ndarray] = []
    trunk_act: list[np.ndarray] = []
    h = x
    for i in range(len(topo.shared_layers)):
        z = h @ state.params[f"trunk.{i}.W"] + state.params[f"trunk.{i}.b"]
        trunk_pre.append(z)
        h = relu(z)
        trunk_act.append(h)
    trunk_out = h

    predictions: list[np.ndarray] = []
    head_pre: list[list[np.ndarray]] = []
    head_act: list[list[np.ndarray]] = []
    head_out: list[np.ndarray] = []
    probs: list[np.ndarray | None] = []
    for j, head in enumerate(topo.heads):
        a = trunk_out
        pre_j: list[np.ndarray] = []
        act_j: list[np.ndarray] = []
        for l in range(len(head.hidden_layers)):
            z = a @ state.params[f"head.{j}.{l}.W"] + state.params[f"head.{j}.{l}.b"]
            pre_j.append(z)
            a = relu(z)
            act_j.append(a)
        l_out = len(head.hidden_layers)
        out = a @ state.params[f"head.{j}.{l_out}.W"] + state.params[f"head.{j}.{l_out}.b"]
        head_pre.append(pre_j)
        head_act.append(act_j)
        head_out.append(out)
        if head.kind == CLASSIFICATION:
            p = softmax(out)
            probs.append(p)
            predictions.append(p)
        else:
            probs.append(None)
            predictions.append(out[:, 0])

    cache = ForwardCache(x, trunk_pre, trunk_act, trunk_out, head_pre, head_act, head_out, probs)
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
    if cache.batch.shape[1] != topo.input_dim:
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


def _backprop_head(
    state: ModelState,
    cache: ForwardCache,
    j: int,
    d_out: np.ndarray,
    grads: dict[str, np.ndarray] | None,
) -> np.ndarray:
    """Backpropagate d_out through head j; returns gradient w.r.t. the trunk output."""
    head = state.topology.heads[j]
    acts = [cache.trunk_out] + cache.head_act[j]
    dz = d_out
    for l in range(len(head.hidden_layers), -1, -1):
        w = state.params[f"head.{j}.{l}.W"]
        if grads is not None:
            grads[f"head.{j}.{l}.W"] = acts[l].T @ dz
            grads[f"head.{j}.{l}.b"] = dz.sum(axis=0)
        da = dz @ w.T
        if l > 0:
            dz = da * (cache.head_pre[j][l - 1] > 0)
    return da


def _backprop_trunk(
    state: ModelState,
    cache: ForwardCache,
    d_trunk_out: np.ndarray,
    grads: dict[str, np.ndarray] | None,
) -> np.ndarray:
    """Backpropagate through the trunk; returns gradient w.r.t. the input batch."""
    topo = state.topology
    acts = [cache.batch] + cache.trunk_act
    da = d_trunk_out
    for i in range(len(topo.shared_layers) - 1, -1, -1):
        dz = da * (cache.trunk_pre[i] > 0)
        w = state.params[f"trunk.{i}.W"]
        if grads is not None:
            grads[f"trunk.{i}.W"] = acts[i].T @ dz
            grads[f"trunk.{i}.b"] = dz.sum(axis=0)
        da = dz @ w.T
    return da


def backward(
    state: ModelState,
    cache: ForwardCache,
    targets: Sequence[np.ndarray],
    weights: LossWeights | Sequence[float],
) -> dict[str, np.ndarray]:
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

    grads: dict[str, np.ndarray] = {}
    d_trunk_out = np.zeros_like(cache.trunk_out)
    for j, head in enumerate(topo.heads):
        d_out = _head_output_grad(head, cache, j, targets[j], w.values[j])
        d_trunk_out += _backprop_head(state, cache, j, d_out, grads)
    _backprop_trunk(state, cache, d_trunk_out, grads)
    # layout order, so downstream consumers see a deterministic key order
    return {name: grads[name] for name, _, _ in param_layout(topo)}


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
    d_out = np.zeros_like(cache.head_out[task_index])
    if head.kind == CLASSIFICATION:
        d_out[:, target_class] = 1.0
    else:
        d_out[:, 0] = 1.0
    d_trunk_out = _backprop_head(state, cache, task_index, d_out, None)
    return _backprop_trunk(state, cache, d_trunk_out, None)


MODEL_FORMAT_VERSION = 1


def model_to_dict(state: ModelState, normalization_stats: dict | None = None) -> dict:
    """JSON-ready model dict; float values survive the round trip exactly."""
    d = {
        "version": MODEL_FORMAT_VERSION,
        "topology": state.topology.to_dict(),
        "params": {name: state.params[name].tolist() for name, _, _ in param_layout(state.topology)},
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
    unknown = sorted(set(d["params"]) - {name for name, _, _ in layout})
    if unknown:
        raise ConfigError(f"unknown parameter {unknown[0]}")
    params = {}
    for name, shape, _ in layout:
        if name not in d["params"]:
            raise ConfigError(f"missing parameter {name}")
        try:
            arr = np.asarray(d["params"][name], dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {name} is not an array of numbers") from None
        if arr.shape != shape:
            raise ConfigError(f"parameter {name} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"parameter {name} has non-finite values")
        params[name] = arr
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
