"""Shared-trunk, multi-head feed-forward networks with exact reverse-mode gradients.

A model is a stack of shared hidden layers (the trunk) feeding several
task-specific branches (heads). Each head has optional hidden layers and a
final affine output: softmax probabilities for classification, a raw scalar
for regression. Hidden activations are ReLU throughout, with the subgradient
at zero taken as zero. All arithmetic is float64.
"""

from __future__ import annotations

import base64
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (CLASSIFICATION, REGRESSION, NormalizationStats, as_int, as_real,
                      class_labels, json_list, json_numbers, json_object, read_json)
from .errors import ConfigError, DataError

LOG_FLOOR = 1e-12

Layer = tuple[str, str]  # the names of one affine layer's weight and bias


@dataclass(frozen=True)
class HeadSpec:
    """One task-specific branch: hidden widths plus the output layer kind."""

    hidden_layers: tuple[int, ...]
    kind: str
    num_classes: int = 1

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers",
                           _widths(self.hidden_layers, "head hidden_layers"))
        object.__setattr__(self, "num_classes", as_int(self.num_classes, "head num_classes"))
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


def _widths(widths, what: str) -> tuple[int, ...]:
    """``widths`` as a tuple of ints, each >= 1; else a ConfigError naming ``what``."""
    return tuple(as_int(w, f"{what} width", 1) for w in widths)


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
        object.__setattr__(self, "input_dim", as_int(self.input_dim, "topology input_dim", 1))
        object.__setattr__(self, "shared_layers",
                           _widths(self.shared_layers, "topology shared_layers"))
        object.__setattr__(self, "heads", tuple(self.heads))
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
        """The topology of a ``to_dict`` document; the constructors check every size."""
        json_object(d, ("input_dim", "shared_layers", "heads"), "topology")
        heads = []
        for h in json_list(d["heads"], "topology heads"):
            json_object(h, ("hidden_layers", "output"), "head")
            output = h["output"]  # a regression output may omit num_classes, as to_dict does
            classification = isinstance(output, dict) and output.get("kind") == CLASSIFICATION
            json_object(output, ("kind", "num_classes"), "head output",
                        optional=() if classification else ("num_classes",))
            heads.append(HeadSpec(json_list(h["hidden_layers"], "head hidden_layers"), **output))
        return cls(d["input_dim"], json_list(d["shared_layers"], "topology shared_layers"), heads)


@dataclass(frozen=True)
class LossWeights:
    """Per-task weights of the combined training objective.

    ``values`` may be any sequence of numbers, a ``LossWeights`` among them.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values",
                           tuple(as_real(v, "loss weights value", 0) for v in self.values))
        if not any(v > 0 for v in self.values):
            raise ConfigError("at least one loss weight must be positive")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def scaled(self, c: float) -> "LossWeights":
        return LossWeights(tuple(c * v for v in self.values))


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
        self.spans = []  # (name, span, shape) in vector order: the stable sort puts weights first
        start = 0
        for name, shape, _ in sorted(self.entries, key=lambda entry: entry[2]):
            self.spans.append((name, slice(start, start + math.prod(shape)), shape))
            start += math.prod(shape)
        self.size = start

    def __iter__(self):
        return iter(self.entries)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter array as a view into ``flat``.

        ``flat`` is one model's ``(size,)`` vector, or a stack of M models'
        vectors as the rows of an ``(M, size)`` array; then every view has
        the leading model axis too, ``(M, fan_in, fan_out)`` or ``(M, width)``.
        """
        lead = flat.shape[:-1]
        return {name: flat[..., s].reshape(lead + shape) for name, s, shape in self.spans}

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

    Each named array is a view: writing into it writes into ``flat``. A
    stack of models is an ``(M, size)`` ``flat`` whose arrays have a leading
    model axis (see ``ParamLayout.views``).
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


def n_parameters(topology: NetworkTopology) -> int:
    return topology.param_layout.size


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
        self.params = self.topology.param_layout.as_vector(self.params)


def init_params(topology: NetworkTopology, seed: int) -> ModelState:
    """Glorot-uniform weights, zero biases; deterministic per seed.

    Each weight is drawn uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)),
    in layout order, from one seeded generator. A vector too large to
    allocate raises ConfigError.
    """
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    layout = topology.param_layout
    try:
        flat = np.zeros(layout.size)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest shape
        raise ConfigError(f"cannot allocate the model's {layout.size} parameters ({exc}); "
                          "lower the widths (--trunk, --head, --trunk-widths, "
                          "--head-widths)") from None
    params = ParamVector(layout, flat)
    for name, shape, is_bias in layout:
        if not is_bias:
            fan_in, fan_out = shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            params[name][...] = rng.uniform(-a, a, size=shape)
    return ModelState(topology, params)


@dataclass
class ForwardCache:
    """Each layer's input for one batch, one array per layer.

    ``trunk_acts[i]`` is trunk layer i's input; ``trunk_acts`` starts at the
    batch and ends at the trunk output. ``head_acts[j][l]`` is the input of
    layer l of head j, and ``head_out[j]`` is its output affine. A ReLU
    layer's activation is the next layer's input, and the backward pass
    masks with it: ``relu(z) > 0`` exactly where ``z > 0``. Every array is
    ``(B, width)`` for one model, or ``(M, B, width)`` for a stack of M
    models run on M batches of B rows.
    """

    trunk_acts: list[np.ndarray]
    head_acts: list[list[np.ndarray]]
    head_out: list[np.ndarray]
    probs: list[np.ndarray | None]

    @property
    def batch_size(self) -> int:
        return self.trunk_acts[0].shape[-2]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; stable for large logits."""
    z = np.asarray(logits, dtype=np.float64)
    # the max by a tree of elementwise maxima over column halves: numpy reduces
    # a short last axis one row at a time, and a max is exact in any order
    m = z
    while m.shape[-1] > 1:
        h = (m.shape[-1] + 1) // 2
        m = np.maximum(m[..., :h], m[..., -h:])
    e = z - m
    np.exp(e, out=e)
    e /= e.sum(-1, keepdims=True)
    return e


# The passes below take ``params``, the name-to-array views of one model's
# vector or of a stack's (see ``ParamLayout.views``), and work on (..., B, D)
# arrays. ``np.matmul`` runs a stack as one gemm per model, the very call it
# makes for that model alone, so a stacked model's numbers equal its own.


def _affine(params: Mapping[str, np.ndarray], layer: Layer, a: np.ndarray) -> np.ndarray:
    w, b = layer
    z = np.matmul(a, params[w])
    z += params[b][..., None, :]
    return z


def _relu_layers(
    params: Mapping[str, np.ndarray], layers: Sequence[Layer], a: np.ndarray
) -> list[np.ndarray]:
    """Run ReLU layers forward from ``a``: the activations from ``a`` on."""
    acts = [a]
    for layer in layers:
        z = _affine(params, layer, acts[-1])
        acts.append(np.maximum(z, 0.0, out=z))
    return acts


def forward_pass(
    topology: NetworkTopology, params: Mapping[str, np.ndarray], x: np.ndarray
) -> ForwardCache:
    """The forward pass on a batch ``(B, D)``, or on a stack's batches ``(M, B, D)``.

    No check is made: ``forward`` checks a caller's batch, and training
    checks its data once, where the ``Dataset`` is built.
    """
    trunk, heads = topology.layers
    trunk_acts = _relu_layers(params, trunk, x)
    head_acts = [_relu_layers(params, layers[:-1], trunk_acts[-1]) for layers in heads]
    head_out = [_affine(params, layers[-1], acts[-1]) for layers, acts in zip(heads, head_acts)]
    probs = [softmax(out) if head.kind == CLASSIFICATION else None
             for head, out in zip(topology.heads, head_out)]
    return ForwardCache(trunk_acts, head_acts, head_out, probs)


def _checked_batch(topology: NetworkTopology, batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"batch must be 2-D, got shape {x.shape}")
    if x.shape[1] != topology.input_dim:
        raise DataError(f"batch has {x.shape[1]} columns, model expects {topology.input_dim}")
    # min and max propagate a NaN and hold any inf, with no array the batch's size
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise DataError("batch contains non-finite values")
    return x


def forward(state: ModelState, batch: np.ndarray) -> tuple[list[np.ndarray], ForwardCache]:
    """Run the model on a batch, returning per-task predictions and the cache.

    Classification heads emit row-stochastic probability matrices (N, K);
    regression heads emit length-N vectors.
    """
    x = _checked_batch(state.topology, batch)
    cache = forward_pass(state.topology, state.params.arrays, x)
    return _predictions(cache), cache


def _predictions(cache: ForwardCache) -> list[np.ndarray]:
    """Each head's probabilities, or a regression head's output column, from ``cache``."""
    return [out[:, 0] if p is None else p for out, p in zip(cache.head_out, cache.probs)]


# The rows of a block of predict and input_gradients, the last block taking
# up to ROW_BLOCK - 1 more. On the 2000 x 60 rows of a 256,256 trunk (2-core
# Xeon, one BLAS thread) 128 and 256 were the fastest of 64-1024, 128 held
# 0.5 MB less at the peak and 512 4 MB more.
ROW_BLOCK = 256


def _row_blocks(n: int) -> list[slice]:
    """Slices of ``ROW_BLOCK`` to ``2 * ROW_BLOCK - 1`` rows that cover ``n`` rows in order.

    One slice when ``n < 2 * ROW_BLOCK``, also for ``n = 0``: a short last
    block joins the one before it. A block's rows are the whole batch's, bit
    for bit, where BLAS runs both products with one kernel. OpenBLAS picks a
    small-matrix kernel by the product's size, so a tiny last block would
    round differently where full blocks do not; and a narrow layer next to a
    wide one (4 units and 64, say) can still round differently from the
    whole batch in its last bits.
    """
    starts = list(range(0, max(n - ROW_BLOCK + 1, 1), ROW_BLOCK))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def predict(state: ModelState, batch: np.ndarray) -> list[np.ndarray]:
    """Per-task predictions as ``forward`` gives them, one ``forward_pass`` a row block.

    The batch is checked whole, once. Only one block's activations are alive
    at once; each block's rows are written into the result arrays.
    """
    topo, params = state.topology, state.params.arrays
    x = _checked_batch(topo, batch)
    preds = [np.empty((len(x), h.num_classes) if h.kind == CLASSIFICATION else len(x))
             for h in topo.heads]
    for rows in _row_blocks(len(x)):  # no name holds a block's cache into the next block
        for pred, values in zip(preds, _predictions(forward_pass(topo, params, x[rows]))):
            pred[rows] = values
    return preds


def _true_class(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``probs[..., i, labels[..., i]]``: each row's entry at its label, shaped like ``labels``."""
    rows = probs.reshape(-1, probs.shape[-1])
    return rows[np.arange(rows.shape[0]), labels.reshape(-1)].reshape(labels.shape)


# The losses below are ``np.mean`` over the last axis without its overhead: the
# same sum, then the same division by the count, in the arrays they allocate.


def _nll(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = _true_class(probs, labels)
    np.maximum(p, LOG_FLOOR, out=p)
    np.log(p, out=p)
    loss = p.sum(-1)
    loss /= p.shape[-1]
    return -loss


def _mse(preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    d = targets - preds
    d *= d
    loss = d.sum(-1)
    loss /= d.shape[-1]
    return loss


def _targets(target, n: int, num_classes: int | None, what: str) -> np.ndarray:
    """A batch's ``n`` targets for one head, ``what``: class labels in [0, num_classes),
    or reals where ``num_classes`` is None. A wrong shape, an empty batch or a label
    that is no integer in range raises DataError."""
    if num_classes is None:
        y = np.asarray(target, dtype=np.float64).reshape(-1)
    else:
        y = np.asarray(target)
    if y.shape != (n,):
        raise DataError(f"{what} have shape {y.shape}, expected ({n},)")
    if n == 0:
        raise DataError(f"{what}: empty batch")
    if num_classes is None:
        return y
    return class_labels(y, num_classes, lambda i: f"{what}, row {i}")


def loss_cls(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, floored at 1e-12."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise DataError(f"probs must be 2-D, got shape {p.shape}")
    return float(_nll(p, _targets(labels, p.shape[0], p.shape[1], "labels")))


def loss_reg(preds: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error."""
    a = np.asarray(preds, dtype=np.float64).reshape(-1)
    return float(_mse(a, _targets(targets, a.size, None, "targets")))


def batch_losses(
    topology: NetworkTopology, cache: ForwardCache, targets: Sequence[np.ndarray]
) -> np.ndarray:
    """Every task's mean loss on the batch: shape (T,), or (M, T) for a stack.

    ``targets[j]`` holds head j's labels or targets, shaped (..., B). They
    are not checked; ``loss_cls`` and ``loss_reg`` check a caller's.
    """
    return np.stack([
        _nll(cache.probs[j], y) if head.kind == CLASSIFICATION
        else _mse(cache.head_out[j][..., 0], y)
        for j, (head, y) in enumerate(zip(topology.heads, targets))
    ], axis=-1)


def loss_mtl(task_losses: Sequence[float], weights: LossWeights | Sequence[float]) -> float:
    """Weighted sum of per-task losses."""
    w = LossWeights(weights)
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
    if (len(cache.trunk_acts) != len(topo.shared_layers) + 1
            or len(cache.head_out) != topo.num_tasks):
        raise DataError("cache does not match model topology")
    if cache.trunk_acts[0].shape[1] != topo.input_dim:
        raise DataError("cache batch width does not match model input_dim")
    for j, head in enumerate(topo.heads):
        if cache.head_out[j].shape[1] != head.output_dim:
            raise DataError(f"cache output width mismatch for head {j}")


def _head_output_grad(
    head: HeadSpec, cache: ForwardCache, j: int, y: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Gradient of the weighted task loss w.r.t. the head's final affine output.

    ``lam`` is the task's weight, one per model of a stack.
    """
    n = cache.batch_size
    if head.kind == CLASSIFICATION:
        # fused softmax + cross-entropy gradient
        grad = cache.probs[j].copy()
        rows = grad.reshape(-1, head.num_classes)
        rows[np.arange(rows.shape[0]), y.reshape(-1)] -= 1.0
        grad *= (lam / n)[..., None, None]
        return grad
    grad = cache.head_out[j] - y[..., None]
    grad *= (2.0 * lam / n)[..., None, None]
    return grad


def _backprop(
    params: Mapping[str, np.ndarray], layers: Sequence[Layer], acts: Sequence[np.ndarray],
    grad: np.ndarray, grads: Mapping[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Carry ``grad`` from the output of ``layers`` back to the first one's input.

    ``acts[i]`` is layer i's input. A layer with an ``acts[i + 1]`` is ReLU,
    ``grad`` arrives at that activation, and the mask is ``acts[i + 1] > 0``;
    a last layer past the end of ``acts`` is a head's output affine. Given
    a dict, ``grads`` receives every layer's W and b gradients and the pass
    ends with layer 0's: it returns the gradient at layer 0's affine output,
    since training needs none at the batch.
    """
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        if i + 1 < len(acts):
            grad *= acts[i + 1] > 0  # every grad here is the pass's own array
        if grads is not None:
            np.matmul(acts[i].swapaxes(-1, -2), grad, out=grads[w])
            grad.sum(axis=-2, out=grads[b])
            if i == 0:
                break
        grad = grad @ params[w].swapaxes(-1, -2)
    return grad


def backward_pass(
    topology: NetworkTopology, params: Mapping[str, np.ndarray], cache: ForwardCache,
    targets: Sequence[np.ndarray], lam: np.ndarray, grads: Mapping[str, np.ndarray],
) -> None:
    """Write the weighted loss's gradient for every parameter into ``grads``.

    The backward pass of ``forward_pass``, for one model or a stack.
    ``grads`` holds views of the same shapes as ``params`` and every one is
    written, each layer's W and b exactly once. ``lam`` is the task weights,
    (T,) or (M, T). Nothing is checked; ``backward`` checks a caller's cache
    and targets.
    """
    trunk, heads = topology.layers
    d_trunk = np.zeros_like(cache.trunk_acts[-1])
    for j, head in enumerate(topology.heads):
        d_out = _head_output_grad(head, cache, j, targets[j], lam[..., j])
        d_head = _backprop(params, heads[j], cache.head_acts[j], d_out, grads)
        if trunk:  # else the head's input is the batch
            d_trunk += d_head @ params[heads[j][0][0]].swapaxes(-1, -2)
    _backprop(params, trunk, cache.trunk_acts, d_trunk, grads)


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
    w = LossWeights(weights)
    topo = state.topology
    _check_cache(state, cache)
    if len(targets) != topo.num_tasks or len(w) != topo.num_tasks:
        raise DataError(f"expected {topo.num_tasks} targets and weights")
    targets = [_targets(y, cache.batch_size,
                        head.num_classes if head.kind == CLASSIFICATION else None,
                        f"targets of head {j}")
               for j, (head, y) in enumerate(zip(topo.heads, targets))]
    layout = topo.param_layout
    grads = ParamVector(layout, np.empty(layout.size))
    backward_pass(topo, state.params.arrays, cache, targets, np.array(w.values), grads.arrays)
    return grads


def input_gradients(
    state: ModelState, batch: np.ndarray, task_index: int, target_class: int | None = None
) -> np.ndarray:
    """Per-sample gradient of one head's raw output w.r.t. the input features.

    For classification heads the differentiated quantity is the pre-softmax
    logit of ``target_class``; for regression heads it is the scalar output,
    and ``target_class`` must be None. Returns an (N, D) matrix, computed
    ``ROW_BLOCK`` rows at a time.
    """
    topo = state.topology
    task_index = as_int(task_index, "task_index")
    if not 0 <= task_index < topo.num_tasks:
        raise ConfigError(f"task_index {task_index} out of range for {topo.num_tasks} heads")
    head = topo.heads[task_index]
    if head.kind == CLASSIFICATION:
        if target_class is None:
            raise ConfigError("target_class is required for classification heads")
        target_class = as_int(target_class, "target_class")
        if not 0 <= target_class < head.num_classes:
            raise ConfigError(f"target_class {target_class} out of range [0, {head.num_classes})")
    elif target_class is not None:
        raise ConfigError("target_class only applies to classification heads")
    x = _checked_batch(topo, batch)
    params = state.params.arrays
    grads = np.empty_like(x)
    for rows in _row_blocks(len(x)):  # no name holds a block's cache into the next block
        grads[rows] = output_gradient(state, forward_pass(topo, params, x[rows]),
                                      task_index, target_class)
    return grads


def output_gradient(
    state: ModelState, cache: ForwardCache, task_index: int, target_class: int | None = None,
) -> np.ndarray:
    """Per-sample gradient of one head's raw output w.r.t. the cached batch.

    The output is the logit of ``target_class`` for a classification head
    and the scalar output for a regression head.
    """
    trunk, heads = state.topology.layers
    head = state.topology.heads[task_index]
    d_out = np.zeros_like(cache.head_out[task_index])
    d_out[:, target_class if head.kind == CLASSIFICATION else 0] = 1.0
    params = state.params.arrays
    grad = _backprop(params, heads[task_index], cache.head_acts[task_index], d_out)
    return _backprop(params, trunk, cache.trunk_acts, grad)


MODEL_FORMAT_VERSION = 3


def stats_record(feature_names: Sequence[str], stats: NormalizationStats) -> dict:
    """The ``{feature_names, mean, std}`` record of ``normalization.json`` and of a model."""
    return {"feature_names": list(feature_names), **stats.to_dict()}


def model_to_dict(state: ModelState, feature_names: Sequence[str],
                  stats: NormalizationStats) -> dict:
    """JSON-ready model dict; float values survive the round trip exactly.

    ``params`` is the flat vector, in ``topology.param_layout`` order, as one
    base64 string of its little-endian float64 bytes.
    """
    return {
        "version": MODEL_FORMAT_VERSION,
        "topology": state.topology.to_dict(),
        "params": base64.b64encode(state.params.flat.astype("<f8").tobytes()).decode("ascii"),
        "normalization_stats": stats_record(feature_names, stats),
    }


def _decode_params(text, layout: ParamLayout) -> np.ndarray:
    """The parameter vector whose base64 ``text`` ``model_to_dict`` wrote; a
    ConfigError unless it holds ``layout.size`` finite values."""
    if not isinstance(text, str):
        raise ConfigError("params must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise ConfigError("params is not valid base64") from None
    if len(raw) != 8 * layout.size:
        raise ConfigError(f"params has {len(raw) / 8:.15g} values, expected {layout.size}")
    flat = np.frombuffer(raw, "<f8").astype(np.float64)  # a writable, native-order copy
    bad = ~np.isfinite(flat)
    if bad.any():  # name the first array in vector order that holds one
        name = next(name for name, view in layout.views(bad).items() if view.any())
        raise ConfigError(f"parameter {name} has non-finite values")
    return flat


def model_from_dict(d: dict) -> tuple[ModelState, tuple[str, ...], NormalizationStats]:
    """Model state, feature names and normalization stats from a model dict.

    A model enters the program from outside only through here, so it is
    checked: ``params`` decodes to as many finite values as the topology's
    layout, and ``normalization_stats`` holds ``input_dim`` feature names,
    means and stds, every number finite and none a boolean, every std > 0.
    """
    try:
        json_object(d, ("version", "topology", "params", "normalization_stats"), "model document")
    except ConfigError as exc:  # not a document that this version writes
        raise ConfigError(f"{exc}; retrain the model with `tabmtl train`") from None
    if d["version"] != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model format version {d['version']!r}; this version "
                          f"reads only version {MODEL_FORMAT_VERSION}, so retrain the model")
    topo = NetworkTopology.from_dict(d["topology"])
    layout = topo.param_layout
    params = _decode_params(d["params"], layout)
    stats, n = json_object(d["normalization_stats"], ("feature_names", "mean", "std"),
                           "normalization_stats"), topo.input_dim
    names = json_list(stats["feature_names"], "normalization_stats 'feature_names'", n)
    if not all(isinstance(s, str) for s in names):
        raise ConfigError("normalization_stats 'feature_names' must hold only strings")
    mean, std = (json_numbers(stats[key], f"normalization_stats {key!r}", n)
                 for key in ("mean", "std"))
    if np.any(std <= 0):
        raise ConfigError("normalization_stats 'std' must be > 0")
    return (ModelState(topo, ParamVector(layout, params)), tuple(names),
            NormalizationStats(mean, std))


def save_model(state: ModelState, path: str | Path, feature_names: Sequence[str],
               stats: NormalizationStats) -> None:
    """Write ``json.dumps(model_to_dict(state, feature_names, stats)) + "\\n"`` to ``path``."""
    text = json.dumps(model_to_dict(state, feature_names, stats))
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")  # a second write, so the text is not copied to append it


def load_model(path: str | Path) -> tuple[ModelState, tuple[str, ...], NormalizationStats]:
    """Read a model file written by ``save_model``; any fault names the file."""
    return read_json(path, "model", model_from_dict)
