"""Adam updates with decoupled weight decay and a cosine learning-rate schedule."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .dataset import as_int, as_real
from .errors import ConfigError
from .network import ModelState, ParamVector

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class ScheduleConfig:
    lr0: float
    lr_min: float
    total_steps: int

    def __post_init__(self):
        object.__setattr__(self, "lr0", as_real(self.lr0, "lr0", 0))
        object.__setattr__(self, "lr_min", as_real(self.lr_min, "lr_min", 0))
        if self.lr_min > self.lr0:
            raise ConfigError(f"need 0 <= lr_min <= lr0, got lr_min={self.lr_min}, lr0={self.lr0}")
        object.__setattr__(self, "total_steps", as_int(self.total_steps, "total_steps", 1))


def cosine_lr(t: int, cfg: ScheduleConfig) -> float:
    """Cosine decay from lr0 at t=0 down to lr_min at t=total_steps."""
    t = as_int(t, "step", 0)
    if t > cfg.total_steps:
        raise ConfigError(f"step {t} outside [0, {cfg.total_steps}]")
    return cfg.lr_min + 0.5 * (cfg.lr0 - cfg.lr_min) * (1.0 + math.cos(math.pi * t / cfg.total_steps))


@dataclass
class AdamState:
    """First/second moment estimates: flat vectors in the parameters' layout.

    For a stack of models ``m`` and ``v`` hold ``(M, size)`` rows.
    """

    step_count: int
    m: ParamVector
    v: ParamVector


def init_adam(params: ModelState) -> AdamState:
    layout = params.params.layout
    return AdamState(
        step_count=0,
        m=ParamVector(layout, np.zeros(layout.size)),
        v=ParamVector(layout, np.zeros(layout.size)),
    )


def adam_update(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float | np.ndarray,
    weight_decay: float | np.ndarray,
    scratch: np.ndarray,
) -> None:
    """One Adam step with decoupled weight decay, in place.

    ``params``, ``grads`` and ``scratch`` are one model's flat vector or a
    stack's ``(M, size)`` rows, in the layout of ``state``'s moments.
    ``params``, ``state.m``, ``state.v`` and ``state.step_count`` advance;
    ``grads`` and ``scratch`` are overwritten. ``lr`` and ``weight_decay``
    are numbers or one per model. Nothing is checked and nothing of the
    vector's size is allocated, so a training loop can own the storage.
    """
    t = state.step_count + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v, g, s = state.m.flat, state.v.flat, grads, scratch
    m *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=s)
    m += s
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=s)
    s *= g
    v += s
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPSILON
    np.divide(m, bc1, out=g)
    g /= s  # the step
    decay = np.asarray(weight_decay)[..., None]
    if np.any(decay != 0.0):
        # the weights are the vector's leading slice; biases are not decayed,
        # nor is a model whose decay is 0 (adding 0 * w could flip a zero's sign)
        weights = slice(0, state.m.layout.n_weights)
        np.multiply(params[..., weights], decay, out=s[..., weights])
        np.add(g[..., weights], s[..., weights], out=g[..., weights], where=decay != 0.0)
    g *= np.asarray(lr)[..., None]
    params -= g
    state.step_count = t


def adam_step(
    params: ModelState,
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[ModelState, AdamState]:
    """One Adam update with decoupled weight decay; biases are not decayed.

    Returns fresh parameter and optimizer states; inputs are left untouched:
    the update is ``adam_update`` on copies of them. ``grads`` from
    ``backward`` is one flat vector already, and any other name-to-array
    mapping is checked against the layout and copied into one. lr = 0 is
    accepted and produces a pure moment update with no parameter motion
    (used by zero-learning-rate training runs).

    Worked example (fresh state, w = 0.3, g = 0.5, lr = 0.1, no decay):
    m = 0.1 * 0.5 = 0.05 and v = 0.001 * 0.25 = 0.00025, so after bias
    correction m_hat = 0.5, v_hat = 0.25, and the new weight is
    0.3 - 0.1 * 0.5 / (0.5 + 1e-8) = 0.2000000020 (to ten decimals).
    """
    lr, weight_decay = as_real(lr, "lr", 0), as_real(weight_decay, "weight_decay", 0)
    layout = params.params.layout
    p = params.params.flat.copy()
    g = layout.as_vector(grads).flat.copy()
    moments = AdamState(state.step_count, ParamVector(layout, state.m.flat.copy()),
                        ParamVector(layout, state.v.flat.copy()))
    adam_update(p, g, moments, lr, weight_decay, np.empty_like(p))
    return ModelState(params.topology, ParamVector(layout, p)), moments
