"""Adam updates with decoupled weight decay and a cosine learning-rate schedule."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

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
        if self.lr0 < 0:
            raise ConfigError(f"lr0 must be >= 0, got {self.lr0}")
        if not 0 <= self.lr_min <= self.lr0:
            raise ConfigError(f"need 0 <= lr_min <= lr0, got lr_min={self.lr_min}, lr0={self.lr0}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")


def cosine_lr(t: int, cfg: ScheduleConfig) -> float:
    """Cosine decay from lr0 at t=0 down to lr_min at t=total_steps."""
    if not 0 <= t <= cfg.total_steps:
        raise ConfigError(f"step {t} outside [0, {cfg.total_steps}]")
    return cfg.lr_min + 0.5 * (cfg.lr0 - cfg.lr_min) * (1.0 + math.cos(math.pi * t / cfg.total_steps))


@dataclass
class AdamState:
    """First/second moment estimates: flat vectors in the parameters' layout."""

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


def adam_step(
    params: ModelState,
    grads: Mapping[str, np.ndarray],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[ModelState, AdamState]:
    """One Adam update with decoupled weight decay; biases are not decayed.

    Returns fresh parameter and optimizer states; inputs are left untouched.
    The update runs once over the whole flat vector; ``grads`` from
    ``backward`` is already one, and any other name-to-array mapping is
    checked against the layout and copied into one. lr = 0 is accepted and
    produces a pure moment update with no parameter motion (used by
    zero-learning-rate training runs).

    Worked example (fresh state, w = 0.3, g = 0.5, lr = 0.1, no decay):
    m = 0.1 * 0.5 = 0.05 and v = 0.001 * 0.25 = 0.00025, so after bias
    correction m_hat = 0.5, v_hat = 0.25, and the new weight is
    0.3 - 0.1 * 0.5 / (0.5 + 1e-8) = 0.2000000020 (to ten decimals).
    """
    if lr < 0:
        raise ConfigError(f"lr must be >= 0, got {lr}")
    layout = params.params.layout
    g = layout.as_vector(grads).flat
    p = params.params.flat
    t = state.step_count + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m = ADAM_BETA1 * state.m.flat + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v.flat + (1.0 - ADAM_BETA2) * g * g
    step = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)
    if weight_decay != 0.0:
        # the weights are the vector's leading slice; biases are not decayed
        weights = slice(0, layout.n_weights)
        step[weights] += weight_decay * p[weights]
    return (
        ModelState(params.topology, ParamVector(layout, p - lr * step)),
        AdamState(t, ParamVector(layout, m), ParamVector(layout, v)),
    )
