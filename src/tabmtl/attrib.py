"""Gradient-based feature importance for trained models.

The default mode scores each input feature by the mean absolute gradient of
one head's raw output (the pre-softmax logit of a chosen class, or the
regression output) with respect to that feature, averaged over the rows of a
dataset. A large score means small changes to the feature move the task
output a lot, on average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLASSIFICATION, Dataset
from .errors import ConfigError
from .network import ModelState, forward, input_gradients, output_gradient
from .train import check_compatible

INPUT_GRADIENT = "input_gradient"
HIDDEN_ACTIVATION = "hidden_activation"


@dataclass
class AttributionReport:
    task_name: str
    target: int | None
    mode: str
    feature_names: tuple[str, ...]
    scores: np.ndarray
    n_samples: int

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != (len(self.feature_names),):
            raise ConfigError("one score per feature name required")
        self.scores = scores
        self.feature_names = tuple(self.feature_names)

    def ranking(self) -> list[int]:
        """Feature indices from most to least important; ties keep feature order."""
        return [int(i) for i in np.argsort(-self.scores, kind="stable")]

    def to_dict(self) -> dict:
        return {
            "task_name": self.task_name,
            "target": self.target,
            "mode": self.mode,
            "n_samples": self.n_samples,
            "feature_names": list(self.feature_names),
            "scores": self.scores.tolist(),
            "ranking": self.ranking(),
        }

    def render_text(self, k: int = 10) -> str:
        lines = [f"top features for {self.task_name}"
                 + (f" (class {self.target})" if self.target is not None else "")]
        for name, score in top_k(self, min(k, len(self.feature_names))):
            lines.append(f"- {name}: {score:.6f}")
        return "\n".join(lines)


def top_k(report: AttributionReport, k: int) -> list[tuple[str, float]]:
    if not 1 <= k <= len(report.feature_names):
        raise ConfigError(
            f"k must be in [1, {len(report.feature_names)}], got {k}"
        )
    order = report.ranking()[:k]
    return [(report.feature_names[i], float(report.scores[i])) for i in order]


def _hidden_activation_scores(
    state: ModelState, features: np.ndarray, task_index: int, target_class: int | None
) -> np.ndarray:
    """First-shared-layer relevance projected back to features.

    Relevance of hidden unit h on row i is |activation * gradient of the task
    output w.r.t. that activation|; feature d inherits it in proportion to
    |W1[d, h]|. Coarser than input gradients but cheap to aggregate per layer.
    """
    if not state.topology.shared_layers:
        raise ConfigError("hidden_activation mode needs at least one shared layer")
    _, cache = forward(state, features)
    # trunk layer 1's input is the activation of the first shared layer
    grad = output_gradient(state, cache, task_index, target_class, layer=1)
    relevance = np.abs(cache.trunk_acts[1] * grad)
    return (relevance @ np.abs(state.params["trunk.0.W"]).T).mean(axis=0)


def grad_cam_features(
    state: ModelState,
    dataset: Dataset,
    task_index: int = 0,
    target_class: int | None = None,
    mode: str = INPUT_GRADIENT,
) -> AttributionReport:
    """Score every feature's importance for one task over the dataset's rows.

    For classification heads ``target_class`` defaults to the positive class
    (index 1); regression heads take no target. ``mode`` selects the default
    mean-|input gradient| scores or the first-shared-layer hidden-activation
    projection.
    """
    topo = state.topology
    check_compatible(topo, dataset)
    if not 0 <= task_index < topo.num_tasks:
        raise ConfigError(f"task_index {task_index} out of range")
    dataset.require_complete()

    head = topo.heads[task_index]
    if head.kind == CLASSIFICATION:
        if target_class is None:
            target_class = 1
        if not 0 <= target_class < head.num_classes:
            raise ConfigError(
                f"target_class {target_class} out of range [0, {head.num_classes})"
            )
    elif target_class is not None:
        raise ConfigError("target_class only applies to classification heads")

    if mode == INPUT_GRADIENT:
        grads = input_gradients(state, dataset.features, task_index, target_class)
        scores = np.abs(grads).mean(axis=0)
    elif mode == HIDDEN_ACTIVATION:
        scores = _hidden_activation_scores(
            state, dataset.features, task_index, target_class
        )
    else:
        raise ConfigError(f"unknown attribution mode {mode!r}")

    return AttributionReport(
        task_name=dataset.task_names()[task_index],
        target=target_class,
        mode=mode,
        feature_names=dataset.feature_names,
        scores=scores,
        n_samples=dataset.n_rows,
    )
