"""Gradient-based feature importance for trained models.

Each input feature is scored by the mean absolute gradient of one head's raw
output (the pre-softmax logit of a chosen class, or the regression output)
with respect to that feature, averaged over the rows of a dataset. A large
score means small changes to the feature move the task output a lot, on
average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import CLASSIFICATION, Dataset
from .errors import ConfigError
from .network import ModelState, input_gradients
from .train import check_compatible


@dataclass
class AttributionReport:
    task_name: str
    target: int | None
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
            "mode": "input_gradient",  # the one scoring rule, named as it always was
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


def grad_cam_features(
    state: ModelState,
    dataset: Dataset,
    task_index: int = 0,
    target_class: int | None = None,
) -> AttributionReport:
    """Score every feature's importance for one task over the dataset's rows.

    For classification heads ``target_class`` defaults to the positive class
    (index 1); regression heads take no target.
    """
    topo = state.topology
    check_compatible(topo, dataset)
    if not 0 <= task_index < topo.num_tasks:
        raise ConfigError(f"task_index {task_index} out of range")
    if target_class is None and topo.heads[task_index].kind == CLASSIFICATION:
        target_class = 1
    grads = input_gradients(state, dataset.features, task_index, target_class)
    return AttributionReport(
        task_name=dataset.task_names()[task_index],
        target=target_class,
        feature_names=dataset.feature_names,
        scores=np.abs(grads).mean(axis=0),
        n_samples=dataset.n_rows,
    )
