"""Synthetic tabular data with controllably correlated outcomes.

Three tasks share one latent structure: each task's noise-free score blends a
shared direction with a task-specific direction, s_j = rho * (w_shared . x)
+ (1 - rho) * (w_j . x) + eps. Two tasks threshold their scores into binary
labels, the third keeps the raw score as a regression target. rho = 1 makes
the tasks rank-identical up to noise; rho = 0 makes their signal directions
orthogonal.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .dataset import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    NormalizationStats,
    OutcomeVector,
    as_int,
    as_real,
    json_numbers,
    json_object,
    read_json,
    write_json,
)
from .errors import ConfigError, DataError
from .metrics import confusion_counts, f1_score, roc_auc

TASK_NAMES = ("task_a", "task_b", "task_c")
TASK_KINDS = (CLASSIFICATION, CLASSIFICATION, REGRESSION)
N_TASKS = 3


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int = 200
    n_features: int = 30
    n_informative: int = 5
    rho: float = 0.8
    noise_std: float = 0.8
    class_balance: float = 0.5
    missing_frac: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # orthogonal task directions for 3 tasks need at least 3 informative dimensions
        least = {"n_samples": 4, "n_informative": 3, "noise_std": 0, "seed": 0}
        for f in fields(self):  # each field is typed by its default, as the CLI options are
            convert = as_int if type(f.default) is int else as_real
            object.__setattr__(self, f.name,
                               convert(getattr(self, f.name), f.name, least.get(f.name)))
        if self.n_features < self.n_informative:
            raise ConfigError(
                f"n_features={self.n_features} < n_informative={self.n_informative}"
            )
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {self.rho}")
        if not 0.0 < self.class_balance < 1.0:
            raise ConfigError(f"class_balance must be in (0, 1), got {self.class_balance}")
        if not 0.0 <= self.missing_frac < 1.0:
            raise ConfigError(f"missing_frac must be in [0, 1), got {self.missing_frac}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        """The config of a truth file, which must record every field."""
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in json_object(d, names, "config")]
        if missing:
            raise ConfigError(f"config: missing keys {missing}")
        return cls(**d)


@dataclass(frozen=True)
class GroundTruth:
    """The generating weights and thresholds, kept for oracle checks."""

    config: SynthConfig
    shared_weights: np.ndarray
    task_weights: np.ndarray
    thresholds: dict[str, float]

    def __post_init__(self):
        shared = np.asarray(self.shared_weights, dtype=np.float64)
        tasks = np.asarray(self.task_weights, dtype=np.float64)
        if shared.shape != (self.config.n_features,):
            raise ConfigError("shared_weights shape does not match n_features")
        if tasks.shape != (self.config.n_features, N_TASKS):
            raise ConfigError("task_weights must be (n_features, 3)")
        if not (np.isfinite(shared).all() and np.isfinite(tasks).all()):
            raise ConfigError("shared_weights and task_weights must be finite")
        names = [name for name, kind in zip(TASK_NAMES, TASK_KINDS) if kind == CLASSIFICATION]
        thresholds = dict(self.thresholds)
        if set(thresholds) != set(names):
            raise ConfigError(f"thresholds must map exactly {names}, got {thresholds!r}")
        shared.setflags(write=False)
        tasks.setflags(write=False)
        object.__setattr__(self, "shared_weights", shared)
        object.__setattr__(self, "task_weights", tasks)
        object.__setattr__(self, "thresholds",
                           {k: as_real(v, f"threshold {k!r}") for k, v in thresholds.items()})

    @property
    def informative_indices(self) -> tuple[int, ...]:
        return tuple(range(self.config.n_informative))

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "shared_weights": self.shared_weights.tolist(),
            "task_weights": self.task_weights.tolist(),
            "thresholds": dict(self.thresholds),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GroundTruth":
        config = SynthConfig.from_dict(d["config"])
        return cls(
            config,
            json_numbers(d["shared_weights"], "shared_weights", config.n_features),
            np.array([json_numbers(row, f"task_weights row {i}", N_TASKS)
                      for i, row in enumerate(d["task_weights"])]),
            d["thresholds"],
        )


def save_truth(truth: GroundTruth, path: str | Path) -> None:
    write_json(path, truth.to_dict())


def load_truth(path: str | Path) -> GroundTruth:
    """Read a truth file written by ``save_truth``; any fault names the file."""
    return read_json(path, "truth", GroundTruth.from_dict)


def _draw_weights(rng: np.random.Generator, config: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    d, m = config.n_features, config.n_informative
    gauss = rng.standard_normal((m, N_TASKS + 1))
    q = np.linalg.qr(gauss)[0]
    shared = np.zeros(d)
    tasks = np.zeros((d, N_TASKS))
    if m >= N_TASKS + 1:
        shared[:m] = q[:, 0]
        tasks[:m, :] = q[:, 1 : N_TASKS + 1]
    else:
        # m == 3: the informative subspace only fits the 3 task directions,
        # so the shared direction is a random unit vector inside it
        tasks[:m, :] = q[:, :N_TASKS]
        extra = rng.standard_normal(m)
        shared[:m] = extra / np.linalg.norm(extra)
    return shared, tasks


def clean_scores(truth: GroundTruth, features: np.ndarray) -> np.ndarray:
    """Noise-free task scores (n, 3) for the given feature rows."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != truth.config.n_features:
        raise DataError(
            f"features must be (n, {truth.config.n_features}), got {x.shape}"
        )
    if np.isnan(x).any():
        raise DataError("features contain missing values; oracle scores need complete rows")
    return _signal(x, truth.config.rho, truth.shared_weights, truth.task_weights)


def _signal(x: np.ndarray, rho: float, shared: np.ndarray, tasks: np.ndarray) -> np.ndarray:
    """The noise-free scores (n, 3): rho * (x . w_shared) + (1 - rho) * (x . w_j)."""
    return rho * (x @ shared)[:, None] + (1.0 - rho) * (x @ tasks)


def generate(config: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Draw a synthetic dataset and its generating ground truth.

    A single PRNG seeded with ``config.seed`` is consumed in a fixed order:
    weight directions, then the feature matrix, then the noise matrix, then
    the missingness mask. The task directions are orthonormal columns (QR of
    a Gaussian draw) supported on the first ``n_informative`` coordinates;
    when the informative block has room the shared direction is orthonormal
    to all of them. Binary labels threshold each score at its empirical
    (1 - class_balance) quantile. ``missing_frac`` masks an exact count of
    feature cells, round(frac * n * d), chosen uniformly without replacement
    and set to NaN; outcomes are never masked. A table too large to allocate
    raises ConfigError.
    """
    rng = np.random.default_rng(config.seed)
    n, d = config.n_samples, config.n_features
    try:
        shared, task_w = _draw_weights(rng, config)
        features = rng.standard_normal((n, d))
        noise = rng.standard_normal((n, N_TASKS)) * config.noise_std
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest shape
        raise ConfigError(f"cannot allocate the {n} x {d} feature table ({exc}); "
                          "lower --n-samples or --n-features") from None

    scores = _signal(features, config.rho, shared, task_w) + noise

    thresholds: dict[str, float] = {}
    outcomes = []
    for j, (name, kind) in enumerate(zip(TASK_NAMES, TASK_KINDS)):
        if kind == CLASSIFICATION:
            thr = float(np.quantile(scores[:, j], 1.0 - config.class_balance))
            labels = (scores[:, j] > thr).astype(np.int64)
            if labels.min() == labels.max():
                raise DataError(
                    f"{name}: all labels identical; adjust class_balance or noise_std"
                )
            thresholds[name] = thr
            outcomes.append(OutcomeVector(name, CLASSIFICATION, labels, 2))
        else:
            outcomes.append(OutcomeVector(name, REGRESSION, scores[:, j]))

    if config.missing_frac > 0.0:
        n_mask = int(round(config.missing_frac * n * d))
        flat = rng.choice(n * d, size=n_mask, replace=False)
        features = features.copy()
        features[np.unravel_index(flat, (n, d))] = np.nan

    width = len(str(d - 1))
    names = tuple(f"x{i:0{width}d}" for i in range(d))
    dataset = Dataset(features, names, tuple(outcomes), NormalizationStats.identity(d))
    truth = GroundTruth(config, shared, task_w, thresholds)
    return dataset, truth


def oracle_bayes_metrics(truth: GroundTruth, dataset: Dataset) -> dict:
    """Metrics an oracle scoring with the true noise-free signal would get.

    For the binary tasks this is the AUC (and thresholded F1) of the clean
    score against the realized labels; for the regression task it is the MSE
    of the clean score, i.e. the realized noise power. Trained models cannot
    beat these except by luck.
    """
    if dataset.n_tasks != N_TASKS or dataset.task_names() != TASK_NAMES:
        raise DataError(f"expected tasks {TASK_NAMES}, got {dataset.task_names()}")
    scores = clean_scores(truth, dataset.raw_features())
    tasks: dict[str, dict] = {}
    for j, (name, kind) in enumerate(zip(TASK_NAMES, TASK_KINDS)):
        outcome = dataset.outcomes[j]
        if kind == CLASSIFICATION:
            preds = (scores[:, j] > truth.thresholds[name]).astype(np.int64)
            tasks[name] = {
                "f1": f1_score(confusion_counts(preds, outcome.values)),
                "auc": roc_auc(scores[:, j], outcome.values),
            }
        else:
            residual = scores[:, j] - outcome.values
            tasks[name] = {"mse": float(np.mean(residual * residual))}
    return {"tasks": tasks}
