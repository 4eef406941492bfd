"""The model API's input checks, drawn at random.

Each malformed input is refused with a TabmtlError subclass, never another
exception; each well-formed one gets, bit for bit, what the unchecked
computation gives.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabmtl.attrib import AttributionReport, grad_cam_features, top_k
from tabmtl.dataset import (CLASSIFICATION, REGRESSION, ColumnDescriptor, Dataset,
                            NormalizationStats, OutcomeVector, RawTable, kfold_split, mice_impute)
from tabmtl.errors import ConfigError, TabmtlError
from tabmtl.network import (
    LOG_FLOOR,
    HeadSpec,
    LossWeights,
    NetworkTopology,
    ParamVector,
    backward,
    backward_pass,
    forward,
    init_params,
    input_gradients,
    loss_cls,
    loss_reg,
    output_gradient,
    softmax,
    task_loss,
)
from tabmtl.optim import ScheduleConfig, adam_step, init_adam
from tabmtl.synth import SynthConfig
from tabmtl.train import SearchSpace, TrainConfig

# a 3-class head and a regression head on a shared trunk
TOPOLOGY = NetworkTopology(3, (4,), (HeadSpec((), CLASSIFICATION, 3), HeadSpec((2,), REGRESSION)))
TARGET_FAULTS = ("length", "shape", "empty", "range", "fraction")


def same_bits(got, want) -> bool:
    return np.asarray(got, dtype=np.float64).tobytes() == np.asarray(want).tobytes()


def rng_of(data) -> np.random.Generator:
    return np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))


def labels_of(data, rng, n: int, k: int) -> np.ndarray:
    """``n`` valid class labels, as integers or as the floats that equal them."""
    labels = rng.integers(0, k, n)
    return labels.astype(np.float64) if data.draw(st.booleans()) else labels


def malformed(data, target: np.ndarray, fault: str, k: int | None) -> np.ndarray:
    """``target`` (at least one row) with ``fault``; ``k`` is its head's class count."""
    if fault == "length":
        return target[1:] if data.draw(st.booleans()) else np.append(target, target[:1])
    if fault == "shape":
        return np.stack([target, target], axis=1)
    target = target.astype(np.float64)
    i = data.draw(st.integers(0, len(target) - 1))
    if fault == "range":
        target[i] = data.draw(st.sampled_from([-1.0, float(k), k + 5.0, np.inf]))
    else:  # "fraction": more than 1e-9 from the integer it was
        target[i] += data.draw(st.floats(2e-9, 0.5) | st.floats(-0.5, -2e-9) | st.just(np.nan))
    return target


class TestLosses:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_refused_or_the_reference_value(self, data):
        kind = data.draw(st.sampled_from([CLASSIFICATION, REGRESSION]))
        faults = TARGET_FAULTS if kind == CLASSIFICATION else ("length", "shape", "empty")
        fault = data.draw(st.sampled_from((None,) + faults))
        n, k = (0 if fault == "empty" else data.draw(st.integers(1, 6))), data.draw(st.integers(2, 4))
        rng = rng_of(data)
        if kind == CLASSIFICATION:
            head, loss = HeadSpec((), kind, k), loss_cls
            pred, target = softmax(rng.normal(size=(n, k))), labels_of(data, rng, n, k)
        else:
            head, loss = HeadSpec((), kind), loss_reg
            pred, target = rng.normal(size=n), rng.normal(size=n)
        if fault is not None:
            bad = target if fault == "empty" else malformed(data, target, fault, k)
            for run in (loss, lambda p, t: task_loss(head, p, t)):
                with pytest.raises(TabmtlError):
                    run(pred, bad)
            return
        if kind == CLASSIFICATION:
            y = target.astype(np.int64)
            want = -np.mean(np.log(np.maximum(pred[np.arange(n), y], LOG_FLOOR)))
        else:
            want = np.mean((target - pred) ** 2)
        assert same_bits(loss(pred, target), want)
        assert same_bits(task_loss(head, pred, target), want)


class TestBackward:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refused_or_the_reference_gradients(self, data):
        fault = data.draw(st.sampled_from(
            (None, "count") + TARGET_FAULTS + ("weights_length", "weights_negative")))
        n = 0 if fault == "empty" else data.draw(st.integers(1, 6))
        rng = rng_of(data)
        state = init_params(TOPOLOGY, data.draw(st.integers(0, 100)))
        _, cache = forward(state, rng.normal(size=(n, TOPOLOGY.input_dim)))
        targets = [labels_of(data, rng, n, 3), rng.normal(size=n)]
        weights = tuple(rng.uniform(0.1, 2.0, 2))
        if fault == "count":
            targets = targets[:1]
        elif fault == "weights_length":
            weights = data.draw(st.sampled_from([weights[:1], weights + (1.0,)]))
        elif fault == "weights_negative":
            weights = (weights[0], -data.draw(st.floats(1e-9, 10.0)))
        elif fault in ("range", "fraction"):
            targets[0] = malformed(data, targets[0], fault, 3)
        elif fault in ("length", "shape"):
            j = data.draw(st.integers(0, 1))
            targets[j] = malformed(data, targets[j], fault, 3)
        if fault is not None:
            with pytest.raises(TabmtlError):
                backward(state, cache, targets, weights)
            return
        layout = TOPOLOGY.param_layout
        want = ParamVector(layout, np.empty(layout.size))
        backward_pass(TOPOLOGY, state.params.arrays, cache,
                      [targets[0].astype(np.int64), targets[1]], np.array(weights), want.arrays)
        assert same_bits(backward(state, cache, targets, weights).flat, want.flat)
        assert same_bits(backward(state, cache, targets, LossWeights(weights)).flat, want.flat)


class TestAttribution:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_refused_or_the_reference_gradients(self, data):
        fault = data.draw(st.sampled_from([None, "regression_class", "class_range", "task"]))
        n = data.draw(st.integers(1, 6))
        rng = rng_of(data)
        state = init_params(TOPOLOGY, data.draw(st.integers(0, 100)))
        x = rng.normal(size=(n, TOPOLOGY.input_dim))
        dataset = Dataset(x, ("a", "b", "c"),
                          (OutcomeVector("c", CLASSIFICATION, rng.integers(0, 3, n), 3),
                           OutcomeVector("r", REGRESSION, rng.normal(size=n))),
                          NormalizationStats.identity(3))
        task, target_class = {
            None: (0, data.draw(st.integers(0, 2))),
            "regression_class": (1, data.draw(st.integers(0, 3))),
            "class_range": (0, data.draw(st.sampled_from([-1, 3, 4]))),
            "task": (data.draw(st.sampled_from([-1, 2])), None),
        }[fault]
        if fault is not None:
            with pytest.raises(TabmtlError):
                input_gradients(state, x, task, target_class)
            with pytest.raises(TabmtlError):
                grad_cam_features(state, dataset, task, target_class)
            return
        cache = forward(state, x)[1]
        for task, target_class, default in ((0, target_class, target_class), (0, 1, None),
                                            (1, None, None)):
            want = output_gradient(state, cache, task, target_class)
            assert same_bits(input_gradients(state, x, task, target_class), want)
            report = grad_cam_features(state, dataset, task, default)
            assert same_bits(report.scores, np.abs(want).mean(axis=0))
            assert report.target == target_class


class TestTrainConfig:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_refused_or_kept(self, data):
        fault = data.draw(st.sampled_from([None, "weights_length", "weights_negative", "lr_min"]))
        lr0 = data.draw(st.floats(0.0, 1.0))
        lr_min = data.draw(st.floats(0.0, lr0))
        weights = data.draw(st.none() | st.tuples(st.floats(0.1, 2.0), st.floats(0.0, 2.0)))
        if fault == "weights_length":
            weights = data.draw(st.sampled_from([(1.0,), (1.0, 1.0, 1.0)]))
        elif fault == "weights_negative":
            weights = (1.0, -data.draw(st.floats(1e-9, 10.0)))
        elif fault == "lr_min":
            lr_min = lr0 + data.draw(st.floats(1e-9, 1.0))
        if data.draw(st.booleans()) and weights is not None and fault != "weights_negative":
            weights = LossWeights(weights)
        if fault is not None:
            with pytest.raises(TabmtlError):
                TrainConfig(TOPOLOGY, loss_weights=weights, lr0=lr0, lr_min=lr_min)
            return
        config = TrainConfig(TOPOLOGY, loss_weights=weights, lr0=lr0, lr_min=lr_min)
        assert (config.lr0, config.lr_min) == (lr0, lr_min)
        assert config.loss_weights == LossWeights((1.0, 1.0) if weights is None else weights)


GAPPY = RawTable((ColumnDescriptor("a", "numeric"), ColumnDescriptor("b", "numeric")),
                 ([1.0, None, 3.0, 4.0], [2.0, 4.0, 5.0, 7.0]))
STATE = init_params(TOPOLOGY, 0)
REPORT = AttributionReport("t", 1, tuple("abcdefgh"), np.arange(8.0), 4)  # k up to 8
OUTCOME = dict(name="y", kind="outcome", task_index=0, task=CLASSIFICATION)
# each numeric setting: its name, its type, its lower bound, and a call that
# sets it to a value. The name is what a refusal must name.
NUMERIC_SETTINGS = [
    ("task_index", int, 0, lambda v: ColumnDescriptor(**{**OUTCOME, "task_index": v})),
    ("num_classes", int, 2, lambda v: ColumnDescriptor(**OUTCOME, num_classes=v)),
    ("mice_sweeps", int, 1, lambda v: mice_impute(GAPPY, mice_sweeps=v)),
    ("mice_tol", float, 0, lambda v: mice_impute(GAPPY, mice_tol=v)),
    ("num_classes", int, 2, lambda v: OutcomeVector("y", CLASSIFICATION, [0, 1, 1, 0], v)),
    ("k", int, 2, lambda v: kfold_split(10, v, 0)),
    ("seed", int, 0, lambda v: kfold_split(10, 2, v)),
    ("hidden_layers", int, 1, lambda v: HeadSpec((v,), REGRESSION)),
    ("shared_layers", int, 1, lambda v: NetworkTopology(3, (v,), TOPOLOGY.heads)),
    ("input_dim", int, 1, lambda v: NetworkTopology(v, (), TOPOLOGY.heads)),
    ("lr0", float, 0, lambda v: ScheduleConfig(v, 0.0, 10)),
    ("total_steps", int, 1, lambda v: ScheduleConfig(0.1, 0.0, v)),
    ("lr", float, 0, lambda v: adam_step(STATE, STATE.params, init_adam(STATE), v)),
    ("weight_decay", float, 0,
     lambda v: adam_step(STATE, STATE.params, init_adam(STATE), 0.1, weight_decay=v)),
    ("epochs", int, 1, lambda v: TrainConfig(TOPOLOGY, epochs=v)),
    ("batch_size", int, 1, lambda v: TrainConfig(TOPOLOGY, batch_size=v)),
    ("weight_decay", float, 0, lambda v: TrainConfig(TOPOLOGY, weight_decay=v)),
    ("seed", int, 0, lambda v: TrainConfig(TOPOLOGY, seed=v)),
    *[(axis, int, least, lambda v, axis=axis: SearchSpace(**{axis: (1, v)}))
      for axis, least in (("trunk_depths", 0), ("trunk_widths", 1), ("head_depths", 0),
                          ("head_widths", 1))],
    ("budget", int, 1, lambda v: SearchSpace(budget=v)),
    ("seed", int, 0, lambda v: SearchSpace(seed=v)),
    ("n_samples", int, 4, lambda v: SynthConfig(n_samples=v)),
    ("n_informative", int, 3, lambda v: SynthConfig(n_informative=v)),
    ("noise_std", float, 0, lambda v: SynthConfig(noise_std=v)),
    ("seed", int, 0, lambda v: SynthConfig(seed=v)),
    ("seed", int, 0, lambda v: init_params(TOPOLOGY, v)),
    ("loss weights", float, 0, lambda v: LossWeights((1.0, v))),
    ("k", int, 1, lambda v: top_k(REPORT, v)),
]


class TestNumericSettings:
    @pytest.mark.parametrize("name, kind, least, call", NUMERIC_SETTINGS,
                             ids=[f"{i}-{s[0]}" for i, s in enumerate(NUMERIC_SETTINGS)])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_refused_naming_the_setting_or_taken(self, name, kind, least, call, data):
        """A bool, a float for a count (integral or not), NaN or an infinity, or a
        value below the bound is refused as a ConfigError naming the setting; a
        numpy integer, or for a real a float, at or a little above the bound is taken."""
        fault = data.draw(st.sampled_from([None, "bool", "non-finite", "below"]
                                          + (["float"] if kind is int else [])))
        if fault is None:
            value = np.int64(least + data.draw(st.integers(0, 5)))
            if kind is float and data.draw(st.booleans()):
                value = data.draw(st.floats(least, least + 5.0))
            call(value)
            return
        if fault == "bool":
            value = data.draw(st.booleans())
        elif fault == "non-finite":
            value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif fault == "below":
            value = data.draw(st.integers(max_value=least - 1) if kind is int else
                              st.floats(max_value=least, exclude_max=True, allow_infinity=False))
        else:  # a float for a count, integral or not
            value = data.draw(st.just(float(least)) | st.floats(least, least + 5.0).filter(
                lambda v: not v.is_integer()))
        with pytest.raises(ConfigError) as refused:
            call(value)
        assert re.search(rf"\b{name}\b", str(refused.value)), str(refused.value)
