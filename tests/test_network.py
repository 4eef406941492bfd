import base64
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tabmtl import network
from tabmtl.dataset import NormalizationStats
from tabmtl.errors import ConfigError, DataError
from tabmtl.network import (
    CLASSIFICATION,
    LOG_FLOOR,
    REGRESSION,
    ROW_BLOCK,
    HeadSpec,
    LossWeights,
    ModelState,
    NetworkTopology,
    ParamVector,
    backward,
    forward,
    init_params,
    input_gradients,
    load_model,
    loss_cls,
    loss_mtl,
    loss_reg,
    model_from_dict,
    model_to_dict,
    n_parameters,
    output_gradient,
    predict,
    save_model,
    softmax,
    task_loss,
)
from tabmtl.network import _mse, _nll, _true_class
from tabmtl.optim import adam_step, init_adam

CLS2 = HeadSpec((), CLASSIFICATION, 2)
REG = HeadSpec((), REGRESSION)


def make_targets(rng, topology, n):
    targets = []
    for head in topology.heads:
        if head.kind == CLASSIFICATION:
            targets.append(rng.integers(0, head.num_classes, size=n))
        else:
            targets.append(rng.normal(size=n))
    return targets


def total_loss(state, batch, targets, weights):
    predictions, _ = forward(state, batch)
    losses = [
        task_loss(h, p, t)
        for h, p, t in zip(state.topology.heads, predictions, targets)
    ]
    return loss_mtl(losses, weights)


def finite_difference_grads(state, batch, targets, weights, h=1e-5):
    """Central differences through the full forward pass, one scalar at a time."""
    grads = {}
    for name, arr in state.params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = total_loss(state, batch, targets, weights)
            flat[i] = orig - h
            down = total_loss(state, batch, targets, weights)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, tol=1e-4):
    assert set(analytic) == set(numeric)
    for name in analytic:
        a, f = analytic[name], numeric[name]
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        worst = np.max(np.abs(a - f) / scale)
        assert worst < tol, f"{name}: relative error {worst:.2e}"


class TestTopology:
    def test_layout_and_count_by_hand(self):
        topo = NetworkTopology(3, (4,), (HeadSpec((2,), CLASSIFICATION, 2), REG))
        names = [name for name, _, _ in topo.param_layout]
        assert names == [
            "trunk.0.W", "trunk.0.b",
            "head.0.0.W", "head.0.0.b", "head.0.1.W", "head.0.1.b",
            "head.1.0.W", "head.1.0.b",
        ]
        # 3*4+4 trunk, (4*2+2)+(2*2+2) first head, 4*1+1 second head
        assert n_parameters(topo) == 16 + 16 + 5

    def test_trunk_output_dim_with_empty_trunk(self):
        topo = NetworkTopology(7, (), (REG,))
        assert topo.trunk_output_dim == 7

    def test_round_trip_dict(self):
        topo = NetworkTopology(5, (8, 4), (HeadSpec((3,), CLASSIFICATION, 4), REG))
        assert NetworkTopology.from_dict(topo.to_dict()) == topo

    SIZES = st.sampled_from([1, 3, np.int64(2), 2.9, 3.0, True, False, 0, -1, "3", None])
    WIDTHS = st.lists(SIZES, max_size=2) | st.lists(SIZES, max_size=2).map(tuple) | st.text(
        "12x", max_size=2)

    @settings(max_examples=300, deadline=None)
    @given(input_dim=SIZES, shared=WIDTHS, heads=st.lists(st.tuples(
        WIDTHS, st.sampled_from([CLASSIFICATION, REGRESSION, "x"]), SIZES), min_size=1, max_size=2))
    def test_refused_or_saves_and_loads_unchanged(self, input_dim, shared, heads):
        """A topology raises ConfigError, or keeps every size it is given and
        comes back from its JSON text equal, giving the same text again."""
        try:
            topo = NetworkTopology(input_dim, shared, tuple(HeadSpec(*h) for h in heads))
        except ConfigError:
            return
        assert topo.input_dim == input_dim and list(topo.shared_layers) == list(shared)
        for head, (hidden, _, num_classes) in zip(topo.heads, heads):
            assert list(head.hidden_layers) == list(hidden) and head.num_classes == num_classes
        text = json.dumps(topo.to_dict())
        loaded = NetworkTopology.from_dict(json.loads(text))
        assert loaded == topo
        assert json.dumps(loaded.to_dict()) == text

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkTopology(0, (), (REG,))
        with pytest.raises(ConfigError):
            NetworkTopology(3, (), ())
        with pytest.raises(ConfigError):
            HeadSpec((), CLASSIFICATION, 1)
        with pytest.raises(ConfigError):
            HeadSpec((-1,), REGRESSION)


class TestFlatParameters:
    TOPO = NetworkTopology(3, (4,), (HeadSpec((2,), CLASSIFICATION, 2), REG))

    def test_named_arrays_are_views_of_one_vector_weights_first(self):
        state = init_params(self.TOPO, seed=0)
        flat = state.params.flat
        assert self.TOPO.param_layout is self.TOPO.param_layout
        assert flat.shape == (n_parameters(self.TOPO),)
        offset = 0
        # a stable sort by is_bias: the weights in layout order, then the biases
        for name, shape, _ in sorted(self.TOPO.param_layout, key=lambda e: e[2]):
            arr = state.params[name]
            assert arr.shape == shape and np.shares_memory(arr, flat)
            assert np.array_equal(arr.reshape(-1), flat[offset:offset + arr.size])
            offset += arr.size
        assert offset == flat.size

    def test_state_from_a_mapping_is_checked_and_copied(self):
        state = init_params(self.TOPO, seed=0)
        named = {name: arr.copy() for name, arr in state.params.items()}
        copy = ModelState(self.TOPO, named)
        assert np.array_equal(copy.params.flat, state.params.flat)
        named["trunk.0.W"][0, 0] += 1.0
        assert copy.params["trunk.0.W"][0, 0] == state.params["trunk.0.W"][0, 0]
        with pytest.raises(DataError, match="head.1.0.b"):
            ModelState(self.TOPO, dict(named, **{"head.1.0.b": np.zeros(2)}))
        del named["trunk.0.b"]
        with pytest.raises(DataError, match="names"):
            ModelState(self.TOPO, named)

    def test_adam_steps_a_plain_dict_of_gradients_identically(self):
        rng = np.random.default_rng(6)
        state = init_params(self.TOPO, seed=2)
        batch = rng.normal(size=(9, 3))
        _, cache = forward(state, batch)
        grads = backward(state, cache, make_targets(rng, self.TOPO, 9), (1.0, 0.5))
        adam = init_adam(state)
        by_vector, moments = adam_step(state, grads, adam, lr=0.1, weight_decay=0.01)
        by_dict, _ = adam_step(state, {n: g.copy() for n, g in grads.items()}, adam,
                               lr=0.1, weight_decay=0.01)
        assert by_vector.params.flat.tobytes() == by_dict.params.flat.tobytes()
        assert np.shares_memory(moments.m["trunk.0.W"], moments.m.flat)


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        topo = NetworkTopology(100, (28,), (CLS2,))
        state = init_params(topo, seed=0)
        w = state.params["trunk.0.W"]
        bound = math.sqrt(6.0 / 128)
        assert np.all(np.abs(w) <= bound)
        assert np.abs(w).max() > 0.8 * bound  # actually fills the range
        assert np.all(state.params["trunk.0.b"] == 0.0)

    def test_deterministic_per_seed(self):
        topo = NetworkTopology(4, (3,), (CLS2, REG))
        a = init_params(topo, seed=11)
        b = init_params(topo, seed=11)
        c = init_params(topo, seed=12)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])
        assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


class TestForward:
    def test_softmax_hand_value(self):
        out = softmax(np.array([[0.0, math.log(3.0)]]))
        assert out[0] == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_softmax_large_logits_stable(self):
        out = softmax(np.array([[1000.0, 1001.0]]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, softmax(np.array([[0.0, 1.0]])))

    def test_shapes_and_row_stochastic(self):
        rng = np.random.default_rng(0)
        topo = NetworkTopology(6, (5,), (HeadSpec((4,), CLASSIFICATION, 3), REG))
        state = init_params(topo, 0)
        preds, _ = forward(state, rng.normal(size=(9, 6)))
        assert preds[0].shape == (9, 3)
        assert np.allclose(preds[0].sum(axis=1), 1.0)
        assert preds[1].shape == (9,)

    def test_input_validation(self):
        state = init_params(NetworkTopology(3, (), (REG,)), 0)
        with pytest.raises(DataError):
            forward(state, np.zeros(3))
        with pytest.raises(DataError):
            forward(state, np.zeros((2, 4)))
        bad = np.zeros((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            forward(state, bad)

    def test_float64_output(self):
        state = init_params(NetworkTopology(3, (2,), (REG,)), 0)
        preds, _ = forward(state, np.zeros((2, 3), dtype=np.float32))
        assert preds[0].dtype == np.float64


# softmax and the batch losses as they were before they computed in place;
# the in-place versions must return the same bits
def reference_softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def reference_nll(probs, labels):
    return -np.mean(np.log(np.maximum(_true_class(probs, labels), LOG_FLOOR)), axis=-1)


def reference_mse(preds, targets):
    return np.mean((targets - preds) ** 2, axis=-1)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestInPlaceLosses:
    """softmax, _nll and _mse against the expressions they replaced, bit for bit."""

    @staticmethod
    def rows_shape(data):
        # one model's rows, or a stack's (M, B)
        return data.draw(st.sampled_from([(), (1,), (5,)])) + (data.draw(st.integers(1, 70)),)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_softmax(self, data):
        # (K,), (B, K) and (M, B, K), with odd and even K on both sides of 8
        lead = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=10))
        k = data.draw(st.integers(2, 12))
        # ties, +-0.0 and logits far enough apart that exp underflows to 0
        logit = (st.sampled_from([0.0, -0.0, 1.0, 700.0, -700.0])
                 | st.floats(-800.0, 800.0))
        logits = data.draw(hnp.arrays(np.float64, lead + (k,), elements=logit))
        assert_same_bits(softmax(logits), reference_softmax(logits))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_nll(self, data):
        shape, k = self.rows_shape(data), data.draw(st.integers(2, 4))
        # a true class at probability exactly 1 gives the loss -0.0; 0 and 1e-13
        # are below LOG_FLOOR
        prob = st.sampled_from([1.0, 0.0, 1e-13, LOG_FLOOR, 0.5]) | st.floats(0.0, 1.0)
        probs = data.draw(hnp.arrays(np.float64, shape + (k,), elements=prob))
        labels = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, k - 1)))
        assert_same_bits(_nll(probs, labels), reference_nll(probs, labels))

    def test_nll_of_a_certain_prediction_is_negative_zero(self):
        loss = _nll(softmax(np.array([[700.0, -700.0]])), np.array([0]))
        assert loss == 0.0 and math.copysign(1.0, loss) == -1.0

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mse(self, data):
        shape = self.rows_shape(data)
        value = st.sampled_from([0.0, -0.0, 5e-324]) | st.floats(-1e100, 1e100)
        preds, targets = (data.draw(hnp.arrays(np.float64, shape, elements=value))
                          for _ in range(2))
        assert_same_bits(_mse(preds, targets), reference_mse(preds, targets))


class TestLosses:
    def test_loss_cls_hand_value(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        expected = -(math.log(0.9) + math.log(0.8)) / 2
        assert loss_cls(probs, np.array([0, 1])) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.16425203348635005)

    def test_loss_cls_floor_keeps_finite(self):
        probs = np.array([[1.0, 0.0]])
        val = loss_cls(probs, np.array([1]))
        assert val == pytest.approx(-math.log(1e-12))

    def test_loss_cls_label_range(self):
        with pytest.raises(DataError):
            loss_cls(np.array([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.parametrize("label", [0.7, 1.2, 1 - 1e-8, np.nan])
    def test_loss_cls_refuses_a_fractional_label(self, label):
        # each was truncated to a class (NaN to an out-of-range one)
        with pytest.raises(DataError, match="labels, row 0: class label"):
            loss_cls(np.array([[0.5, 0.5]]), np.array([label]))

    def test_loss_cls_rounds_a_label_within_1e_9_of_a_class(self):
        probs = np.array([[0.9, 0.1]])
        assert loss_cls(probs, np.array([1.0 - 1e-10])) == loss_cls(probs, np.array([1]))

    def test_loss_reg_hand_value(self):
        assert loss_reg([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.5)

    def test_loss_mtl_is_weighted_sum(self):
        assert loss_mtl([1.0, 2.0, 3.0], [0.5, 1.0, 2.0]) == pytest.approx(8.5)

    def test_unit_weight_selects_single_task(self):
        losses = [0.31, 1.7, 0.05]
        for j in range(3):
            w = [0.0, 0.0, 0.0]
            w[j] = 1.0
            assert loss_mtl(losses, w) == losses[j]

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights((1.0, -0.1))


GRADCHECK_TOPOLOGIES = [
    NetworkTopology(3, (4,), (CLS2, REG)),
    NetworkTopology(5, (), (HeadSpec((4,), CLASSIFICATION, 3),)),
    NetworkTopology(4, (6, 3), (HeadSpec((3,), CLASSIFICATION, 2), HeadSpec((2,), REGRESSION), HeadSpec((), CLASSIFICATION, 4))),
    NetworkTopology(2, (3,), (REG,)),
]


class TestBackward:
    @pytest.mark.parametrize("topo_idx", range(len(GRADCHECK_TOPOLOGIES)))
    def test_matches_finite_differences(self, topo_idx):
        topo = GRADCHECK_TOPOLOGIES[topo_idx]
        rng = np.random.default_rng(100 + topo_idx)
        state = init_params(topo, seed=topo_idx)
        batch = rng.normal(size=(6, topo.input_dim))
        targets = make_targets(rng, topo, 6)
        weights = tuple(rng.uniform(0.3, 1.7, size=topo.num_tasks))
        _, cache = forward(state, batch)
        analytic = backward(state, cache, targets, weights)
        numeric = finite_difference_grads(state, batch, targets, weights)
        assert_grads_close(analytic, numeric)

    def test_gradient_key_order_matches_layout(self):
        topo = GRADCHECK_TOPOLOGIES[2]
        rng = np.random.default_rng(0)
        state = init_params(topo, 0)
        batch = rng.normal(size=(4, topo.input_dim))
        _, cache = forward(state, batch)
        grads = backward(state, cache, make_targets(rng, topo, 4), (1.0,) * 3)
        assert list(grads) == [name for name, _, _ in topo.param_layout]

    def test_weight_scaling_scales_gradients(self):
        topo = GRADCHECK_TOPOLOGIES[0]
        rng = np.random.default_rng(2)
        state = init_params(topo, 5)
        batch = rng.normal(size=(5, topo.input_dim))
        targets = make_targets(rng, topo, 5)
        _, cache = forward(state, batch)
        base = backward(state, cache, targets, (0.8, 1.4))
        scaled = backward(state, cache, targets, (0.8 * 3, 1.4 * 3))
        for name in base:
            assert np.allclose(scaled[name], 3.0 * base[name], rtol=1e-12, atol=0)

    def test_empty_batch_refused(self):
        topo = GRADCHECK_TOPOLOGIES[0]
        state = init_params(topo, 0)
        _, cache = forward(state, np.zeros((0, topo.input_dim)))
        with pytest.raises(DataError, match="targets of head 0: empty batch"):
            backward(state, cache, [np.zeros(0, dtype=np.int64), np.zeros(0)], (1.0, 1.0))

    def test_fractional_label_refused(self):
        topo = GRADCHECK_TOPOLOGIES[0]
        state = init_params(topo, 0)
        _, cache = forward(state, np.zeros((2, topo.input_dim)))
        with pytest.raises(DataError, match="targets of head 0, row 1: class label 0.7"):
            backward(state, cache, [np.array([1.0, 0.7]), np.zeros(2)], (1.0, 1.0))

    def test_relu_subgradient_at_zero_is_zero(self):
        # a trunk layer, then a head hidden layer, whose weight and bias are
        # +0.0 or -0.0, so its pre-activation on x = 1 is exactly zero; every
        # other layer is 1 * a + 0.5 and passes a gradient on
        topo = NetworkTopology(1, (1,), (HeadSpec((1,), REGRESSION),))
        x, y = np.array([[1.0]]), [np.array([0.0])]
        all_layers = ("trunk.0", "head.0.0", "head.0.1")
        for layer in all_layers[:2]:
            for zero in (0.0, -0.0):
                named = {f"{l}.W": np.array([[1.0]]) for l in all_layers}
                named.update({f"{l}.b": np.array([0.5]) for l in all_layers})
                named[f"{layer}.W"], named[f"{layer}.b"] = np.array([[zero]]), np.array([zero])
                state = ModelState(topo, named)
                _, cache = forward(state, x)
                # the layer's activation, the next layer's input: what the
                # in-place ReLU leaves of a pre-activation of `zero` (a gemm
                # may sum an all-zero product into +0.0, so it is set here)
                act = cache.trunk_acts[1] if layer == "trunk.0" else cache.head_acts[0][1]
                np.maximum(np.full_like(act, zero), 0.0, out=act)
                grads = backward(state, cache, y, (1.0,))
                assert grads["head.0.1.b"][0] != 0.0  # a gradient reaches the layer
                assert grads[f"{layer}.W"][0, 0] == 0.0, (layer, zero)
                assert grads[f"{layer}.b"][0] == 0.0, (layer, zero)
                assert output_gradient(state, cache, 0)[0, 0] == 0.0, (layer, zero)
                assert input_gradients(state, x, task_index=0)[0, 0] == 0.0, (layer, zero)


class TestInputGradients:
    def test_matches_finite_differences(self):
        topo = NetworkTopology(4, (5,), (HeadSpec((3,), CLASSIFICATION, 3), REG))
        rng = np.random.default_rng(9)
        state = init_params(topo, 3)
        batch = rng.normal(size=(4, 4))

        def logit(x, j, c):
            _, cache = forward(state, x)
            out = cache.head_out[j]
            return out[:, c]

        for task_index, target in ((0, 2), (1, 0)):
            analytic = input_gradients(
                state, batch, task_index,
                target_class=2 if task_index == 0 else None,
            )
            h = 1e-6
            numeric = np.zeros_like(batch)
            for i in range(batch.shape[0]):
                for d in range(batch.shape[1]):
                    up = batch.copy(); up[i, d] += h
                    dn = batch.copy(); dn[i, d] -= h
                    numeric[i, d] = (
                        logit(up, task_index, target)[i] - logit(dn, task_index, target)[i]
                    ) / (2 * h)
            assert np.allclose(analytic, numeric, atol=1e-6)

    def test_linear_model_gradient_is_weight_column(self):
        topo = NetworkTopology(3, (), (HeadSpec((), CLASSIFICATION, 2),))
        state = init_params(topo, 7)
        batch = np.random.default_rng(1).normal(size=(5, 3))
        grads = input_gradients(state, batch, 0, target_class=1)
        expected = state.params["head.0.0.W"][:, 1]
        assert np.allclose(grads, np.tile(expected, (5, 1)), atol=1e-12)

    def test_requires_target_class_for_classification(self):
        state = init_params(NetworkTopology(3, (), (CLS2,)), 0)
        with pytest.raises(ConfigError):
            input_gradients(state, np.zeros((2, 3)), 0)

    def test_regression_head_refuses_a_target_class(self):
        # it was ignored: the scalar output's gradient came back for any class
        state = init_params(NetworkTopology(3, (), (REG,)), 0)
        with pytest.raises(ConfigError, match="only applies to classification heads"):
            input_gradients(state, np.zeros((2, 3)), 0, target_class=0)


# the topologies of the `train` goldens (tests/test_golden.py), on their five inputs
BLOCK_TOPOLOGIES = {
    "no_trunk": NetworkTopology(5, (), (HeadSpec((4,), CLASSIFICATION, 2),
                                        HeadSpec((4,), REGRESSION))),
    "deep_trunk": NetworkTopology(5, (8, 6, 5), (HeadSpec((4,), CLASSIFICATION, 2),
                                                 HeadSpec((4,), REGRESSION))),
    "no_head_hidden": NetworkTopology(5, (8,), (HeadSpec((), CLASSIFICATION, 3),
                                                HeadSpec((), REGRESSION))),
    "mixed_heads": NetworkTopology(5, (8,), (HeadSpec((4,), CLASSIFICATION, 3),
                                             HeadSpec((4,), REGRESSION),
                                             HeadSpec((4,), CLASSIFICATION, 2))),
}
BLOCK_EDGES = [0, 1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK - 1,
               2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 3 * ROW_BLOCK, 3 * ROW_BLOCK + 1]


def traced_peak(fn, *args):
    """Bytes ``fn(*args)`` allocates at its peak, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    """predict and input_gradients, run ROW_BLOCK rows at a time, against one
    whole-batch forward pass and ``output_gradient`` on its cache."""

    @pytest.mark.parametrize("n", BLOCK_EDGES + [5 * ROW_BLOCK + 7])
    def test_blocks_cover_the_rows_in_order(self, n):
        blocks = network._row_blocks(n)
        assert [(s.start, s.stop) for s in blocks] == list(
            zip([0] + [s.stop for s in blocks[:-1]], [s.stop for s in blocks]))
        assert blocks[-1].stop == n
        assert len(blocks) == max(n // ROW_BLOCK, 1)
        assert all(ROW_BLOCK <= s.stop - s.start < 2 * ROW_BLOCK for s in blocks[1:])

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(BLOCK_TOPOLOGIES)),
           n=st.sampled_from(BLOCK_EDGES) | st.integers(0, 3 * ROW_BLOCK + 1),
           seed=st.integers(0, 2**32 - 1))
    def test_blocks_equal_the_whole_batch(self, name, n, seed):
        topo = BLOCK_TOPOLOGIES[name]
        rng = np.random.default_rng(seed)
        state = init_params(topo, seed)
        x = rng.normal(size=(n, topo.input_dim))
        want, cache = forward(state, x)
        got = predict(state, x)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        for j, head in enumerate(topo.heads):
            for c in range(head.num_classes) if head.kind == CLASSIFICATION else [None]:
                assert_same_bits(input_gradients(state, x, j, c),
                                 output_gradient(state, cache, j, c))

    def test_narrow_next_to_wide_layers_agree_to_rounding(self):
        # OpenBLAS picks a small-matrix kernel by a product's size, so with a
        # 3-wide input into 256 units, or 256 units into 4, a block's last bits
        # can differ from the whole batch's
        topo = NetworkTopology(3, (256, 256), (HeadSpec((4,), CLASSIFICATION, 3), REG))
        state = init_params(topo, 0)
        x = np.random.default_rng(0).normal(size=(4 * ROW_BLOCK + 1, 3))
        want, cache = forward(state, x)
        got = predict(state, x) + [input_gradients(state, x, 0, 2), input_gradients(state, x, 1)]
        want += [output_gradient(state, cache, 0, 2), output_gradient(state, cache, 1)]
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    def test_batch_checked_once_as_forward_checks_it(self):
        state = init_params(BLOCK_TOPOLOGIES["mixed_heads"], 0)
        bad = np.zeros((2 * ROW_BLOCK, 5))
        bad[-1, 0] = np.inf
        for batch, message in ((np.zeros(5), "2-D"), (np.zeros((3, 4)), "4 columns"),
                               (bad, "non-finite")):
            for run in (lambda b: forward(state, b), lambda b: predict(state, b),
                        lambda b: input_gradients(state, b, 1)):
                with pytest.raises(DataError, match=message):
                    run(batch)

    def test_batch_checked_once_whatever_its_blocks(self):
        state = init_params(BLOCK_TOPOLOGIES["mixed_heads"], 0)
        x = np.zeros((3 * ROW_BLOCK, 5))
        assert len(network._row_blocks(len(x))) == 3
        for run in (lambda: predict(state, x), lambda: input_gradients(state, x, 0, 1)):
            with mock.patch.object(network, "_checked_batch",
                                   wraps=network._checked_batch) as check:
                run()
            assert check.call_count == 1

    @pytest.mark.parametrize("run", [
        lambda state, x: predict(state, x),
        lambda state, x: input_gradients(state, x, 0, 1),
    ], ids=["predict", "input_gradients"])
    def test_memory_grows_only_by_the_result(self, run):
        # wide enough that one block's activations outweigh a whole table's result
        topo = NetworkTopology(20, (64, 64), (HeadSpec((16,), CLASSIFICATION, 3),
                                              HeadSpec((16,), REGRESSION)))
        state = init_params(topo, 0)
        rng = np.random.default_rng(0)
        one, many = (rng.normal(size=(k * ROW_BLOCK, 20)) for k in (1, 16))
        run(state, one)  # caches that live on: the parameter views
        result = run(state, many)
        result_bytes = sum(r.nbytes for r in (result if isinstance(result, list) else [result]))
        assert traced_peak(run, state, many) - traced_peak(run, state, one) <= result_bytes


EXTREME_FLOATS = [-0.0, 5e-324, -5e-324, 1e16, 1e-5,
                  1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def saved_models(draw):
    """A model of a drawn shape whose parameters include the float extremes."""
    trunk = draw(st.sampled_from([(), (3,), (4, 3, 2)]))
    head_hidden = draw(st.sampled_from([(), (2,), (3, 2)]))
    heads = draw(st.sampled_from([
        (REGRESSION,), (CLASSIFICATION,), (CLASSIFICATION, REGRESSION, CLASSIFICATION),
    ]))
    topo = NetworkTopology(draw(st.integers(1, 4)), trunk, tuple(
        HeadSpec(head_hidden, kind, 3 if kind == CLASSIFICATION else 1) for kind in heads))
    size = topo.param_layout.size
    values = st.one_of(st.sampled_from(EXTREME_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False))
    flat = draw(hnp.arrays(np.float64, size, elements=values))
    return ModelState(topo, ParamVector(topo.param_layout, flat))


def identity_scaling(topology):
    """Feature names and identity normalization stats for the topology's inputs."""
    d = topology.input_dim
    return tuple(f"x{i}" for i in range(d)), NormalizationStats.identity(d)


def model_doc(state):
    return model_to_dict(state, *identity_scaling(state.topology))


def encoded(values) -> str:
    """The base64 text of ``values``' little-endian float64 bytes, as ``params`` holds it."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def decoded(doc) -> np.ndarray:
    """A writable copy of the parameter vector in a model document's ``params``."""
    return np.frombuffer(base64.b64decode(doc["params"]), "<f8").copy()


class TestSerialization:
    def test_round_trip_is_value_exact(self, tmp_path):
        topo = NetworkTopology(4, (3,), (HeadSpec((2,), CLASSIFICATION, 2), REG))
        state = init_params(topo, 42)
        record = {"feature_names": ["a", "b", "c", "d"],
                  "mean": [0.1, -2.5, 0.0, 1e-17],
                  "std": [1.0, 0.3333333333333333, 2.0, 1.0]}
        stats = NormalizationStats(record["mean"], record["std"])
        path = tmp_path / "model.json"
        save_model(state, path, ("a", "b", "c", "d"), stats)
        loaded, loaded_names, loaded_stats = load_model(path)
        assert loaded.topology == topo
        for name in state.params:
            assert np.array_equal(loaded.params[name], state.params[name])
        assert loaded_names == ("a", "b", "c", "d")
        assert loaded_stats.mean.tolist() == record["mean"]
        assert loaded_stats.std.tolist() == record["std"]
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")  # one line, no indentation
        doc = json.loads(text)
        assert list(doc) == ["version", "topology", "params", "normalization_stats"]
        assert doc["version"] == 3
        assert doc["params"] == encoded(state.params.flat)
        assert decoded(doc).tobytes() == state.params.flat.tobytes()
        assert doc["normalization_stats"] == record

    @pytest.mark.parametrize("change, count", [(-8, "2"), (8, "4"), (-1, "2.875"), (1, "3.125")],
                             ids=["short", "long", "byte_short", "byte_long"])
    def test_wrong_parameter_count_rejected(self, change, count):
        doc = model_doc(init_params(NetworkTopology(2, (), (REG,)), 0))
        raw = base64.b64decode(doc["params"])
        raw = raw[:change] if change < 0 else raw + bytes(change)
        doc["params"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(ConfigError, match=f"params has {count} values, expected 3$"):
            model_from_dict(doc)

    def test_version_checked(self):
        doc = model_doc(init_params(NetworkTopology(2, (), (REG,)), 0))
        doc["version"] = 99
        with pytest.raises(ConfigError):
            model_from_dict(doc)

    def test_version_1_document_asks_for_retraining(self):
        state = init_params(NetworkTopology(2, (3,), (REG,)), 0)
        doc = model_doc(state)
        doc["version"] = 1
        doc["params"] = {name: arr.tolist() for name, arr in state.params.items()}
        with pytest.raises(ConfigError, match="version 1.*retrain"):
            model_from_dict(doc)

    def test_version_2_document_asks_for_retraining(self):
        # version 2 held the same vector as a list of decimal numbers
        state = init_params(NetworkTopology(2, (3,), (REG,)), 0)
        doc = dict(model_doc(state), version=2, params=state.params.flat.tolist())
        with pytest.raises(ConfigError, match="version 2.*only version 3.*retrain"):
            model_from_dict(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, bad):
        doc = model_doc(init_params(NetworkTopology(2, (), (REG,)), 0))
        flat = decoded(doc)
        flat[1] = bad  # head.0.0.W[1][0]
        with pytest.raises(ConfigError, match="parameter head.0.0.W has non-finite values"):
            model_from_dict(dict(doc, params=encoded(flat)))

    def test_non_finite_value_names_its_array(self):
        topo = NetworkTopology(3, (4, 2), (HeadSpec((2,), CLASSIFICATION, 3), REG))
        layout = topo.param_layout
        doc = model_doc(init_params(topo, 0))
        marks = ParamVector(layout, np.arange(layout.size))  # each value's flat index
        for name in layout.names:
            flat = decoded(doc)
            flat[int(marks[name].reshape(-1)[-1])] = -math.inf
            with pytest.raises(ConfigError, match=f"parameter {name} "):
                model_from_dict(dict(doc, params=encoded(flat)))

    def test_first_non_finite_array_in_the_vector_is_named(self):
        # the vector holds every weight before every bias, so trunk.1.W comes
        # before trunk.0.b although the layout lists trunk.0.b first
        topo = NetworkTopology(3, (4, 2), (REG,))
        doc = model_doc(init_params(topo, 0))
        marks = ParamVector(topo.param_layout, np.arange(topo.param_layout.size))
        flat = decoded(doc)
        for name in ("trunk.0.b", "trunk.1.W"):
            flat[int(marks[name].reshape(-1)[0])] = math.nan
        with pytest.raises(ConfigError, match="parameter trunk.1.W "):
            model_from_dict(dict(doc, params=encoded(flat)))

    @pytest.mark.parametrize("key, value", [
        ("topology", [1]),
        ("topology", {"input_dim": 2}),
        ("params", [1.0]),
        ("normalization_stats", [1.0]),
        ("params", {"head.0.0.W": [[0.0], [0.0]], "head.0.0.b": [0.0]}),
        ("params", [[0.0], [0.0], [0.0]]),
        ("params", [0.0, None, 0.0]),
        ("params", [0.0, True, 0.0]),
    ])
    def test_malformed_entry_rejected(self, key, value):
        doc = model_doc(init_params(NetworkTopology(2, (), (REG,)), 0))
        doc[key] = value
        with pytest.raises(ConfigError):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [None, True, 3, 1.5, [encoded([0.0, 0.5, 1.0])]])
    def test_params_must_be_a_string(self, value):
        doc = model_doc(init_params(NetworkTopology(2, (), (REG,)), 0))
        with pytest.raises(ConfigError, match="^params must be a base64 string$"):
            model_from_dict(dict(doc, params=value))

    def test_non_numeric_parameter_rejected(self):
        # 3 values are 24 bytes, 32 base64 characters with no padding: a
        # character outside the alphabet, a URL-safe one, a space, a non-ASCII
        # one, or a cut-off group is refused before any length check
        doc = model_doc(init_params(NetworkTopology(2, (), (REG,)), 0))
        text = doc["params"]
        assert len(text) == 32
        for bad in ("!" + text[1:], text[:5] + "-" + text[6:], text[:8] + " " + text[8:],
                    text[:31] + "é", text[:30], text[:16] + "\n" + text[16:]):
            with pytest.raises(ConfigError, match="^params is not valid base64$"):
                model_from_dict(dict(doc, params=bad))
        assert model_from_dict(dict(doc, params=text))[0].params.flat.size == 3

    @settings(max_examples=60, deadline=None)
    @given(state=saved_models(), non_finite=st.data())
    def test_saved_bytes_are_the_documents_dumps(self, state, non_finite):
        # NaN and Infinity reach save_model only through the library API
        flat = state.params.flat
        for i in non_finite.draw(st.lists(st.integers(0, flat.size - 1), max_size=3)):
            flat[i] = non_finite.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        d = state.topology.input_dim
        names = non_finite.draw(st.sampled_from([identity_scaling(state.topology)[0],
                                                 ('"params": ""',) * d]))
        stats = NormalizationStats(np.full(d, 1e16), np.full(d, 1e-5))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "model.json")
            save_model(state, path, names, stats)
            assert path.read_text() == json.dumps(model_to_dict(state, names, stats)) + "\n"

    def test_large_model_saved_within_what_training_holds(self, tmp_path):
        # training holds five parameter-sized vectors: the parameters, their
        # gradients, Adam's scratch and its two moments
        state = init_params(NetworkTopology(1, (43_692,), (REG,)), 0)
        assert state.params.flat.size == 131_077
        path = tmp_path / "model.json"
        scaling = identity_scaling(state.topology)
        assert traced_peak(save_model, state, path, *scaling) < 5 * state.params.flat.nbytes
        assert path.read_text() == json.dumps(model_to_dict(state, *scaling)) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(saved_models())
    def test_save_then_load_is_bitwise_exact(self, state):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
            names, stats = identity_scaling(state.topology)
            save_model(state, first, names, stats)
            save_model(state, second, names, stats)
            loaded, loaded_names, loaded_stats = load_model(first)
            assert first.read_bytes() == second.read_bytes()
            assert decoded(json.loads(first.read_text())).tobytes() == state.params.flat.tobytes()
        assert loaded.topology == state.topology
        assert loaded.params.flat.tobytes() == state.params.flat.tobytes()
        assert loaded_names == names
        assert loaded_stats.mean.tobytes() == stats.mean.tobytes()
        assert loaded_stats.std.tobytes() == stats.std.tobytes()
