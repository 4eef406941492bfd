"""End-to-end acceptance gate: one test (and one printed verdict line) per claim.

Each test prints ``ACCEPTANCE nn <label>: PASS|FAIL`` so a plain pytest run
doubles as a checklist of the package's headline guarantees.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from tabmtl.attrib import grad_cam_features
from tabmtl.cli import main as cli_main
from tabmtl.dataset import (
    ColumnDescriptor,
    Dataset,
    NormalizationStats,
    OutcomeVector,
    RawTable,
    kfold_split,
    mice_impute,
    select_task,
    subset_rows,
)
from tabmtl.metrics import ConfusionCounts, confusion_counts, f1_score, mse_metric, roc_auc
from tabmtl.network import (
    HeadSpec,
    LossWeights,
    ModelState,
    NetworkTopology,
    backward,
    forward,
    init_params,
    loss_cls,
    loss_mtl,
    loss_reg,
    task_loss,
)
from tabmtl.optim import ScheduleConfig, adam_step, cosine_lr, init_adam
from tabmtl.synth import SynthConfig, generate
from tabmtl.train import TrainConfig, cross_validate, evaluate, train_model


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({label}) failed: {detail}"


# ---------------------------------------------------------------- criterion 1

def _total_loss(state: ModelState, batch, targets, weights) -> float:
    preds, _ = forward(state, batch)
    losses = [task_loss(h, preds[j], targets[j])
              for j, h in enumerate(state.topology.heads)]
    return loss_mtl(losses, weights)


def _fd_grads(state: ModelState, batch, targets, weights, h=1e-5):
    out = {}
    for name, arr in state.params.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = _total_loss(state, batch, targets, weights)
            arr[idx] = orig - h
            down = _total_loss(state, batch, targets, weights)
            arr[idx] = orig
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        out[name] = g
    return out


def _random_topology(rng) -> NetworkTopology:
    d = int(rng.integers(1, 11))
    trunk = tuple(int(rng.integers(1, 17)) for _ in range(rng.integers(0, 3)))
    heads = []
    for _ in range(int(rng.integers(1, 4))):
        hidden = tuple(int(rng.integers(1, 17)) for _ in range(rng.integers(0, 2)))
        if rng.random() < 0.5:
            heads.append(HeadSpec(hidden, "classification", int(rng.integers(2, 5))))
        else:
            heads.append(HeadSpec(hidden, "regression"))
    return NetworkTopology(d, trunk, tuple(heads))


def _relu_inputs(state: ModelState, cache) -> list[np.ndarray]:
    """Every ReLU layer's affine output ``a @ W + b``, from its input in the cache."""
    trunk, heads = state.topology.layers
    layers = [*zip(trunk, cache.trunk_acts),
              *(pair for hl, acts in zip(heads, cache.head_acts) for pair in zip(hl[:-1], acts))]
    return [a @ state.params[w] + state.params[b] for (w, b), a in layers]


def test_01_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    forced = [
        NetworkTopology(4, (), (HeadSpec((3,), "classification", 2),)),
        NetworkTopology(5, (6,), (HeadSpec((), "regression"),
                                  HeadSpec((), "classification", 3))),
        NetworkTopology(3, (4, 4), (HeadSpec((2,), "regression"),
                                    HeadSpec((2,), "regression"),
                                    HeadSpec((2,), "regression"))),
        NetworkTopology(6, (8,), (HeadSpec((4,), "classification", 4),
                                  HeadSpec((4,), "classification", 2),
                                  HeadSpec((), "regression"))),
    ]
    topologies = forced + [_random_topology(rng) for _ in range(18)]
    t0 = time.monotonic()
    worst = 0.0
    for topo in topologies:
        state = init_params(topo, seed=int(rng.integers(1 << 30)))
        # keep every preactivation away from the relu kink, where central
        # differences and the subgradient legitimately disagree
        for _ in range(200):
            batch = rng.normal(size=(4, topo.input_dim))
            _, cache = forward(state, batch)
            margin = min((float(np.min(np.abs(z))) for z in _relu_inputs(state, cache)),
                         default=1.0)
            if margin > 1e-3:
                break
        targets = []
        for head in topo.heads:
            if head.kind == "classification":
                targets.append(rng.integers(0, head.num_classes, size=4))
            else:
                targets.append(rng.normal(size=4))
        weights = [float(rng.uniform(0.2, 2.0)) for _ in topo.heads]
        _, cache = forward(state, batch)
        analytic = backward(state, cache, targets, weights)
        numeric = _fd_grads(state, batch, targets, weights)
        for name in analytic:
            a, f = analytic[name], numeric[name]
            rel = np.abs(a - f) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(1, "analytic gradients match finite differences", ok,
             f"{len(topologies)} topologies, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def _pairwise_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


def test_02_metric_oracles():
    rng = np.random.default_rng(23)
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if case % 2 == 0:
            scores = rng.integers(0, 4, size=n).astype(float)  # heavy ties
        else:
            scores = rng.normal(size=n)
        worst = max(worst, abs(roc_auc(scores, labels) - _pairwise_auc(scores, labels)))
    auc_random_ok = worst < 1e-12

    tie_ok = (
        roc_auc([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 1]) == 0.5
        and roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        and roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    )

    pred = [1, 1, 1, 0, 0, 1]
    true = [1, 1, 0, 1, 0, 1]
    c = confusion_counts(pred, true)
    fixture_ok = (
        c == ConfusionCounts(tp=3, fp=1, fn=1, tn=1)
        and f1_score(c) == 0.75
        and f1_score(ConfusionCounts(tp=1, fp=1, fn=1, tn=0)) == 0.5
        and f1_score(ConfusionCounts(tp=0, fp=0, fn=0, tn=4)) == 0.0
    )

    preds = rng.normal(size=200)
    targs = rng.normal(size=200)
    mse_ok = mse_metric(preds, targs) == loss_reg(preds, targs)

    ok = auc_random_ok and tie_ok and fixture_ok and mse_ok
    _verdict(2, "metrics match exhaustive oracles and fixtures", ok,
             f"worst auc err {worst:.1e}")


# ---------------------------------------------------------------- criterion 3

def test_03_loss_weight_identities():
    rng = np.random.default_rng(31)
    topo = NetworkTopology(5, (6,), (HeadSpec((4,), "classification", 3),
                                     HeadSpec((), "regression"),
                                     HeadSpec((3,), "classification", 2)))
    state = init_params(topo, seed=8)
    batch = rng.normal(size=(7, 5))
    targets = [rng.integers(0, 3, size=7), rng.normal(size=7), rng.integers(0, 2, size=7)]
    preds, cache = forward(state, batch)
    losses = [task_loss(h, preds[j], targets[j]) for j, h in enumerate(topo.heads)]

    unit_ok = all(
        loss_mtl(losses, [1.0 if i == j else 0.0 for i in range(3)]) == losses[j]
        for j in range(3)
    )

    lam = LossWeights((0.7, 1.3, 0.4))
    c = 3.7
    base_loss = loss_mtl(losses, lam)
    scaled_loss = loss_mtl(losses, lam.scaled(c))
    loss_ok = abs(scaled_loss - c * base_loss) <= 1e-12 * abs(c * base_loss)

    g = backward(state, cache, targets, lam)
    gc = backward(state, cache, targets, lam.scaled(c))
    grad_ok = True
    for name in g:
        a, b = gc[name], c * g[name]
        if not np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))):
            grad_ok = False
    ok = unit_ok and loss_ok and grad_ok
    _verdict(3, "loss weights select and scale exactly", ok)


# ---------------------------------------------------------------- criterion 4

def test_04_overfits_small_separable_task():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    n = 30
    labels = np.array([i % 2 for i in range(n)], dtype=np.int64)
    feats = rng.normal(size=(n, 4))
    feats[:, 0] = np.where(labels == 1, 2.0, -2.0) + 0.3 * rng.normal(size=n)
    ds = Dataset(feats, ("a", "b", "c", "d"),
                 (OutcomeVector("y", "classification", labels, 2),),
                 NormalizationStats.identity(4))
    topo = NetworkTopology(4, (8,), (HeadSpec((), "classification", 2),))
    result = train_model(ds, TrainConfig(topo, lr0=0.05, epochs=100, batch_size=30, seed=0))
    preds, _ = forward(result.state, feats)
    ce = loss_cls(preds[0], labels)
    elapsed = time.monotonic() - t0
    ok = ce < 0.01 and elapsed < 5.0
    _verdict(4, "training loss collapses on separable data", ok,
             f"cross-entropy {ce:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 5

def _factor_table(seed: int, n: int = 200, p: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    loadings = rng.normal(size=(2, p))
    factors = rng.normal(size=(n, 2))
    return factors @ loadings + 0.3 * rng.normal(size=(n, p))


def _mcar_mask(rng, n: int, p: int, frac: float) -> np.ndarray:
    k = int(round(frac * n * p))
    flat = rng.choice(n * p, size=k, replace=False)
    mask = np.zeros(n * p, dtype=bool)
    mask[flat] = True
    return mask.reshape(n, p)


def _as_table(x: np.ndarray, mask: np.ndarray) -> RawTable:
    cols = tuple(ColumnDescriptor(f"c{j}", "numeric") for j in range(x.shape[1]))
    return RawTable(cols, tuple(np.where(mask, np.nan, x).T))


def test_05_imputation_beats_column_means():
    wins = 0
    for seed in range(10):
        x = _factor_table(seed)
        rng = np.random.default_rng(seed + 77)
        mask = _mcar_mask(rng, *x.shape, 0.2)
        imputed = mice_impute(_as_table(x, mask))
        imp = np.column_stack(imputed.columns)
        rmse_mice = float(np.sqrt(np.mean((imp[mask] - x[mask]) ** 2)))
        col_means = np.array([x[~mask[:, j], j].mean() for j in range(x.shape[1])])
        filled = np.broadcast_to(col_means, x.shape)
        rmse_mean = float(np.sqrt(np.mean((filled[mask] - x[mask]) ** 2)))
        wins += rmse_mice < rmse_mean

    # deterministic-column case: the held-out column is an exact linear map
    rng = np.random.default_rng(5)
    base = rng.normal(size=(80, 3))
    extra = 1.5 * base[:, 0] - 2.0 * base[:, 1] + 0.5 * base[:, 2] + 2.0
    x = np.column_stack([base, extra])
    mask = np.zeros_like(x, dtype=bool)
    mask[rng.choice(80, size=20, replace=False), 3] = True
    imputed = mice_impute(_as_table(x, mask))
    imp = np.column_stack(imputed.columns)
    exact_err = float(np.max(np.abs(imp[mask] - x[mask])))

    ok = wins >= 9 and exact_err <= 1e-6
    _verdict(5, "chained imputation beats mean fill and solves linear columns", ok,
             f"{wins}/10 seeds, exact-case err {exact_err:.1e}")


# ---------------------------------------------------------------- criterion 6

def test_06_fold_hygiene():
    rng = np.random.default_rng(61)
    partition_ok = True
    for _ in range(150):
        n = int(rng.integers(2, 201))
        k = int(rng.integers(2, min(n, 12) + 1))
        plan = kfold_split(n, k, seed=int(rng.integers(1 << 30)))
        seen = np.concatenate([plan.test_indices(f) for f in range(k)])
        if len(seen) != n or not np.array_equal(np.sort(seen), np.arange(n)):
            partition_ok = False

    ds, _ = generate(SynthConfig(n_samples=60, n_features=6, n_informative=3, seed=11))
    topo = NetworkTopology(6, (4,), (HeadSpec((), "classification", 2),
                                     HeadSpec((), "classification", 2),
                                     HeadSpec((), "regression")))
    config = TrainConfig(topo, epochs=2, batch_size=32, seed=3)
    rep1 = cross_validate(ds, config, k=3, seed=9)
    held_out = rep1.folds[0]["test_indices"][0]
    bumped = ds.features.copy()
    bumped[held_out] += 137.0
    ds2 = Dataset(bumped, ds.feature_names, ds.outcomes, ds.normalization_stats)
    rep2 = cross_validate(ds2, config, k=3, seed=9)
    leak_ok = rep1.folds[0]["normalization_stats"] == rep2.folds[0]["normalization_stats"]

    ok = partition_ok and leak_ok
    _verdict(6, "folds partition the data and stats ignore held-out rows", ok)


# ---------------------------------------------------------------- criterion 7

def test_07_joint_training_beats_single_task():
    t0 = time.monotonic()
    trunk, head = (4,), (4,)
    mtl_auc, stl_auc, mtl_mse, stl_mse, variances = [], [], [], [], []
    for seed in range(10):
        cfg = SynthConfig(n_samples=4000, n_features=30, n_informative=30,
                          rho=0.8, noise_std=0.8, seed=1000 + seed)
        ds, _ = generate(cfg)
        train = subset_rows(ds, np.arange(150))
        evl = subset_rows(ds, np.arange(150, 4000))
        kw = dict(lr0=0.005, epochs=100, batch_size=16, seed=seed)

        joint_topo = NetworkTopology(30, trunk, (HeadSpec(head, "classification", 2),
                                                 HeadSpec(head, "classification", 2),
                                                 HeadSpec(head, "regression")))
        joint = train_model(train, TrainConfig(joint_topo, **kw))
        scored = evaluate(joint.state, evl)["tasks"]
        mtl_auc.append(scored["task_a"]["auc"])
        mtl_mse.append(scored["task_c"]["mse"])

        solo_cls = NetworkTopology(30, trunk, (HeadSpec(head, "classification", 2),))
        solo_a = train_model(select_task(train, "task_a"), TrainConfig(solo_cls, **kw))
        stl_auc.append(
            evaluate(solo_a.state, select_task(evl, "task_a"))["tasks"]["task_a"]["auc"])

        solo_reg = NetworkTopology(30, trunk, (HeadSpec(head, "regression"),))
        solo_c = train_model(select_task(train, "task_c"), TrainConfig(solo_reg, **kw))
        stl_mse.append(
            evaluate(solo_c.state, select_task(evl, "task_c"))["tasks"]["task_c"]["mse"])
        variances.append(float(np.var(evl.outcomes[2].values)))

    mtl_auc = np.array(mtl_auc); stl_auc = np.array(stl_auc)
    auc_wins = int((mtl_auc > stl_auc).sum())
    auc_ok = auc_wins > 5 and mtl_auc.mean() >= stl_auc.mean() - 0.01
    mse_tol = 0.01 * float(np.mean(variances))
    mse_ok = float(np.mean(mtl_mse)) <= float(np.mean(stl_mse)) + mse_tol
    elapsed = time.monotonic() - t0
    ok = auc_ok and mse_ok and elapsed < 300.0
    _verdict(7, "shared trunk beats per-task training", ok,
             f"auc wins {auc_wins}/10, d-auc {mtl_auc.mean() - stl_auc.mean():+.4f}, "
             f"mse {np.mean(mtl_mse):.3f} vs {np.mean(stl_mse):.3f}+{mse_tol:.3f}, "
             f"{elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 8

def test_08_attribution_recovers_support():
    hits = 0
    min_auc = 1.0
    for seed in range(10):
        cfg = SynthConfig(n_samples=400, n_features=12, n_informative=3,
                          rho=0.5, noise_std=0.1, seed=300 + seed)
        ds, truth = generate(cfg)
        topo = NetworkTopology(12, (16,), (HeadSpec((8,), "classification", 2),
                                           HeadSpec((8,), "classification", 2),
                                           HeadSpec((8,), "regression")))
        result = train_model(ds, TrainConfig(topo, lr0=0.01, epochs=80,
                                             batch_size=64, seed=seed))
        min_auc = min(min_auc, evaluate(result.state, ds)["tasks"]["task_a"]["auc"])
        report = grad_cam_features(result.state, ds, task_index=0, target_class=1)
        hits += set(report.ranking()[:3]) == set(truth.informative_indices)

    # linear model: importance must equal the absolute weight vector
    rng = np.random.default_rng(88)
    w_cls = rng.normal(size=(6, 2))
    cls_state = ModelState(
        NetworkTopology(6, (), (HeadSpec((), "classification", 2),)),
        {"head.0.0.W": w_cls, "head.0.0.b": np.zeros(2)},
    )
    feats = rng.normal(size=(25, 6))
    cls_ds = Dataset(feats, tuple(f"f{i}" for i in range(6)),
                     (OutcomeVector("y", "classification",
                                    rng.integers(0, 2, size=25).astype(np.int64), 2),),
                     NormalizationStats.identity(6))
    cls_scores = grad_cam_features(cls_state, cls_ds, task_index=0, target_class=1).scores
    w_reg = rng.normal(size=(6, 1))
    reg_state = ModelState(
        NetworkTopology(6, (), (HeadSpec((), "regression"),)),
        {"head.0.0.W": w_reg, "head.0.0.b": np.zeros(1)},
    )
    reg_ds = Dataset(feats, tuple(f"f{i}" for i in range(6)),
                     (OutcomeVector("y", "regression", rng.normal(size=25)),),
                     NormalizationStats.identity(6))
    reg_scores = grad_cam_features(reg_state, reg_ds, task_index=0).scores
    linear_ok = (np.max(np.abs(cls_scores - np.abs(w_cls[:, 1]))) <= 1e-9
                 and np.max(np.abs(reg_scores - np.abs(w_reg[:, 0]))) <= 1e-9)

    ok = hits >= 8 and min_auc > 0.9 and linear_ok
    _verdict(8, "gradient attribution finds the informative features", ok,
             f"top-3 on {hits}/10 seeds, min auc {min_auc:.3f}")


# ---------------------------------------------------------------- criterion 9

def _snapshot(out_dir):
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir()) if f.is_file()}


def _same_outputs(before: dict, after: dict) -> bool:
    if before.keys() != after.keys():
        return False
    for name in before:
        if name == "manifest.json":
            a = json.loads(before[name]); b = json.loads(after[name])
            a.pop("elapsed_seconds", None); b.pop("elapsed_seconds", None)
            if a != b:
                return False
        elif before[name] != after[name]:
            return False
    return True


def test_09_cli_outputs_are_reproducible(tmp_path):
    synth_dir = tmp_path / "synth"
    data = synth_dir / "data.csv"
    schema = synth_dir / "schema.json"
    model_dir = tmp_path / "train"
    common = ["--data", str(data), "--schema", str(schema)]
    net = ["--trunk", "8", "--head", "4", "--batch-size", "32"]
    commands = {
        "synth": ["synth", "--out", str(synth_dir), "--n-samples", "80",
                  "--n-features", "8", "--n-informative", "3", "--seed", "7"],
        "preprocess": ["preprocess", *common, "--out", str(tmp_path / "prep")],
        "train": ["train", *common, *net, "--epochs", "3",
                  "--out", str(model_dir)],
        "cv": ["cv", *common, *net, "--epochs", "2", "--k", "3",
               "--out", str(tmp_path / "cv")],
        "gridsearch": ["gridsearch", *common, "--trunk-depths", "1",
                       "--trunk-widths", "4", "--head-depths", "1",
                       "--head-widths", "4", "--lr0-values", "0.01",
                       "--weight-decay-values", "0", "--epochs-values", "2",
                       "--loss-weight-values", "1", "--primary-task", "task_a",
                       "--k", "2", "--out", str(tmp_path / "grid")],
        "attribute": ["attribute", *common, "--model", str(model_dir / "model.json"),
                      "--task", "task_a", "--out", str(tmp_path / "attr")],
        "report": ["report", *common, "--out", str(tmp_path / "report")],
    }
    stable = {}
    for name, argv in commands.items():
        out_dir = Path(next(p for i, p in enumerate(argv) if argv[i - 1] == "--out"))
        assert cli_main(argv) == 0
        first = _snapshot(out_dir)
        assert cli_main(argv) == 0
        stable[name] = _same_outputs(first, _snapshot(out_dir))
    ok = all(stable.values())
    _verdict(9, "every command rewrites byte-identical outputs", ok,
             ", ".join(f"{k}={'ok' if v else 'DIFF'}" for k, v in stable.items()))


# --------------------------------------------------------------- criterion 10

def test_10_schedule_and_optimizer_fixtures():
    plain = ScheduleConfig(lr0=0.2, lr_min=0.0, total_steps=100)
    floored = ScheduleConfig(lr0=0.2, lr_min=0.02, total_steps=100)
    mid = cosine_lr(50, floored)
    expected_mid = 0.02 + 0.5 * (0.2 - 0.02) * (1.0 + math.cos(math.pi / 2))
    schedule_ok = (
        cosine_lr(0, plain) == 0.2
        and cosine_lr(100, plain) == 0.0
        and cosine_lr(100, floored) == 0.02
        and mid == expected_mid
        and abs(mid - 0.11) < 1e-15
    )

    # worked example from the adam_step docstring
    topo = NetworkTopology(1, (), (HeadSpec((), "regression"),))
    state = ModelState(topo, {"head.0.0.W": np.array([[0.3]]),
                              "head.0.0.b": np.zeros(1)})
    grads = {"head.0.0.W": np.array([[0.5]]), "head.0.0.b": np.zeros(1)}
    stepped, _ = adam_step(state, grads, init_adam(state), lr=0.1)
    adam_ok = abs(stepped.params["head.0.0.W"][0, 0] - 0.2000000020) < 1e-9

    ok = schedule_ok and adam_ok
    _verdict(10, "schedule and optimizer match hand-computed values", ok)
