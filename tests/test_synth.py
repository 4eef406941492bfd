import json
import re

import numpy as np
import pytest

from tabmtl.errors import ConfigError, DataError
from tabmtl.synth import (
    TASK_NAMES,
    GroundTruth,
    SynthConfig,
    clean_scores,
    generate,
    load_truth,
    oracle_bayes_metrics,
    save_truth,
)

# a truth document that loads: each fault case changes one field of it
VALID_TRUTH = {"config": {"n_features": 3, "n_informative": 3}, "shared_weights": [0.0] * 3,
               "task_weights": [[0.0] * 3] * 3, "thresholds": {"task_a": 0.0, "task_b": 0.0}}


class TestConfig:
    def test_needs_three_informative(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_informative=2)

    def test_informative_bounded_by_features(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_features=4, n_informative=5)

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            SynthConfig(rho=1.5)

    def test_missing_frac_below_one(self):
        with pytest.raises(ConfigError):
            SynthConfig(missing_frac=1.0)

    def test_round_trip(self):
        cfg = SynthConfig(n_samples=50, rho=0.3, seed=9)
        assert SynthConfig.from_dict(cfg.to_dict()) == cfg


class TestGenerate:
    def test_deterministic_per_seed(self):
        cfg = SynthConfig(n_samples=40, n_features=10, n_informative=4, seed=5)
        a, ta = generate(cfg)
        b, tb = generate(cfg)
        assert np.array_equal(a.features, b.features)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert np.array_equal(oa.values, ob.values)
        assert np.array_equal(ta.task_weights, tb.task_weights)
        c, _ = generate(SynthConfig(n_samples=40, n_features=10, n_informative=4, seed=6))
        assert not np.array_equal(a.features, c.features)

    def test_task_structure(self):
        ds, _ = generate(SynthConfig(n_samples=60, seed=0))
        assert ds.task_names() == TASK_NAMES
        assert ds.outcomes[0].kind == "classification"
        assert ds.outcomes[1].kind == "classification"
        assert ds.outcomes[2].kind == "regression"
        for j in (0, 1):
            assert set(np.unique(ds.outcomes[j].values)) <= {0, 1}

    def test_class_balance_respected(self):
        for balance in (0.3, 0.5, 0.7):
            ds, _ = generate(SynthConfig(n_samples=400, class_balance=balance, seed=2))
            frac = ds.outcomes[0].values.mean()
            assert abs(frac - balance) < 0.05

    def test_weights_orthonormal_and_supported_on_informative_block(self):
        cfg = SynthConfig(n_features=20, n_informative=6, seed=3)
        _, truth = generate(cfg)
        w = truth.task_weights
        assert np.allclose(w.T @ w, np.eye(3), atol=1e-12)
        assert np.all(w[6:, :] == 0.0)
        assert np.all(truth.shared_weights[6:] == 0.0)
        assert np.linalg.norm(truth.shared_weights) == pytest.approx(1.0)
        # room for a fourth direction: shared is orthogonal to every task
        assert np.allclose(w.T @ truth.shared_weights, 0.0, atol=1e-12)

    def test_minimal_informative_block_still_unit_shared(self):
        _, truth = generate(SynthConfig(n_features=10, n_informative=3, seed=4))
        assert np.linalg.norm(truth.shared_weights) == pytest.approx(1.0)
        assert np.allclose(truth.task_weights.T @ truth.task_weights, np.eye(3), atol=1e-12)

    def test_rho_one_makes_tasks_identical(self):
        cfg = SynthConfig(n_samples=100, rho=1.0, noise_std=0.0, seed=1)
        ds, truth = generate(cfg)
        assert np.array_equal(ds.outcomes[0].values, ds.outcomes[1].values)
        expected = ds.features @ truth.shared_weights
        assert np.allclose(ds.outcomes[2].values, expected, atol=1e-12)

    def test_rho_zero_decorrelates_scores(self):
        cfg = SynthConfig(n_samples=4000, rho=0.0, noise_std=0.0, seed=7)
        ds, truth = generate(cfg)
        scores = clean_scores(truth, ds.features)
        corr = np.corrcoef(scores.T)
        off_diag = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.1)

    def test_missing_mask_exact_count_and_outcomes_intact(self):
        cfg = SynthConfig(n_samples=50, n_features=8, missing_frac=0.13, seed=8)
        ds, _ = generate(cfg)
        expected = round(0.13 * 50 * 8)
        assert int(np.isnan(ds.features).sum()) == expected
        for o in ds.outcomes:
            assert np.all(np.isfinite(np.asarray(o.values, dtype=np.float64)))

    def test_masked_features_match_unmasked_elsewhere(self):
        base, _ = generate(SynthConfig(n_samples=30, n_features=6, seed=9))
        masked, _ = generate(SynthConfig(n_samples=30, n_features=6,
                                         missing_frac=0.2, seed=9))
        keep = ~np.isnan(masked.features)
        assert np.array_equal(masked.features[keep], base.features[keep])
        for ob, om in zip(base.outcomes, masked.outcomes):
            assert np.array_equal(ob.values, om.values)


class TestGroundTruth:
    def test_json_round_trip_value_exact(self, tmp_path):
        _, truth = generate(SynthConfig(n_samples=20, seed=11))
        path = tmp_path / "truth.json"
        save_truth(truth, path)
        loaded = load_truth(path)
        assert np.array_equal(loaded.shared_weights, truth.shared_weights)
        assert np.array_equal(loaded.task_weights, truth.task_weights)
        assert loaded.thresholds == truth.thresholds
        assert loaded.config == truth.config

    @pytest.mark.parametrize("content", [
        None, "directory", b"\xff\xfe", b"[1, 2]", b'{"config": {"n_samples": "x"}}',
        b'{"config": {}}', b'{"config": {"n_samples": 2}}',
        json.dumps({**VALID_TRUTH, "shared_weights": [0.0, float("nan"), 0.0]}).encode(),
        json.dumps({**VALID_TRUTH, "thresholds": {"task_a": 0.0}}).encode(),
    ], ids=["missing", "directory", "bad_bytes", "list", "string_field", "no_weights",
            "bad_config", "nan_weight", "missing_threshold"])
    def test_faults_name_the_file(self, tmp_path, content):
        # each used to leak a raw OSError, UnicodeDecodeError, TypeError or
        # KeyError, or a ConfigError that named no file
        path = tmp_path / "truth.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_truth(path)

    @pytest.mark.parametrize("field, value, named", [
        ("shared_weights", ["1.5", 0.0, 0.0], "shared_weights"),
        ("shared_weights", [True, 0.0, 0.0], "shared_weights"),
        ("task_weights", [[0.0] * 3, [0.0, "1.5", 0.0], [0.0] * 3], "task_weights row 1"),
        ("task_weights", [[0.0] * 3, [0.0] * 3, [0.0, 0.0, True]], "task_weights row 2"),
    ], ids=["string_shared", "bool_shared", "string_task", "bool_task"])
    def test_non_number_weights_name_the_file_and_field(self, tmp_path, field, value, named):
        # each was read as a number: "1.5" as 1.5 and true as 1.0
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({**VALID_TRUTH, field: value}))
        with pytest.raises(ConfigError, match=re.escape(f"truth file {path}: {named} must be "
                                                        "a flat list of numbers")):
            load_truth(path)

    def test_clean_scores_formula(self):
        cfg = SynthConfig(n_samples=10, n_features=6, n_informative=4, rho=0.4, seed=12)
        ds, truth = generate(cfg)
        scores = clean_scores(truth, ds.features)
        manual = (
            0.4 * (ds.features @ truth.shared_weights)[:, None]
            + 0.6 * (ds.features @ truth.task_weights)
        )
        assert np.allclose(scores, manual, atol=1e-15)

    def test_clean_scores_rejects_nan(self):
        ds, truth = generate(SynthConfig(n_samples=10, missing_frac=0.1, seed=13))
        with pytest.raises(DataError):
            clean_scores(truth, ds.features)


class TestOracle:
    def test_low_noise_oracle_is_strong(self):
        ds, truth = generate(SynthConfig(n_samples=500, noise_std=0.05, seed=14))
        report = oracle_bayes_metrics(truth, ds)
        assert report["tasks"]["task_a"]["auc"] > 0.95
        assert report["tasks"]["task_b"]["auc"] > 0.95
        # regression residual is exactly the realized noise
        assert report["tasks"]["task_c"]["mse"] == pytest.approx(0.05**2, rel=0.5)

    def test_oracle_mse_matches_noise_power(self):
        ds, truth = generate(SynthConfig(n_samples=2000, noise_std=0.8, seed=15))
        report = oracle_bayes_metrics(truth, ds)
        assert report["tasks"]["task_c"]["mse"] == pytest.approx(0.64, rel=0.15)

    def test_oracle_rejects_missing(self):
        ds, truth = generate(SynthConfig(n_samples=30, missing_frac=0.1, seed=16))
        with pytest.raises(DataError):
            oracle_bayes_metrics(truth, ds)
