import hashlib
import json

import numpy as np
import pytest

from bipartite_ab.estimators import erl_estimate, regression_estimate
from bipartite_ab.exposure import exposure_histogram
from bipartite_ab import simulator
from bipartite_ab.ingest import parse_assignments, parse_events, parse_outcomes
from bipartite_ab.simulator import (
    FixedDegree,
    SimConfig,
    SimulationError,
    ZipfDegree,
    experiment_panel,
    rerandomize,
    run_validation,
    sim_config_from_dict,
    sim_config_to_dict,
    simulate_experiment,
)

from conftest import assignment_entries, outcome_entries


class TestSimulateExperiment:
    def test_noiseless_constant_slope_is_exact(self):
        config = SimConfig(
            m=100, n=60, degree=FixedDegree(2),
            beta_mean=2.5, beta_sd=0.0, noise_sd=0.0, seed=7,
        )
        exp = simulate_experiment(config)
        assert exp.truth.true_tau == pytest.approx(2.5, abs=1e-12)
        panel = experiment_panel(exp)
        order = [int(s[1:]) for s in panel.seller_ids]
        alpha = exp.truth.alpha[order]
        assert np.allclose(panel.y_in - alpha, 2.5 * panel.h, atol=1e-12)

    def test_true_tau_is_mean_beta(self):
        exp = simulate_experiment(SimConfig(m=50, n=40, seed=3))
        assert exp.truth.true_tau == pytest.approx(
            float(exp.truth.beta.mean()), abs=1e-12
        )

    def test_degree_one_exposure_is_binary(self):
        exp = simulate_experiment(SimConfig(m=200, n=150, degree=FixedDegree(1), seed=9))
        panel = experiment_panel(exp)
        assert set(np.round(panel.h, 12)) <= {0.0, 1.0}

    def test_zipf_histogram_ranked_bins(self):
        # heavy-tailed degrees: exposure mass at 0 and 1 first, then 0.5
        exp = simulate_experiment(
            SimConfig(m=4000, n=3000, degree=ZipfDegree(2.0, 50), seed=11)
        )
        panel = experiment_panel(exp)
        counts, _ = exposure_histogram(panel.h, bins=50)
        c0, c_half, c1 = counts[0], counts[25], counts[49]
        others = np.delete(counts, [0, 25, 49])
        assert min(c0, c1) > c_half
        assert c_half >= others.max()

    def test_seed_determinism_byte_identical(self, tmp_path):
        config = SimConfig(m=60, n=40, seed=21)
        simulate_experiment(config, out_dir=tmp_path / "a")
        simulate_experiment(config, out_dir=tmp_path / "b")
        for name in ("events.csv", "assignments.csv", "assignments.design.json",
                     "outcomes.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_files_round_trip_through_ingest(self, tmp_path):
        config = SimConfig(m=80, n=50, degree=ZipfDegree(2.0, 20), seed=13)
        exp = simulate_experiment(config, out_dir=tmp_path)
        events, report = parse_events(
            tmp_path / "events.csv", {"view"}, (0, 2**62)
        )
        assert report.rows_dropped == 0
        assert len(events) == len(exp.events)
        assignments = parse_assignments(tmp_path / "assignments.csv")
        assert assignment_entries(assignments) == assignment_entries(exp.assignments)
        outcomes = parse_outcomes(tmp_path / "outcomes.csv")
        assert outcomes.sellers == exp.outcomes.sellers
        assert outcome_entries(outcomes) == outcome_entries(exp.outcomes)

    def test_rerandomize_keeps_truth(self):
        exp = simulate_experiment(SimConfig(m=60, n=40, seed=17))
        again = rerandomize(exp, seed=5)
        assert again.truth.true_tau == exp.truth.true_tau
        assert again.truth.graph_seed_digest == exp.truth.graph_seed_digest
        assert assignment_entries(again.assignments) != assignment_entries(exp.assignments)

    def test_graph_digest_hashes_plain_float_reprs(self, monkeypatch):
        hashed, sha256 = [], hashlib.sha256

        class Recorder:
            def __init__(self):
                self.inner = sha256()

            def update(self, data):
                hashed.append(data.decode())
                self.inner.update(data)

            def hexdigest(self):
                return self.inner.hexdigest()

        monkeypatch.setattr(simulator.hashlib, "sha256", Recorder)
        exp = simulate_experiment(SimConfig(m=60, n=40, seed=17))
        monkeypatch.undo()
        text = "".join(hashed)
        weights = [edge.rsplit(",", 1)[1] for edge in text.split(";")[:-1]]
        # the same text under numpy 1 and 2: no "np.float64(...)" wrapper
        assert weights and all(repr(float(w)) == w for w in weights)
        assert exp.truth.graph_seed_digest == hashlib.sha256(text.encode()).hexdigest()

    def test_noiseless_regression_recovers_truth(self):
        config = SimConfig(
            m=150, n=90, degree=FixedDegree(3), alpha_sd=0.0,
            beta_mean=1.7, beta_sd=0.0, noise_sd=0.0, seed=23,
        )
        panel = experiment_panel(simulate_experiment(config))
        est = regression_estimate(panel)
        assert est.tau_hat == pytest.approx(1.7, abs=1e-8)

    def test_invalid_configs_rejected(self):
        with pytest.raises(SimulationError):
            SimConfig(m=0, n=10)
        with pytest.raises(SimulationError):
            SimConfig(m=10, n=10, p_treat=1.0)
        with pytest.raises(SimulationError):
            SimConfig(m=5, n=10, degree=FixedDegree(6))
        with pytest.raises(SimulationError):
            SimConfig(m=10, n=10, violation=("cubic", 1.0))

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            "config",
            {"n": 10},
            {"m": 10},
            {"m": None, "n": 10},
            {"m": "ten", "n": 10},
            {"m": 10, "n": 10, "degree": 3},
            {"m": 10, "n": 10, "degree": {"kind": "fixed"}},
            {"m": 10, "n": 10, "degree": {"k": 3}},
            {"m": 10, "n": 10, "degree": {"kind": "zipf", "s": 2.0}},
            {"m": 10, "n": 10, "degree": {"kind": "zipf", "k_max": 5}},
            {"m": 10, "n": 10, "violation": {"kind": "quadratic"}},
            {"m": 10, "n": 10, "violation": {"kind": "threshold"}},
            {"m": 10, "n": 10, "violation": {"gamma": 0.3}},
            {"m": 10, "n": 10, "violation": "quadratic"},
            {"m": 10, "n": 10, "alpha": 1.0},
            {"m": 10, "n": 10, "alpha": [0.0]},
            {"m": 10, "n": 10, "beta": [1.0, 0.25, 3.0]},
            {"m": 10, "n": 10, "beta": ["one", 0.25]},
            {"m": 10, "n": 10, "favorite_rates": [0.1]},
            {"m": 10, "n": 10, "p_treat": None},
        ],
    )
    def test_malformed_config_dict_rejected(self, payload):
        with pytest.raises(SimulationError):
            sim_config_from_dict(payload)

    def test_config_json_round_trip(self):
        config = SimConfig(
            m=10, n=5, degree=ZipfDegree(1.8, 30), violation=("quadratic", 0.4),
            favorite_rates=(0.2, 0.5), seed=3,
        )
        payload = json.loads(json.dumps(sim_config_to_dict(config)))
        assert sim_config_from_dict(payload) == config


class TestViolationModes:
    def test_quadratic_biases_erl(self):
        # oracle: Monte Carlo under deliberate misspecification
        config = SimConfig(
            m=300, n=200, degree=FixedDegree(3),
            beta_sd=0.1, noise_sd=0.2, violation=("quadratic", 2.0), seed=29,
        )
        base = simulate_experiment(config)
        taus = []
        for r in range(400):
            exp = rerandomize(base, seed=r)
            taus.append(erl_estimate(experiment_panel(exp)).tau_hat)
        taus = np.array(taus)
        mc_se = taus.std(ddof=1) / np.sqrt(len(taus))
        assert abs(taus.mean() - base.truth.true_tau) > 3 * mc_se

    def test_threshold_response_shape(self):
        config = SimConfig(
            m=100, n=70, degree=FixedDegree(2), beta_mean=1.0, beta_sd=0.0,
            noise_sd=0.0, violation=("threshold", 0.5), seed=31,
        )
        exp = simulate_experiment(config)
        panel = experiment_panel(exp)
        order = [int(s[1:]) for s in panel.seller_ids]
        alpha = exp.truth.alpha[order]
        jumps = np.round(panel.y_in - alpha, 9)
        assert set(jumps) <= {0.0, 1.0}
        assert np.all((panel.h > 0.5) == (jumps == 1.0))


class TestRunValidation:
    def test_linear_model_bias_and_coverage(self):
        config = SimConfig(
            m=500, n=200, degree=FixedDegree(3),
            beta_mean=0.5, beta_sd=0.1, noise_sd=1.0, seed=37,
        )
        table = run_validation(
            config,
            estimator_ids=["erl"],
            methods=["bootstrap"],
            sim_replications=100,
            ci_replications=300,
            seed=1,
        )
        row = table.rows[0]
        assert row.n_failed == 0
        assert abs(row.bias) <= 3 * row.mc_sd / np.sqrt(row.n_ok)
        assert 0.90 <= row.coverage <= 1.0

    def test_crerl_narrower_than_erl_with_predictive_pre(self):
        config = SimConfig(
            m=500, n=200, degree=FixedDegree(3), alpha_sd=2.0,
            beta_mean=0.5, beta_sd=0.1, noise_sd=0.5, pre_corr=0.9, seed=41,
        )
        table = run_validation(
            config,
            estimator_ids=["erl", "crerl"],
            methods=["randomization"],
            sim_replications=50,
            ci_replications=300,
            seed=2,
        )
        widths = {r.estimator: r.median_ci_width for r in table.rows}
        assert widths["crerl"] < widths["erl"]

    def test_row_count_and_csv(self, tmp_path):
        config = SimConfig(m=100, n=60, seed=43)
        table = run_validation(
            config,
            estimator_ids=["erl", "reg"],
            methods=["bootstrap", "randomization"],
            sim_replications=3,
            ci_replications=200,
        )
        assert len(table.rows) == 4
        table.to_csv(tmp_path / "validation.csv")
        lines = (tmp_path / "validation.csv").read_text().splitlines()
        assert len(lines) == 5

    def test_requires_estimators(self):
        with pytest.raises(SimulationError):
            run_validation(SimConfig(m=10, n=5), [], ["bootstrap"], 2)
