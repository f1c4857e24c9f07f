import hashlib
import json
import re

import numpy as np
import pytest

from bipartite_ab.estimators import erl_estimate, regression_estimate
from bipartite_ab.exposure import exposure_histogram
from bipartite_ab import simulator
from bipartite_ab.inference import InferenceError
from bipartite_ab.ingest import parse_assignments, parse_events, parse_outcomes
from bipartite_ab.simulator import (
    SIZE_MAX,
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


# Non-finite numbers, booleans, fractions and oversized counts in a JSON
# config, each with the field its error must name.
NAMED_CONFIG_ERRORS = [
    ({"m": True, "n": 10}, "'m'"),
    ({"m": 2.5, "n": 10}, "'m'"),
    ({"m": "10", "n": 10}, "'m'"),
    ({"m": 10, "n": float("nan")}, "'n'"),
    ({"m": 10**30, "n": 10}, "m is"),
    ({"m": 10**400, "n": 10}, "'m'"),
    ({"m": 10, "n": 10, "seed": 1.5}, "'seed'"),
    ({"m": 10, "n": 10, "degree": {"kind": "fixed", "k": True}}, "'k'"),
    ({"m": 10, "n": 10, "degree": {"kind": "zipf", "s": 2.0, "k_max": 10**30}},
     "n times the degree"),
    ({"m": 10, "n": 10, "degree": {"kind": "zipf", "s": float("nan"), "k_max": 5}}, "'s'"),
    ({"m": 10, "n": 10, "noise_sd": float("nan")}, "'noise_sd'"),
    ({"m": 10, "n": 10, "noise_sd": True}, "'noise_sd'"),
    ({"m": 10, "n": 10, "noise_sd": 10**400}, "'noise_sd'"),
    ({"m": 10, "n": 10, "alpha": [0.0, float("inf")]}, "'alpha'"),
    ({"m": 10, "n": 10, "beta": [False, 0.25]}, "'beta'"),
    ({"m": 10, "n": 10, "p_treat": float("nan")}, "'p_treat'"),
    ({"m": 10, "n": 10, "violation": {"kind": "quadratic", "gamma": float("inf")}},
     "'gamma'"),
    ({"m": 10, "n": 10, "favorite_rates": [float("nan"), 0.2]}, "'favorite_rates'"),
    ({"m": 10, "n": 10, "noise_sd": "1.5"}, "'noise_sd'"),
    ({"m": 10, "n": 10, "degree": {"kind": "zipf", "s": 10**400, "k_max": 5}}, "'s'"),
    # values outside a field's range, refused before numpy draws with them
    ({"m": 0, "n": 5}, "'m'"),
    ({"m": 10, "n": 0}, "'n'"),
    ({"m": 10, "n": 5, "degree": {"kind": "fixed", "k": 11}}, "'k'"),
    ({"m": 10, "n": 5, "p_treat": 1.0}, "'p_treat'"),
    ({"m": 10, "n": 5, "pre_corr": 1.5}, "'pre_corr'"),
    ({"m": 10, "n": 5, "degree": {"kind": "fixed", "k": -1}}, "'k'"),
    ({"m": 10, "n": 5, "degree": {"kind": "fixed", "k": 0}}, "'k'"),
    ({"m": 10, "n": 5, "degree": {"kind": "zipf", "s": 2.0, "k_max": -2}}, "'k_max'"),
    ({"m": 10, "n": 5, "degree": {"kind": "zipf", "s": 2.0, "k_max": 0}}, "'k_max'"),
    ({"m": 10, "n": 5, "degree": {"kind": "zipf", "s": 1.0, "k_max": 5}}, "'s'"),
    ({"m": 10, "n": 5, "alpha": [0, -1]}, "'alpha'"),
    ({"m": 10, "n": 5, "beta": [1, -0.25]}, "'beta'"),
    ({"m": 10, "n": 5, "noise_sd": -1}, "'noise_sd'"),
    ({"m": 10, "n": 5, "favorite_rates": [1.5, -0.2]}, "'favorite_rates'"),
    ({"m": 10, "n": 5, "favorite_rates": [0.2, -0.2]}, "'favorite_rates'"),
]


class TestSimulateExperiment:
    def test_noiseless_constant_slope_is_exact(self):
        config = SimConfig(
            m=100, n=60, degree=FixedDegree(2),
            beta_mean=2.5, beta_sd=0.0, noise_sd=0.0, seed=7,
        )
        exp = simulate_experiment(config)
        assert exp.truth.true_tau == pytest.approx(2.5, abs=1e-12)
        panel = experiment_panel(exp)
        alpha = exp.truth.alpha[exp.seller_number[panel.graph_rows]]
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
        # the sizes are refused before anything is allocated
        for kwargs, message in [
            ({"m": SIZE_MAX + 1}, f"m is {SIZE_MAX + 1}, above the limit {SIZE_MAX}"),
            ({"n": 10**30}, f"n is {10**30}, above the limit {SIZE_MAX}"),
            ({"n": SIZE_MAX, "degree": FixedDegree(2)},
             f"n times the degree is {2 * SIZE_MAX}, above the limit {SIZE_MAX}"),
            ({"degree": ZipfDegree(2.0, SIZE_MAX)},
             f"n times the degree is {10 * SIZE_MAX}, above the limit {SIZE_MAX}"),
        ]:
            with pytest.raises(SimulationError) as caught:
                SimConfig(**{"m": 10, "n": 10, **kwargs})
            assert str(caught.value) == message

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
            *(payload for payload, _ in NAMED_CONFIG_ERRORS),
        ],
    )
    def test_malformed_config_dict_rejected(self, payload):
        with pytest.raises(SimulationError):
            sim_config_from_dict(payload)

    @pytest.mark.parametrize("payload, field", NAMED_CONFIG_ERRORS)
    def test_config_dict_error_names_the_field(self, payload, field):
        with pytest.raises(SimulationError, match=re.escape(field)):
            sim_config_from_dict(payload)

    def test_large_integer_in_float_field_is_read_as_float(self):
        config = sim_config_from_dict(
            {"m": 10, "n": 10, "noise_sd": 10**30,
             "degree": {"kind": "zipf", "s": 10**30, "k_max": 5}}
        )
        assert (config.noise_sd, config.degree.s) == (1e30, 1e30)
        assert type(config.noise_sd) is float and type(config.degree.s) is float
        for payload, message in [
            ({"noise_sd": 10**400}, "config field 'noise_sd'"),
            ({"degree": {"kind": "zipf", "s": 10**400, "k_max": 5}}, "degree field 's'"),
        ]:
            with pytest.raises(SimulationError) as caught:
                sim_config_from_dict({"m": 10, "n": 10, **payload})
            assert str(caught.value) == f"{message}: int too large to convert to float"

    def test_config_json_round_trip(self):
        config = SimConfig(
            m=10, n=5, degree=ZipfDegree(1.8, 30), violation=("quadratic", 0.4),
            favorite_rates=(0.2, 0.5), seed=3,
        )
        payload = json.loads(json.dumps(sim_config_to_dict(config)))
        assert sim_config_from_dict(payload) == config

    @pytest.mark.parametrize("payload, field", NAMED_CONFIG_ERRORS)
    def test_config_built_in_python_is_checked_as_read(self, payload, field):
        """SimConfig, FixedDegree and ZipfDegree built directly refuse what
        the config reader refuses, with the same message."""
        with pytest.raises(SimulationError) as read:
            sim_config_from_dict(payload)
        degree = payload.get("degree", {"kind": "fixed", "k": 3})
        violation = payload.get("violation")
        kwargs = {
            "m": payload["m"], "n": payload["n"],
            **{key: payload[key] for key in ("noise_sd", "p_treat", "pre_corr", "seed")
               if key in payload},
            **{f"{key}_{part}": value for key in ("alpha", "beta") if key in payload
               for part, value in zip(("mean", "sd"), payload[key])},
            "favorite_rates": payload.get("favorite_rates"),
            "violation": violation and (violation["kind"], violation["gamma"]),
        }
        with pytest.raises(SimulationError) as built:
            make_degree = FixedDegree if degree["kind"] == "fixed" else ZipfDegree
            SimConfig(degree=make_degree(*list(degree.values())[1:]), **kwargs)
        assert str(built.value) == str(read.value)

    def test_config_built_in_python_is_cast_as_read(self):
        config = SimConfig(m=np.int64(10), n=5.0, degree=FixedDegree(np.int64(2)),
                           beta_mean=1, noise_sd=np.float64(0.5), favorite_rates=[0, 1])
        assert (type(config.m), type(config.n), type(config.degree.k)) == (int, int, int)
        assert (type(config.beta_mean), config.favorite_rates) == (float, (0.0, 1.0))
        payload = json.loads(json.dumps(sim_config_to_dict(config)))
        assert sim_config_to_dict(sim_config_from_dict(payload)) == payload

    def test_overflowing_outcomes_refused_before_writing(self, tmp_path):
        config = SimConfig(m=50, n=20, noise_sd=1e308)
        with pytest.raises(SimulationError, match="outcome or covariate is not finite"):
            simulate_experiment(config, out_dir=tmp_path / "sim")
        assert not (tmp_path / "sim").exists()


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
        alpha = exp.truth.alpha[exp.seller_number[panel.graph_rows]]
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
        with pytest.raises(InferenceError, match="^estimator list must be non-empty$"):
            run_validation(SimConfig(m=10, n=5), [], ["bootstrap"], 2)

    def test_pairwise_fails_where_analyze_records_an_error(self):
        # erl's pairwise interval succeeds every time; reg has none, so every
        # replicate of that pair counts as failed
        table = run_validation(
            SimConfig(m=120, n=60, seed=43), ["erl", "reg"], ["pairwise"], 4
        )
        rows = {r.estimator: r for r in table.rows}
        assert (rows["erl"].n_ok, rows["erl"].n_failed) == (4, 0)
        assert rows["erl"].median_ci_width > 0
        assert (rows["reg"].n_ok, rows["reg"].n_failed) == (0, 4)
        assert np.isnan(rows["reg"].coverage)
