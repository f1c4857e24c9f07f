import json
import xml.etree.ElementTree as ET

import pytest

from bipartite_ab.cli import main
from bipartite_ab.simulator import (
    SimConfig,
    FixedDegree,
    sim_config_to_dict,
    simulate_experiment,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim")
    config = SimConfig(
        m=200, n=120, degree=FixedDegree(3),
        beta_mean=1.0, beta_sd=0.2, noise_sd=0.5,
        favorite_rates=(0.1, 0.6), seed=101,
    )
    simulate_experiment(config, out_dir=base)
    return base


def analyze_args(sim_dir, out_dir, *extra):
    return [
        "analyze",
        "--events", str(sim_dir / "events.csv"),
        "--assignments", str(sim_dir / "assignments.csv"),
        "--outcomes", str(sim_dir / "outcomes.csv"),
        "--out", str(out_dir),
        *extra,
    ]


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def svg_row_count(path):
    root = ET.fromstring(path.read_text())
    return sum(1 for g in root.iter(f"{SVG_NS}g") if g.get("class") == "row")


class TestAnalyze:
    def test_basic_run_succeeds(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        code = main(analyze_args(
            sim_dir, out,
            "--estimators", "erl,reg,crerl",
            "--methods", "bootstrap,randomization",
            "--replications", "200",
        ))
        assert code == 0
        report = load_report(out)
        assert len(report["entries"]) == 6
        assert all(e["status"] == "ok" for e in report["entries"])
        taus = {e["tau_hat"] for e in report["entries"]}
        assert all(isinstance(t, float) for t in taus)
        assert (out / "exposure_hist_view.csv").exists()
        assert (out / "exposure_hist_view.svg").exists()

    def test_forest_svg_row_per_entry(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        main(analyze_args(
            sim_dir, out,
            "--estimators", "erl,reg",
            "--methods", "bootstrap",
            "--replications", "200",
        ))
        report = load_report(out)
        assert svg_row_count(out / "forest.svg") == len(report["entries"]) == 2

    def test_kind_groups_build_distinct_graphs(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        code = main(analyze_args(
            sim_dir, out,
            "--kinds", "view",
            "--kinds", "favorite",
            "--replications", "200",
        ))
        assert code == 0
        report = load_report(out)
        by_label = {e["graph"]: e["tau_hat"] for e in report["entries"]}
        assert set(by_label) == {"view", "favorite"}
        # the favorite graph is treatment-mediated, so its exposure differs
        assert by_label["view"] != by_label["favorite"]
        assert set(report["graph_stats"]) == {"view", "favorite"}
        assert (out / "exposure_hist_favorite.csv").exists()

    def test_reruns_byte_identical(self, sim_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(analyze_args(
                sim_dir, out,
                "--estimators", "erl,crerl",
                "--methods", "bootstrap,randomization",
                "--replications", "200",
                "--seed", "7",
            ))
            outs.append(out)
        for name in ("report.json", "forest.svg", "exposure_hist_view.csv",
                     "exposure_hist_view.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_pairwise_method(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        code = main(analyze_args(
            sim_dir, out, "--estimators", "erl", "--methods", "pairwise"
        ))
        assert code == 0
        entry = load_report(out)["entries"][0]
        assert entry["ci_low"] < entry["tau_hat"] < entry["ci_high"]

    def test_pairwise_rejects_other_estimators(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        code = main(analyze_args(
            sim_dir, out, "--estimators", "erl,reg", "--methods", "pairwise"
        ))
        assert code == 2  # partial failure: erl ok, reg unsupported
        statuses = {e["estimator"]: e["status"] for e in load_report(out)["entries"]}
        assert statuses == {"erl": "ok", "reg": "error"}

    def test_pairwise_size_checked_before_moment_table(
        self, sim_dir, tmp_path, monkeypatch
    ):
        from bipartite_ab import inference

        def table_must_not_be_built(*args, **kwargs):
            raise AssertionError("moment table built for an over-size panel")

        monkeypatch.setattr(inference, "PAIRWISE_N_MAX", 5)
        monkeypatch.setattr(inference, "exposure_moment_table", table_must_not_be_built)
        out = tmp_path / "out"
        code = main(analyze_args(
            sim_dir, out, "--estimators", "erl", "--methods", "pairwise"
        ))
        assert code == 1
        entry = load_report(out)["entries"][0]
        assert entry["status"] == "error"
        assert "exceeds n_max=5" in entry["error"]

    def test_unknown_estimator_is_usage_error(self, sim_dir, tmp_path, capsys):
        code = main(analyze_args(
            sim_dir, tmp_path / "out", "--estimators", "wat"
        ))
        assert code == 1
        assert "wat" in capsys.readouterr().err

    def test_missing_file_is_error(self, sim_dir, tmp_path, capsys):
        args = analyze_args(sim_dir, tmp_path / "out")
        args[args.index("--events") + 1] = str(sim_dir / "nope.csv")
        assert main(args) == 1

    def test_malformed_design_is_error(self, sim_dir, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"variants": [{"probability": 1.0}]}))
        code = main(analyze_args(sim_dir, tmp_path / "out", "--design", str(design)))
        assert code == 1
        assert "has no label" in capsys.readouterr().err

    def test_window_filter_drops_everything(self, sim_dir, tmp_path, capsys):
        code = main(analyze_args(
            sim_dir, tmp_path / "out", "--window", "999999999999:999999999999",
            "--replications", "200",
        ))
        # no events survive, so no graph can be built for any entry
        assert code == 1

    def test_dump_graphs_flag(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        main(analyze_args(sim_dir, out, "--dump-graphs", "--replications", "200"))
        dump = (out / "graph_view.csv").read_text().splitlines()
        assert dump[0] == "seller_id,buyer_id,weight"
        assert len(dump) > 1


class TestSimulateCommand:
    def test_simulate_writes_and_reports(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            sim_config_to_dict(SimConfig(m=50, n=30, seed=5))
        ))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert (out / "events.csv").exists()
        assert (out / "truth.json").exists()
        captured = capsys.readouterr().out
        assert "true_tau" in captured

    def test_simulate_determinism(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            sim_config_to_dict(SimConfig(m=50, n=30, seed=5))
        ))
        for name in ("a", "b"):
            main(["simulate", "--config", str(config_path),
                  "--out", str(tmp_path / name)])
        a = (tmp_path / "a" / "outcomes.csv").read_bytes()
        b = (tmp_path / "b" / "outcomes.csv").read_bytes()
        assert a == b


class TestValidateCommand:
    def test_validate_table_and_csv(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            sim_config_to_dict(SimConfig(m=120, n=60, seed=9))
        ))
        out = tmp_path / "val"
        code = main([
            "validate", "--config", str(config_path),
            "--estimators", "erl,reg", "--methods", "bootstrap",
            "--replications", "4", "--ci-replications", "200",
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "coverage" in printed
        lines = (out / "validation.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 estimator rows

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_malformed_config_is_error(self, tmp_path, capsys, command):
        config_path = tmp_path / "config.json"
        for payload in ([], {"n": 10}, {"m": 10, "n": 5, "degree": {"kind": "fixed"}}):
            config_path.write_text(json.dumps(payload))
            code = main([command, "--config", str(config_path),
                         "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_validate_requires_estimators(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            sim_config_to_dict(SimConfig(m=10, n=5))
        ))
        with pytest.raises(SystemExit):
            main(["validate", "--config", str(config_path),
                  "--estimators", ""])
