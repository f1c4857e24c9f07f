import csv
import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from bipartite_ab import cli, inference, ingest
from bipartite_ab.cli import main
from bipartite_ab.graph import GraphBuildConfig
from bipartite_ab.report import EstimateReport, ReportEntry, forest_plot_svg
from bipartite_ab.simulator import (
    SimConfig,
    FixedDegree,
    sim_config_to_dict,
    simulate_experiment,
)

from conftest import (
    excluded_counts,
    oracle_assemble_panel,
    oracle_build_graph,
    oracle_graph_stats,
    oracle_per_variant_subgraph,
    outcome_table,
)

SVG_NS = "{http://www.w3.org/2000/svg}"
DATA = Path(__file__).parent / "data"
# a three-variant log (Off/A/B = 0.4/0.3/0.3) with "b1" beside "b1\x00",
# non-ASCII ids, unassigned buyers, message events no graph selects and two
# sellers without an outcome row
FIXTURE = DATA / "analyze3"
FIXTURE_ARGS = [
    "analyze", "--events", "events.csv", "--assignments", "assignments.csv",
    "--outcomes", "outcomes.csv", "--treatment", "A", "--control", "Off",
    "--kinds", "view", "--kinds", "view,favorite", "--estimators", "erl,crerl",
    "--methods", "bootstrap,randomization,pairwise", "--replications", "200",
    "--seed", "3", "--allow-missing-outcomes", "--dump-graphs",
]


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


def fixture_copy(tmp_path, events_text):
    """The analyze3 fixture in `tmp_path`, its events file replaced by
    `events_text`, with the working directory set there by the caller."""
    for name in ("assignments.csv", "assignments.design.json", "outcomes.csv"):
        (tmp_path / name).write_bytes((FIXTURE / name).read_bytes())
    (tmp_path / "events.csv").write_text(events_text, encoding="utf-8")


def fixture_args(out_dir, *kinds):
    """An ERL pairwise analyze of the fixture's files in the working
    directory, one graph per entry of `kinds`."""
    return [
        "analyze", "--events", "events.csv", "--assignments", "assignments.csv",
        "--outcomes", "outcomes.csv", "--treatment", "A", "--control", "Off",
        *(arg for k in kinds for arg in ("--kinds", k)), "--estimators", "erl",
        "--methods", "pairwise", "--allow-missing-outcomes", "--out", str(out_dir),
    ]


def run_cli(argv, cwd, block_scipy=False):
    """The console script in a fresh interpreter: (exit code, stderr lines).
    With block_scipy, `import scipy` fails there, as with scipy not installed."""
    code = "import sys\n"
    code += "sys.modules['scipy'] = None\n" if block_scipy else ""
    code += f"from bipartite_ab.cli import main\nsys.exit(main({[str(a) for a in argv]!r}))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)
    return done.returncode, done.stderr.splitlines()


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

    def test_empty_methods_is_usage_error(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(analyze_args(sim_dir, out, "--methods", "")) == 1
        assert capsys.readouterr().err == "error: method list must be non-empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--level", "1.5", "--methods", "randomization"], "level 1.5 outside (0,1)"),
        (["--level", "nan", "--methods", "pairwise"], "level nan outside (0,1)"),
        (["--replications", "5"], "replications must be >= 200, got 5"),
        (["--seed", "-1", "--estimators", "erl", "--methods", "randomization"],
         "seed must be >= 0, got -1"),
        (["--treatment", "Nope"], "unknown variant 'Nope'"),
        (["--control", "Nope"], "unknown variant 'Nope'"),
        (["--treatment", "On", "--control", "On"], "treatment and control are both 'On'"),
        (["--estimators", "erl,reg,erl"], "estimator 'erl' listed more than once"),
        (["--methods", "bootstrap,bootstrap"], "method 'bootstrap' listed more than once"),
    ])
    def test_bad_level_or_replications_is_usage_error(
        self, sim_dir, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "out"
        assert main(analyze_args(sim_dir, out, *flags)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kinds", [[","], ["view", " , "]])
    def test_empty_kind_group_refused_before_any_input_is_read(
        self, sim_dir, tmp_path, capsys, monkeypatch, kinds
    ):
        def must_not_parse(*args, **kwargs):
            raise AssertionError("an input was parsed for a request that is refused")

        for name in ("parse_assignments", "parse_outcomes", "parse_events"):
            monkeypatch.setattr(cli, name, must_not_parse)
        out = tmp_path / "out"
        flags = [arg for kind in kinds for arg in ("--kinds", kind)]
        assert main(analyze_args(sim_dir, out, *flags)) == 1
        assert capsys.readouterr().err == "error: kind_filter must be non-empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("kinds, message", [
        (["view", "view"], "kind group 'view' listed more than once"),
        (["view,favorite", "favorite, view,view"],
         "kind group 'favorite+view' listed more than once"),
        (["favorite+view", "favorite,view"],
         "kind groups ['favorite+view'] and ['favorite', 'view'] are both "
         "labelled 'favorite+view'"),
        (["a/b", "a_b"], "kind groups 'a/b' and 'a_b' would write the same files ('a_b')"),
        (["a_b", "view", "a+b"],
         "kind groups 'a_b' and 'a+b' would write the same files ('a_b')"),
    ])
    def test_colliding_kind_groups_refused_before_any_input_is_read(
        self, sim_dir, tmp_path, capsys, monkeypatch, kinds, message
    ):
        """Two groups with the same kinds, the same label or the same file
        names would write entries no reader can tell apart, or one group's
        histograms over the other's."""
        def must_not_parse(*args, **kwargs):
            raise AssertionError("an input was parsed for a request that is refused")

        for name in ("parse_assignments", "parse_outcomes", "parse_events"):
            monkeypatch.setattr(cli, name, must_not_parse)
        out = tmp_path / "out"
        flags = [arg for kind in kinds for arg in ("--kinds", kind)]
        assert main(analyze_args(sim_dir, out, *flags)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_weighting_is_argparse_error(self, sim_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(analyze_args(sim_dir, tmp_path / "out", "--weighting", "wat"))
        assert exc.value.code == 1  # a usage error, not "some estimates failed"
        assert "invalid choice: 'wat'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze"],  # the required flags are missing
        ["validate", "--config", "c.json", "--replications", "x"],
        ["nope"],
    ])
    def test_every_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: bipartite-ab") and "error: " in err

    def test_request_errors_in_order(self, sim_dir, tmp_path, capsys):
        """The window is checked first, then the interval request, then the
        variant pair; each ends the run before any output is written."""
        out = tmp_path / "out"
        flags = ["--level", "2", "--treatment", "On", "--control", "On"]
        for extra, message in [
            (["--window", "x"],
             "--window must be given as --window=t0:t1 with integers t0 <= t1, got 'x'"),
            ([], "level 2.0 outside (0,1)"),
            (["--level", "0.9"], "treatment and control are both 'On'"),
        ]:
            assert main(analyze_args(sim_dir, out, *flags, *extra)) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("module, stage, message", [
        (cli, "parse_events", "MemoryError"),
        # 1 EiB is past any address space, so the allocation fails at once
        (cli, "build_graph", "Unable to allocate 1.00 EiB for an array"),
        (inference, "_bootstrap_cis", "MemoryError"),
    ])
    def test_out_of_memory_is_one_error_line(
        self, sim_dir, tmp_path, capsys, monkeypatch, module, stage, message
    ):
        def out_of_memory(*args, **kwargs):
            if message == "MemoryError":
                raise MemoryError
            np.empty(2**60, dtype=np.uint8)

        monkeypatch.setattr(module, stage, out_of_memory)
        out = tmp_path / "out"
        assert main(analyze_args(sim_dir, out, "--replications", "200")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_pairwise_ignores_replications(self, sim_dir, tmp_path):
        out = tmp_path / "out"
        args = analyze_args(sim_dir, out, "--methods", "pairwise", "--replications", "5")
        assert main(args) == 0
        assert [e["status"] for e in load_report(out)["entries"]] == ["ok"]

    @pytest.mark.parametrize("window", ["5", "a:b", "10:5", "1:2:3"])
    def test_malformed_window_is_usage_error(self, sim_dir, tmp_path, capsys, window):
        out = tmp_path / "out"
        assert main(analyze_args(sim_dir, out, "--window", window)) == 1
        assert capsys.readouterr().err == (
            "error: --window must be given as --window=t0:t1 with integers "
            f"t0 <= t1, got '{window}'\n"
        )
        assert not out.exists()

    def test_missing_file_is_error(self, sim_dir, tmp_path, capsys):
        args = analyze_args(sim_dir, tmp_path / "out")
        args[args.index("--events") + 1] = str(sim_dir / "nope.csv")
        assert main(args) == 1

    @pytest.mark.parametrize(
        "flag, name, row",
        [  # a quote sends the events file down the csv module's path
            ("--events", "events.csv", '"b{big}",s1,view,5'),
            ("--assignments", "assignments.csv", "b{big},On"),
            ("--outcomes", "outcomes.csv", "s{big},1.0,0.5"),
        ],
    )
    def test_oversized_csv_field_is_parse_error(
        self, sim_dir, tmp_path, capsys, flag, name, row
    ):
        lines = (sim_dir / name).read_text().splitlines()
        path = tmp_path / name
        path.write_text("\n".join(lines + [row.format(big="x" * 200_000)]) + "\n")
        (tmp_path / "assignments.design.json").write_text(
            (sim_dir / "assignments.design.json").read_text()
        )
        args = analyze_args(sim_dir, tmp_path / "out")
        args[args.index(flag) + 1] = str(path)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"{path}:{len(lines) + 1}: unreadable CSV record: field larger" in err

    def test_malformed_design_is_error(self, sim_dir, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"variants": [{"probability": 1.0}]}))
        code = main(analyze_args(sim_dir, tmp_path / "out", "--design", str(design)))
        assert code == 1
        assert "has no label" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"{", b"", b'{"variants": [', b"\xff{}"])
    def test_malformed_design_json_names_the_file(self, tmp_path, content):
        fixture_copy(tmp_path, (FIXTURE / "events.csv").read_text(encoding="utf-8"))
        (tmp_path / "assignments.design.json").write_bytes(content)
        code, err = run_cli(fixture_args(tmp_path / "out", "view"), tmp_path)
        assert code == 1
        assert len(err) == 1, err
        assert err[0].startswith(
            "error: assignments.design.json: design file is not valid JSON: "
        ), err
        assert not (tmp_path / "out").exists()

    def test_reg_runs_without_scipy(self, tmp_path):
        """REG and REG_PRE under both resampling methods where scipy cannot
        be imported."""
        fixture_copy(tmp_path, (FIXTURE / "events.csv").read_text(encoding="utf-8"))
        # REG_PRE needs a pre-period outcome for every seller
        outcomes = (FIXTURE / "outcomes.csv").read_text(encoding="utf-8")
        (tmp_path / "outcomes.csv").write_text(outcomes.replace(",\n", ",0\n"))
        argv = fixture_args(tmp_path / "out", "view")
        argv[argv.index("erl")] = "reg,reg_pre"
        argv[argv.index("pairwise")] = "bootstrap,randomization"
        assert run_cli(argv + ["--replications", "200"], tmp_path, block_scipy=True) == (0, [])
        assert {(e["estimator"], e["method"]) for e in load_report(tmp_path / "out")["entries"]
                if e["status"] == "ok"} == {
            (e, m) for e in ("reg", "reg_pre") for m in ("bootstrap", "randomization")
        }

    def test_bootstrap_without_a_finite_replicate_is_one_error_line(
        self, sim_dir, tmp_path, capsys
    ):
        # outcomes near the float maximum overflow every ERL term, so no
        # bootstrap replicate is finite: the run ends in exit 1 and one
        # error line, with the failure in the report
        lines = (sim_dir / "outcomes.csv").read_text().splitlines()
        path = tmp_path / "outcomes.csv"
        path.write_text("\n".join(
            [lines[0]] + [f"{row.split(',')[0]},1e308," for row in lines[1:]]
        ) + "\n")
        out = tmp_path / "out"
        args = analyze_args(
            sim_dir, out, "--estimators", "erl", "--methods", "bootstrap",
            "--replications", "200",
        )
        args[args.index("--outcomes") + 1] = str(path)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(args) == 1
        message = "none of 200 bootstrap replicates is finite"
        assert capsys.readouterr().err == (
            f"error: every estimate failed, the first: {message}\n"
        )
        assert [e["error"] for e in load_report(out)["entries"]] == [message]

    def test_default_window_keeps_every_int64_timestamp(self, tmp_path, monkeypatch):
        """Without --window no timestamp is dropped, however far from the
        fixture's; a window still drops the selected rows outside it."""
        header, *lines = (FIXTURE / "events.csv").read_text(encoding="utf-8").splitlines()
        stamps = [*(-2**63 + k for k in range(5)), *range(-5, 0),
                  *(2**62 + k for k in range(5)), *(2**63 - 1 - k for k in range(5))]
        for r, t in enumerate(stamps):
            lines[r] = f"{lines[r].rsplit(',', 1)[0]},{t}"
        rows = list(csv.reader(lines))
        fixture_copy(tmp_path, "\n".join([header, *lines, ""]))
        monkeypatch.chdir(tmp_path)
        kinds = ("view", "view,favorite")
        messages = sum(row[2] == "message" for row in rows)
        moved = sum(row[2] != "message" for row in rows[: len(stamps)])
        assert messages and 0 < moved < len(stamps)

        assert main(fixture_args(tmp_path / "all", *kinds)) == 0
        report = load_report(tmp_path / "all")
        assert report["config"]["events_dropped_rows"] == messages
        golden = json.loads((FIXTURE / "golden" / "report.json").read_text())
        assert report["graph_stats"] == golden["graph_stats"]

        window = fixture_args(tmp_path / "window", *kinds) + ["--window", "1000:5001"]
        assert main(window) == 0
        report = load_report(tmp_path / "window")
        assert report["config"]["events_dropped_rows"] == messages + moved

    def test_window_with_a_negative_start(self, tmp_path, monkeypatch):
        """`--window=-7:10` keeps the selected rows stamped -7 to 10, the
        negative ones among them, and drops the others."""
        header, *lines = (FIXTURE / "events.csv").read_text(encoding="utf-8").splitlines()
        lines = [f"{line.rsplit(',', 1)[0]},{r % 22 - 9}" for r, line in enumerate(lines)]
        rows = list(csv.reader(lines))
        fixture_copy(tmp_path, "\n".join([header, *lines, ""]))
        monkeypatch.chdir(tmp_path)
        selected = [int(row[3]) for row in rows if row[2] != "message"]
        kept = sum(-7 <= t <= 10 for t in selected)
        assert sum(-7 <= t < 0 for t in selected) and kept < len(selected)

        args = fixture_args(tmp_path / "out", "view", "view,favorite")
        assert main([*args, "--window=-7:10"]) == 0
        report = load_report(tmp_path / "out")
        assert report["config"]["events_dropped_rows"] == len(rows) - kept

    def test_svg_text_is_escaped(self, tmp_path, monkeypatch):
        """Kinds, and so graph labels, may hold XML's special characters:
        forest.svg and each histogram SVG parse and read as given."""
        events = (FIXTURE / "events.csv").read_text(encoding="utf-8")
        fixture_copy(tmp_path, events.replace(",favorite,", ",a<b&c,"))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main(fixture_args(out, "view,a<b&c", "x>y")) == 2
        svgs = [out / "forest.svg", *out.glob("exposure_hist_*.svg")]
        assert len(svgs) == 3
        texts = {t.text for path in svgs for t in ET.parse(path).iter(f"{SVG_NS}text")}
        assert {
            "a<b&c+view/separate_graph: ERL+V",
            "x>y/normalized: ERL+V",
            "Exposure distribution (a<b&c+view/normalized)",
        } <= texts
        # an error's text too
        failed = ReportEntry("g", "erl", "bootstrap", "error", "no 'a<b&c>'")
        forest = ET.fromstring(forest_plot_svg(EstimateReport({}, [failed])))
        assert "error: no 'a<b&c>'" in {t.text for t in forest.iter(f"{SVG_NS}text")}

    def test_fully_treated_seller_is_in_the_histogram(self, tmp_path, monkeypatch):
        """s0's buyers are all treated, and its weights 14/50, 15/50, 17/50
        and 4/50 sum to just above 1: the histogram still counts it, in the
        top bin, beside s1."""
        views = {("b0", "s0"): 14, ("b1", "s0"): 15, ("b2", "s0"): 17, ("b3", "s0"): 4,
                 ("b0", "s1"): 1, ("b4", "s1"): 1}
        lines = [f"{b},{s},view,{t}" for t, (b, s) in enumerate(
            key for key, count in views.items() for _ in range(count))]
        (tmp_path / "events.csv").write_text(
            "\n".join(["buyer_id,seller_id,event_kind,timestamp_ms", *lines, ""]))
        (tmp_path / "assignments.csv").write_text(
            "buyer_id,variant\nb0,On\nb1,On\nb2,On\nb3,On\nb4,Off\n")
        (tmp_path / "assignments.design.json").write_text(json.dumps({"variants": [
            {"label": "Off", "probability": 0.5, "control": True},
            {"label": "On", "probability": 0.5, "control": False}]}))
        (tmp_path / "outcomes.csv").write_text("seller_id,y_in,y_pre\ns0,1.0,0.5\ns1,2.0,0.5\n")
        monkeypatch.chdir(tmp_path)
        assert main(analyze_args(Path("."), Path("out"), "--estimators", "erl",
                                 "--methods", "bootstrap", "--replications", "200")) == 0
        rows = (tmp_path / "out" / "exposure_hist_view.csv").read_text().splitlines()[1:]
        counts = [int(row.rsplit(",", 1)[1]) for row in rows]
        assert sum(counts) == 2 and counts[-1] == 1

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


    def test_every_target_failing_exits_1_with_the_failures_reported(
        self, tmp_path, monkeypatch, capsys
    ):
        """Without --allow-missing-outcomes every fixture target fails on
        the two sellers that have no outcome row: analyze names the first
        failure on one error line, exits 1, and report.json lists one error
        entry per target, estimator and method."""
        monkeypatch.chdir(FIXTURE)
        out = tmp_path / "out"
        argv = [a for a in FIXTURE_ARGS if a != "--allow-missing-outcomes"]
        assert main(argv + ["--out", str(out)]) == 1
        missing = ("2 graph sellers have no outcome row: s13, s7; "
                   "pass allow_missing_outcomes=True to drop them")
        assert capsys.readouterr().err == (
            f"error: every estimate failed, the first: {missing}\n"
        )
        entries = load_report(out)["entries"]
        targets = [f"{group}/{kind}" for group in ("view", "favorite+view")
                   for kind in ("separate_graph", "normalized")]
        assert sorted((e["graph"], e["estimator"], e["method"]) for e in entries) == sorted(
            (target, estimator, method) for target in targets
            for estimator in ("erl", "crerl")
            for method in ("bootstrap", "randomization", "pairwise")
        )
        assert {(e["status"], e["error"]) for e in entries} == {("error", missing)}

    def test_one_target_failing_beside_one_that_succeeds_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        """A seller whose views all come from B buyers and that has no
        outcome row leaves the A-vs-Off graph, so that target succeeds,
        while the full graph's fails: exit 2, no error line, and both
        outcomes in report.json."""
        with open(FIXTURE / "events.csv", encoding="utf-8", newline="") as fh:
            events = list(csv.reader(fh))[1:]
        with open(FIXTURE / "assignments.csv", encoding="utf-8", newline="") as fh:
            variant = dict(list(csv.reader(fh))[1:])
        touched = {}
        for buyer, seller, kind, _ in events:
            if kind == "view" and buyer in variant:
                touched.setdefault(seller, set()).add(variant[buyer])
        b_only = sorted(s for s, variants in touched.items() if variants == {"B"})
        assert b_only
        fixture_copy(tmp_path, (FIXTURE / "events.csv").read_text(encoding="utf-8"))
        (tmp_path / "outcomes.csv").write_text("seller_id,y_in\n" + "".join(
            f"{seller},{0.25 * k}\n" for k, seller in enumerate(sorted(touched))
            if seller != b_only[0]
        ))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        argv = [a for a in fixture_args(out, "view") if a != "--allow-missing-outcomes"]
        assert main(argv) == 2
        assert capsys.readouterr().err == ""
        entries = {e["graph"]: e for e in load_report(out)["entries"]}
        assert entries["view/separate_graph"]["status"] == "ok"
        assert entries["view/normalized"]["status"] == "error"
        assert entries["view/normalized"]["error"] == (
            f"1 graph sellers have no outcome row: {b_only[0]}; "
            "pass allow_missing_outcomes=True to drop them"
        )


class TestJoinOnce:
    """An analyze run joins each table to the ids once: the graphs share the
    event log's vocabularies, and `rows` keeps its result for a Vocabulary."""

    @pytest.fixture
    def joins(self, monkeypatch):
        calls = []
        join = ingest._Keyed._join

        def spy(table, ids):
            calls.append((type(table).__name__, len(ids)))
            return join(table, ids)

        monkeypatch.setattr(ingest._Keyed, "_join", spy)
        return calls

    def test_analyze_joins_each_table_once(self, joins, tmp_path, monkeypatch):
        monkeypatch.chdir(FIXTURE)
        assert main(FIXTURE_ARGS + ["--out", str(tmp_path / "out")]) == 2
        # 2 kind groups x {restricted, full}: 2 graphs, 2 subgraphs, 4 panels
        assert len(json.loads((tmp_path / "out" / "report.json").read_text())[
            "graph_stats"]) == 4
        assert sorted(name for name, _ in joins) == ["AssignmentTable", "OutcomeTable"]

    def test_analyze_decodes_no_buyer_or_seller_vocabulary(self, tmp_path, monkeypatch):
        """Buyers and sellers are joined as packed bytes and carried as codes
        and panel row positions: without a graph dump, no id becomes `str`."""
        decoded, parsed, decode = [], [], ingest.Vocabulary.text.func
        text = cached_property(lambda v: decoded.append(v) or decode(v))
        text.__set_name__(ingest.Vocabulary, "text")
        for name in ("parse_events", "parse_assignments", "parse_outcomes"):
            parse = getattr(cli, name)
            monkeypatch.setattr(
                cli, name, lambda *a, parse=parse: parsed.append(parse(*a)) or parsed[-1]
            )
        monkeypatch.setattr(ingest.Vocabulary, "text", text)
        monkeypatch.chdir(FIXTURE)
        args = [a for a in FIXTURE_ARGS if a != "--dump-graphs"]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assignments, outcomes, (events, _) = parsed
        vocabularies = (events.buyers, assignments.buyers, events.sellers, outcomes.sellers)
        assert not [v for v in decoded if any(v is w for w in vocabularies)]

    def test_rows_memo_is_safe(self, joins):
        table = outcome_table({"s1": (1.0, None), "s1\x00": (2.0, None)}, False)
        ids = ingest.Vocabulary(("s1\x00", "s2", "s1"))
        want = [1, -1, 0]
        first = table.rows(ids)
        assert first.tolist() == want and not first.flags.writeable
        assert table.rows(ids) is first  # the same vocabulary: no second join
        equal = ingest.Vocabulary(ids.text)
        assert equal == ids and equal is not ids
        assert table.rows(equal).tolist() == want
        assert table.rows(ids).tolist() == want
        assert len(joins) == 3


class TestGolden:
    """Outputs pinned byte for byte, recorded before graphs carried codes:
    analyze on the three-variant fixture (run from the fixture directory, so
    report.json echoes relative paths) and a simulate run's truth.json; and
    a validate run's validation.csv."""

    def test_analyze_reproduces_golden(self, tmp_path, monkeypatch):
        monkeypatch.chdir(FIXTURE)
        out = tmp_path / "out"
        assert main(FIXTURE_ARGS + ["--out", str(out)]) == 2
        golden = FIXTURE / "golden"
        names = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        assert "report.json" in names and len(names) == 14
        for name in names:
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_analyze_reproduces_golden_in_small_blocks(self, tmp_path, monkeypatch):
        """Read in blocks of 512 bytes, the fixture's events file has its ids
        coded on the worker thread, and every output is still the golden."""
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 512)
        monkeypatch.chdir(FIXTURE)
        out = tmp_path / "out"
        assert main(FIXTURE_ARGS + ["--out", str(out)]) == 2
        golden = FIXTURE / "golden"
        for name in sorted(p.name for p in golden.iterdir()):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

    def test_report_counts_match_row_oracles(self, tmp_path, monkeypatch):
        """Each label's graph_stats and degenerate_units in report.json are
        the counts of the row-at-a-time graph and panel oracles."""
        monkeypatch.chdir(FIXTURE)
        out = tmp_path / "out"
        assert main(fixture_args(out, "view", "view,favorite")) == 0
        report = load_report(out)
        with open("events.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assignments = ingest.parse_assignments("assignments.csv")
        outcomes = ingest.parse_outcomes("outcomes.csv")
        labels = []
        for kinds in ({"view"}, {"view", "favorite"}):
            cfg = GraphBuildConfig(kind_filter=frozenset(kinds))
            full, _ = oracle_build_graph(rows, assignments, cfg)
            group = "+".join(sorted(kinds))
            for label, control in ((f"{group}/separate_graph", "Off"),
                                   (f"{group}/normalized", None)):
                g = full if control is None else oracle_per_variant_subgraph(
                    full, assignments, control, "A"
                )
                _, excluded = oracle_assemble_panel(g, assignments, outcomes, "A", control)
                assert report["graph_stats"][label] == dataclasses.asdict(oracle_graph_stats(g))
                assert report["degenerate_units"][label] == dataclasses.asdict(
                    excluded_counts(excluded)
                )
                labels.append(label)
        assert sorted(report["graph_stats"]) == sorted(report["degenerate_units"]) == sorted(labels)

    def test_validate_reproduces_golden(self, tmp_path):
        """validate's table for three estimators under both resampling
        methods, recorded while each estimator drew its own blocks."""
        golden = DATA / "validate"
        assert main(["validate", "--config", str(golden / "config.json"),
                     "--estimators", "erl,reg,crerl", "--methods", "bootstrap,randomization",
                     "--replications", "5", "--ci-replications", "200", "--seed", "3",
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "validation.csv").read_bytes() == (
            golden / "validation.csv"
        ).read_bytes()

    def test_simulate_truth_matches_golden(self, tmp_path):
        golden = DATA / "simulate_truth.json"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(json.loads(golden.read_text())["config"]))
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "sim")]) == 0
        assert (tmp_path / "sim" / "truth.json").read_bytes() == golden.read_bytes()


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
    def test_spaced_lists_read_alike_in_analyze_and_validate(
        self, sim_dir, tmp_path, capsys
    ):
        lists = ["--estimators", " erl, crerl ,", "--methods", "bootstrap , randomization"]
        out = tmp_path / "analyze"
        assert main(analyze_args(sim_dir, out, *lists, "--replications", "200")) == 0
        entries = load_report(out)["entries"]
        assert {(e["estimator"], e["method"]) for e in entries} == {
            (e, m) for e in ("erl", "crerl") for m in ("bootstrap", "randomization")
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            sim_config_to_dict(SimConfig(m=120, n=60, seed=9))
        ))
        out = tmp_path / "validate"
        assert main(["validate", "--config", str(config_path), *lists,
                     "--replications", "2", "--ci-replications", "200",
                     "--out", str(out)]) == 0
        rows = (out / "validation.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            [e, m] for e in ("erl", "crerl") for m in ("bootstrap", "randomization")
        ]

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

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_malformed_config_json_names_the_file(self, tmp_path, command):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(b"{")
        code, err = run_cli([command, "--config", config_path, "--out", tmp_path / "out"],
                            tmp_path)
        assert (code, err) == (1, [
            f"error: {config_path}: config file is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        ])
        assert not (tmp_path / "out").exists()

    def test_validate_runs_reg_without_scipy(self, tmp_path):
        """Every estimator, REG and REG_PRE among them, validated where scipy
        cannot be imported."""
        argv = ["validate", "--config", DATA / "validate" / "config.json",
                "--estimators", "erl,reg,reg_pre,crerl", "--replications", "3",
                "--ci-replications", "200", "--out", tmp_path / "out"]
        assert run_cli(argv, tmp_path, block_scipy=True) == (0, [])
        rows = (tmp_path / "out" / "validation.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1::2]] == ["erl", "reg", "reg_pre", "crerl"]

    def test_non_finite_config_is_one_error_line(self, tmp_path, capsys):
        # json writes NaN, which json reads back as a float
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"m": 10, "n": 5, "noise_sd": float("nan")}))
        out = tmp_path / "val"
        code = main(["validate", "--config", str(config_path), "--replications", "2",
                     "--ci-replications", "200", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: config field 'noise_sd': expected a finite float, got nan\n"
        )
        assert not out.exists()

    @staticmethod
    def _request_error(tmp_path, capsys, flags):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            sim_config_to_dict(SimConfig(m=10, n=5))
        ))
        out = tmp_path / "val"
        code = main(["validate", "--config", str(config_path),
                     "--replications", "1", "--out", str(out), *flags])
        assert not out.exists()
        return code, capsys.readouterr()

    def test_validate_requires_estimators(self, tmp_path, capsys):
        code, captured = self._request_error(tmp_path, capsys, ["--estimators", ""])
        assert code == 1
        assert captured.err == "error: estimator list must be non-empty\n"
        assert captured.out == ""

    def test_validate_requires_methods(self, tmp_path, capsys):
        code, captured = self._request_error(tmp_path, capsys, ["--methods", ""])
        assert code == 1
        assert captured.err == "error: method list must be non-empty\n"
        assert captured.out == ""

    # the analysis request is checked as analyze checks it, before anything
    # is simulated: one error line, exit 1, no output directory
    @pytest.mark.parametrize("flags, message", [
        (["--estimators", "foo"], "unknown estimator 'foo'"),
        (["--methods", "bootstrap,wat"], "unknown method 'wat'"),
        (["--ci-replications", "50"], "--ci-replications must be >= 200, got 50"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--estimators", "erl,erl"], "estimator 'erl' listed more than once"),
        (["--methods", "randomization,bootstrap,randomization"],
         "method 'randomization' listed more than once"),
        (["--replications", "0"], "--replications must be >= 1, got 0"),
    ])
    def test_validate_request_error_is_one_line(self, tmp_path, capsys, flags, message):
        code, captured = self._request_error(tmp_path, capsys, flags)
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_validate_accepts_pairwise(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            sim_config_to_dict(SimConfig(m=120, n=60, seed=9))
        ))
        out = tmp_path / "val"
        code = main([
            "validate", "--config", str(config_path), "--estimators", "erl",
            "--methods", "pairwise", "--replications", "3", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "validation.csv").read_text().splitlines()
        assert lines[1].startswith("erl,pairwise,3,0,")
