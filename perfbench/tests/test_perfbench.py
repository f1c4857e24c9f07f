"""Fast checks of the benchmark's own machinery (not part of the package's
test suite): python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

from bipartite_ab import cli  # noqa: E402
from bipartite_ab.estimators import erl_estimate  # noqa: E402
from bipartite_ab.exposure import assemble_panel  # noqa: E402
from bipartite_ab.graph import GraphBuildConfig, build_graph, per_variant_subgraph  # noqa: E402
from bipartite_ab.inference import exposure_moment_table, pairwise_variance  # noqa: E402
from bipartite_ab.ingest import parse_assignments, parse_events, parse_outcomes  # noqa: E402


def tiny_inputs(labels=("Off", "On"), probabilities=(0.5, 0.5)) -> inputs.AnalyzeInputs:
    """Five sellers over seven buyers. Seller 3 has a single buyer (a
    degenerate unit); sellers 0 and 4 have identical weighted edges (a
    degenerate pair); one favorite and one message event."""
    edges = [(0, 0), (1, 0), (2, 0), (1, 0), (0, 1), (3, 1), (4, 1), (2, 2), (5, 2),
             (6, 2), (3, 2), (5, 3), (5, 3), (0, 4), (1, 4), (2, 4), (1, 4),
             (4, 0), (6, 1)]
    buyer, seller = (np.array(c) for c in zip(*edges))
    kind = np.zeros(len(edges), dtype=np.int64)
    kind[-2], kind[-1] = 1, 2
    variant = np.array([0, 1, 1, 0, 1, 0, len(labels) - 1])
    return inputs.AnalyzeInputs(
        buyer=buyer, seller=seller, kind=kind,
        timestamp=np.arange(len(edges)) + 1_000, variant=variant, labels=labels,
        probabilities=probabilities, y_in=np.array([1.5, -0.3, 2.2, 0.7, 1.1]),
        m=7, n=5,
    )


def package_panel(tmp_path, inp, kinds, treatment, control=None, restrict=False):
    inputs.write_analyze_files(inp, tmp_path)
    events, _ = parse_events(tmp_path / "events.csv", set(kinds), (0, 2**62))
    assignments = parse_assignments(tmp_path / "assignments.csv")
    outcomes = parse_outcomes(tmp_path / "outcomes.csv")
    graph, _ = build_graph(events, assignments, GraphBuildConfig(kind_filter=frozenset(kinds)))
    if restrict:
        graph = per_variant_subgraph(graph, assignments, control, treatment)
    panel, _ = assemble_panel(graph, assignments, outcomes, treatment, control=control)
    return graph, panel


def test_same_seed_same_digest(tmp_path):
    for workload in ("pairwise-exact", "validate-small"):
        _, _, first, reused = inputs.prepare(workload, 3, tmp_path / "a")
        assert not reused
        _, _, again, reused = inputs.prepare(workload, 3, tmp_path / "b")
        assert again == first and not reused
        _, _, cached, reused = inputs.prepare(workload, 3, tmp_path / "a")
        assert cached == first and reused
        _, _, other, _ = inputs.prepare(workload, 4, tmp_path / "a")
        assert other != first


def test_cached_inputs_are_rewritten_when_bytes_change(tmp_path):
    out, _, digest, _ = inputs.prepare("pairwise-exact", 5, tmp_path)
    with open(out / "events.csv", "a", encoding="utf-8") as fh:
        fh.write("b000000,s000000,view,1\n")
    _, _, again, reused = inputs.prepare("pairwise-exact", 5, tmp_path)
    assert again == digest and not reused


def test_reference_erl_matches_package(tmp_path):
    inp = tiny_inputs()
    ref = reference.analyze_targets(inp, [("view",)], "On", "Off")["view"]
    graph, panel = package_panel(tmp_path, inp, ("view",), "On")
    assert ref["graph_stats"]["n_edges"] == graph.n_edges
    assert ref["tau_hat"] == pytest.approx(erl_estimate(panel).tau_hat, rel=1e-12)


def test_reference_erl_matches_package_on_restricted_subgraph(tmp_path):
    inp = tiny_inputs(("Off", "A", "B"), (0.4, 0.3, 0.3))
    targets = reference.analyze_targets(inp, [("view", "favorite")], "A", "Off")
    for label, restrict, control in (("favorite+view/separate_graph", True, "Off"),
                                     ("favorite+view/normalized", False, None)):
        sub = tmp_path / label.replace("/", "_")
        sub.mkdir()
        graph, panel = package_panel(sub, inp, ("view", "favorite"), "A",
                                     control=control, restrict=restrict)
        assert targets[label]["graph_stats"]["n_sellers"] == graph.n_sellers
        assert targets[label]["tau_hat"] == pytest.approx(
            erl_estimate(panel).tau_hat, rel=1e-12)


def test_reference_pairwise_matches_package_with_degenerate_cases(tmp_path):
    inp = tiny_inputs()
    ref = reference.analyze_targets(inp, [("view",)], "On", "Off")["view"]
    y, h, _, _ = ref["parts"]
    got = reference.pairwise_variance(ref["W"], ref["p"], y, h)
    graph, panel = package_panel(tmp_path, inp, ("view",), "On")
    table = exposure_moment_table(graph, panel.p, panel.graph_rows)
    want = pairwise_variance(panel, table)
    assert got["value"] == pytest.approx(want.value, rel=1e-9)
    assert got["overlap_pairs"] == len(table.pairs)
    assert got["degenerate_pairs"] == len(want.degenerate_pairs) >= 1
    assert got["degenerate_units"] == len(want.degenerate_units) >= 1


def test_output_checks_accept_cli_output_and_reject_a_wrong_reference(tmp_path):
    inp = tiny_inputs()
    data = tmp_path / "data"
    data.mkdir()
    inputs.write_analyze_files(inp, data)
    argv = run.analyze_argv(run.PAIRWISE_EXACT, data, 0)
    out = tmp_path / "out"
    assert cli.main([str(out) if a == "{out}" else a for a in argv]) == 0
    targets = reference.analyze_targets(inp, [("view",)], "On", "Off")
    y, h, _, _ = targets["view"]["parts"]
    pw = reference.pairwise_variance(targets["view"]["W"], targets["view"]["p"], y, h)
    dropped = reference.dropped_rows(inp, [("view",)])
    assert dropped == 2
    assert run.check_analyze(out, targets, dropped, pw, None) == (1, [])
    _, errors = run.check_analyze(out, targets, dropped, pw, pw["value"] * (1 + 1e-6))
    assert len(errors) == 1 and "golden" in errors[0]
    _, errors = run.check_analyze(out, targets, dropped + 1, pw, None)
    assert len(errors) == 1 and "dropped" in errors[0]


def test_self_time_arithmetic():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["graph.build_graph", 1.0, 4.0, 0],
        ["estimators.erl", 2.0, 3.0, 1],
        ["report.to_json", 5.0, 6.5, 0],
        ["report.to_json", 7.0, 7.5, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 1.5, 0.5])
    summary = tracing.summarize(spans)
    assert summary["report.to_json"] == pytest.approx({"calls": 2, "s": 2.0, "self_s": 2.0})
    # children that overlap each other or stick out of the parent are
    # counted once, and only inside the parent's interval
    odd = [["a.x", 0.0, 4.0, -1], ["b.y", -1.0, 2.0, 0], ["b.z", 1.0, 3.0, 0]]
    assert tracing.self_times(odd)[0] == pytest.approx(1.0)


def test_tracer_skips_missing_names_and_restores_originals(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("bipartite_ab.cli", "no_such_function", "graph.gone"),
        ("bipartite_ab.no_such_module", "f", "ingest.gone"),
    ))
    original = cli.build_graph
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.build_graph is not original
    finally:
        tracer.uninstall()
    assert cli.build_graph is original
    assert tracer.missing == ["bipartite_ab.cli.no_such_function",
                              "bipartite_ab.no_such_module.f"]
    assert tracing.summarize(tracer.spans) == {}


def test_traced_run_records_spans_and_counters(tmp_path):
    inp = tiny_inputs()
    data = tmp_path / "data"
    data.mkdir()
    inputs.write_analyze_files(inp, data)
    argv = run.analyze_argv(run.PAIRWISE_EXACT, data, 0)
    argv = [str(tmp_path / "out") if a == "{out}" else a for a in argv]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.root(cli.main, argv) == 0
    finally:
        tracer.uninstall()
    summary = tracing.summarize(tracer.spans)
    assert summary["cli.main"]["calls"] == 1
    assert summary["inference.exposure_moment_table"]["calls"] == 1
    assert tracer.counters["ingest.rows_read"] == len(inp.buyer)
    assert tracer.counters["ingest.rows_kept"] == len(inp.buyer) - 2
    assert len(tracer.values["pairwise_variance"]) == 1
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(summary["cli.main"]["s"], rel=1e-9)


def test_scale_expresses_a_time_at_nominal_host_speed():
    nominal = calibrate.KERNEL_NOMINAL_S
    assert calibrate.scale(3.0, [nominal, nominal]) == pytest.approx(3.0)
    # a host running the kernel at half speed halves the scaled time
    assert calibrate.scale(3.0, [2 * nominal, 2 * nominal]) == pytest.approx(1.5)
    assert calibrate.scale(3.0, [nominal, 3 * nominal]) == pytest.approx(1.5)


def test_in_call_sampler_samples_and_restores_the_handler(monkeypatch):
    monkeypatch.setattr(calibrate, "SAMPLE_INTERVAL_S", 0.05)
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.InCallSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
    assert len(sampler.samples) >= 2
    assert sampler.paused_s >= sum(sampler.samples)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
