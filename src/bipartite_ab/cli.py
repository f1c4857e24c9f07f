"""Command-line entry points: analyze, simulate, validate.

Exit codes for `analyze`: 0 = all estimator/method pairs succeeded,
2 = some failed, 1 = all failed (or usage/config error, or out of memory).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# per_variant_subgraph is called through its module, like the inference
# functions, so a wrapper set on the module (perfbench's tracer) sees it
from . import graph, inference, simulator
from .exposure import assemble_panel, exposure_histogram, write_exposure_histogram
from .graph import GraphBuildConfig, build_graph, dump_graph, graph_stats
from .ingest import parse_assignments, parse_events, parse_outcomes
from .report import EstimateReport, ReportEntry, forest_plot_svg, histogram_svg


@dataclass
class AnalysisConfig:
    events_path: str
    assignments_path: str
    outcomes_path: str
    out_dir: str
    kind_groups: list[frozenset] = field(default_factory=lambda: [frozenset({"view"})])
    treatment: str = "On"
    control: str = "Off"
    weighting: str = "count_proportional"
    estimators: tuple = ("erl",)
    methods: tuple = ("bootstrap",)
    level: float = 0.95
    replications: int = 1000
    seed: int = 0
    window: tuple[int, int] = (0, 2**62)
    design_path: str | None = None
    allow_missing_outcomes: bool = False
    dump_graphs: bool = False

    def __post_init__(self):
        inference.check_request(
            self.estimators, self.methods, self.replications, self.level, self.seed
        )
        if self.treatment == self.control:
            raise ValueError(f"treatment and control are both {self.treatment!r}")
        # each kind group's graph settings, refused here before any input is read
        self.graph_configs = [
            GraphBuildConfig(self.weighting, frozenset(g)) for g in self.kind_groups
        ]


def _config_echo(config: AnalysisConfig) -> dict:
    return {
        "events": str(config.events_path),
        "assignments": str(config.assignments_path),
        "outcomes": str(config.outcomes_path),
        "kind_groups": [sorted(g) for g in config.kind_groups],
        "treatment": config.treatment,
        "control": config.control,
        "weighting": config.weighting,
        "estimators": list(config.estimators),
        "methods": list(config.methods),
        "level": config.level,
        "replications": config.replications,
        "seed": config.seed,
    }


def _analysis_targets(assignments, group_label, control):
    """(label, control) of each graph analysis of a kind group. Control None
    analyses the full graph, a control variant the subgraph restricted to it
    and the treatment. A two-variant design takes the full graph; a
    multi-variant one compares the restricted and the normalized scheme."""
    if len(assignments.labels) <= 2:
        return [(group_label, None)]
    return [(f"{group_label}/separate_graph", control),
            (f"{group_label}/normalized", None)]


def _entry(label, est, method, ci) -> ReportEntry:
    if isinstance(ci, ValueError):
        return ReportEntry(label, est, method, "error", str(ci))
    point = ci.point
    return ReportEntry(
        label, est, method, tau_hat=point.tau_hat, ci_low=ci.ci_low,
        ci_high=ci.ci_high, level=ci.level, replications=ci.replications,
        seed=ci.seed, n_units=point.n_units, lam=point.lam,
        diagnostics={k: float(v) for k, v in point.diagnostics.items()},
    )


def cmd_analyze(config: AnalysisConfig) -> int:
    assignments = parse_assignments(config.assignments_path, config.design_path)
    for label in (config.treatment, config.control):
        assignments.code(label)  # a variant the design does not declare is an error
    outcomes = parse_outcomes(config.outcomes_path)

    report = EstimateReport(config=_config_echo(config))
    all_kinds = frozenset().union(*config.kind_groups)
    events, ev_report = parse_events(config.events_path, all_kinds, config.window)
    report.config["events_dropped_rows"] = ev_report.rows_dropped

    histograms, dumps = {}, {}
    for build_cfg in config.graph_configs:
        # drop the last group's graphs and panel before this one is built
        full = g = panel = None
        targets = _analysis_targets(
            assignments, "+".join(sorted(build_cfg.kind_filter)), config.control
        )
        try:
            full, _ = build_graph(events, assignments, build_cfg)
        except ValueError as exc:
            for label, _ in targets:
                _record_all_failed(report, label, config, str(exc))
            continue

        for label, control in targets:
            try:
                g = full if control is None else graph.per_variant_subgraph(
                    full, assignments, control, config.treatment
                )
                st = graph_stats(g)
                report.graph_stats[label] = {
                    "n_buyers": st.n_buyers,
                    "n_sellers": st.n_sellers,
                    "n_edges": st.n_edges,
                    "single_edge_sellers": st.single_edge_sellers,
                }
                panel, degen = assemble_panel(
                    g,
                    assignments,
                    outcomes,
                    config.treatment,
                    control=control,
                    allow_missing_outcomes=config.allow_missing_outcomes,
                )
            except ValueError as exc:
                _record_all_failed(report, label, config, str(exc))
                continue
            report.degenerate_units[label] = {
                "missing_outcome": degen.n_missing_outcome,
                "zero_variance": degen.n_zero_variance,
            }
            histograms[label] = panel.h
            if config.dump_graphs:
                dumps[label] = g
            report.entries += [
                _entry(label, *result)
                for result in inference.intervals(
                    panel, g, config.estimators, config.methods,
                    config.replications, config.seed, config.level,
                )
            ]

    # nothing is written until every stage has run
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "forest.svg").write_text(forest_plot_svg(report), encoding="utf-8")
    for label, h in histograms.items():
        counts, edges = exposure_histogram(h)
        safe = label.replace("/", "_").replace("+", "_")
        write_exposure_histogram(h, out / f"exposure_hist_{safe}.csv")
        if label in dumps:
            dump_graph(dumps[label], out / f"graph_{safe}.csv")
        (out / f"exposure_hist_{safe}.svg").write_text(
            histogram_svg(counts, edges, title=f"Exposure distribution ({label})"),
            encoding="utf-8",
        )

    failed = [e.error for e in report.entries if e.status != "ok"]
    if len(failed) == len(report.entries):
        # the report lists each failure (every target has an entry); name the first
        print(f"error: every estimate failed, the first: {failed[0]}", file=sys.stderr)
        return 1
    return 2 if failed else 0


def _record_all_failed(report, label, config, message):
    report.entries += [
        ReportEntry(label, est, method, status="error", error=message)
        for est in config.estimators for method in config.methods
    ]


def cmd_simulate(config_path, out_dir) -> int:
    config = simulator.load_sim_config(config_path)
    start = time.perf_counter()
    exp = simulator.simulate_experiment(config, out_dir=out_dir)
    elapsed = time.perf_counter() - start
    print(f"wrote {len(exp.events)} events, {config.m} buyers, "
          f"{exp.graph.n_sellers} sellers to {out_dir}")
    print(f"true_tau = {exp.truth.true_tau:.6f}")
    print(f"elapsed: {elapsed:.2f}s")
    return 0


def cmd_validate(config_path, estimators, methods, replications, ci_replications,
                 seed, out_dir) -> int:
    config = simulator.load_sim_config(config_path)
    table = simulator.run_validation(
        config, estimators, methods, replications, ci_replications, seed=seed
    )
    print(table)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        table.to_csv(out / "validation.csv")
    return 0


def _parse_kind_groups(values: list[str]) -> list[frozenset]:
    # each --kinds occurrence builds one graph from its comma-separated kinds
    return [frozenset(v.strip() for v in value.split(",") if v.strip()) for value in values]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipartite-ab",
        description="Seller-side treatment effects for buyer-side experiments "
        "via in-experiment bipartite exposure graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full estimation pipeline")
    pa.add_argument("--events", required=True)
    pa.add_argument("--assignments", required=True)
    pa.add_argument("--outcomes", required=True)
    pa.add_argument("--design", default=None,
                    help="design JSON (default: <assignments>.design.json)")
    pa.add_argument("--kinds", action="append", default=None,
                    help="comma-separated event kinds for one graph; repeat the "
                         "flag to compare graphs built from different kinds")
    pa.add_argument("--treatment", default="On")
    pa.add_argument("--control", default="Off")
    pa.add_argument("--weighting", default="count_proportional",
                    choices=("count_proportional", "binary_dedup"))
    pa.add_argument("--estimators", default="erl")
    pa.add_argument("--methods", default="bootstrap")
    pa.add_argument("--level", type=float, default=0.95)
    pa.add_argument("--replications", type=int, default=1000)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--window", default=None,
                    help="inclusive timestamp window 't0:t1' in ms")
    pa.add_argument("--allow-missing-outcomes", action="store_true")
    pa.add_argument("--dump-graphs", action="store_true")
    pa.add_argument("--out", required=True)

    ps = sub.add_parser("simulate", help="generate a synthetic experiment")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", required=True)

    pv = sub.add_parser("validate", help="bias/coverage study on simulated data")
    pv.add_argument("--config", required=True)
    pv.add_argument("--estimators", default="erl,reg,crerl")
    pv.add_argument("--methods", default="bootstrap,randomization")
    pv.add_argument("--replications", type=int, default=100)
    pv.add_argument("--ci-replications", type=int, default=500)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            window = (0, 2**62)
            if args.window:
                try:
                    window = tuple(map(int, args.window.split(":")))
                except ValueError:
                    window = ()
                if len(window) != 2 or window[0] > window[1]:
                    raise ValueError("--window must be 't0:t1' with integers "
                                     f"t0 <= t1, got {args.window!r}")
            config = AnalysisConfig(
                events_path=args.events,
                assignments_path=args.assignments,
                outcomes_path=args.outcomes,
                out_dir=args.out,
                kind_groups=_parse_kind_groups(args.kinds or ["view"]),
                treatment=args.treatment,
                control=args.control,
                weighting=args.weighting,
                estimators=tuple(e for e in args.estimators.split(",") if e),
                methods=tuple(m for m in args.methods.split(",") if m),
                level=args.level,
                replications=args.replications,
                seed=args.seed,
                window=window,
                design_path=args.design,
                allow_missing_outcomes=args.allow_missing_outcomes,
                dump_graphs=args.dump_graphs,
            )
            return cmd_analyze(config)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        if args.command == "validate":
            return cmd_validate(
                args.config,
                [e for e in args.estimators.split(",") if e],
                [m for m in args.methods.split(",") if m],
                args.replications, args.ci_replications, args.seed, args.out,
            )
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        # numpy's MemoryError names the allocation that failed; a bare one
        # has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
