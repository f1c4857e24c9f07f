"""Command-line entry points: analyze, simulate, validate.

Exit codes for `analyze`: 0 = all estimator/method pairs succeeded,
2 = some failed, 1 = all failed (or usage/config error, or out of memory).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

# per_variant_subgraph is called through its module, like the inference
# functions, so a wrapper set on the module (perfbench's tracer) sees it
from . import graph, inference, simulator
from .exposure import assemble_panel, exposure_histogram, write_exposure_histogram
from .graph import WEIGHTINGS, GraphBuildConfig, build_graph, dump_graph, graph_stats
from .ingest import parse_assignments, parse_events, parse_outcomes
from .report import EstimateReport, ReportEntry, forest_plot_svg, histogram_svg


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


def _split(value: str) -> list[str]:
    """The items of a comma-separated list, stripped, empty ones dropped."""
    return [v for v in map(str.strip, value.split(",")) if v]


def _file_part(label: str) -> str:
    """A label as it appears in the names of its output files."""
    return label.replace("/", "_").replace("+", "_")


def cmd_analyze(args: argparse.Namespace) -> int:
    # the request is refused before any input is read; no window keeps every
    # int64 timestamp
    window = (-2**63, 2**63 - 1)
    if args.window:
        try:
            window = tuple(map(int, args.window.split(":")))
        except ValueError:
            window = ()
        if len(window) != 2 or window[0] > window[1]:
            raise ValueError("--window must be given as --window=t0:t1 with "
                             f"integers t0 <= t1, got {args.window!r}")
    estimators, methods = _split(args.estimators), _split(args.methods)
    inference.check_request(estimators, methods, args.replications, args.level, args.seed)
    if args.treatment == args.control:
        raise ValueError(f"treatment and control are both {args.treatment!r}")
    # each --kinds occurrence builds one graph from its comma-separated kinds
    kind_groups = [frozenset(_split(k)) for k in args.kinds or ["view"]]
    build_cfgs = [GraphBuildConfig(args.weighting, g) for g in kind_groups]
    # a group is labelled by its sorted kinds joined with '+'; no two groups
    # may share their kinds, their label or their files
    labels = ["+".join(sorted(g)) for g in kind_groups]
    for k, (kinds, label) in enumerate(zip(kind_groups, labels)):
        for other, other_label in zip(kind_groups[:k], labels[:k]):
            if other == kinds:
                raise ValueError(f"kind group {label!r} listed more than once")
            if other_label == label:
                raise ValueError(f"kind groups {sorted(other)} and {sorted(kinds)} "
                                 f"are both labelled {label!r}")
            if _file_part(other_label) == _file_part(label):
                raise ValueError(f"kind groups {other_label!r} and {label!r} would "
                                 f"write the same files ({_file_part(label)!r})")

    assignments = parse_assignments(args.assignments, args.design)
    for label in (args.treatment, args.control):
        assignments.code(label)  # a variant the design does not declare is an error
    outcomes = parse_outcomes(args.outcomes)

    report = EstimateReport(config={
        "events": args.events,
        "assignments": args.assignments,
        "outcomes": args.outcomes,
        "kind_groups": [sorted(g) for g in kind_groups],
        "treatment": args.treatment,
        "control": args.control,
        "weighting": args.weighting,
        "estimators": estimators,
        "methods": methods,
        "level": args.level,
        "replications": args.replications,
        "seed": args.seed,
    })
    events, ev_report = parse_events(args.events, frozenset().union(*kind_groups), window)
    report.config["events_dropped_rows"] = ev_report.rows_dropped

    def all_failed(label, message):
        report.entries += [ReportEntry(label, est, method, status="error", error=message)
                           for est in estimators for method in methods]

    histograms, dumps = {}, {}
    for build_cfg, group_label in zip(build_cfgs, labels):
        # drop the last group's graphs and panel before this one is built
        full = g = panel = None
        targets = _analysis_targets(assignments, group_label, args.control)
        try:
            full, _ = build_graph(events, assignments, build_cfg)
        except ValueError as exc:
            for label, _ in targets:
                all_failed(label, str(exc))
            continue

        for label, control in targets:
            try:
                g = full if control is None else graph.per_variant_subgraph(
                    full, assignments, control, args.treatment
                )
                report.graph_stats[label] = asdict(graph_stats(g))
                panel, degen = assemble_panel(
                    g,
                    assignments,
                    outcomes,
                    args.treatment,
                    control=control,
                    allow_missing_outcomes=args.allow_missing_outcomes,
                )
            except ValueError as exc:
                all_failed(label, str(exc))
                continue
            report.degenerate_units[label] = asdict(degen)
            histograms[label] = exposure_histogram(panel.h)
            if args.dump_graphs:
                dumps[label] = g
            report.entries += [
                _entry(label, *result)
                for result in inference.intervals(
                    panel, g, estimators, methods,
                    args.replications, args.seed, args.level,
                )
            ]

    # nothing is written until every stage has run
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "forest.svg").write_text(forest_plot_svg(report), encoding="utf-8")
    for label, (counts, edges) in histograms.items():
        safe = _file_part(label)
        write_exposure_histogram(counts, edges, out / f"exposure_hist_{safe}.csv")
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


def cmd_simulate(args: argparse.Namespace) -> int:
    config = simulator.load_sim_config(args.config)
    start = time.perf_counter()
    exp = simulator.simulate_experiment(config, out_dir=args.out)
    elapsed = time.perf_counter() - start
    print(f"wrote {len(exp.events)} events, {config.m} buyers, "
          f"{exp.graph.n_sellers} sellers to {args.out}")
    print(f"true_tau = {exp.truth.true_tau:.6f}")
    print(f"elapsed: {elapsed:.2f}s")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    table = simulator.run_validation(
        simulator.load_sim_config(args.config), _split(args.estimators),
        _split(args.methods), args.replications, args.ci_replications, seed=args.seed,
    )
    print(table)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        table.to_csv(out / "validation.csv")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as the module docstring says; subparsers too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                    choices=WEIGHTINGS)
    pa.add_argument("--estimators", default="erl")
    pa.add_argument("--methods", default="bootstrap")
    pa.add_argument("--level", type=float, default=0.95)
    pa.add_argument("--replications", type=int, default=1000)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--window", default=None,
                    help="inclusive timestamp window in ms, as --window=t0:t1 "
                         "(so that a negative t0 is not read as an option)")
    pa.add_argument("--allow-missing-outcomes", action="store_true")
    pa.add_argument("--dump-graphs", action="store_true")
    pa.add_argument("--out", required=True)
    pa.set_defaults(run=cmd_analyze)

    ps = sub.add_parser("simulate", help="generate a synthetic experiment")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", required=True)
    ps.set_defaults(run=cmd_simulate)

    pv = sub.add_parser("validate", help="bias/coverage study on simulated data")
    pv.add_argument("--config", required=True)
    pv.add_argument("--estimators", default="erl,reg,crerl")
    pv.add_argument("--methods", default="bootstrap,randomization")
    pv.add_argument("--replications", type=int, default=100)
    pv.add_argument("--ci-replications", type=int, default=500)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(run=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation that failed; a bare one
        # has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
