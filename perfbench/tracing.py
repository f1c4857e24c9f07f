"""Outside-in tracing: spans around calls into the package's public functions.

Each wrapper is installed at the name its caller looks up (for example
``bipartite_ab.cli.build_graph``), so a traced run executes exactly the
pipeline an untraced ``main(argv)`` run does. Spans are (name, start, end,
parent) rows kept in memory and written out once at the end. A name that
no longer exists is skipped and simply records zero calls.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from collections import defaultdict

# (module, attribute, span name). Classes appear as "module:Class".
# The layer is the span name's first component.
TARGETS = (
    ("bipartite_ab.cli", "parse_events", "ingest.parse_events"),
    ("bipartite_ab.cli", "parse_assignments", "ingest.parse_assignments"),
    ("bipartite_ab.cli", "parse_outcomes", "ingest.parse_outcomes"),
    ("bipartite_ab.cli", "build_graph", "graph.build_graph"),
    ("bipartite_ab.graph", "per_variant_subgraph", "graph.per_variant_subgraph"),
    ("bipartite_ab.cli", "graph_stats", "graph.graph_stats"),
    ("bipartite_ab.cli", "assemble_panel", "exposure.assemble_panel"),
    ("bipartite_ab.inference", "assemble_panel", "exposure.assemble_panel"),
    ("bipartite_ab.simulator", "assemble_panel", "exposure.assemble_panel"),
    ("bipartite_ab.exposure:ExposurePanel", "subset", "exposure.subset"),
    ("bipartite_ab.inference", "point_estimate", "estimators.point_estimate"),
    ("bipartite_ab.estimators", "erl_estimate", "estimators.erl"),
    ("bipartite_ab.estimators", "regression_estimate", "estimators.reg"),
    ("bipartite_ab.estimators", "crerl_estimate", "estimators.crerl"),
    ("bipartite_ab.inference", "crerl_estimate", "estimators.crerl"),
    ("bipartite_ab.inference", "bootstrap_ci", "inference.bootstrap_ci"),
    ("bipartite_ab.inference", "randomization_ci", "inference.randomization_ci"),
    ("bipartite_ab.inference", "exposure_moment_table", "inference.exposure_moment_table"),
    ("bipartite_ab.inference", "pairwise_variance_ci", "inference.pairwise_variance_ci"),
    ("bipartite_ab.inference", "pairwise_variance", "inference.pairwise_variance"),
    ("bipartite_ab.simulator", "simulate_experiment", "simulator.simulate_experiment"),
    ("bipartite_ab.simulator", "rerandomize", "simulator.rerandomize"),
    ("bipartite_ab.simulator", "experiment_panel", "simulator.experiment_panel"),
    ("bipartite_ab.report:EstimateReport", "to_json", "report.to_json"),
    ("bipartite_ab.cli", "forest_plot_svg", "report.forest_plot_svg"),
    ("bipartite_ab.cli", "histogram_svg", "report.histogram_svg"),
    ("bipartite_ab.cli", "write_exposure_histogram", "report.write_exposure_histogram"),
    ("bipartite_ab.simulator:ValidationTable", "to_csv", "report.to_csv"),
)

# Spans whose rise in the resident-set high-water mark is recorded.
RSS_SPANS = ("ingest.parse_events", "graph.build_graph")

LAYERS = ("ingest", "graph", "exposure", "estimators", "inference", "simulator",
          "report", "cli")


def _count_parse_events(c, v, args, result):
    _, report = result
    c["ingest.rows_read"] += report.rows_read
    c["ingest.rows_kept"] += report.rows_kept


def _count_build_graph(c, v, args, result):
    graph, report = result
    c["graph.edges"] += graph.n_edges
    c["graph.events_used"] += report.events_used
    c["graph.events_offered"] += len(args[0])


def _count_assemble_panel(c, v, args, result):
    panel, _ = result
    c["exposure.panel_units"] += panel.n
    c["exposure.graph_sellers"] += args[0].n_sellers


def _count_replicates(c, v, args, result):
    c["inference.replicates"] += result.replications


def _count_moment_table(c, v, args, result):
    c["inference.overlap_pairs"] += len(result.pairs)


def _count_pairwise(c, v, args, result):
    c["inference.degenerate_pairs"] += len(result.degenerate_pairs)
    c["inference.pairs_seen"] += len(result.degenerate_pairs) + result.n_pairs_evaluated
    v["pairwise_variance"].append(result.value)


# Counters read from a wrapped call's arguments and result: (counters,
# observed values, positional args, result).
COUNTERS = {
    "ingest.parse_events": _count_parse_events,
    "graph.build_graph": _count_build_graph,
    "exposure.assemble_panel": _count_assemble_panel,
    "inference.bootstrap_ci": _count_replicates,
    "inference.randomization_ci": _count_replicates,
    "inference.exposure_moment_table": _count_moment_table,
    "inference.pairwise_variance": _count_pairwise,
}


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB.

    VmHWM covers only the current address space. ru_maxrss would not do: on
    Linux a process started by fork and exec inherits its parent's peak
    there, so a worker would report the benchmark process's memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self.values: dict[str, list] = defaultdict(list)  # for output checks
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        spans, stack, counters, values = self.spans, self._stack, self.counters, self.values
        count = COUNTERS.get(name)
        track_rss = name in RSS_SPANS
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            rss0 = peak_rss_mb() if track_rss else 0.0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if track_rss:
                counters[name + ".rss_mb"] += peak_rss_mb() - rss0
            if count is not None:
                count(counters, values, args, result)
            return result

        return wrapper

    def install(self):
        for module_name, attr, name in TARGETS:
            module_name, _, cls = module_name.partition(":")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and cls:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}{':' + cls if cls else ''}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def root(self, fn, *args):
        """Call fn under the root span "cli.main"."""
        return self._wrap(fn, "cli.main")(*args)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        row = out[span[0]]
        row["calls"] += 1
        row["s"] += span[2] - span[1]
        row["self_s"] += own
    return out
