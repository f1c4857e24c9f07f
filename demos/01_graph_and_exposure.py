"""Build an exposure graph from raw interaction logs and inspect it.

Buyers are randomized to On/Off; sellers are never assigned directly.
Each seller's treatment exposure is the interaction-weighted share of
their buyers who landed in the treated variant.
"""

import numpy as np

from bipartite_ab.exposure import (
    assemble_panel,
    design_moments,
    exposure_histogram,
    realized_exposure,
)
from bipartite_ab.graph import GraphBuildConfig, build_graph, graph_stats
from bipartite_ab.ingest import AssignmentTable, EventLog, OutcomeTable, Variant

rng = np.random.default_rng(7)

# a tiny marketplace: 40 buyers browse 12 shops, heavier buyers browse more
# events are integer-coded columns: codes into the buyer, seller and kind lists
buyers = [f"buyer{i:02d}" for i in range(40)]
sellers = [f"shop{j:02d}" for j in range(12)]
buyer_codes, seller_codes = [], []
for b_idx in range(len(buyers)):
    n_views = 1 + rng.poisson(2)
    buyer_codes += [b_idx] * n_views
    seller_codes += rng.choice(len(sellers), size=n_views).tolist()
events = EventLog.from_codes(
    buyers, sellers, ["view"], buyer_codes, seller_codes,
    np.zeros(len(buyer_codes), dtype=np.int64), np.arange(len(buyer_codes)),
)

# each buyer's variant is a code into the design's variants: 1 is "On"
assignments = AssignmentTable(
    buyers,
    rng.random(len(buyers)) < 0.5,
    [Variant("Off", 0.5, control=True), Variant("On", 0.5)],
)

graph, build_report = build_graph(
    events, assignments, GraphBuildConfig(kind_filter=frozenset({"view"}))
)
stats = graph_stats(graph)
print(f"graph: {stats.n_buyers} buyers x {stats.n_sellers} sellers, "
      f"{stats.n_edges} edges ({stats.single_edge_sellers} single-edge sellers)")
print(f"rows skipped for unassigned buyers: {build_report.skipped_unassigned}")

# realized exposure under this particular randomization, and its design moments
h = realized_exposure(graph, assignments, "On")
e_h, var_h = design_moments(graph, assignments, "On")
print(f"\nexposure: realized mean {h.mean():.3f}, design mean {e_h.mean():.3f}")
print(f"design variance ranges {var_h.min():.4f} .. {var_h.max():.4f} "
      "(concentrated sellers have noisier exposure)")

counts, edges = exposure_histogram(h, bins=10)
print("\nexposure histogram (10 bins over [0, 1]):")
for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
    print(f"  [{lo:.1f}, {hi:.1f}): {'#' * int(c)}")

# attach outcomes to get the analysis-ready panel
# one (y_in, y_pre) row per seller; NaN marks the missing y_pre
outcomes = OutcomeTable(
    graph.sellers,
    np.column_stack((rng.normal(1.0 + 0.5 * h, 0.2), np.full(len(h), np.nan))),
    has_pre=False,
)
panel, degen = assemble_panel(graph, assignments, outcomes, "On")
print(f"\npanel: {panel.n} sellers ready for estimation, "
      f"{degen.zero_variance} excluded for zero design variance")
