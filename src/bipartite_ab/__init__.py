"""Seller-side treatment effect estimation for buyer-side marketplace experiments.

Buyers are randomized (diversion units), sellers are measured (outcome
units), and the two sides are linked by a weighted bipartite graph built
from in-experiment interaction events.  The package covers the full
pipeline: log ingestion, graph construction, exposure scores and their
design moments, point estimators (exposure-reweighted linear, regression,
covariate-adjusted ERL), resampling inference, and a synthetic-experiment
simulator for bias/coverage validation.

The top level holds the names of the README's library quick start; every
other name is imported from its module, such as `simulate_experiment`
from `bipartite_ab.simulator`.
"""

from .ingest import parse_assignments, parse_events, parse_outcomes
from .graph import GraphBuildConfig, build_graph
from .exposure import assemble_panel
from .estimators import point_estimate
from .inference import bootstrap_ci

__all__ = [
    "parse_events", "parse_assignments", "parse_outcomes",
    "build_graph", "GraphBuildConfig", "assemble_panel",
    "point_estimate", "bootstrap_ci",
]

__version__ = "0.1.0"
