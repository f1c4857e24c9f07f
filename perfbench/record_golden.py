"""Record golden values per seed into perfbench/golden.json.

    python3 perfbench/record_golden.py 0 1 2 3

For each seed this records every workload's input sha256 and, for
pairwise-exact, the package's pairwise variance computed in-process. The
benchmark then requires later commits to read identical input bytes and to
reproduce that variance within 1e-9 relative. Run from the repository root,
and only at a commit whose pairwise variance is trusted.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402


def package_pairwise_variance(data_dir: Path) -> float:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from bipartite_ab import (GraphBuildConfig, assemble_panel, build_graph,
                              parse_assignments, parse_events, parse_outcomes)
    from bipartite_ab.inference import exposure_moment_table, pairwise_variance

    spec = run.PAIRWISE_EXACT
    (kinds,) = spec["kind_groups"]
    events, _ = parse_events(data_dir / "events.csv", set(kinds), (0, 2**62))
    assignments = parse_assignments(data_dir / "assignments.csv")
    outcomes = parse_outcomes(data_dir / "outcomes.csv")
    graph, _ = build_graph(events, assignments, GraphBuildConfig(kind_filter=frozenset(kinds)))
    panel, _ = assemble_panel(graph, assignments, outcomes, spec["treatment"])
    table = exposure_moment_table(graph, panel.p, panel.graph_rows)
    return float(pairwise_variance(panel, table).value)


def main(seeds):
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    for seed in seeds:
        for name in run.WORKLOADS:
            data_dir, _, digest, _ = inputs.prepare(name, seed, Path.cwd() / ".bench_data")
            entry = {"sha256": digest}
            if name == "pairwise-exact":
                entry["pairwise_variance"] = package_pairwise_variance(data_dir)
            golden.setdefault(name, {})[str(seed)] = entry
            print(name, seed, entry, flush=True)
        run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
