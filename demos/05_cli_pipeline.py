"""The full pipeline through the command-line interface.

Simulates an experiment to CSV files, then analyzes them exactly as you
would analyze logs exported from a real experiment platform:

    bipartite-ab simulate --config config.json --out simdata/
    bipartite-ab analyze --events simdata/events.csv ... --out results/

Everything is seeded, so rerunning this script reproduces the same
report.json byte for byte. The work directory is temporary: it is removed
when the script ends.
"""

import json
import tempfile
from pathlib import Path

from bipartite_ab.cli import main
from bipartite_ab.simulator import FixedDegree, SimConfig, sim_config_to_dict

with tempfile.TemporaryDirectory(prefix="bipartite_ab_demo_") as tmp:
    work = Path(tmp)
    config = SimConfig(
        m=3000, n=1000, degree=FixedDegree(4),
        beta_mean=0.8, beta_sd=0.2, noise_sd=0.6, pre_corr=0.8,
        favorite_rates=(0.1, 0.25),  # treated buyers favorite more often
        seed=99,
    )
    (work / "config.json").write_text(json.dumps(sim_config_to_dict(config), indent=2))

    print("== simulate ==")
    main(["simulate", "--config", str(work / "config.json"),
          "--out", str(work / "simdata")])

    print("\n== analyze ==")
    # two graphs: one from views (randomization-independent) and one from
    # favorites (a post-treatment behavior, so its exposure is shifted)
    code = main([
        "analyze",
        "--events", str(work / "simdata" / "events.csv"),
        "--assignments", str(work / "simdata" / "assignments.csv"),
        "--outcomes", str(work / "simdata" / "outcomes.csv"),
        "--kinds", "view", "--kinds", "favorite",
        "--estimators", "erl,crerl",
        "--methods", "bootstrap,randomization",
        "--replications", "1000", "--seed", "7",
        "--out", str(work / "results"),
    ])
    print(f"analyze exit code: {code}")

    report = json.loads((work / "results" / "report.json").read_text())
    truth = json.loads((work / "simdata" / "truth.json").read_text())
    print(f"\ntrue ATE = {truth['true_tau']:.4f}")
    print(f"{'graph':<10} {'estimator':<8} {'method':<14} {'tau_hat':>8} {'95% CI':>20}")
    for e in report["entries"]:
        ci = f"[{e['ci_low']:.4f}, {e['ci_high']:.4f}]"
        print(f"{e['graph']:<10} {e['estimator']:<8} {e['method']:<14} "
              f"{e['tau_hat']:>8.4f} {ci:>20}")

    artifacts = sorted(p.name for p in (work / "results").iterdir())
    print(f"\nartifacts (removed on exit): {', '.join(artifacts)}")
