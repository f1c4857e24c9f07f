"""Benchmark for bipartite-ab: three closed-loop workloads through the real CLI.

    python3 perfbench/run.py --workload analyze-1m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. Each run generates (or reuses) its seeded
inputs in this process, times `import bipartite_ab` in several fresh
processes, then drives `bipartite_ab.cli.main(argv)` in one fresh worker
process, one call after another, for about `--seconds`. Every call's
outputs are checked against independent references. The last stdout line
is one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.stats import norm  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

IMPORT_PROBES = 3  # fresh import-only processes, plus the worker's own import
WORKER_TIMEOUT_S = 120  # import probes
RUN_DEADLINE_S = 165  # the worker is stopped when a run gets this old
REL_TOL = 1e-9
GOLDEN = HERE / "golden.json"

ANALYZE_1M = {
    "kind_groups": [("view",), ("view", "favorite")],
    "treatment": "A",
    "control": "Off",
    "flags": ["--estimators", "erl", "--methods", "randomization",
              "--replications", "200"],
}
PAIRWISE_EXACT = {
    "kind_groups": [("view",)],
    "treatment": "On",
    "control": "Off",
    "flags": ["--estimators", "erl", "--methods", "pairwise"],
}
VALIDATE_CELLS = [(e, m) for e in ("erl", "reg", "crerl")
                  for m in ("bootstrap", "randomization")]
VALIDATE_SIM_REPLICATIONS = 20

WORKLOADS = ("analyze-1m", "validate-small", "pairwise-exact")


class BenchmarkError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


def analyze_argv(spec, data_dir: Path, seed: int) -> list[str]:
    argv = ["analyze",
            "--events", str(data_dir / "events.csv"),
            "--assignments", str(data_dir / "assignments.csv"),
            "--outcomes", str(data_dir / "outcomes.csv"),
            "--treatment", spec["treatment"], "--control", spec["control"]]
    for group in spec["kind_groups"]:
        argv += ["--kinds", ",".join(group)]
    return argv + spec["flags"] + ["--seed", str(seed), "--out", "{out}"]


def validate_argv(data_dir: Path, seed: int) -> list[str]:
    return ["validate", "--config", str(data_dir / "config.json"),
            "--estimators", "erl,reg,crerl", "--methods", "bootstrap,randomization",
            "--replications", str(VALIDATE_SIM_REPLICATIONS),
            "--ci-replications", "500", "--seed", str(seed), "--out", "{out}"]


# --- output checks --------------------------------------------------------


def _close(got, want, scale) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= REL_TOL * max(abs(want), scale))


def check_analyze(out: Path, ref: dict, dropped: int, pairwise: dict | None,
                  golden_variance: float | None) -> tuple[int, list[str]]:
    """Check one analyze call's report.json; returns (operations, errors)."""
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return len(ref), [f"report.json unreadable: {exc}"]
    errors = []
    entries = report.get("entries", [])
    if sorted(e.get("graph") for e in entries) != sorted(ref):
        errors.append(f"report targets {sorted(e.get('graph') for e in entries)} "
                      f"!= expected {sorted(ref)}")
    if report.get("config", {}).get("events_dropped_rows") != dropped:
        errors.append(f"events_dropped_rows {report.get('config', {}).get('events_dropped_rows')}"
                      f" != reference {dropped}")
    for label, want in ref.items():
        got = report.get("graph_stats", {}).get(label)
        if got != want["graph_stats"]:
            errors.append(f"{label}: graph_stats {got} != reference {want['graph_stats']}")
    for e in entries:
        label = e.get("graph")
        if label not in ref:
            continue
        want = ref[label]
        if e.get("status") != "ok":
            errors.append(f"{label}: status {e.get('status')}: {e.get('error')}")
            continue
        tau, lo, hi = e.get("tau_hat"), e.get("ci_low"), e.get("ci_high")
        if not _close(tau, want["tau_hat"], want["scale"]):
            errors.append(f"{label}: tau_hat {tau!r} != reference {want['tau_hat']!r}")
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in (tau, lo, hi)) \
                or not lo <= tau <= hi:
            errors.append(f"{label}: CI [{lo!r}, {hi!r}] is not finite or misses {tau!r}")
            continue
        if e.get("method") == "pairwise" and pairwise is not None:
            z = float(norm.ppf(0.5 + e["level"] / 2.0))
            variance = ((hi - lo) / (2.0 * z)) ** 2
            if not _close(variance, pairwise["value"], pairwise["scale"]):
                errors.append(f"{label}: pairwise variance {variance!r} != "
                              f"reference {pairwise['value']!r}")
            if golden_variance is not None and not _close(
                    variance, golden_variance, pairwise["scale"]):
                errors.append(f"{label}: pairwise variance {variance!r} != "
                              f"golden {golden_variance!r}")
    return len(ref), errors


def check_validate(out: Path) -> tuple[int, list[str]]:
    """Check one validate call's validation.csv; returns (operations, errors)."""
    try:
        with open(out / "validation.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return len(VALIDATE_CELLS), [f"validation.csv unreadable: {exc}"]
    errors = []
    cells = [(r["estimator"], r["method"]) for r in rows]
    if cells != VALIDATE_CELLS:
        errors.append(f"validation cells {cells} != expected {VALIDATE_CELLS}")
    for r in rows:
        cell = f"{r['estimator']}+{r['method']}"
        if int(r["n_failed"]) != 0 or int(r["n_ok"]) != VALIDATE_SIM_REPLICATIONS:
            errors.append(f"{cell}: n_ok={r['n_ok']} n_failed={r['n_failed']}")
        values = [float(r[k]) for k in ("mean_tau", "bias", "mc_sd", "coverage",
                                         "median_ci_width")]
        if not all(math.isfinite(v) for v in values) or values[4] <= 0 \
                or not 0.0 <= values[3] <= 1.0:
            errors.append(f"{cell}: non-finite or out-of-range summary {values}")
    return len(VALIDATE_CELLS), errors


# --- facts and statistics -------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def machine_facts(root: Path, worker: dict | None) -> dict:
    worker = worker or {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bipartite_ab": worker.get("package_version"),
        "blas": worker.get("blas"),
        "blas_threads": worker.get("blas_threads"),
        "git_commit": _git_commit(root),
    }


def highest_percentile(n: int) -> str:
    """The highest of a few standard percentiles with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return f"p{q:g}"
    return "none (needs >= 20 samples)"


# --- one workload ---------------------------------------------------------


def prepare_workload(name: str, seed: int, root: Path) -> dict:
    data_dir, data, digest, reused = inputs.prepare(name, seed, root / ".bench_data")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")).get(name, {}).get(str(seed), {})
    prepared = {"name": name, "seed": seed, "data_dir": data_dir, "digest": digest,
                "reused": reused, "golden": golden, "errors": []}
    if golden.get("sha256") not in (None, digest):
        prepared["errors"].append(
            f"input sha256 {digest} != golden {golden['sha256']} for seed {seed}")
    if name == "validate-small":
        prepared["argv"] = validate_argv(data_dir, seed)
        return prepared
    spec = ANALYZE_1M if name == "analyze-1m" else PAIRWISE_EXACT
    prepared["argv"] = analyze_argv(spec, data_dir, seed)
    targets = reference.analyze_targets(data, spec["kind_groups"], spec["treatment"],
                                        spec["control"])
    prepared["dropped"] = reference.dropped_rows(data, spec["kind_groups"])
    prepared["pairwise"] = None
    if name == "pairwise-exact":
        (target,) = targets.values()
        y, h, _, _ = target["parts"]
        prepared["pairwise"] = reference.pairwise_variance(target["W"], target["p"], y, h)
    for target in targets.values():  # keep only what the checks read
        for key in ("W", "parts", "p"):
            target.pop(key)
    prepared["targets"] = targets
    return prepared


def check_call(prepared: dict, call: dict) -> tuple[int, list[str]]:
    out = Path(call["out"])
    if prepared["name"] == "validate-small":
        ops, errors = check_validate(out)
    else:
        ops, errors = check_analyze(out, prepared["targets"], prepared["dropped"],
                                    prepared["pairwise"],
                                    prepared["golden"].get("pairwise_variance"))
    if call["code"] != 0:
        errors.insert(0, f"exit code {call['code']}")
    return ops, errors


def probe_imports(root: Path, count: int) -> list[dict]:
    probes = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--probe", str(root / "src")],
            cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            raise BenchmarkError(f"import probe failed: {done.stderr.strip()[-500:]}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def run_worker(prepared: dict, root: Path, run_dir: Path, seconds: float,
               trace: bool, timeout: float) -> dict | None:
    spec = {"src": str(root / "src"), "argv": prepared["argv"], "seconds": seconds,
            "trace": trace, "run_dir": str(run_dir),
            "result": str(run_dir / "worker.json")}
    (run_dir / "spec.json").write_text(json.dumps(spec, indent=1), encoding="utf-8")
    with open(run_dir / "worker.log", "w", encoding="utf-8") as log:
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(run_dir / "spec.json")],
                cwd=root, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            prepared["errors"].append(f"worker exceeded its {timeout:.0f} s timeout")
            return None
    if done.returncode != 0:
        tail = (run_dir / "worker.log").read_text(encoding="utf-8")[-800:]
        prepared["errors"].append(f"worker exited {done.returncode}: {tail}")
        return None
    return json.loads((run_dir / "worker.json").read_text(encoding="utf-8"))


def end_to_end_metrics(imports: list[dict], calls: list[dict], worker: dict) -> dict:
    """Medians of host-speed-scaled times (see calibrate.py), each with the
    median of the raw times it came from."""
    def timing(samples, scaled, raw):
        return {"value": statistics.median(s[scaled] for s in samples), "unit": "s",
                "raw": statistics.median(s[raw] for s in samples), "n": len(samples)}

    wall = timing(calls, "scaled_s", "wall_s")
    wall["highest_percentile"] = highest_percentile(len(calls))
    return {
        "setup_s": timing(imports, "import_scaled_s", "import_s"),
        "wall_s": wall,
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB", "n": 1},
    }


def per_layer_metrics(worker: dict) -> tuple[dict, dict]:
    """Per-layer metrics per traced call, from the worker's span summary, and
    the self time of each layer."""
    calls = worker["calls"]
    n = sum(1 for c in calls if c["traced"])
    summary, counters = worker["span_summary"], worker["counters"]

    def span(name, field="s"):
        return summary.get(name, {}).get(field, 0.0) / n

    def count(name):
        return counters.get(name, 0.0) / n

    def ratio(num, den):
        return counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0

    def call_us(name):
        row = summary.get(name)
        return 1e6 * row["s"] / row["calls"] if row else 0.0

    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    for name, row in summary.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"] / n
    untraced = [c["scaled_s"] for c in calls if not c["traced"]]
    traced = [c["scaled_s"] for c in calls if c["traced"]]
    values = {
        "ingest.parse_events.s": (span("ingest.parse_events"), "s"),
        "ingest.parse_events.rss_mb": (count("ingest.parse_events.rss_mb"), "MB"),
        "ingest.parse_assignments.s": (span("ingest.parse_assignments"), "s"),
        "ingest.parse_outcomes.s": (span("ingest.parse_outcomes"), "s"),
        "ingest.rows_read": (count("ingest.rows_read"), "count"),
        "ingest.rows_kept_ratio": (ratio("ingest.rows_kept", "ingest.rows_read"), "ratio"),
        "graph.build_graph.s": (span("graph.build_graph"), "s"),
        "graph.build_graph.rss_mb": (count("graph.build_graph.rss_mb"), "MB"),
        "graph.per_variant_subgraph.s": (span("graph.per_variant_subgraph"), "s"),
        "graph.graph_stats.s": (span("graph.graph_stats"), "s"),
        "graph.edges": (count("graph.edges"), "count"),
        "graph.events_used_ratio": (ratio("graph.events_used", "graph.events_offered"),
                                    "ratio"),
        "exposure.assemble_panel.s": (span("exposure.assemble_panel"), "s"),
        "exposure.subset.s": (span("exposure.subset"), "s"),
        "exposure.subset.calls": (span("exposure.subset", "calls"), "count"),
        "exposure.panel_units_ratio": (ratio("exposure.panel_units",
                                             "exposure.graph_sellers"), "ratio"),
        "estimators.point_estimate.s": (span("estimators.point_estimate"), "s"),
        "estimators.point_estimate.calls": (span("estimators.point_estimate", "calls"),
                                            "count"),
        "estimators.erl.call_us": (call_us("estimators.erl"), "us"),
        "estimators.reg.call_us": (call_us("estimators.reg"), "us"),
        "estimators.crerl.call_us": (call_us("estimators.crerl"), "us"),
        "inference.bootstrap_ci.self_s": (span("inference.bootstrap_ci", "self_s"), "s"),
        "inference.randomization_ci.self_s": (span("inference.randomization_ci",
                                                   "self_s"), "s"),
        "inference.replicates": (count("inference.replicates"), "count"),
        "inference.exposure_moment_table.s": (span("inference.exposure_moment_table"),
                                              "s"),
        "inference.pairwise_variance_ci.s": (span("inference.pairwise_variance_ci"), "s"),
        "inference.overlap_pairs": (count("inference.overlap_pairs"), "count"),
        "inference.degenerate_pair_ratio": (ratio("inference.degenerate_pairs",
                                                  "inference.pairs_seen"), "ratio"),
        "simulator.simulate_experiment.s": (span("simulator.simulate_experiment"), "s"),
        "simulator.rerandomize.s": (span("simulator.rerandomize"), "s"),
        "simulator.experiment_panel.s": (span("simulator.experiment_panel"), "s"),
        "report.s": (sum(row["s"] for name, row in summary.items()
                         if name.startswith("report.")) / n, "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }
    for layer in tracing.LAYERS:
        if layer not in ("report", "cli"):  # named above as report.s, cli.self_s
            values[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    return metrics, layer_self


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    if not (root / "src" / "bipartite_ab" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {root / 'src' / 'bipartite_ab'}; "
                             "run from the repository root")
    started = time.perf_counter()
    prepared = prepare_workload(name, seed, root)
    t_prepare = time.perf_counter() - started
    run_dir = root / ".bench_out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    imports = [] if trace else probe_imports(root, IMPORT_PROBES)
    # the whole run, checks included, must end within the 180 s limit
    timeout = max(RUN_DEADLINE_S - (time.perf_counter() - started), 1.0)
    worker = run_worker(prepared, root, run_dir, seconds, trace, timeout)

    errors = list(prepared["errors"])
    attempted = 0
    calls = worker["calls"] if worker else []
    for k, call in enumerate(calls):
        ops, call_errors = check_call(prepared, call)
        attempted += ops
        errors += [f"call {k}: {e}" for e in call_errors]
    if trace and worker and name == "pairwise-exact":
        observed = worker["counters"].get("inference.overlap_pairs", 0.0)
        expected = prepared["pairwise"]["overlap_pairs"] * sum(c["traced"] for c in calls)
        if observed != expected:
            errors.append(f"overlapping pairs {observed} != reference {expected}")
        for value in worker["values"].get("pairwise_variance", []):
            if not _close(value, prepared["pairwise"]["value"], prepared["pairwise"]["scale"]):
                errors.append(f"traced pairwise variance {value!r} != reference")
    attempted = max(attempted, 1)
    failed = attempted if errors else 0

    metrics, layer_self = {}, {}
    if worker and trace:
        metrics, layer_self = per_layer_metrics(worker)
    elif worker:
        metrics = end_to_end_metrics(imports + [worker], calls, worker)
    result = {
        "workload": name,
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layer_self_s": layer_self,
        "errors": errors,
        "facts": {**machine_facts(root, worker), "workload_seed": seed, "cli_seed": seed,
                  "generator_version": inputs.GENERATOR_VERSION,
                  "input_sha256": prepared["digest"], "inputs_reused": prepared["reused"],
                  "prepare_s": t_prepare, "run_seconds": seconds, "trace": trace,
                  "missing_trace_targets": worker.get("missing") if worker else None},
        "calls": calls,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_summary(result: dict):
    name, facts = result["workload"], result["facts"]
    print(f"== {name} seed {facts['workload_seed']} "
          f"({'traced' if facts['trace'] else 'untraced'}): closed loop, one caller "
          "waiting for each call, one worker process; the layers are single-threaded "
          "with no queues, so no wait time is recorded")
    for key, m in result["metrics"].items():
        extra = f"  n={m['n']}" if "n" in m else ""
        if "raw" in m:
            extra += f"  raw {m['raw']:.6g} s at host speed"
        if "highest_percentile" in m:
            extra += f"  highest percentile with >=10 samples beyond: {m['highest_percentile']}"
        print(f"  {key:<38} {m['value']:>14.6g} {m['unit']:<6}{extra}")
    print(f"  {'fail_ratio':<38} {result['failed'] / result['attempted']:>14.6g} ratio  "
          f"n={result['attempted']} ({result['failed']} failed)")
    shares = result["layer_self_s"]
    if shares:
        total = sum(shares.values()) or 1.0
        print("  self time by layer: " + ", ".join(
            f"{k} {100 * v / total:.1f}%"
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for e in result["errors"]:
        print(f"  CHECK FAILED: {e}")
    print("facts: " + json.dumps(facts, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), root)
                   for n in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for r in results:
        print_summary(r)
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
