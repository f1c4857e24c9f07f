"""Synthetic marketplace experiments with known ground-truth ATE.

Outcomes follow the linear exposure-response model
y_in = alpha_i + beta_i * H_i + noise, so the true ATE is mean(beta).
Optional violation modes (quadratic, threshold) deliberately break the
linear response for robustness studies. Emitted files use the exact
ingest CSV formats, so everything round-trips through the parser.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import estimators, inference
from .exposure import ExposurePanel, assemble_panel, realized_exposure
from .graph import BipartiteGraph, GraphBuildConfig, build_graph
from .ingest import (
    AssignmentTable,
    EventLog,
    OutcomeTable,
    Variant,
    write_assignments,
    write_events,
    write_outcomes,
)


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class FixedDegree:
    """Every seller interacts with k distinct buyers."""

    k: int


@dataclass(frozen=True)
class ZipfDegree:
    """Seller interaction counts follow a truncated Zipf(s) law; buyers are
    drawn with replacement, so repeat interactions occur."""

    s: float = 2.0
    k_max: int = 50


@dataclass(frozen=True)
class SimConfig:
    m: int = 200
    n: int = 150
    degree: FixedDegree | ZipfDegree = FixedDegree(3)
    p_treat: float = 0.5
    alpha_mean: float = 0.0
    alpha_sd: float = 1.0
    beta_mean: float = 1.0
    beta_sd: float = 0.25
    noise_sd: float = 1.0
    noise_mode: str = "homoskedastic"  # or "exposure_scaled"
    pre_corr: float = 0.5
    violation: tuple | None = None  # ("quadratic", gamma) | ("threshold", t)
    favorite_rates: tuple[float, float] | None = None  # (control, treated)
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise SimulationError("m and n must be >= 1")
        if not 0.0 < self.p_treat < 1.0:
            raise SimulationError("p_treat must lie in (0,1)")
        if not 0.0 <= self.pre_corr <= 1.0:
            raise SimulationError("pre_corr must lie in [0,1]")
        if isinstance(self.degree, FixedDegree) and self.degree.k > self.m:
            raise SimulationError("fixed degree k cannot exceed buyer count m")
        if self.noise_mode not in ("homoskedastic", "exposure_scaled"):
            raise SimulationError(f"unknown noise_mode {self.noise_mode!r}")
        if self.violation is not None and self.violation[0] not in (
            "quadratic",
            "threshold",
        ):
            raise SimulationError(f"unknown violation {self.violation!r}")


@dataclass
class SimTruth:
    true_tau: float
    alpha: np.ndarray
    beta: np.ndarray
    graph_seed_digest: str


@dataclass
class SimulatedExperiment:
    """One synthetic experiment plus the internals needed to re-randomize."""

    config: SimConfig
    events: EventLog
    assignments: AssignmentTable
    outcomes: OutcomeTable
    truth: SimTruth
    graph: BipartiteGraph
    eps: np.ndarray
    y_pre: np.ndarray
    omitted_sellers: int = 0


def _seller_response(config, alpha, beta, h, eps):
    if config.violation is None:
        structural = alpha + beta * h
    elif config.violation[0] == "quadratic":
        structural = alpha + beta * h + config.violation[1] * h * h
    else:
        structural = alpha + beta * (h > config.violation[1]).astype(float)
    return structural + eps


def _draw_noise(rng, config, h):
    base = rng.normal(0.0, 1.0, len(h))
    if config.noise_mode == "exposure_scaled":
        return config.noise_sd * (0.5 + h) * base
    return config.noise_sd * base


def _make_outcomes(config, graph, assignments, truth, eps, y_pre, treatment="On"):
    h = realized_exposure(graph, assignments, treatment)
    # graph sellers are sorted "s%06d" ids, so index i recovers the seller number
    order = [int(s[1:]) for s in graph.sellers]
    alpha = truth.alpha[order]
    beta = truth.beta[order]
    y_in = _seller_response(config, alpha, beta, h, eps[order])
    y = np.column_stack((y_in, y_pre[order]))
    return OutcomeTable(graph.sellers, y, has_pre=True)


def simulate_experiment(
    config: SimConfig, out_dir: str | Path | None = None
) -> SimulatedExperiment:
    """Generate one experiment; optionally write the three ingest files plus
    truth.json into `out_dir`. Fully deterministic given config.seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    buyers = [f"b{i:06d}" for i in range(config.m)]
    sellers = [f"s{i:06d}" for i in range(config.n)]

    # interaction multigraph: one "view" per (seller, chosen buyer), in
    # seller order, timestamped 0, 1, 2, ...
    chosen = []
    for _ in range(config.n):
        if isinstance(config.degree, FixedDegree):
            chosen.append(rng.choice(config.m, size=config.degree.k, replace=False))
        else:
            d = min(int(rng.zipf(config.degree.s)), config.degree.k_max)
            chosen.append(rng.integers(0, config.m, size=d))
    view_buyer = np.concatenate(chosen).astype(np.int64)
    view_seller = np.repeat(np.arange(config.n), [len(c) for c in chosen])
    views = len(view_buyer)

    # treatment assignment: independent Bernoulli(p_treat)
    treated = rng.random(config.m) < config.p_treat
    variants = [
        Variant("Off", 1.0 - config.p_treat, control=True),
        Variant("On", config.p_treat, control=False),
    ]
    assignments = AssignmentTable(buyers, treated, variants)  # code 1 is "On"

    # potential-outcome parameters
    alpha = rng.normal(config.alpha_mean, config.alpha_sd, config.n)
    beta = rng.normal(config.beta_mean, config.beta_sd, config.n)
    alpha_z = (alpha - alpha.mean()) / alpha.std() if alpha.std() > 0 else alpha * 0.0
    y_pre = config.pre_corr * alpha_z + np.sqrt(
        max(0.0, 1.0 - config.pre_corr**2)
    ) * rng.normal(0.0, 1.0, config.n)

    events = EventLog.from_codes(
        buyers, sellers, ["view"], view_buyer, view_seller,
        np.zeros(views, dtype=np.int64), np.arange(views),
    )
    graph, _ = build_graph(
        events, assignments, GraphBuildConfig(kind_filter=frozenset({"view"}))
    )
    omitted = config.n - graph.n_sellers

    edge_digest = hashlib.sha256()
    for i, seller in enumerate(graph.sellers):
        idx, w = graph.row(i)
        for j, weight in zip(idx, w):
            # float(): a numpy 2 scalar's repr is "np.float64(...)"
            text = f"{seller},{graph.buyers[j]},{float(weight)!r};"
            edge_digest.update(text.encode())
    truth = SimTruth(
        true_tau=float(np.mean(beta)),
        alpha=alpha,
        beta=beta,
        graph_seed_digest=edge_digest.hexdigest(),
    )

    # noise is part of the potential outcomes: drawn once, fixed across Z
    h0 = realized_exposure(graph, assignments, "On")
    eps_graph = _draw_noise(rng, config, h0)
    eps = np.zeros(config.n)
    eps[[int(s[1:]) for s in graph.sellers]] = eps_graph

    outcomes = _make_outcomes(config, graph, assignments, truth, eps, y_pre)

    if config.favorite_rates is not None:
        # each view turns into a favorite with its buyer's variant's rate;
        # favorites follow the views, timestamped on from them
        rate_c, rate_t = config.favorite_rates
        rate = np.where(treated[view_buyer], rate_t, rate_c)
        fav = rng.random(views) < rate
        n_fav = int(fav.sum())
        events = EventLog.from_codes(
            buyers, sellers, ["view", "favorite"],
            np.concatenate([view_buyer, view_buyer[fav]]),
            np.concatenate([view_seller, view_seller[fav]]),
            np.repeat([0, 1], [views, n_fav]),
            np.arange(views + n_fav),
        )

    exp = SimulatedExperiment(
        config=config,
        events=events,
        assignments=assignments,
        outcomes=outcomes,
        truth=truth,
        graph=graph,
        eps=eps,
        y_pre=y_pre,
        omitted_sellers=omitted,
    )
    if out_dir is not None:
        write_experiment(exp, out_dir)
    return exp


def write_experiment(exp: SimulatedExperiment, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_events(out / "events.csv", exp.events)
    write_assignments(out / "assignments.csv", exp.assignments)
    write_outcomes(out / "outcomes.csv", exp.outcomes)
    payload = {
        "true_tau": exp.truth.true_tau,
        "graph_seed_digest": exp.truth.graph_seed_digest,
        "omitted_sellers": exp.omitted_sellers,
        "config": sim_config_to_dict(exp.config),
    }
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def rerandomize(exp: SimulatedExperiment, seed: int) -> SimulatedExperiment:
    """Fresh assignment draw over the same graph and potential outcomes.

    SimTruth is unchanged: the estimand does not depend on Z.
    """
    rng = np.random.default_rng(np.random.SeedSequence((exp.config.seed, seed)))
    treated = rng.random(exp.config.m) < exp.config.p_treat
    assignments = replace(exp.assignments, variant=treated)
    outcomes = _make_outcomes(
        exp.config, exp.graph, assignments, exp.truth, exp.eps, exp.y_pre
    )
    return replace(exp, assignments=assignments, outcomes=outcomes)


def experiment_panel(
    exp: SimulatedExperiment, treatment: str = "On"
) -> ExposurePanel:
    panel, _ = assemble_panel(exp.graph, exp.assignments, exp.outcomes, treatment)
    return panel


# --- validation study -----------------------------------------------------


@dataclass
class ValidationRow:
    estimator: str
    method: str
    n_ok: int
    n_failed: int
    mean_tau: float
    bias: float
    mc_sd: float
    coverage: float
    median_ci_width: float


@dataclass
class ValidationTable:
    true_tau: float
    sim_replications: int
    rows: list[ValidationRow] = field(default_factory=list)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(
                "estimator,method,n_ok,n_failed,mean_tau,bias,mc_sd,"
                "coverage,median_ci_width\n"
            )
            for r in self.rows:
                fh.write(
                    f"{r.estimator},{r.method},{r.n_ok},{r.n_failed},"
                    f"{r.mean_tau!r},{r.bias!r},{r.mc_sd!r},"
                    f"{r.coverage!r},{r.median_ci_width!r}\n"
                )

    def __str__(self):
        header = (
            f"{'estimator':<10}{'method':<15}{'bias':>12}{'mc_sd':>12}"
            f"{'coverage':>10}{'ci_width':>12}{'failed':>8}"
        )
        lines = [f"true_tau = {self.true_tau:.6f}", header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.estimator:<10}{r.method:<15}{r.bias:>12.5f}{r.mc_sd:>12.5f}"
                f"{r.coverage:>10.3f}{r.median_ci_width:>12.5f}{r.n_failed:>8d}"
            )
        return "\n".join(lines)


def run_validation(
    config: SimConfig,
    estimator_ids: Sequence[str],
    methods: Sequence[str],
    sim_replications: int = 100,
    ci_replications: int = 500,
    level: float = 0.95,
    seed: int = 0,
) -> ValidationTable:
    """Bias / variance / coverage study: one base experiment, then
    `sim_replications` fresh randomizations over the same graph, running
    the full estimator + CI pipeline each time."""
    if sim_replications < 1:
        raise SimulationError("sim_replications must be >= 1")
    if not estimator_ids:
        raise SimulationError("at least one estimator required")
    for mid in methods:
        if mid not in ("bootstrap", "randomization"):
            raise SimulationError(f"unknown inference method {mid!r}")
    base = simulate_experiment(config)
    true_tau = base.truth.true_tau
    results: dict[tuple[str, str], dict[str, list]] = {
        (e, m): {"tau": [], "width": [], "covered": [], "failed": 0}
        for e in estimator_ids
        for m in methods
    }
    for rep in range(sim_replications):
        exp = rerandomize(base, seed=seed * 1_000_003 + rep)
        panel = experiment_panel(exp)
        for est in estimator_ids:
            for method in methods:
                bucket = results[(est, method)]
                try:
                    if method == "bootstrap":
                        ci = inference.bootstrap_ci(
                            panel,
                            est,
                            replications=ci_replications,
                            seed=seed * 1_000_003 + rep,
                            level=level,
                        )
                    else:
                        ci = inference.randomization_ci(
                            panel,
                            exp.graph,
                            est,
                            replications=ci_replications,
                            seed=seed * 1_000_003 + rep,
                            level=level,
                        )
                except (ValueError, estimators.EstimationError):
                    bucket["failed"] += 1
                    continue
                bucket["tau"].append(ci.point.tau_hat)
                bucket["width"].append(ci.width)
                bucket["covered"].append(ci.ci_low <= true_tau <= ci.ci_high)
    table = ValidationTable(true_tau=true_tau, sim_replications=sim_replications)
    for est in estimator_ids:
        for method in methods:
            bucket = results[(est, method)]
            taus = np.array(bucket["tau"])
            n_ok = len(taus)
            table.rows.append(
                ValidationRow(
                    estimator=est,
                    method=method,
                    n_ok=n_ok,
                    n_failed=bucket["failed"],
                    mean_tau=float(taus.mean()) if n_ok else float("nan"),
                    bias=float(taus.mean() - true_tau) if n_ok else float("nan"),
                    mc_sd=float(taus.std(ddof=1)) if n_ok > 1 else float("nan"),
                    coverage=float(np.mean(bucket["covered"])) if n_ok else float("nan"),
                    median_ci_width=float(np.median(bucket["width"]))
                    if n_ok
                    else float("nan"),
                )
            )
    return table


# --- JSON config (CLI surface) -------------------------------------------


def sim_config_to_dict(config: SimConfig) -> dict:
    if isinstance(config.degree, FixedDegree):
        degree = {"kind": "fixed", "k": config.degree.k}
    else:
        degree = {"kind": "zipf", "s": config.degree.s, "k_max": config.degree.k_max}
    violation = None
    if config.violation is not None:
        kind, value = config.violation
        violation = {"kind": kind, ("gamma" if kind == "quadratic" else "t"): value}
    return {
        "m": config.m,
        "n": config.n,
        "degree": degree,
        "p_treat": config.p_treat,
        "alpha": [config.alpha_mean, config.alpha_sd],
        "beta": [config.beta_mean, config.beta_sd],
        "noise_sd": config.noise_sd,
        "noise_mode": config.noise_mode,
        "pre_corr": config.pre_corr,
        "violation": violation,
        "favorite_rates": list(config.favorite_rates)
        if config.favorite_rates
        else None,
        "seed": config.seed,
    }


def _field(payload: dict, key: str, cast, default=None, where: str = "config"):
    """payload[key] converted by `cast`; a missing key without a default or
    a value `cast` rejects is a SimulationError."""
    if key not in payload:
        if default is None:
            raise SimulationError(f"{where} is missing {key!r}")
        return default
    try:
        return cast(payload[key])
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"{where} field {key!r}: {exc}") from None


def _pair(value, key: str) -> tuple[float, float]:
    """A two-number list such as [mean, sd] as a pair of floats."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SimulationError(f"config field {key!r} must be a list of two numbers")
    try:
        return float(value[0]), float(value[1])
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"config field {key!r}: {exc}") from None


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SimulationError(f"{where} must be a JSON object")
    return value


def sim_config_from_dict(payload: dict) -> SimConfig:
    payload = _object(payload, "simulation config")
    degree_raw = _object(payload.get("degree", {"kind": "fixed", "k": 3}), "degree")
    kind = degree_raw.get("kind")
    if kind == "fixed":
        degree = FixedDegree(_field(degree_raw, "k", int, where="degree"))
    elif kind == "zipf":
        degree = ZipfDegree(
            _field(degree_raw, "s", float, where="degree"),
            _field(degree_raw, "k_max", int, where="degree"),
        )
    else:
        raise SimulationError(f"unknown degree kind {kind!r}")
    violation = None
    v_raw = payload.get("violation")
    if v_raw is not None:
        v_raw = _object(v_raw, "violation")
        kind = v_raw.get("kind")
        if kind == "quadratic":
            violation = ("quadratic", _field(v_raw, "gamma", float, where="violation"))
        elif kind == "threshold":
            violation = ("threshold", _field(v_raw, "t", float, where="violation"))
        else:
            raise SimulationError(f"unknown violation kind {kind!r}")
    alpha_mean, alpha_sd = _pair(payload.get("alpha", (0.0, 1.0)), "alpha")
    beta_mean, beta_sd = _pair(payload.get("beta", (1.0, 0.25)), "beta")
    fav = payload.get("favorite_rates")
    return SimConfig(
        m=_field(payload, "m", int),
        n=_field(payload, "n", int),
        degree=degree,
        p_treat=_field(payload, "p_treat", float, 0.5),
        alpha_mean=alpha_mean,
        alpha_sd=alpha_sd,
        beta_mean=beta_mean,
        beta_sd=beta_sd,
        noise_sd=_field(payload, "noise_sd", float, 1.0),
        noise_mode=payload.get("noise_mode", "homoskedastic"),
        pre_corr=_field(payload, "pre_corr", float, 0.5),
        violation=violation,
        favorite_rates=_pair(fav, "favorite_rates") if fav else None,
        seed=_field(payload, "seed", int, 0),
    )


def load_sim_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return sim_config_from_dict(json.load(fh))
