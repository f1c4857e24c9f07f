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
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import inference
from .exposure import ExposurePanel, assemble_panel, realized_exposure
from .graph import BipartiteGraph, build_graph
from .ingest import (
    AssignmentTable,
    EventLog,
    OutcomeTable,
    Variant,
    Vocabulary,
    csv_rows,
    write_assignments,
    write_events,
    write_outcomes,
)


class SimulationError(ValueError):
    pass


def _number(value, cast, key: str, where: str = "config"):
    """`value` as `cast` (int or float) gives it. Anything but a finite real number
    (a boolean, a string, None: refused before the cast) or a fraction where an int is
    due is a SimulationError naming `key`; a number too large for a float, its text."""
    try:
        if (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value) and (cast is float or int(value) == value)):
            return cast(value)
    except OverflowError as exc:
        raise SimulationError(f"{where} field {key!r}: {exc}") from None
    want = f"expected a finite {cast.__name__}, got {value!r}"
    raise SimulationError(f"{where} field {key!r}: {want}")


def _check_numbers(obj, where: str = "config"):
    """Put each int and float field of the frozen dataclass `obj` through
    _number, in place, named by its key in the JSON config."""
    for f in fields(obj):
        cast = {"int": int, "float": float}.get(f.type)
        if cast:
            key = f.metadata.get("key", f.name)
            object.__setattr__(obj, f.name, _number(getattr(obj, f.name), cast, key, where))


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


_DEGREE_KINDS = {"fixed": FixedDegree, "zipf": ZipfDegree}
# each violation kind's parameter, as the JSON config names it
_VIOLATION_KEYS = {"quadratic": "gamma", "threshold": "t"}
SIZE_MAX = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a simulated experiment; numbers are checked finite, cast
    to their type and held to their ranges, a value out of range naming its
    field. m, n and n times the degree (k, or ZipfDegree's k_max) may not
    exceed SIZE_MAX, checked before anything is allocated: the simulator
    builds an id string per buyer and seller (`_numbered`, in number order at
    any size) and up to n times the degree views, a gigabyte at the bound."""

    m: int = 200
    n: int = 150
    degree: FixedDegree | ZipfDegree = FixedDegree(3)
    p_treat: float = 0.5
    alpha_mean: float = field(default=0.0, metadata={"key": "alpha"})
    alpha_sd: float = field(default=1.0, metadata={"key": "alpha"})
    beta_mean: float = field(default=1.0, metadata={"key": "beta"})
    beta_sd: float = field(default=0.25, metadata={"key": "beta"})
    noise_sd: float = 1.0
    noise_mode: str = "homoskedastic"  # or "exposure_scaled"
    pre_corr: float = 0.5
    violation: tuple | None = None  # ("quadratic", gamma) | ("threshold", t)
    favorite_rates: tuple[float, float] | None = None  # (control, treated)
    seed: int = 0

    def __post_init__(self):
        _check_numbers(self.degree, "degree")
        _check_numbers(self)
        if self.favorite_rates is not None:
            rates = _pair(self.favorite_rates, "favorite_rates")
            object.__setattr__(self, "favorite_rates", rates)
        fixed = isinstance(self.degree, FixedDegree)
        degree, s = (self.degree.k, None) if fixed else (self.degree.k_max, self.degree.s)
        sd, unit, rates = "an sd of at least 0", "values in [0, 1]", self.favorite_rates or ()
        for where, key, value, ok, want in (
            ("config", "m", self.m, self.m >= 1, "at least 1"),
            ("config", "n", self.n, self.n >= 1, "at least 1"),
            ("config", "seed", self.seed, self.seed >= 0, "at least 0"),
            ("degree", "k" if fixed else "k_max", degree, degree >= 1, "at least 1"),
            ("degree", "k", degree, not fixed or degree <= self.m, f"at most m = {self.m}"),
            ("degree", "s", s, fixed or s > 1.0, "above 1"),
            ("config", "p_treat", self.p_treat, 0.0 < self.p_treat < 1.0, "a value in (0, 1)"),
            ("config", "pre_corr", self.pre_corr, 0.0 <= self.pre_corr <= 1.0, unit),
            ("config", "alpha", self.alpha_sd, self.alpha_sd >= 0.0, sd),
            ("config", "beta", self.beta_sd, self.beta_sd >= 0.0, sd),
            ("config", "noise_sd", self.noise_sd, self.noise_sd >= 0.0, sd),
            ("config", "favorite_rates", rates, all(0.0 <= r <= 1.0 for r in rates), unit),
        ):
            if not ok:
                raise SimulationError(f"{where} field {key!r}: expected {want}, got {value!r}")
        for name, size in (("m", self.m), ("n", self.n), ("n times the degree", self.n * degree)):
            if size > SIZE_MAX:
                raise SimulationError(f"{name} is {size}, above the limit {SIZE_MAX}")
        if self.noise_mode not in ("homoskedastic", "exposure_scaled"):
            raise SimulationError(f"unknown noise_mode {self.noise_mode!r}")
        if self.violation is not None:
            kind, *value = self.violation
            if kind not in _VIOLATION_KEYS or len(value) != 1:
                raise SimulationError(f"unknown violation {self.violation!r}")
            value = _number(value[0], float, _VIOLATION_KEYS[kind], "violation")
            object.__setattr__(self, "violation", (kind, value))


@dataclass
class SimTruth:
    true_tau: float
    alpha: np.ndarray
    beta: np.ndarray
    graph_seed_digest: str


@dataclass
class SimulatedExperiment:
    """One synthetic experiment plus the internals needed to re-randomize.
    Every seller has a view and every buyer is assigned, so the graph holds
    every seller and its row k is seller number k, which indexes eps, y_pre
    and the truth. The log, the assignments and the outcomes share one
    vocabulary per side."""

    config: SimConfig
    events: EventLog
    assignments: AssignmentTable
    outcomes: OutcomeTable
    truth: SimTruth
    graph: BipartiteGraph
    eps: np.ndarray
    y_pre: np.ndarray


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


# a config whose scales overflow float64 is refused once its outcomes are
# drawn, before anything is written: the overflow is an error, not a warning
@np.errstate(over="ignore", invalid="ignore")
def _make_outcomes(config, graph, assignments, truth, eps, y_pre):
    h = realized_exposure(graph, assignments, "On")
    y = np.column_stack((_seller_response(config, truth.alpha, truth.beta, h, eps), y_pre))
    if not np.isfinite(y).all():
        raise SimulationError("a simulated outcome or covariate is not finite: the "
                              "config's scales overflow float64")
    return OutcomeTable(graph.seller_vocabulary, y, has_pre=True)


def _numbered(prefix: str, count: int) -> Vocabulary:
    """The ids `prefix` + k for k < count, k zero-padded to 6 digits or to
    those of count - 1 when it has more: one width, so `str` order is number
    order."""
    width = max(6, len(str(count - 1)))
    return Vocabulary([f"{prefix}{k:0{width}d}" for k in range(count)], ordered=True)


_KINDS = Vocabulary(["favorite", "view"], ordered=True)


@np.errstate(over="ignore", invalid="ignore")
def simulate_experiment(
    config: SimConfig, out_dir: str | Path | None = None
) -> SimulatedExperiment:
    """Generate one experiment; optionally write the three ingest files plus
    truth.json into `out_dir`. Fully deterministic given config.seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    buyers, sellers = _numbered("b", config.m), _numbered("s", config.n)

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

    events = EventLog(buyers, sellers, _KINDS, view_buyer, view_seller,
                      np.ones(views, dtype=np.int64), np.arange(views))
    graph, _ = build_graph(events, assignments)  # of the views

    # "seller,buyer,weight;" per edge in the graph's order, the weight's
    # shortest repr, hashed as one string
    edge_digest = hashlib.sha256()
    for text in csv_rows(graph.edges(), ";"):
        edge_digest.update(text.encode())
    truth = SimTruth(true_tau=float(np.mean(beta)), alpha=alpha, beta=beta,
                     graph_seed_digest=edge_digest.hexdigest())

    # noise is part of the potential outcomes: drawn once, fixed across Z
    eps = _draw_noise(rng, config, realized_exposure(graph, assignments, "On"))
    outcomes = _make_outcomes(config, graph, assignments, truth, eps, y_pre)

    if config.favorite_rates is not None:
        # each view turns into a favorite with its buyer's variant's rate;
        # favorites follow the views, timestamped on from them
        rate_c, rate_t = config.favorite_rates
        rate = np.where(treated[view_buyer], rate_t, rate_c)
        rows = np.concatenate((np.arange(views), np.flatnonzero(rng.random(views) < rate)))
        events = EventLog(buyers, sellers, _KINDS, view_buyer[rows], view_seller[rows],
                          np.repeat([1, 0], [views, len(rows) - views]), np.arange(len(rows)))

    exp = SimulatedExperiment(config=config, events=events, assignments=assignments,
                              outcomes=outcomes, truth=truth, graph=graph, eps=eps, y_pre=y_pre)
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
    outcomes = _make_outcomes(exp.config, exp.graph, assignments, exp.truth, exp.eps, exp.y_pre)
    return replace(exp, assignments=assignments, outcomes=outcomes)


def experiment_panel(exp: SimulatedExperiment) -> ExposurePanel:
    panel, _ = assemble_panel(exp.graph, exp.assignments, exp.outcomes, "On")
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
        """One line per row, the fields in order; a float's str is its repr."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(f.name for f in fields(ValidationRow)) + "\n")
            for r in self.rows:
                fh.write(",".join(map(str, vars(r).values())) + "\n")

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


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array bit for bit, without the
    numpy.ma import it makes under numpy 2: the mean of the middle one or
    two values of the partition np.median makes, NaN if one is last."""
    n = len(x)
    x = np.partition(x, [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1])
    return float(x[-1] if np.isnan(x[-1]) else x[(n - 1) // 2 : n // 2 + 1].mean())


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
    the full estimator + CI pipeline each time. A pair counts a replicate
    as failed where its interval raised, as `analyze` records an error."""
    if sim_replications < 1:
        raise SimulationError(f"--replications must be >= 1, got {sim_replications}")
    inference.check_request(
        estimator_ids, methods, ci_replications, level, seed, "--ci-replications"
    )
    base = simulate_experiment(config)
    true_tau = base.truth.true_tau
    # per pair, each replicate's interval, None where it failed
    buckets = {(e, m): [] for e in estimator_ids for m in methods}
    for rep in range(sim_replications):
        rep_seed = seed * 1_000_003 + rep
        exp = rerandomize(base, seed=rep_seed)
        for est, method, ci in inference.intervals(
            experiment_panel(exp), exp.graph, estimator_ids, methods,
            ci_replications, rep_seed, level,
        ):
            buckets[est, method].append(None if isinstance(ci, ValueError) else ci)
    table = ValidationTable(true_tau=true_tau, sim_replications=sim_replications)
    for (est, method), bucket in buckets.items():
        ok = [ci for ci in bucket if ci is not None]
        taus, n_ok, nan = np.array([ci.point.tau_hat for ci in ok]), len(ok), float("nan")
        table.rows.append(ValidationRow(
            estimator=est, method=method, n_ok=n_ok, n_failed=len(bucket) - n_ok,
            mean_tau=float(taus.mean()) if n_ok else nan,
            bias=float(taus.mean() - true_tau) if n_ok else nan,
            mc_sd=float(taus.std(ddof=1)) if n_ok > 1 else nan,
            coverage=float(np.mean([ci.ci_low <= true_tau <= ci.ci_high for ci in ok]))
            if n_ok else nan,
            median_ci_width=_median(np.array([ci.width for ci in ok])) if n_ok else nan,
        ))
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
        violation = {"kind": kind, _VIOLATION_KEYS[kind]: value}
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


def _field(payload: dict, key: str, where: str = "config"):
    """payload[key]; a missing key is a SimulationError. The dataclass the
    value goes to checks the number."""
    if key not in payload:
        raise SimulationError(f"{where} is missing {key!r}")
    return payload[key]


def _pair(value, key: str) -> tuple[float, float]:
    """A two-number list such as [mean, sd] as a pair of floats."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SimulationError(f"config field {key!r} must be a list of two numbers")
    return _number(value[0], float, key), _number(value[1], float, key)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SimulationError(f"{where} must be a JSON object")
    return value


def sim_config_from_dict(payload: dict) -> SimConfig:
    """The SimConfig of a JSON config: m and n are required, and a key the
    config leaves out takes SimConfig's default."""
    payload = _object(payload, "simulation config")
    settings = {key: payload[key] for key in
                ("p_treat", "noise_sd", "noise_mode", "pre_corr", "seed") if key in payload}
    if "degree" in payload:
        degree_raw = _object(payload["degree"], "degree")
        kind = degree_raw.get("kind")
        if kind not in _DEGREE_KINDS:
            raise SimulationError(f"unknown degree kind {kind!r}")
        settings["degree"] = _DEGREE_KINDS[kind](*(
            _field(degree_raw, f.name, where="degree") for f in fields(_DEGREE_KINDS[kind])))
    v_raw = payload.get("violation")
    if v_raw is not None:
        v_raw = _object(v_raw, "violation")
        kind = v_raw.get("kind")
        if kind not in _VIOLATION_KEYS:
            raise SimulationError(f"unknown violation kind {kind!r}")
        settings["violation"] = (kind, _field(v_raw, _VIOLATION_KEYS[kind], where="violation"))
    for key in ("alpha", "beta"):
        if key in payload:
            settings[f"{key}_mean"], settings[f"{key}_sd"] = _pair(payload[key], key)
    return SimConfig(m=_field(payload, "m"), n=_field(payload, "n"),
                     favorite_rates=payload.get("favorite_rates"), **settings)


def load_sim_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return sim_config_from_dict(json.load(fh))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SimulationError(f"{path}: config file is not valid JSON: {exc}") from None
