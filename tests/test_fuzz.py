"""Seeded fuzz of the command line, replayed in process from a fixed list of
seeds: each seed mutates the analyze3 fixture's inputs or a small simulation
config and runs `cli.main`. Every run must end in exit 0, 1 or 2, with
exactly one `error:` line on stderr when it exits 1 and none otherwise, and
no exception may escape `main`. A `simulate` that exits 0 must have written
files that the parsers read back.

Sizes are kept either small or above simulator.SIZE_MAX, so no run
allocates for a size before the size check refuses it.
"""

import json
import random
import shutil
import warnings
from pathlib import Path

import pytest

from bipartite_ab.cli import main
from bipartite_ab.ingest import parse_assignments, parse_events, parse_outcomes
from bipartite_ab.simulator import SIZE_MAX

FIXTURE = Path(__file__).parent / "data" / "analyze3"
FILES = ("events.csv", "assignments.csv", "outcomes.csv", "assignments.design.json")
# bytes that split, quote, end or corrupt a CSV cell or a JSON token
BYTES = [b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"-", b".", b"e", b"9", b" ", b"{", b""]
# values a config or design field is set to: non-finite and huge floats,
# booleans, strings, containers, and counts that are small or above SIZE_MAX
VALUES = [1e308, -1e308, float("nan"), float("inf"), -1, 0, 1, 2, 2.5, 0.5, True, None,
          "7", [], {}, SIZE_MAX + 1, 10**30, 10**400]
BASE_CONFIGS = [
    {"m": 50, "n": 20, "degree": {"kind": "fixed", "k": 3}, "alpha": [0.0, 1.0],
     "beta": [1.0, 0.25]},
    {"m": 40, "n": 15, "degree": {"kind": "zipf", "s": 2.0, "k_max": 6},
     "violation": {"kind": "quadratic", "gamma": 0.3}, "favorite_rates": [0.1, 0.5]},
    {"m": 30, "n": 12, "degree": {"kind": "fixed", "k": 2}, "noise_mode": "exposure_scaled",
     "violation": {"kind": "threshold", "t": 0.4}},
]
# paths into a config: a key, or a key and the key or index below it
CONFIG_FIELDS = [("m",), ("n",), ("p_treat",), ("noise_sd",), ("pre_corr",), ("seed",),
                 ("noise_mode",), ("alpha",), ("alpha", 0), ("alpha", 1), ("beta", 1),
                 ("degree",), ("degree", "kind"), ("degree", "k"), ("degree", "s"),
                 ("degree", "k_max"), ("violation",), ("violation", "gamma"),
                 ("violation", "t"), ("favorite_rates",), ("favorite_rates", 0)]
SEEDS = range(48)


def run(argv, capsys):
    """main(argv)'s exit code, after checking its stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{type(exc).__name__} escaped main on {argv}: {exc!r}")
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert code in (0, 1, 2), argv
    assert len(errors) == (code == 1), (argv, errors)
    return code


def mutate_bytes(rng, data: bytes) -> bytes:
    """One to three byte edits: a replacement, an insertion, a truncation,
    a dropped or a repeated line."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        edit = rng.choice(("replace", "insert", "truncate", "drop", "repeat"))
        if edit == "replace":
            data = data[:at] + rng.choice(BYTES) + data[at + 1:]
        elif edit == "insert":
            data = data[:at] + rng.choice(BYTES) * rng.randint(1, 3) + data[at:]
        elif edit == "truncate":
            data = data[:at]
        else:
            lines = data.split(b"\n")
            k = rng.randrange(len(lines))
            lines[k:k + 1] = [] if edit == "drop" else [lines[k], lines[k]]
            data = b"\n".join(lines)
    return data


def mutate_design(rng, text: str) -> str:
    """The design JSON with one variant field set to a VALUES entry."""
    design = json.loads(text)
    variant = rng.choice(design["variants"])
    variant[rng.choice(("label", "probability", "control"))] = rng.choice(VALUES)
    return json.dumps(design)


def mutate_config(rng) -> dict:
    """A base config with one or two of its fields set to VALUES entries."""
    config = json.loads(json.dumps(rng.choice(BASE_CONFIGS)))
    for _ in range(rng.randint(1, 2)):
        *parents, key = rng.choice(CONFIG_FIELDS)
        target = config
        for parent in parents:
            target = target.get(parent) if isinstance(target, dict) else None
        if isinstance(target, dict) or isinstance(target, list) and isinstance(key, int):
            target[key] = rng.choice(VALUES)
    return config


def run_config(tmp_path, capsys, config: dict):
    """simulate, then validate, on `config`; a simulate that exits 0 must
    have written files the parsers read."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sim"
    if run(["simulate", "--config", path, "--out", out], capsys) == 0:
        assignments = parse_assignments(out / "assignments.csv")
        parse_outcomes(out / "outcomes.csv")
        parse_events(out / "events.csv", frozenset({"view", "favorite"}), (0, 2**62))
        assert len(assignments.labels) == 2
    run(["validate", "--config", path, "--estimators", "erl,reg", "--methods",
         "bootstrap,randomization", "--replications", 2, "--ci-replications", 200,
         "--out", tmp_path / "val"], capsys)


@pytest.mark.parametrize("noise_sd", [1e308, float("nan")])
def test_config_with_unusable_noise_is_one_error_line(tmp_path, capsys, noise_sd):
    run_config(tmp_path, capsys, {"m": 50, "n": 20, "noise_sd": noise_sd})


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_config(tmp_path, capsys, seed):
    run_config(tmp_path, capsys, mutate_config(random.Random(seed)))


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_analyze_inputs(tmp_path, capsys, seed):
    rng = random.Random(seed)
    for name in FILES:
        shutil.copyfile(FIXTURE / name, tmp_path / name)
    target = tmp_path / rng.choice(FILES)
    if target.suffix == ".json" and rng.random() < 0.5:
        target.write_text(mutate_design(rng, target.read_text()))
    else:
        target.write_bytes(mutate_bytes(rng, target.read_bytes()))
    methods = rng.choice(("bootstrap", "pairwise", "randomization,pairwise"))
    run(["analyze", "--events", tmp_path / "events.csv",
         "--assignments", tmp_path / "assignments.csv",
         "--outcomes", tmp_path / "outcomes.csv", "--treatment", "A", "--control", "Off",
         "--kinds", "view", "--kinds", "view,favorite", "--estimators", "erl,crerl",
         "--methods", methods, "--replications", 200, "--seed", seed,
         "--allow-missing-outcomes", "--out", tmp_path / "out"], capsys)
