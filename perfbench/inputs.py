"""Seeded input generation for the benchmark workloads.

Inputs come from this file's own numpy code, never from the package's
simulator, so a change to the package's RNG use cannot change the bytes a
workload reads. Files are cached per (workload, seed) under
``.bench_data/`` in the checkout and verified by sha256 on every reuse.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# Bump when the generator's output changes; it is part of the cache key.
GENERATOR_VERSION = 1

KIND_NAMES = ("view", "favorite", "message")
CHUNK_ROWS = 200_000
KEEP_CACHED = 6  # input directories kept per workload, most recently used first


@dataclass
class AnalyzeInputs:
    """Raw arrays behind one analyze workload; events are in file order."""

    buyer: np.ndarray  # int buyer number per event, id "b%06d"
    seller: np.ndarray  # int seller number per event, id "s%06d"
    kind: np.ndarray  # index into KIND_NAMES per event
    timestamp: np.ndarray
    variant: np.ndarray  # index into labels per buyer 0..m-1
    labels: tuple
    probabilities: tuple
    y_in: np.ndarray  # outcome per seller 0..n-1
    m: int
    n: int


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence([tag, seed]))


def _outcomes(rng, buyer, seller, variant, treated_code, m, n):
    """Linear exposure-response outcomes y = alpha + beta * h + noise, with h
    the count-proportional treated share over all of a seller's events."""
    counts = sp.csr_matrix(
        (np.ones(len(buyer)), (seller, buyer)), shape=(n, m)
    )
    row = np.asarray(counts.sum(axis=1)).ravel()
    h = counts @ (variant == treated_code).astype(np.float64)
    h = np.divide(h, row, out=np.zeros(n), where=row > 0)
    alpha = rng.normal(0.0, 1.0, n)
    beta = rng.normal(0.5, 0.1, n)
    return alpha + beta * h + rng.normal(0.0, 1.0, n)


def analyze_1m(seed: int) -> AnalyzeInputs:
    """1M events, 100k buyers, 50k sellers, three variants Off/A/B.

    Seller degree is heavy-tailed (Pareto weights, mean 20 events per
    seller, every seller at least one event), buyer activity is lognormal,
    and 30 % of events repeat an earlier buyer of the same seller. Kinds:
    20 % favorite, 2 % message (known but never selected, so parse drops
    them), the rest view.
    """
    rng = _rng("analyze-1m", seed)
    m, n, e = 100_000, 50_000, 1_000_000
    seller_w = rng.pareto(1.5, n) + 1.0
    deg = 1 + rng.multinomial(e - n, seller_w / seller_w.sum())
    seller = np.repeat(np.arange(n), deg)
    buyer_w = rng.lognormal(0.0, 1.0, m)
    buyer = rng.choice(m, size=e, p=buyer_w / buyer_w.sum())
    start = np.repeat(np.cumsum(deg) - deg, deg)
    source = start + (rng.random(e) * np.repeat(deg, deg)).astype(np.int64)
    repeat = rng.random(e) < 0.3
    buyer = np.where(repeat, buyer[source], buyer)
    u = rng.random(e)
    kind = np.where(u < 0.20, 1, np.where(u < 0.22, 2, 0))
    order = rng.permutation(e)
    buyer, seller, kind = buyer[order], seller[order], kind[order]
    timestamp = 1_700_000_000_000 + np.cumsum(rng.integers(0, 50, e))
    probabilities = (0.4, 0.3, 0.3)
    variant = rng.choice(3, size=m, p=probabilities)
    selected = kind != 2
    y_in = _outcomes(rng, buyer[selected], seller[selected], variant, 1, m, n)
    return AnalyzeInputs(
        buyer, seller, kind, timestamp, variant, ("Off", "A", "B"),
        probabilities, y_in, m, n,
    )


def pairwise_exact(seed: int) -> AnalyzeInputs:
    """2400 buyers, 1200 sellers, 8 view events per seller with buyers drawn
    with replacement (about 19k overlapping seller pairs); design Off/On
    at 50/50."""
    rng = _rng("pairwise-exact", seed)
    m, n, k = 2400, 1200, 8
    seller = np.repeat(np.arange(n), k)
    buyer = rng.integers(0, m, n * k)
    order = rng.permutation(n * k)
    buyer, seller = buyer[order], seller[order]
    kind = np.zeros(n * k, dtype=np.int64)
    timestamp = 1_700_000_000_000 + np.cumsum(rng.integers(0, 50, n * k))
    probabilities = (0.5, 0.5)
    variant = (rng.random(m) < 0.5).astype(np.int64)
    y_in = _outcomes(rng, buyer, seller, variant, 1, m, n)
    return AnalyzeInputs(
        buyer, seller, kind, timestamp, variant, ("Off", "On"),
        probabilities, y_in, m, n,
    )


def validate_config(seed: int) -> dict:
    """The acceptance coverage study's experiment: m=800, n=200, FixedDegree(3),
    beta 0.3 +/- 0.1, noise 0.5, pre_corr 0.6."""
    return {
        "m": 800,
        "n": 200,
        "degree": {"kind": "fixed", "k": 3},
        "beta": [0.3, 0.1],
        "noise_sd": 0.5,
        "pre_corr": 0.6,
        "seed": seed,
    }


def _write_chunks(path: Path, header: str, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for chunk in rows:
            fh.write("".join(chunk))


def _event_lines(inp: AnalyzeInputs):
    for lo in range(0, len(inp.buyer), CHUNK_ROWS):
        hi = lo + CHUNK_ROWS
        yield [
            f"b{b:06d},s{s:06d},{KIND_NAMES[k]},{t}\n"
            for b, s, k, t in zip(
                inp.buyer[lo:hi].tolist(),
                inp.seller[lo:hi].tolist(),
                inp.kind[lo:hi].tolist(),
                inp.timestamp[lo:hi].tolist(),
            )
        ]


def write_analyze_files(inp: AnalyzeInputs, out: Path):
    _write_chunks(out / "events.csv", "buyer_id,seller_id,event_kind,timestamp_ms\n",
                  _event_lines(inp))
    labels = inp.labels
    _write_chunks(out / "assignments.csv", "buyer_id,variant\n", [[
        f"b{b:06d},{labels[v]}\n" for b, v in enumerate(inp.variant.tolist())
    ]])
    design = {
        "variants": [
            {"label": label, "probability": p, "control": i == 0}
            for i, (label, p) in enumerate(zip(labels, inp.probabilities))
        ]
    }
    (out / "assignments.design.json").write_text(
        json.dumps(design, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_chunks(out / "outcomes.csv", "seller_id,y_in\n", [[
        f"s{s:06d},{y!r}\n" for s, y in enumerate(inp.y_in.tolist())
    ]])


def write_validate_files(config: dict, out: Path):
    (out / "config.json").write_text(
        json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def file_digest(paths) -> str:
    """One sha256 over the named files' names and bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(paths, key=lambda p: p.name):
        h.update(p.name.encode() + b"\0")
        with open(p, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def prepare(workload: str, seed: int, root: Path):
    """Generate (or reuse) the workload's input files under `root`.

    Returns (directory, arrays or config, sha256 digest, reused flag). A
    cached directory is reused only when its files still hash to the
    digest recorded when they were written.
    """
    out = root / f"{workload}-v{GENERATOR_VERSION}-seed{seed}"
    if workload == "validate-small":
        data = validate_config(seed)
        write = write_validate_files
    else:
        data = {"analyze-1m": analyze_1m, "pairwise-exact": pairwise_exact}[workload](seed)
        write = write_analyze_files
    manifest = out / "manifest.json"
    if manifest.exists():
        recorded = json.loads(manifest.read_text(encoding="utf-8"))
        files = [out / name for name in recorded["files"]]
        if all(f.exists() for f in files) and file_digest(files) == recorded["sha256"]:
            manifest.touch()
            return out, data, recorded["sha256"], True
    out.mkdir(parents=True, exist_ok=True)
    manifest.unlink(missing_ok=True)
    write(data, out)
    files = sorted(p for p in out.iterdir() if p.name != "manifest.json")
    digest = file_digest(files)
    manifest.write_text(
        json.dumps({"files": [p.name for p in files], "sha256": digest}) + "\n",
        encoding="utf-8",
    )
    _prune(root, workload)
    return out, data, digest, False


def _prune(root: Path, workload: str):
    """Delete all but the KEEP_CACHED most recently used input directories."""
    def last_used(d):
        m = d / "manifest.json"
        return m.stat().st_mtime if m.exists() else 0.0

    dirs = sorted(root.glob(f"{workload}-v*-seed*"), key=last_used, reverse=True)
    for stale in dirs[KEEP_CACHED:]:
        shutil.rmtree(stale, ignore_errors=True)
