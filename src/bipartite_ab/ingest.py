"""Parsing and validation of event logs, assignments, and outcome tables.

File formats (all UTF-8 CSV with declared headers):

* Events:      ``buyer_id,seller_id,event_kind,timestamp_ms``
* Assignments: ``buyer_id,variant`` plus a sidecar design JSON
  ``{"variants": [{"label": "Off", "probability": 0.5, "control": true}, ...]}``
* Outcomes:    ``seller_id,y_in[,y_pre]``

Parsing is deterministic and never coerces silently: every dropped or
skipped row increments a counter on the returned report.

Events are parsed once into an `EventLog` of integer-coded columns in file
order: `buyer`, `seller` and `kind` codes into the sorted vocabularies
`buyers`, `sellers` and `kinds`, and an int64 `timestamp`. No per-event
object is made; the graph is built from the codes with sparse matrices.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

DEFAULT_EVENT_KINDS = frozenset(
    {"view", "favorite", "message", "offer", "purchase", "profile_visit"}
)

EVENTS_HEADER = ["buyer_id", "seller_id", "event_kind", "timestamp_ms"]
ASSIGNMENTS_HEADER = ["buyer_id", "variant"]

PROB_SUM_TOL = 1e-9


class IngestError(ValueError):
    """Base class for ingestion failures."""


class ParseError(IngestError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class EventLog:
    """Timestamped buyer-to-seller interactions as integer-coded columns.

    Event k is buyer `buyers[buyer[k]]` interacting with seller
    `sellers[seller[k]]` by kind `kinds[kind[k]]` at `timestamp[k]` ms.
    The vocabularies are sorted and hold only ids some event uses.
    """

    buyers: tuple[str, ...]
    sellers: tuple[str, ...]
    kinds: tuple[str, ...]
    buyer: np.ndarray
    seller: np.ndarray
    kind: np.ndarray
    timestamp: np.ndarray

    @classmethod
    def from_codes(cls, buyers, sellers, kinds, buyer, seller, kind, timestamp):
        """Log from codes into id lists in any order (first seen, say): each
        vocabulary keeps the ids its codes use, sorted, and the codes are
        renumbered into it."""
        vocabularies, codes = [], []
        for ids, column in ((buyers, buyer), (sellers, seller), (kinds, kind)):
            column = np.asarray(column, dtype=np.int64)
            used = np.flatnonzero(np.bincount(column, minlength=len(ids)))
            order = sorted(used.tolist(), key=ids.__getitem__)
            remap = np.empty(len(ids), dtype=np.int64)
            remap[order] = np.arange(len(order))
            vocabularies.append(tuple(ids[i] for i in order))
            codes.append(remap[column])
        return cls(*vocabularies, *codes, np.asarray(timestamp, dtype=np.int64))

    def __len__(self):
        return len(self.timestamp)


@dataclass
class EventParseReport:
    rows_read: int = 0
    rows_kept: int = 0
    dropped_kind: int = 0
    dropped_window: int = 0
    dropped_unknown_kind: int = 0

    @property
    def rows_dropped(self) -> int:
        return self.dropped_kind + self.dropped_window + self.dropped_unknown_kind


@dataclass(frozen=True)
class Variant:
    label: str
    probability: float
    control: bool = False


class AssignmentTable:
    """Buyer -> variant mapping together with the randomization design."""

    def __init__(self, entries: dict[str, str], variants: Sequence[Variant]):
        self.entries = dict(entries)
        self.variants = list(variants)
        self._validate()
        self._prob = {v.label: v.probability for v in self.variants}

    def _validate(self):
        labels = [v.label for v in self.variants]
        if len(set(labels)) != len(labels):
            raise IngestError("duplicate variant labels in design")
        controls = [v.label for v in self.variants if v.control]
        if len(controls) != 1:
            raise IngestError(
                f"exactly one control variant required, found {controls!r}"
            )
        total = math.fsum(v.probability for v in self.variants)
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise IngestError(f"variant probabilities sum to {total!r}, expected 1")
        for v in self.variants:
            if not 0.0 < v.probability < 1.0:
                raise IngestError(
                    f"variant {v.label!r} has probability {v.probability} outside (0,1)"
                )
        known = set(labels)
        for buyer, variant in self.entries.items():
            if variant not in known:
                raise IngestError(
                    f"buyer {buyer!r} assigned to undeclared variant {variant!r}"
                )

    @property
    def control_label(self) -> str:
        return next(v.label for v in self.variants if v.control)

    @property
    def labels(self) -> list[str]:
        return [v.label for v in self.variants]

    def probability(self, label: str) -> float:
        try:
            return self._prob[label]
        except KeyError:
            raise IngestError(f"unknown variant {label!r}") from None

    def indicator(self, buyers: Sequence[str], treatment: str) -> np.ndarray:
        """0/1 vector marking buyers assigned to `treatment`, in given order."""
        if treatment not in self._prob:
            raise IngestError(f"unknown variant {treatment!r}")
        return np.array(
            [1.0 if self.entries.get(b) == treatment else 0.0 for b in buyers]
        )

    def __len__(self):
        return len(self.entries)


class OutcomeTable:
    """Seller -> (y_in, y_pre) outcomes; y_pre column is optional."""

    def __init__(self, entries: dict[str, tuple[float, float | None]], has_pre: bool):
        self.entries = dict(entries)
        self.has_pre = has_pre

    def __len__(self):
        return len(self.entries)

    def __contains__(self, seller_id):
        return seller_id in self.entries

    def y_in(self, seller_id: str) -> float:
        return self.entries[seller_id][0]

    def y_pre(self, seller_id: str) -> float | None:
        return self.entries[seller_id][1]


def _open_csv(path):
    return open(path, "r", encoding="utf-8", newline="")


def _check_header(path, header, expected, optional_tail=()):
    if header is None:
        raise ParseError(path, 1, "empty file, expected header")
    if header[: len(expected)] != expected:
        raise ParseError(path, 1, f"bad header {header!r}, expected {expected!r}")
    extra = header[len(expected):]
    if list(extra) not in ([list(t) for t in optional_tail] + [[]]):
        raise ParseError(path, 1, f"unexpected trailing columns {extra!r}")
    return len(extra) > 0


def parse_events(
    path,
    kind_filter: Iterable[str],
    window: tuple[int, int],
    known_kinds: Iterable[str] = DEFAULT_EVENT_KINDS,
) -> tuple[EventLog, EventParseReport]:
    """Parse an events CSV, keeping rows with kind in `kind_filter` and
    timestamp in the inclusive window [t0, t1].

    Returns the kept events in file order plus a report counting every
    dropped row. Rows whose kind is outside `known_kinds` are skipped with
    a warning; malformed rows raise ParseError with the line number.
    """
    kind_filter = set(kind_filter)
    known = set(known_kinds) | kind_filter
    t0, t1 = window
    buyer_ids, seller_ids, kind_ids = {}, {}, {}  # id -> first-seen code
    buyer, seller, kind, timestamp = (array("q") for _ in range(4))
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(path, header, EVENTS_HEADER)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(path, line_no, f"expected 4 columns, got {len(row)}")
            buyer_id, seller_id, kind_id, ts_raw = row
            if not buyer_id or not seller_id:
                raise ParseError(path, line_no, "empty buyer_id or seller_id")
            try:
                timestamp.append(int(ts_raw))
            except (ValueError, OverflowError) as exc:
                what = "non-integer" if isinstance(exc, ValueError) else "non-int64"
                raise ParseError(path, line_no, f"{what} timestamp {ts_raw!r}") from None
            if kind_id not in known:
                warnings.warn(
                    f"{path}:{line_no}: unknown event kind {kind_id!r}, skipped",
                    stacklevel=2,
                )
            buyer.append(buyer_ids.setdefault(buyer_id, len(buyer_ids)))
            seller.append(seller_ids.setdefault(seller_id, len(seller_ids)))
            kind.append(kind_ids.setdefault(kind_id, len(kind_ids)))
    buyer, seller, kind, timestamp = (
        np.frombuffer(c, dtype=np.int64) for c in (buyer, seller, kind, timestamp)
    )
    kinds = list(kind_ids)
    is_known = np.isin(kind, [c for c, k in enumerate(kinds) if k in known])
    selected = np.isin(kind, [c for c, k in enumerate(kinds) if k in kind_filter])
    in_window = (t0 <= timestamp) & (timestamp <= t1)
    keep = selected & in_window
    report = EventParseReport(
        rows_read=len(kind),
        rows_kept=int(keep.sum()),
        dropped_kind=int((is_known & ~selected).sum()),
        dropped_window=int((selected & ~in_window).sum()),
        dropped_unknown_kind=int((~is_known).sum()),
    )
    events = EventLog.from_codes(
        list(buyer_ids), list(seller_ids), kinds,
        buyer[keep], seller[keep], kind[keep], timestamp[keep],
    )
    return events, report


def default_design_path(assignments_path) -> Path:
    """Sidecar convention: assignments `foo.csv` -> design `foo.design.json`."""
    p = Path(assignments_path)
    return p.with_suffix(".design.json")


def parse_design(path) -> list[Variant]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    raw = payload.get("variants") if isinstance(payload, dict) else None
    if not isinstance(raw, list):
        raise IngestError(f"{path}: design JSON must contain a 'variants' list")
    variants = []
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise IngestError(f"{path}: variant {k} is not an object: {entry!r}")
        missing = [key for key in ("label", "probability") if key not in entry]
        if missing:
            raise IngestError(f"{path}: variant {k} has no {' or '.join(missing)}")
        try:
            probability = float(entry["probability"])
        except (TypeError, ValueError):
            raise IngestError(
                f"{path}: variant {k} has non-numeric probability "
                f"{entry['probability']!r}"
            ) from None
        control = entry.get("control", False)
        if not isinstance(control, bool):
            raise IngestError(f"{path}: variant {k} has non-boolean control {control!r}")
        variants.append(
            Variant(label=str(entry["label"]), probability=probability, control=control)
        )
    return variants


def parse_assignments(path, design_path=None) -> AssignmentTable:
    """Parse an assignments CSV plus its sidecar design JSON.

    Duplicate buyers and probabilities not summing to one are hard errors:
    both break randomization integrity.
    """
    if design_path is None:
        design_path = default_design_path(path)
    variants = parse_design(design_path)
    entries: dict[str, str] = {}
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(path, header, ASSIGNMENTS_HEADER)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(path, line_no, f"expected 2 columns, got {len(row)}")
            buyer_id, variant = row
            if not buyer_id:
                raise ParseError(path, line_no, "empty buyer_id")
            if buyer_id in entries:
                raise ParseError(
                    path, line_no, f"buyer {buyer_id!r} assigned more than once"
                )
            entries[buyer_id] = variant
    return AssignmentTable(entries, variants)


def parse_outcomes(path) -> OutcomeTable:
    """Parse an outcomes CSV; the y_pre column is optional.

    Non-finite outcome values (NaN/inf) are hard errors: downstream
    estimators require finite reals.
    """
    entries: dict[str, tuple[float, float | None]] = {}
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        has_pre = _check_header(
            path, header, ["seller_id", "y_in"], optional_tail=(("y_pre",),)
        )
        width = 3 if has_pre else 2
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    path, line_no, f"expected {width} columns, got {len(row)}"
                )
            seller_id = row[0]
            if not seller_id:
                raise ParseError(path, line_no, "empty seller_id")
            if seller_id in entries:
                raise ParseError(
                    path, line_no, f"seller {seller_id!r} appears more than once"
                )
            try:
                y_in = float(row[1])
            except ValueError:
                raise ParseError(path, line_no, f"non-numeric y_in {row[1]!r}") from None
            if not math.isfinite(y_in):
                raise ParseError(path, line_no, f"non-finite y_in {row[1]!r}")
            y_pre: float | None = None
            if has_pre:
                cell = row[2]
                if cell != "":
                    try:
                        y_pre = float(cell)
                    except ValueError:
                        raise ParseError(
                            path, line_no, f"non-numeric y_pre {cell!r}"
                        ) from None
                    if not math.isfinite(y_pre):
                        raise ParseError(path, line_no, f"non-finite y_pre {cell!r}")
            entries[seller_id] = (y_in, y_pre)
    return OutcomeTable(entries, has_pre)


# --- writers (used by the simulator and for round-trip tests) ---


def write_events(path, events: EventLog):
    ids = [
        np.array(vocabulary, dtype=object)[codes].tolist()
        for vocabulary, codes in zip(
            (events.buyers, events.sellers, events.kinds),
            (events.buyer, events.seller, events.kind),
        )
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENTS_HEADER)
        writer.writerows(zip(*ids, events.timestamp.tolist()))


def write_assignments(path, table: AssignmentTable, design_path=None):
    if design_path is None:
        design_path = default_design_path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ASSIGNMENTS_HEADER)
        for buyer_id, variant in table.entries.items():
            writer.writerow([buyer_id, variant])
    payload = {
        "variants": [
            {"label": v.label, "probability": v.probability, "control": v.control}
            for v in table.variants
        ]
    }
    with open(design_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outcomes(path, table: OutcomeTable):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if table.has_pre:
            writer.writerow(["seller_id", "y_in", "y_pre"])
            for seller_id, (y_in, y_pre) in table.entries.items():
                writer.writerow(
                    [seller_id, repr(y_in), "" if y_pre is None else repr(y_pre)]
                )
        else:
            writer.writerow(["seller_id", "y_in"])
            for seller_id, (y_in, _) in table.entries.items():
                writer.writerow([seller_id, repr(y_in)])
