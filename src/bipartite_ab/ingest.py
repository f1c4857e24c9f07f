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

The events file is tokenized as bytes, BLOCK_BYTES of whole lines at a
time, with numpy and no Python per row: LF or CRLF line ends, blank lines
skipped, exactly three commas per line. Ids are coded by their bytes and
each distinct id is decoded once; timestamps of an optional '-' and up to
18 ASCII digits are converted by numpy and every other cell by `int()` on
its decoded text. A file holding a quote or a CR that does not end a CRLF
is read by the csv module instead. Both paths give the same codes,
counters, warnings and errors: errors are decided in file order, and a line
is checked for invalid UTF-8, then its column count, then empty ids, then
its timestamp. Only the csv module limits a field's length.
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

BLOCK_BYTES = 1 << 20  # bytes of whole lines tokenized at a time
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_TS_DIGITS = 18  # at most 18 decimal digits always fit in an int64
# _WORD_MASK[k] keeps the first k bytes of a little-endian uint64 word
_WORD_MASK = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)


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


def _csv_records(path, lines):
    """(line_no, row) for each record csv.reader reads from `lines`, the
    header being 1; a csv.Error, such as a field over the csv module's size
    limit, becomes a ParseError naming its record, and invalid UTF-8 one
    naming the first line that does not decode."""
    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(lines), start=1):
            yield line_no, row
    except csv.Error as exc:
        raise ParseError(path, line_no + 1, f"unreadable CSV record: {exc}") from None
    except UnicodeDecodeError:
        # a text-mode reader decodes ahead of the records: find the line
        with open(path, "rb") as fh:
            for line_no, line in enumerate(fh.read().splitlines(), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise _utf8_error(path, line_no, exc) from None
        raise


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
    tokens = _tokenize_unquoted(path)
    if tokens is None:
        tokens = _tokenize_quoted(path)
    kinds, kind, timestamp = tokens.kinds, tokens.kind, tokens.timestamp
    is_known = np.isin(kind, [c for c, k in enumerate(kinds) if k in known])
    unknown = np.flatnonzero(~is_known)
    lines = unknown + 2 + np.searchsorted(tokens.blank_rows, unknown, side="right")
    for line_no, code in zip(lines.tolist(), kind[unknown].tolist()):
        warnings.warn(
            f"{path}:{line_no}: unknown event kind {kinds[code]!r}, skipped",
            stacklevel=2,
        )
    if tokens.error is not None:
        raise tokens.error
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
    vocabularies = (tokens.buyers, tokens.sellers, kinds)
    kept = [c[keep] for c in (tokens.buyer, tokens.seller, kind, timestamp)]
    del tokens, kind, timestamp  # free the full columns before from_codes
    return EventLog.from_codes(*vocabularies, *kept), report


@dataclass
class _EventTokens:
    """The rows of an events file before the first malformed one, as codes
    into id lists in any order; `blank_rows[j]` is the number of rows before
    the j-th blank line, and `error` the malformed row's ParseError."""

    buyers: list[str]
    sellers: list[str]
    kinds: list[str]
    buyer: np.ndarray
    seller: np.ndarray
    kind: np.ndarray
    timestamp: np.ndarray
    blank_rows: np.ndarray
    error: ParseError | None


def _timestamp(path, line_no, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(path, line_no, f"non-integer timestamp {text!r}") from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ParseError(path, line_no, f"non-int64 timestamp {text!r}")
    return value


def _utf8_error(path, line_no, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(
        path, line_no, f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"
    )


class _IdCodes:
    """Integer codes for the byte-string ids of one column, a block at a
    time. Ids are packed into little-endian uint64 words and kept in sorted
    runs per byte length: a numpy `S` array drops trailing NULs and would
    merge "b1" and "b1\\x00". A code is given to an id when it is first
    seen, and the id is decoded then, once."""

    def __init__(self):
        self.ids: list[str] = []  # by code
        self.seen = {}  # byte length -> sorted runs [(packed ids, their codes)]

    def codes(self, words, start, end) -> np.ndarray:
        """Codes of the ids `bytes[start:end]` of a block whose unaligned
        uint64 view is `words` (`words[k]` packs bytes k..k+7)."""
        length = end - start
        codes = np.empty(len(start), dtype=np.int64)
        sizes, count = np.unique(length, return_counts=True)
        for size, n_rows in zip(sizes.tolist(), count.tolist()):
            rows = np.flatnonzero(length == size) if n_rows < len(length) else slice(None)
            n_words = max(1, -(-size // 8))
            packed = words[start[rows, None] + 8 * np.arange(n_words)]
            packed[:, -1] &= _WORD_MASK[size - 8 * (n_words - 1)]
            keys = packed.view(f"V{8 * n_words}") if n_words > 1 else packed
            keys, inverse = np.unique(keys.reshape(-1), return_inverse=True)
            codes[rows] = self._lookup(size, keys)[inverse.reshape(-1)]
        return codes

    def _lookup(self, size, keys):
        """Codes of the sorted distinct packed ids `keys` of `size` bytes,
        numbering and decoding the ones not seen before."""
        runs = self.seen.setdefault(size, [])
        codes = np.full(len(keys), -1, dtype=np.int64)
        for run, run_codes in runs:
            todo = np.flatnonzero(codes < 0)
            at = np.minimum(np.searchsorted(run, keys[todo]), len(run) - 1)
            hit = run[at] == keys[todo]
            codes[todo[hit]] = run_codes[at[hit]]
        new = codes < 0
        if not new.any():
            return codes
        codes[new] = len(self.ids) + np.arange(np.count_nonzero(new))
        raw = keys[new].view(np.uint8).reshape(-1, keys.dtype.itemsize)[:, :size]
        if size:
            raw = np.ascontiguousarray(raw).view(f"V{size}").reshape(-1).tolist()
            self.ids += map(bytes.decode, raw)
        else:
            self.ids += [""] * len(raw)
        # merge runs of similar length (as in a binary counter), so that each
        # id is copied O(log n) times in all rather than once per block
        runs.append((keys[new], codes[new]))
        while len(runs) > 1 and 2 * len(runs[-1][0]) >= len(runs[-2][0]):
            (a, a_codes), (b, b_codes) = runs.pop(-2), runs.pop()
            at = np.searchsorted(a, b)
            runs.append((np.insert(a, at, b), np.insert(a_codes, at, b_codes)))
        return codes


def _plain_timestamps(a, start, end):
    """(values, other): the int64 value of each cell `a[start:end]` that is
    an optional '-' and 1 to 18 ASCII digits, and a mask of the other cells,
    whose values are left undefined."""
    negative = (end > start) & (a.take(start, mode="clip") == ord("-"))
    digits = end - start - negative
    offset = np.arange(-min(int(digits.max(initial=0)), _TS_DIGITS), 0)[:, None]
    cell = a.take(end + offset, mode="clip") - np.uint8(ord("0"))
    cell[offset < -digits] = 0  # bytes before the digits count as leading zeros
    other = (digits < 1) | (digits > _TS_DIGITS) | (cell > 9).any(axis=0)
    values = np.zeros(len(end), dtype=np.int64)
    for digit in cell:  # most significant first
        values *= 10
        values += digit
    return np.where(negative, -values, values), other


def _header(path, line: bytes) -> list[str]:
    try:
        text = line.rstrip(b"\n").removesuffix(b"\r").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _utf8_error(path, 1, exc) from None
    return text.split(",") if text else []


def _csv_safe(data: bytes) -> bool:
    """True when splitting `data` at LF and commas gives the csv module's
    records and fields: no quote and every CR ends a CRLF."""
    return b'"' not in data and (
        b"\r" not in data or data.count(b"\r") == data.count(b"\r\n")
    )


def _tokenize_unquoted(path) -> _EventTokens | None:
    """Tokenize with numpy over the file's bytes, BLOCK_BYTES of whole lines
    at a time, with no Python per row (only per timestamp cell that is not
    plain digits). None when `_csv_safe` does not hold for the file."""
    columns = [_IdCodes() for _ in range(3)]
    # codes, timestamp, blank_rows; array grows in place, unlike a concatenation
    out = [array("q") for _ in range(5)]
    error, rows, line0 = None, 0, 2  # line0: file line of the block's first line
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header:
            raise ParseError(path, 1, "empty file, expected header")
        if not _csv_safe(header):
            return None
        _check_header(path, _header(path, header), EVENTS_HEADER)
        while error is None and (block := fh.read(BLOCK_BYTES)):
            if not block.endswith(b"\n"):
                block += fh.readline()
            if not _csv_safe(block):
                return None
            n = len(block)
            a = np.frombuffer(block + bytes(8), dtype=np.uint8)
            ends = np.flatnonzero(a[:n] == ord("\n"))
            starts = np.concatenate(([0], ends + 1))
            if block.endswith(b"\n"):
                starts = starts[:-1]
            else:
                ends = np.append(ends, n)
            if b"\r" in block:
                ends -= a[ends - 1] == ord("\r")
            # `bad` is the block's first line with an error, checked in the
            # csv path's order: UTF-8, column count, empty id, timestamp
            bad = len(ends)
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    bad = int(np.searchsorted(starts, exc.start, side="right")) - 1
                    error = _utf8_error(path, line0 + bad, exc)
            commas = np.flatnonzero(a[:n] == ord(","))
            first = np.searchsorted(commas, starts[:bad])
            width = np.searchsorted(commas, ends[:bad]) - first + 1
            nonblank = ends[:bad] > starts[:bad]
            wrong = np.flatnonzero(nonblank & (width != 4))
            if len(wrong):
                bad = int(wrong[0])
                error = ParseError(
                    path, line0 + bad, f"expected 4 columns, got {width[bad]}"
                )
            line = np.flatnonzero(nonblank[:bad])
            cut = commas[first[line, None] + np.arange(3)]
            start = np.column_stack((starts[line], cut + 1))  # of the 4 fields
            end = np.column_stack((cut, ends[line]))
            no_id = np.flatnonzero((start[:, :2] == end[:, :2]).any(axis=1))
            if len(no_id):
                k = no_id[0]
                bad = int(line[k])
                error = ParseError(path, line0 + bad, "empty buyer_id or seller_id")
                line, start, end = line[:k], start[:k], end[:k]
            value, other = _plain_timestamps(a, start[:, 3], end[:, 3])
            for k in np.flatnonzero(other).tolist():
                text = block[start[k, 3]:end[k, 3]].decode("utf-8")
                try:
                    value[k] = _timestamp(path, line0 + int(line[k]), text)
                except ParseError as exc:
                    bad, error = int(line[k]), exc
                    line, start, end, value = line[:k], start[:k], end[:k], value[:k]
                    break
            words = np.ndarray((n + 1,), dtype="<u8", buffer=a, strides=(1,))
            codes = [
                ids.codes(words, start[:, c], end[:, c]) for c, ids in enumerate(columns)
            ]
            blank = np.flatnonzero(~nonblank[:bad])
            blank_rows = rows + blank - np.arange(len(blank))
            for target, values in zip(out, (*codes, value, blank_rows)):
                target.frombytes(memoryview(values).cast("B"))
            rows += len(line)
            line0 += len(ends)
    return _EventTokens(
        *(ids.ids for ids in columns),
        *(np.frombuffer(c, dtype=np.int64) for c in out),
        error,
    )


def _tokenize_quoted(path) -> _EventTokens:
    """Tokenize with the csv module: the path for files that hold a quote
    or a CR not followed by LF."""
    ids = ({}, {}, {})  # id -> first-seen code, for buyers, sellers, kinds
    codes = [array("q") for _ in ids]
    timestamp, blank_rows = array("q"), array("q")
    error = None
    with open(path, "rb") as fh:
        # universal newlines as in text mode, decoded one line at a time so
        # that an earlier row error is raised before invalid UTF-8
        lines = (
            piece.decode("utf-8")
            for raw in fh
            for piece in raw.splitlines(keepends=True)
        )
        records = _csv_records(path, lines)
        try:
            _check_header(path, next(records, (1, None))[1], EVENTS_HEADER)
            for line_no, row in records:
                if not row:
                    blank_rows.append(len(timestamp))
                    continue
                if len(row) != 4:
                    raise ParseError(
                        path, line_no, f"expected 4 columns, got {len(row)}"
                    )
                if not row[0] or not row[1]:
                    raise ParseError(path, line_no, "empty buyer_id or seller_id")
                timestamp.append(_timestamp(path, line_no, row[3]))
                for vocab, column, value in zip(ids, codes, row):
                    column.append(vocab.setdefault(value, len(vocab)))
        except ParseError as exc:
            error = exc
    return _EventTokens(
        *(list(vocab) for vocab in ids),
        *(np.frombuffer(c, dtype=np.int64) for c in (*codes, timestamp, blank_rows)),
        error,
    )


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
    with open(path, encoding="utf-8", newline="") as fh:
        records = _csv_records(path, fh)
        _check_header(path, next(records, (1, None))[1], ASSIGNMENTS_HEADER)
        for line_no, row in records:
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
    with open(path, encoding="utf-8", newline="") as fh:
        records = _csv_records(path, fh)
        has_pre = _check_header(
            path,
            next(records, (1, None))[1],
            ["seller_id", "y_in"],
            optional_tail=(("y_pre",),),
        )
        width = 3 if has_pre else 2
        for line_no, row in records:
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
