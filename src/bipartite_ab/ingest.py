"""Parsing and validation of event logs, assignments, and outcome tables.

File formats (all UTF-8 CSV with declared headers):

* Events:      ``buyer_id,seller_id,event_kind,timestamp_ms``
* Assignments: ``buyer_id,variant`` plus a sidecar design JSON
  ``{"variants": [{"label": "Off", "probability": 0.5, "control": true}, ...]}``
* Outcomes:    ``seller_id,y_in[,y_pre]``

Parsing is deterministic and never coerces silently: every dropped or
skipped row increments a counter on the returned report.

Each file enters once as integer-coded columns: an `EventLog` of codes
into sorted buyer, seller and kind vocabularies, in file order; an
`AssignmentTable` of a sorted buyer vocabulary and a variant code per
buyer; an `OutcomeTable` of a sorted seller vocabulary and a (y_in, y_pre)
row per seller. Joins map ids to table rows through one dict per table.

One tokenizer, driven by a column spec (`_Columns`), reads all three files
as bytes, BLOCK_BYTES of whole lines at a time, and splits them with numpy
and no Python per row: LF or CRLF line ends, blank lines skipped, as many
fields per line as the header has. Each distinct id is decoded once; value
cells go through the spec's converter (timestamps by numpy where they are
plain digits, else by `int()`; outcomes by `float()`). A file holding a
quote, a CR that does not end a CRLF or a line longer than the csv
module's field_size_limit is split by the csv module instead, one decoded
line at a time, and its cells go through the same checks. Both paths give
the same results and errors: errors are decided in file order, and a line
is checked for invalid UTF-8, then its column count, then empty ids, then
a repeated id, then its values from left to right.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_EVENT_KINDS = frozenset(
    {"view", "favorite", "message", "offer", "purchase", "profile_visit"}
)

EVENTS_HEADER = ["buyer_id", "seller_id", "event_kind", "timestamp_ms"]
ASSIGNMENTS_HEADER = ["buyer_id", "variant"]

PROB_SUM_TOL = 1e-9

BLOCK_BYTES = 1 << 20  # bytes of whole lines tokenized at a time
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


def _sorted_vocabulary(ids: Sequence[str], codes) -> tuple[tuple[str, ...], np.ndarray]:
    """(vocabulary, codes): the ids of `ids` that `codes` use, sorted, and
    `codes` renumbered into that vocabulary."""
    codes = np.asarray(codes, dtype=np.int64)
    used = np.flatnonzero(np.bincount(codes, minlength=len(ids)))
    order = sorted(used.tolist(), key=ids.__getitem__)
    remap = np.empty(len(ids), dtype=np.int64)
    remap[order] = np.arange(len(order))
    return tuple(map(ids.__getitem__, order)), remap[codes]


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
        columns = ((buyers, buyer), (sellers, seller), (kinds, kind))
        vocabularies, codes = zip(*(_sorted_vocabulary(*c) for c in columns))
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


def _validate_design(variants: Sequence[Variant]):
    labels = [v.label for v in variants]
    if len(set(labels)) != len(labels):
        raise IngestError("duplicate variant labels in design")
    controls = [v.label for v in variants if v.control]
    if len(controls) != 1:
        raise IngestError(f"exactly one control variant required, found {controls!r}")
    total = math.fsum(v.probability for v in variants)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise IngestError(f"variant probabilities sum to {total!r}, expected 1")
    for v in variants:
        if not 0.0 < v.probability < 1.0:
            raise IngestError(
                f"variant {v.label!r} has probability {v.probability} outside (0,1)"
            )


class _Keyed:
    """A table with one row per id of `keys`, each id held once."""

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.keys, range(len(self.keys))))

    def rows(self, ids: Sequence[str]) -> np.ndarray:
        """The row of each of `ids`, -1 for an id the table does not hold."""
        return np.fromiter(
            map(self._index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids)
        )


@dataclass(frozen=True, eq=False)
class AssignmentTable(_Keyed):
    """Buyer `buyers[r]` is assigned variant `variants[variant[r]]` of the
    randomization design; a parsed table holds its buyers sorted."""

    buyers: tuple[str, ...]
    variant: np.ndarray
    variants: Sequence[Variant]

    def __post_init__(self):
        _validate_design(self.variants)
        object.__setattr__(self, "buyers", tuple(self.buyers))
        object.__setattr__(self, "variant", np.asarray(self.variant, dtype=np.int64))

    keys = property(lambda self: self.buyers)

    @property
    def labels(self) -> list[str]:
        return [v.label for v in self.variants]

    def code(self, label: str) -> int:
        """The index of variant `label` in `variants`."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise IngestError(f"unknown variant {label!r}") from None

    def probability(self, label: str) -> float:
        return self.variants[self.code(label)].probability

    def variant_codes(self, buyers: Sequence[str]) -> np.ndarray:
        """The variant code of each of `buyers`, -1 for an unassigned one."""
        return np.append(self.variant, -1)[self.rows(buyers)]


@dataclass(frozen=True, eq=False)
class OutcomeTable(_Keyed):
    """Seller `sellers[r]` has outcome `y[r, 0]` and pre-period outcome
    `y[r, 1]`, NaN where it has none; `has_pre` tells whether the table
    has a y_pre column. A parsed table holds its sellers sorted."""

    sellers: tuple[str, ...]
    y: np.ndarray
    has_pre: bool

    def __post_init__(self):
        object.__setattr__(self, "sellers", tuple(self.sellers))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.float64))

    keys = property(lambda self: self.sellers)


# --- the tokenizer ---


@dataclass(frozen=True)
class _Columns:
    """A file's columns: the `header`, then `optional` trailing columns;
    `n_ids` leading ids that must not be empty (else `empty_id`), of
    `n_coded` leading columns coded as ids, the first one held once when
    `repeated` (its error, formatted with the id) is set. The value columns
    go to `convert(data, start, end, names)` a block at a time: the block's
    bytes with eight zero bytes appended, the cell bounds (rows x value
    columns) and the columns' names. It returns (values, k, message): the
    `dtype` values of the rows before k, the first row with a bad cell, and
    None for k when there is none."""

    header: tuple[str, ...]
    n_ids: int
    empty_id: str
    n_coded: int
    repeated: str | None = None
    convert: Callable | None = None
    dtype: type = np.int64
    optional: tuple[str, ...] = ()


class _Tokens:
    """The rows of a file before its first malformed one: `codes` into the
    id lists `ids` (in any order), one pair per coded column, and `values`
    (rows x value columns); `blank_rows[j]` is the number of rows before
    the j-th blank line, and `error` the malformed row's ParseError."""

    def __init__(self, path, spec: _Columns, header: list[str] | None):
        expected = list(spec.header)
        if header is None:
            raise ParseError(path, 1, "empty file, expected header")
        if header[: len(expected)] != expected:
            raise ParseError(path, 1, f"bad header {header!r}, expected {expected!r}")
        if header[len(expected):] not in ([], list(spec.optional)):
            extra = header[len(expected):]
            raise ParseError(path, 1, f"unexpected trailing columns {extra!r}")
        self.path, self.spec, self.width = path, spec, len(header)
        self.names = header[spec.n_coded:]
        self.columns = [_IdCodes() for _ in range(spec.n_coded)]
        self.ids = [column.ids for column in self.columns]  # filled as codes are given
        # codes, values, blank rows; a bytearray grows in place, unlike a
        # concatenation
        self.out = [bytearray() for _ in range(spec.n_coded + 2)]
        self.rows = 0
        self.error: ParseError | None = None

    def add(self, data, start, end, line_no, blank, error):
        """Take the cells `data[start:end]` (rows x width) of the lines
        numbered `line_no`, with a blank line after the first `blank[j]`
        rows, and then `error`, the ParseError that ended them or None."""
        spec = self.spec
        rows = len(line_no)

        def fail(k, message):
            nonlocal rows, error
            rows, error = k, ParseError(self.path, int(line_no[k]), message)

        no_id = (start[:, : spec.n_ids] == end[:, : spec.n_ids]).any(axis=1)
        if no_id.any():
            fail(int(np.argmax(no_id)), spec.empty_id)
        a = np.frombuffer(data, dtype=np.uint8)
        words = np.ndarray((len(a) - 7,), dtype="<u8", buffer=a, strides=(1,))
        seen = len(self.columns[0].ids)
        codes = [
            ids.codes(words, start[:rows, c], end[:rows, c])
            for c, ids in enumerate(self.columns)
        ]
        if spec.repeated is not None:
            again = np.ones(rows, dtype=bool)
            again[np.unique(codes[0], return_index=True)[1]] = False
            again |= codes[0] < seen
            if again.any():
                k = int(np.argmax(again))
                fail(k, spec.repeated.format(self.columns[0].ids[codes[0][k]]))
        cells = np.s_[:rows, spec.n_coded:]
        values = np.empty((rows, self.width - spec.n_coded), dtype=spec.dtype)
        if spec.convert is not None:
            values, bad, message = spec.convert(
                data, start[cells], end[cells], self.names
            )
            if bad is not None:
                fail(bad, message)
        blank = blank[blank <= rows]
        for target, column in zip(
            self.out, (*(c[:rows] for c in codes), values[:rows], self.rows + blank)
        ):
            target.extend(np.ascontiguousarray(column))
        self.rows += rows
        self.error = error

    @property
    def codes(self) -> list[np.ndarray]:
        return [np.frombuffer(c, dtype=np.int64) for c in self.out[:-2]]

    @property
    def values(self) -> np.ndarray:
        values = np.frombuffer(self.out[-2], dtype=self.spec.dtype)
        return values.reshape(self.rows, self.width - self.spec.n_coded)

    @property
    def blank_rows(self) -> np.ndarray:
        return np.frombuffer(self.out[-1], dtype=np.int64)


def _tokenize(path, spec: _Columns) -> _Tokens:
    return _tokenize_unquoted(path, spec) or _tokenize_quoted(path, spec)


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


def _csv_safe(data: bytes, longest: int) -> bool:
    """True when splitting `data`, whose longest line has `longest` bytes,
    at LF and commas gives the csv module's records and fields: no quote,
    every CR ends a CRLF and no field can pass csv.field_size_limit."""
    return (
        b'"' not in data
        and (b"\r" not in data or data.count(b"\r") == data.count(b"\r\n"))
        and longest <= csv.field_size_limit()
    )


def _tokenize_unquoted(path, spec: _Columns) -> _Tokens | None:
    """Split with numpy over the file's bytes, BLOCK_BYTES of whole lines
    at a time, with no Python per row. None when `_csv_safe` does not hold
    for the file."""
    line0 = 2  # file line of the block's first line
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header:
            raise ParseError(path, 1, "empty file, expected header")
        if not _csv_safe(header, len(header)):
            return None
        tokens = _Tokens(path, spec, _header(path, header))
        width = tokens.width
        while tokens.error is None and (block := fh.read(BLOCK_BYTES)):
            if not block.endswith(b"\n"):  # read to the end of the line
                block = (block + fh.readline()).removesuffix(b"\n") + b"\n"
            n = len(block)
            data = block + bytes(8)
            a = np.frombuffer(data, dtype=np.uint8)
            ends = np.flatnonzero(a[:n] == ord("\n"))
            starts = np.concatenate(([0], ends[:-1] + 1))
            if not _csv_safe(block, int((ends - starts).max())):
                return None
            if b"\r" in block:
                ends -= a[ends - 1] == ord("\r")
            # `bad` is the block's first line with invalid UTF-8 or the
            # wrong number of fields; the rows before it go to `add`
            bad, error = len(ends), None
            if not block.isascii():
                try:
                    block.decode("utf-8")
                except UnicodeDecodeError as exc:
                    bad = int(np.searchsorted(starts, exc.start, side="right")) - 1
                    error = _utf8_error(path, line0 + bad, exc)
            commas = np.flatnonzero(a[:n] == ord(","))
            first = np.searchsorted(commas, starts[:bad])
            fields = np.searchsorted(commas, ends[:bad]) - first + 1
            nonblank = ends[:bad] > starts[:bad]
            wrong = np.flatnonzero(nonblank & (fields != width))
            if len(wrong):
                bad = int(wrong[0])
                error = ParseError(
                    path, line0 + bad, f"expected {width} columns, got {fields[bad]}"
                )
            line = np.flatnonzero(nonblank[:bad])
            cut = commas[first[line, None] + np.arange(width - 1)]
            start = np.column_stack((starts[line], cut + 1))
            end = np.column_stack((cut, ends[line]))
            blank = np.flatnonzero(~nonblank[:bad])
            blank -= np.arange(len(blank))  # rows before each blank line
            tokens.add(data, start, end, line0 + line, blank, error)
            line0 += len(ends)
    return tokens


def _csv_records(path, fh):
    """(line_no, row) for each record csv.reader reads from the binary file
    `fh`, the header being 1. The lines are split at LF, CR and CRLF as
    universal newlines split them, and decoded one at a time, so that a row
    error is raised before invalid UTF-8 on a later line; invalid UTF-8 is
    a ParseError naming its physical line. A csv.Error, such as a field
    over the csv module's size limit, becomes a ParseError naming its
    record."""

    def lines():
        pieces = (piece for raw in fh for piece in raw.splitlines(keepends=True))
        for line_no, piece in enumerate(pieces, start=1):
            try:
                yield piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _utf8_error(path, line_no, exc) from None

    line_no = 0
    try:
        for line_no, row in enumerate(csv.reader(lines()), start=1):
            yield line_no, row
    except csv.Error as exc:
        raise ParseError(path, line_no + 1, f"unreadable CSV record: {exc}") from None


def _add_rows(tokens: _Tokens, cells: list[str], line_no, blank, error):
    """`_Tokens.add` for the rows whose cells, row by row, are `cells`."""
    raw = [cell.encode("utf-8") for cell in cells]
    length = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
    end = np.cumsum(length)
    start = end - length
    tokens.add(
        b"".join(raw) + bytes(8),
        start.reshape(-1, tokens.width),
        end.reshape(-1, tokens.width),
        np.array(line_no, dtype=np.int64),
        np.array(blank, dtype=np.int64),
        error,
    )


def _tokenize_quoted(path, spec: _Columns) -> _Tokens:
    """Split with the csv module: the path for files `_csv_safe` rejects.
    Rows go to the checks about BLOCK_BYTES of cells at a time."""
    with open(path, "rb") as fh:
        records = _csv_records(path, fh)
        tokens = _Tokens(path, spec, next(records, (1, None))[1])
        cells, line_no, blank, error = [], [], [], None
        try:
            for number, row in records:
                if not row:
                    blank.append(len(line_no))
                    continue
                if len(row) != tokens.width:
                    raise ParseError(
                        path, number, f"expected {tokens.width} columns, got {len(row)}"
                    )
                cells += row
                line_no.append(number)
                if 8 * len(cells) >= BLOCK_BYTES:
                    _add_rows(tokens, cells, line_no, blank, None)
                    if tokens.error is not None:
                        return tokens
                    cells, line_no, blank = [], [], []
        except ParseError as exc:
            error = exc
        _add_rows(tokens, cells, line_no, blank, error)
    return tokens


# --- the value converters ---


def _timestamps(data, start, end, names):
    """int64 timestamps: numpy for plain digits, `int()` on the decoded
    text of any other cell."""
    a = np.frombuffer(data, dtype=np.uint8)
    value, other = _plain_timestamps(a, start[:, 0], end[:, 0])
    for k in np.flatnonzero(other).tolist():
        text = data[start[k, 0]:end[k, 0]].decode("utf-8")
        try:
            value[k] = int(text)  # OverflowError outside the int64 range
        except (ValueError, OverflowError) as exc:
            what = "non-integer" if isinstance(exc, ValueError) else "non-int64"
            return value[:k, None], k, f"{what} timestamp {text!r}"
    return value[:, None], None, None


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _outcome_values(data, start, end, names):
    """y_in and y_pre by `float()` on the decoded cells: an empty y_pre is
    NaN and any other cell must parse to a finite value. The first bad cell
    in row order is the error."""
    bounds = zip(start.ravel().tolist(), end.ravel().tolist())
    cells = [data[s:e].decode("utf-8") for s, e in bounds]
    values = np.array([_float(c) for c in cells], dtype=np.float64).reshape(start.shape)
    ok = np.isfinite(values) | (start == end) & (np.array(names) == "y_pre")
    if ok.all():
        return values, None, None
    k, c = np.argwhere(~ok)[0].tolist()
    cell = cells[k * len(names) + c]
    problem = "non-numeric" if _float(cell) is None else "non-finite"
    return values[:k], k, f"{problem} {names[c]} {cell!r}"


_EVENTS = _Columns(
    tuple(EVENTS_HEADER), n_ids=2, empty_id="empty buyer_id or seller_id",
    n_coded=3, convert=_timestamps,
)
_ASSIGNMENTS = _Columns(
    tuple(ASSIGNMENTS_HEADER), n_ids=1, empty_id="empty buyer_id", n_coded=2,
    repeated="buyer {!r} assigned more than once",
)
_OUTCOMES = _Columns(
    ("seller_id", "y_in"), n_ids=1, empty_id="empty seller_id", n_coded=1,
    repeated="seller {!r} appears more than once", convert=_outcome_values,
    dtype=np.float64, optional=("y_pre",),
)


# --- the three files ---


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
    tokens = _tokenize(path, _EVENTS)
    (buyer, seller, kind), kinds = tokens.codes, tokens.ids[2]
    timestamp = tokens.values[:, 0]
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
    vocabularies = tokens.ids
    kept = [c[keep] for c in (buyer, seller, kind, timestamp)]
    # free the full columns before from_codes
    del tokens, buyer, seller, kind, timestamp
    return EventLog.from_codes(*vocabularies, *kept), report


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
    tokens = _tokenize(path, _ASSIGNMENTS)
    if tokens.error is not None:
        raise tokens.error
    _validate_design(variants)
    (buyer_ids, labels), (buyer, label) = tokens.ids, tokens.codes
    declared = {v.label: k for k, v in enumerate(variants)}
    codes = np.array([declared.get(x, -1) for x in labels], dtype=np.int64)
    undeclared = np.flatnonzero(codes[label] < 0)
    if len(undeclared):
        r = undeclared[0]
        raise IngestError(
            f"buyer {buyer_ids[buyer[r]]!r} assigned to undeclared variant "
            f"{labels[label[r]]!r}"
        )
    buyers, rows = _sorted_vocabulary(buyer_ids, buyer)
    variant = np.empty(len(buyers), dtype=np.int64)
    variant[rows] = codes[label]
    return AssignmentTable(buyers, variant, variants)


def parse_outcomes(path) -> OutcomeTable:
    """Parse an outcomes CSV; the y_pre column is optional.

    Non-finite outcome values (NaN/inf) are hard errors: downstream
    estimators require finite reals.
    """
    tokens = _tokenize(path, _OUTCOMES)
    if tokens.error is not None:
        raise tokens.error
    sellers, rows = _sorted_vocabulary(tokens.ids[0], tokens.codes[0])
    y = np.full((len(sellers), 2), np.nan)
    y[rows, : tokens.width - 1] = tokens.values
    return OutcomeTable(sellers, y, has_pre=tokens.width == 3)


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
    labels = np.array(table.labels, dtype=object)[table.variant]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ASSIGNMENTS_HEADER)
        writer.writerows(zip(table.buyers, labels.tolist()))
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
    """Floats are written as `repr(float(x))`, an empty cell for no y_pre."""
    columns = ["seller_id", "y_in", "y_pre"][: 3 if table.has_pre else 2]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for seller, row in zip(table.sellers, table.y[:, : len(columns) - 1].tolist()):
            writer.writerow([seller, *("" if math.isnan(x) else repr(x) for x in row)])
