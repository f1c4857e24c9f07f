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
row per seller. Ids stay UTF-8 bytes (data, start, length) from block to
`Vocabulary`, decoded to `str` only on first text access, and are joined
to table rows once per table per run, by `np.searchsorted` on their keys.

One tokenizer, driven by a column spec (`_Columns`), reads all three files
as bytes, BLOCK_BYTES of whole lines at a time, and splits them with numpy
and no Python per row: one scan finds a block's separators (LF and comma)
and every cell bound is read off that index. LF or CRLF line ends, blank
lines skipped, as many fields per line as the header has. A column's ids
are coded by a hash table of their bytes (`_IdCodes`), the codes and the
values written into numpy arrays sized from the file, and the ids sorted
bytewise with numpy when the file ends: `str` order, as UTF-8 writes a code
point's bits most significant first and a longer sequence starts with a
larger lead byte. Value cells go through the spec's converter (timestamps
by numpy where they are plain digits, else by `int()`; outcomes by
`float()` on each cell's decoded text). A file holding a quote, a CR that
does not end a CRLF or a line longer than the csv module's field_size_limit
is split by the csv module instead, one decoded line at a time, with the
same checks and errors: they are decided in file order, and a line is
checked for invalid UTF-8, then its column count, then empty ids, then a
repeated id, then its values from left to right.

The numpy path codes block k's ids on a one-thread executor (numpy's
gathers and sorts release the GIL) while the main thread converts block
k's values and reads block k+1, so at most one block is in flight. Each
column's `_IdCodes` is used by one thread at a time, in block order, so
every code, vocabulary, warning and error is that of coding each block in
turn. The file's last block, a block that holds an error and every block
of the assignments and outcomes files (whose repeated-id check needs the
codes first) are coded inline, so the executor opens on the first
hand-over only; it is shut down, waiting for the block in hand, before the
parser returns or raises.
"""
from __future__ import annotations

import csv
import json
import math
import mmap
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

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
# '0', 0xF0 and 0x06 in each byte of a word; then the (mask, multiplier,
# shift) steps that sum a word of 8 ASCII digits, most significant first, as
# pairs, then fours, then the eight (see _plain_timestamps)
_ZEROS, _HIGH_NIBBLES, _SIXES = (np.uint64(b * 0x0101010101010101) for b in (0x30, 0xF0, 0x06))
_DIGIT_STEPS = [tuple(map(np.uint64, step)) for step in ((0x0F0F0F0F0F0F0F0F, 10 << 8 | 1, 8),
                (0x00FF00FF00FF00FF, 100 << 16 | 1, 16), (0x0000FFFF0000FFFF, 10000 << 32 | 1, 32))]
# splitmix64's multipliers, then the golden-ratio one that weighs an id's rest
_MIX = np.array([0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0x9E3779B97F4A7C15], dtype=np.uint64)


class IngestError(ValueError):
    """Base class for ingestion failures."""


class ParseError(IngestError):
    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def _words(data) -> np.ndarray:
    """The unaligned little-endian uint64 view of `data`: word k packs bytes k..k+7."""
    a = np.frombuffer(data, dtype=np.uint8)
    return np.ndarray((len(a) - 7,), dtype="<u8", buffer=a, strides=(1,))


def _keys(words, start, size) -> np.ndarray:
    """The ids of `size` bytes at `start` in the word view `words` as keys,
    zeroed past their end: a uint64 up to 8 bytes, else a void of words."""
    n_words = max(1, -(-size // 8))
    keys = words[start[:, None] + 8 * np.arange(n_words)]
    keys[:, -1] &= _WORD_MASK[size - 8 * (n_words - 1)]
    return (keys.view(f"V{8 * n_words}") if n_words > 1 else keys).reshape(-1)


class Vocabulary(Sequence):
    """An immutable sequence of ids as `packed` UTF-8 bytes: id p is the
    `length[p]` bytes from `start[p]` of the uint8 array `data`, which holds
    8 bytes from an id's start and from every eighth byte after it, in it.
    Its `text` is decoded once, on first text access (indexing, iteration,
    equality). Ids given as `str` keep their order and are encoded once, on
    first join. `ordered` tells that the ids are in `str` order."""

    def __init__(self, ids: Iterable[str] = (), packed=None, ordered=False):
        if packed is None:
            self.text = tuple(ids)
        else:
            self.packed = packed
        self.ordered = ordered

    @classmethod
    def of(cls, ids: Sequence[str]) -> Vocabulary:  # a Vocabulary as it is
        return ids if isinstance(ids, cls) else cls(ids)

    @cached_property
    def text(self) -> tuple[str, ...]:
        data, start, length = self.packed
        raw = data.tobytes()  # decoded at once, bytes between ids included
        text = raw.decode("utf-8", "surrogatepass")
        bounds = np.stack((start, start + length))
        if not raw.isascii():  # to characters: bytes that do not continue one
            bounds = np.concatenate(([0], np.cumsum(data & 0xC0 != 0x80)))[bounds]
        return tuple(text[s:e] for s, e in zip(*bounds.tolist()))

    @cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raw = "".join(self.text).encode("utf-8", "surrogatepass")
        data = np.frombuffer(raw + bytes(8), dtype=np.uint8)
        length = np.fromiter(map(len, self.text), np.int64, len(self.text))
        if len(raw) != length.sum():  # to bytes: where each id's characters end
            lead = np.flatnonzero(data & 0xC0 != 0x80)
            length = np.diff(lead[np.cumsum(length)], prepend=0)
        return data, np.cumsum(length) - length, length

    @cached_property
    def order(self) -> np.ndarray:
        """The positions of the ids in `str` order."""
        return np.arange(len(self)) if self.ordered else _bytewise_order(*self.packed)

    @cached_property
    def _groups(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Byte length -> (its ids as sorted keys, their positions): a
        big-endian number for one word, memcmp'd void beyond."""
        data, start, length = self.packed
        words, sizes, groups = _words(data), length[self.order], {}
        for size in np.flatnonzero(np.bincount(length)).tolist():
            at = self.order[sizes == size]
            keys = _keys(words, start[at], size)
            groups[size] = (keys if size > 8 else keys.byteswap()), at
        return groups

    def ids_at(self, codes: np.ndarray) -> list[str]:
        return list(map(self.text.__getitem__, codes.tolist()))

    def __len__(self):
        return len(self.text if "text" in self.__dict__ else self.packed[2])

    def __getitem__(self, index):
        return self.text[index]

    def __iter__(self):
        return iter(self.text)

    def __eq__(self, other):
        return self.text == (other.text if isinstance(other, Vocabulary) else other)


def _trimmed(vocabulary: Vocabulary, codes: np.ndarray) -> tuple[Vocabulary, np.ndarray]:
    """(vocabulary, codes): the ids of `vocabulary` that the int64 array
    `codes` uses, in `str` order, and `codes` renumbered into them in place."""
    used = np.bincount(codes, minlength=len(vocabulary)) > 0
    order = vocabulary.order[used[vocabulary.order]]
    rank = np.zeros(len(vocabulary), dtype=np.int64)
    rank[order] = np.arange(len(order))
    # in place, so that no second copy of the code column is made (np.take
    # copies `out` first in its default mode="raise")
    np.take(rank, codes, out=codes, mode="clip")
    data, start, length = vocabulary.packed
    return Vocabulary(packed=(data, start[order], length[order]), ordered=True), codes


@dataclass(frozen=True, eq=False)
class EventLog:
    """Timestamped buyer-to-seller interactions as integer-coded columns.

    Event k is buyer `buyers[buyer[k]]` interacting with seller
    `sellers[seller[k]]` by kind `kinds[kind[k]]` at `timestamp[k]` ms.
    The vocabularies are sorted; a parsed log's hold only ids some event
    uses, a simulated one's every buyer, seller and kind of the experiment.
    """

    buyers: Vocabulary
    sellers: Vocabulary
    kinds: Vocabulary
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
        vocabularies, codes = zip(*(
            _trimmed(Vocabulary.of(ids), np.array(c, dtype=np.int64)) for ids, c in columns
        ))
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
    """A table with one row per id of the Vocabulary `keys`, each id once."""

    def _join(self, ids: Vocabulary) -> np.ndarray:
        """Each id's row, searched among the keys of its byte length."""
        found = np.full(len(ids), -1, dtype=np.int64)
        mine = self.keys._groups
        for size in mine.keys() & ids._groups.keys():
            (table, rows), (keys, at) = mine[size], ids._groups[size]
            k = np.minimum(np.searchsorted(table, keys), len(table) - 1)
            hit = table[k] == keys
            found[at[hit]] = rows[k[hit]]
        return found

    def rows(self, ids: Vocabulary) -> np.ndarray:
        """The row of each of `ids`, -1 for an id the table lacks. The result
        is kept, read-only, till another Vocabulary is joined: the same
        object is joined once."""
        last = self.__dict__.get("_last")
        if last is None or last[0] is not ids:
            found = self._join(ids)
            found.flags.writeable = False
            last = self.__dict__["_last"] = (ids, found)
        return last[1]


@dataclass(frozen=True, eq=False)
class AssignmentTable(_Keyed):
    """Buyer `buyers[r]` is assigned variant `variants[variant[r]]` of the
    randomization design; a parsed table holds its buyers sorted."""

    buyers: Vocabulary
    variant: np.ndarray
    variants: Sequence[Variant]

    def __post_init__(self):
        _validate_design(self.variants)
        object.__setattr__(self, "buyers", Vocabulary.of(self.buyers))
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


@dataclass(frozen=True, eq=False)
class OutcomeTable(_Keyed):
    """Seller `sellers[r]` has outcome `y[r, 0]` and pre-period outcome
    `y[r, 1]`, NaN where it has none; `has_pre` tells whether the table
    has a y_pre column. A parsed table holds its sellers sorted."""

    sellers: Vocabulary
    y: np.ndarray
    has_pre: bool

    def __post_init__(self):
        object.__setattr__(self, "sellers", Vocabulary.of(self.sellers))
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
    vocabularies `ids` (made by `_tokenize`), one pair per coded column, and
    `values` (rows x value columns), numpy arrays; `blank_rows[j]` is the
    number of rows before the j-th blank line, and `error` the malformed
    row's ParseError.
    `pool`, a one-thread executor entered into the ExitStack `stack` on
    first use, codes the ids of the blocks that `add` hands over."""

    def __init__(self, path, spec: _Columns, header: list[str] | None, stack=None):
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
        # the code columns and the values, with room for as many rows as the
        # file can hold (a row takes at least its commas and its LF): the
        # pages no row reaches are never touched
        rows = Path(path).stat().st_size // self.width
        self.out = [_mapped((rows,), np.int64) for _ in range(spec.n_coded)]
        self.out.append(_mapped((rows, self.width - spec.n_coded), spec.dtype))
        self.blank = [np.empty(0, dtype=np.int64)]  # blank_rows, a block at a time
        self.rows = 0
        self.error: ParseError | None = None
        self.stack = stack
        # (codes, rows, values, blank) of the block not yet appended, codes
        # the Future that makes them while the pool does
        self.pending = None

    def add(self, data, start, end, line_no, blank, error, last=True):
        """Take the cells `data[start:end]` (rows x width) of the lines
        numbered `line_no`, with a blank line after the first `blank[j]`
        rows, and then `error`, the ParseError that ended them or None.
        When another block may follow (not `last`, no error) and the spec
        checks no repeated id, the pool codes the ids while the values are
        converted here, and the block is appended by the next `add` or by
        `collect`."""
        spec = self.spec
        rows = len(line_no)

        def fail(k, message):
            nonlocal rows, error
            rows, error = k, ParseError(self.path, int(line_no[k]), message)

        # a column at a time: a strided 2-D slice's .any(axis=1) is slower
        no_id = np.logical_or.reduce([start[:, c] == end[:, c] for c in range(spec.n_ids)])
        if no_id.any():
            fail(int(np.argmax(no_id)), spec.empty_id)
        words = _words(data)
        bounds = [(start[:rows, c], end[:rows, c]) for c in range(spec.n_coded)]

        def code():
            return [ids.codes(words, *b) for ids, b in zip(self.columns, bounds)]

        self.collect()
        if last or error is not None or spec.repeated is not None:
            seen = self.columns[0].count
            codes = code()
        else:
            codes = self.pool.submit(code)
        if spec.repeated is not None:
            # the first row of each id; a code below `seen` was given before
            first = np.full(self.columns[0].count, rows)
            np.minimum.at(first, codes[0], np.arange(rows))
            again = (first[codes[0]] != np.arange(rows)) | (codes[0] < seen)
            if again.any():
                k = int(np.argmax(again))
                fail(k, spec.repeated.format(data[start[k, 0]:end[k, 0]].decode("utf-8")))
        cells = np.s_[:rows, spec.n_coded:]
        values = np.empty((rows, self.width - spec.n_coded), dtype=spec.dtype)
        if spec.convert is not None:
            values, bad, message = spec.convert(
                data, start[cells], end[cells], self.names
            )
            if bad is not None:
                fail(bad, message)
        self.pending = codes, rows, values, blank[blank <= rows]
        self.error = error
        if isinstance(codes, list):
            self.collect()

    @cached_property
    def pool(self):
        # imported here: it loads logging, 5-7 ms that `import bipartite_ab` would pay
        from concurrent.futures import ThreadPoolExecutor

        return self.stack.enter_context(ThreadPoolExecutor(1, "ingest-ids"))

    def collect(self):
        """Append the block in hand, waiting for the pool's codes (or what
        making them raised)."""
        if self.pending is None:
            return
        codes, rows, values, blank = self.pending
        self.pending = None
        if not isinstance(codes, list):
            codes = codes.result()
        end = self.rows + rows
        if end > len(self.out[0]):  # the file grew as it was read
            self.out = [np.resize(column, (2 * end, *column.shape[1:])) for column in self.out]
        for column, block in zip(self.out, (*codes, values)):
            column[self.rows:end] = block[:rows]
        self.blank.append(self.rows + blank)
        self.rows = end

    @property
    def codes(self) -> list[np.ndarray]:
        return [column[: self.rows] for column in self.out[:-1]]

    @property
    def values(self) -> np.ndarray:
        return self.out[-1][: self.rows]

    @property
    def blank_rows(self) -> np.ndarray:
        return np.concatenate(self.blank)


def _tokenize(path, spec: _Columns) -> _Tokens:
    """The file's tokens, a vocabulary in code order per coded column."""
    tokens = _tokenize_unquoted(path, spec) or _tokenize_quoted(path, spec)
    tokens.ids = [column.vocabulary() for column in tokens.columns]
    return tokens


def _utf8_error(path, line_no, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(
        path, line_no, f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}"
    )


class _IdCodes:
    """Integer codes for the byte-string ids of one column, a block at a
    time, from a linear-probing hash table run as whole-array numpy rounds.
    An id's key is its first 8 bytes zeroed past its end (its head) and its
    byte length plus, past 8 bytes, 2^32 times one more than the code of the
    rest in a second coder, `tails` (its rest). `keys[:, k]` is code k's key;
    `slots`, a code or -1 each, are at least twice as many as the codes. A
    block's new ids get the codes `count, count+1, ...` in key order."""

    def __init__(self):
        self.count, self.tails = 0, None  # codes given; the tails' coder
        self.keys = np.empty((2, 0), dtype=np.uint64)
        self._rehash(1 << 10)

    def _rehash(self, size):
        """Rebuild the table with `size` slots, a power of two."""
        keys, self.keys = self.keys, _mapped((2, size // 2), np.uint64)
        self.keys[:, : self.count] = keys[:, : self.count]
        self.slots = _mapped((size,), np.int64)
        self.slots.fill(-1)
        self.shift = np.uint64(65 - size.bit_length())  # a hash's top bits pick a slot
        self._place(np.arange(self.count))

    def _home(self, head, rest) -> np.ndarray:
        """The slots of keys: splitmix64's finalizer of head + rest * _MIX[2]."""
        h = rest * _MIX[2]
        h += head
        for shift, multiplier in ((30, _MIX[0]), (27, _MIX[1])):
            h ^= h >> np.uint64(shift)
            h *= multiplier
        h ^= h >> np.uint64(31)
        return (h >> self.shift).astype(np.intp)

    def codes(self, words, start, end) -> np.ndarray:
        """Codes of the ids `bytes[start:end]` of a block whose unaligned
        uint64 view is `words` (`words[k]` packs bytes k..k+7)."""
        length = end - start
        head = words[start] & _WORD_MASK[np.minimum(length, 8)]
        rest = length.astype(np.uint64)
        if len(long := np.flatnonzero(length > 8)):
            self.tails = self.tails or _IdCodes()
            tail = self.tails.codes(words, start[long] + 8, end[long]).astype(np.uint64)
            rest[long] += (tail + 1) << 32
        codes, rows = np.full(len(start), -1), np.empty(0, dtype=np.intp)
        if self.count:  # a row at an empty slot reads the key of code -1, the
            # last there is room for: a match there leaves the code -1
            codes = self.slots[at := self._home(head, rest)]
            rows = np.flatnonzero((self.keys[0, codes] != head) | (self.keys[1, codes] != rest))
        while len(rows := rows[codes[rows] >= 0]):  # each row probes on past other ids
            at[rows] = slot = (at[rows] + 1) & (len(self.slots) - 1)
            codes[rows] = code = self.slots[slot]
            rows = rows[(self.keys[0, code] != head[rows]) | (self.keys[1, code] != rest[rows])]
        if not len(new := np.flatnonzero(codes < 0)):
            return codes

        def firsts(rows):  # is each row's id not the one of the row before?
            after, before = rows[1:], rows[:-1]
            return np.append(True, (head[after] != head[before]) | (rest[after] != rest[before]))

        new = new[np.argsort(head[new].byteswap())]  # bytewise order of the heads,
        if ((first := firsts(new))[1:] & (head[new[1:]] == head[new[:-1]])).any():
            new = new[np.lexsort((rest[new], head[new].byteswap()))]  # then of the rests
            first = firsts(new)
        codes[new] = self.count + np.cumsum(first) - 1
        new = new[first]
        count = self.count + len(new)
        if 2 * count > len(self.slots):
            self._rehash(1 << (2 * count - 1).bit_length())
        self.keys[:, self.count : count] = head[new], rest[new]
        self._place(np.arange(self.count, count))
        self.count = count
        return codes

    def _place(self, codes):
        """Put `codes` in the first empty slot from their keys' homes on:
        the codes at an empty slot claim it, one stays, the others move on."""
        at = self._home(*self.keys[:, codes]) if len(codes) else codes
        while len(codes):
            free = self.slots[at] < 0
            self.slots[at[free]] = codes[free]
            lost = self.slots[at] != codes
            codes, at = codes[lost], (at[lost] + 1) & (len(self.slots) - 1)

    def vocabulary(self) -> Vocabulary:
        """The ids, id k having code k, each its head's and its tail's words."""
        if not self.count:
            return Vocabulary()
        words, rest = self.keys[:, : self.count].copy()
        del self.slots, self.keys
        size = np.ones(self.count, dtype=np.int64)  # words an id takes
        if len(long := np.flatnonzero(rest >> 32)):
            data, tail_start, tail_length = self.tails.vocabulary().packed
            tail = (rest[long] >> 32) - 1
            size[long] += (k := (tail_length[tail] + 7) >> 3)
            place = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
            tails = data.view(np.uint64)[np.repeat(tail_start[tail] // 8, k) + place]
            words = np.insert(tails, np.cumsum(size) - size - np.arange(self.count), words)
        length = (rest & 0xFFFFFFFF).astype(np.int64)
        return Vocabulary(packed=(words.view(np.uint8), 8 * (np.cumsum(size) - size), length))


def _mapped(shape, dtype) -> np.ndarray:
    """An array to be written before it is read; from 1 MiB on over a
    private anonymous map, whose pages are taken when first written and go
    back to the system, not to a heap, when it is dropped (a smaller map
    costs more time than it saves memory)."""
    n, size = math.prod(shape), math.prod(shape) * np.dtype(dtype).itemsize
    if size < 1 << 20:
        return np.empty(shape, dtype)
    buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buffer, dtype=dtype, count=n).reshape(shape)


def _bytewise_order(data, start, length) -> np.ndarray:
    """The order of byte strings by their bytes, string p being the
    `length[p]` bytes from `start[p]` of the uint8 array `data`. Strings are
    sorted a word at a time, masked to their remaining bytes and read
    big-endian, each pass only among the strings that all earlier words
    leave tied, and the ones still tied after their last word (they differ
    only by trailing NULs) shortest first. So no string is padded to the
    length of the longest, and ids of up to 8 bytes take one sort."""
    words, order = _words(data), np.arange(len(length))
    tie = np.zeros(len(length), dtype=np.int64)  # by place: where its tie starts
    at = np.arange(len(length))  # the places in ties of more than one string
    depth = 0
    while len(at) and 8 * depth < length[order[at]].max():
        ids = order[at]
        # a string with no bytes left may point past `words`: clipped, masked
        word = words[np.minimum(start[ids] + 8 * depth, len(words) - 1)]
        word = (word & _WORD_MASK[np.clip(length[ids] - 8 * depth, 0, 8)]).byteswap()
        group = tie[at]
        sub = np.lexsort((word, group)) if depth else np.argsort(word)  # all one tie
        order[at], word = ids[sub], word[sub]
        new = np.ones(len(at), dtype=bool)
        new[1:] = (group[1:] != group[:-1]) | (word[1:] != word[:-1])
        tie[at] = np.maximum.accumulate(np.where(new, at, 0))
        at = at[~(new & np.append(new[1:], True))]
        depth += 1
    ids = order[at]
    order[at] = ids[np.lexsort((length[ids], tie[at]))]
    return order


def _plain_timestamps(a, start, end):
    """(values, other): the int64 value of each cell `a[start:end]` that is
    an optional '-' and 1 to 18 ASCII digits, and a mask of the other cells,
    whose values are left undefined. Digits are read 8 to a word, bytes
    before them set to '0', and each word checked (a digit's high nibble is
    3, also after adding 6) and summed in place. A cell too close to the
    start of `a` for its words is other."""
    negative = (end > start) & (a.take(start, mode="clip") == ord("-"))
    digits = end - start - negative
    other = (digits < 1) | (digits > _TS_DIGITS)
    n_words = -(-min(int(digits.max(initial=0)), _TS_DIGITS) // 8)
    other |= end < 8 * n_words
    words, values = _words(a), np.zeros(len(end), dtype=np.uint64)
    for k in range(n_words - 1, -1, -1):  # most significant first
        # the bytes of the word before the cell's last 8k + 8 become '0'
        before = _WORD_MASK[8 - np.clip(digits - 8 * k, 0, 8)]
        word = words[np.maximum(end - 8 * (k + 1), 0)]
        word ^= (word ^ _ZEROS) & before
        other |= ((word & _HIGH_NIBBLES) != _ZEROS) | (((word + _SIXES) & _HIGH_NIBBLES) != _ZEROS)
        for mask, multiplier, shift in _DIGIT_STEPS:
            word &= mask
            word *= multiplier
            word >>= shift
        values *= np.uint64(10**8)
        values += word
    values = values.view(np.int64)
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
    at a time: a cell ends at a separator, LF or comma, found by one scan,
    and starts after the one before. None when `_csv_safe` does not hold."""
    line0 = 2  # file line of the block's first line
    with open(path, "rb") as fh, ExitStack() as stack:
        header = fh.readline()
        if not header:
            raise ParseError(path, 1, "empty file, expected header")
        if not _csv_safe(header, len(header)):
            return None
        tokens = _Tokens(path, spec, _header(path, header), stack)
        width = tokens.width
        while tokens.error is None and (block := fh.read(BLOCK_BYTES)):
            # to the end of the line, with an LF, and 8 bytes for `_words`
            line = b"" if block.endswith(b"\n") else fh.readline()
            eol = b"" if (line or block).endswith(b"\n") else b"\n"
            data = b"".join((block, line, eol, bytes(8)))
            a = np.frombuffer(data, dtype=np.uint8)[:-8]
            end = np.flatnonzero((a == ord("\n")) | (a == ord(",")))
            start = np.concatenate(([0], end[:-1] + 1))
            lf = np.flatnonzero(a[end] == ord("\n"))  # the cells that end lines
            fields = np.diff(lf, prepend=-1)
            starts = start[lf - fields + 1]  # where each line starts
            if not _csv_safe(data, int((end[lf] - starts).max())):
                return None
            if b"\r" in data:
                end[lf] -= a[end[lf] - 1] == ord("\r")
            # `bad` is the block's first line with invalid UTF-8 or the
            # wrong number of fields; the rows before it go to `add`
            bad, error = len(lf), None
            if not data.isascii():
                try:
                    data.decode("utf-8")
                except UnicodeDecodeError as exc:
                    bad = int(np.searchsorted(starts, exc.start, side="right")) - 1
                    error = _utf8_error(path, line0 + bad, exc)
            nonblank = end[lf[:bad]] > starts[:bad]
            wrong = np.flatnonzero(nonblank & (fields[:bad] != width))
            if len(wrong):
                bad = int(wrong[0])
                message = f"expected {width} columns, got {fields[bad]}"
                error = ParseError(path, line0 + bad, message)
            line = np.flatnonzero(nonblank[:bad])
            blank = np.flatnonzero(~nonblank[:bad])
            # the cells of the lines before `bad`, less a blank line's one
            cells = lf[bad - 1] + 1 if bad else 0
            start, end = start[:cells], end[:cells]
            if len(blank):
                start, end = np.delete(start, lf[blank]), np.delete(end, lf[blank])
            start, end = start.reshape(-1, width), end.reshape(-1, width)
            blank -= np.arange(len(blank))  # rows before each blank line
            tokens.add(data, start, end, line0 + line, blank, error, not fh.peek(1))
            line0 += len(lf)
        tokens.collect()
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
    """y_in and y_pre, by `float()` on the decoded text of each non-empty
    cell. An empty y_pre is NaN and any other cell must parse to a finite
    value. The first bad cell in row order is the error. A pure-ASCII block
    is decoded once, its byte offsets being character offsets."""
    bounds = zip(start.ravel().tolist(), end.ravel().tolist())
    if data.isascii():
        text = data.decode("ascii")
        cells = [text[s:e] for s, e in bounds]
    else:
        cells = [data[s:e].decode("utf-8") for s, e in bounds]
    values = np.array([_float(c) if c else math.nan for c in cells], dtype=np.float64)
    values = values.reshape(start.shape)
    ok = np.isfinite(values) | (start == end) & (np.array(names) == "y_pre")
    if ok.all():
        return values, None, None
    k, c = np.argwhere(~ok)[0].tolist()
    cell = cells[k * start.shape[1] + c]
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
) -> tuple[EventLog, EventParseReport]:
    """Parse an events CSV, keeping rows with kind in `kind_filter` and
    timestamp in the inclusive window [t0, t1].

    Returns the kept events in file order plus a report counting every
    dropped row. Rows whose kind is neither in DEFAULT_EVENT_KINDS nor in
    `kind_filter` are skipped with a warning; malformed rows raise
    ParseError with the line number.
    """
    kind_filter = set(kind_filter)
    known = DEFAULT_EVENT_KINDS | kind_filter
    t0, t1 = window
    tokens = _tokenize(path, _EVENTS)
    (buyer, seller, kind), kinds = tokens.codes, tokens.ids[2]
    timestamp = tokens.values[:, 0]
    is_known = np.array([k in known for k in kinds], dtype=bool)[kind]
    # one warning per unknown kind, in order of first appearance, at its
    # first line
    codes, first, count = np.unique(kind[~is_known], return_index=True, return_counts=True)
    first = np.flatnonzero(~is_known)[first]
    lines = first + 2 + np.searchsorted(tokens.blank_rows, first, side="right")
    for t in np.argsort(first).tolist():
        warnings.warn(
            f"{path}:{lines[t]}: unknown event kind {kinds[codes[t]]!r}, "
            f"{count[t]} row(s) skipped",
            stacklevel=2,
        )
    if tokens.error is not None:
        raise tokens.error
    selected = np.array([k in kind_filter for k in kinds], dtype=bool)[kind]
    in_window = (t0 <= timestamp) & (timestamp <= t1)
    keep = selected & in_window
    report = EventParseReport(
        rows_read=len(kind),
        rows_kept=int(keep.sum()),
        dropped_kind=int((is_known & ~selected).sum()),
        dropped_window=int((selected & ~in_window).sum()),
        dropped_unknown_kind=int((~is_known).sum()),
    )
    # each column's tokens are dropped once its kept rows are copied, so
    # that one column at a time is held twice
    columns, ids = [buyer, seller, kind, timestamp], tokens.ids
    del tokens, buyer, seller, kind, timestamp
    kept = [columns.pop(0)[keep] for _ in range(4)]
    vocabularies, codes = zip(*map(_trimmed, ids, kept[:3]))
    return EventLog(*vocabularies, *codes, kept[3]), report


def default_design_path(assignments_path) -> Path:
    """Sidecar convention: assignments `foo.csv` -> design `foo.design.json`."""
    p = Path(assignments_path)
    return p.with_suffix(".design.json")


def parse_design(path) -> list[Variant]:
    with open(path, "r", encoding="utf-8") as fh:
        try:  # every number a float: an integer beyond a float's range is inf
            payload = json.load(fh, parse_int=float)
        except ValueError as exc:  # malformed JSON or UTF-8
            raise IngestError(f"{path}: design file is not valid JSON: {exc}") from None
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
        label, probability = entry["label"], entry["probability"]
        if not isinstance(label, str):
            raise IngestError(f"{path}: variant {k} has non-string label {label!r}")
        if not isinstance(probability, float):  # a bool or a numeric string is not
            raise IngestError(f"{path}: variant {k} has non-numeric probability {probability!r}")
        control = entry.get("control", False)
        if not isinstance(control, bool):
            raise IngestError(f"{path}: variant {k} has non-boolean control {control!r}")
        variants.append(Variant(label, probability, control))
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
    buyer_ids, buyer = _trimmed(buyer_ids, buyer)
    declared = {v.label: k for k, v in enumerate(variants)}
    codes = np.array([declared.get(x, -1) for x in labels], dtype=np.int64)
    undeclared = np.flatnonzero(codes[label] < 0)
    if len(undeclared):
        r = undeclared[0]
        raise IngestError(
            f"buyer {buyer_ids[buyer[r]]!r} assigned to undeclared variant "
            f"{labels[label[r]]!r}"
        )
    variant = np.empty(len(buyer_ids), dtype=np.int64)
    variant[buyer] = codes[label]
    return AssignmentTable(buyer_ids, variant, variants)


def parse_outcomes(path) -> OutcomeTable:
    """Parse an outcomes CSV; the y_pre column is optional.

    Non-finite outcome values (NaN/inf) are hard errors: downstream
    estimators require finite reals.
    """
    tokens = _tokenize(path, _OUTCOMES)
    if tokens.error is not None:
        raise tokens.error
    sellers, seller = _trimmed(tokens.ids[0], tokens.codes[0])
    y = np.full((len(sellers), 2), np.nan)
    y[seller, : tokens.width - 1] = tokens.values
    return OutcomeTable(sellers, y, has_pre=tokens.width == 3)


# --- one CSV writer: the simulator's three files and graph dumps ---


def _quoted(cells: Sequence[str]) -> list[str]:
    """Each of the str `cells` as the csv module writes it in a row of two
    or more fields: each row (cell, "") is written whole by one `write`."""
    rows = []
    csv.writer(SimpleNamespace(write=rows.append)).writerows((cell, "") for cell in cells)
    return [row[:-3] for row in rows]


def _distinct(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """A 1-D column of numbers as (cells, codes): the repr of each distinct
    value once, as a Python int or float, by its bits (so -0.0 keeps its
    sign), and an empty cell for NaN."""
    values = values.astype(np.float64 if values.dtype.kind == "f" else np.int64, copy=False)
    bits, codes = np.unique(values.view(np.int64), return_inverse=True)
    return [repr(x) if x == x else "" for x in bits.view(values.dtype).tolist()], codes


def csv_rows(columns: Sequence, end: str = "\r\n") -> Iterator[str]:
    """The text of CSV rows, 65536 rows at a time. A column is a (cells,
    codes) pair, row k's cell being `cells[codes[k]]`, each distinct cell
    quoted once, or a column of numbers (see `_distinct`), whose reprs need
    no quotes. Cells are joined by commas and each row ends with `end`."""
    columns = [(np.array(cells, dtype=object), codes) for cells, codes in (
        _distinct(c) if isinstance(c, np.ndarray) else (_quoted(c[0]), c[1]) for c in columns)]
    n, step = len(columns[0][1]), 1 << 16
    for lo in range(0, n, step):
        block = np.empty((min(step, n - lo), 2 * len(columns)), dtype=object)
        block[:, 1::2] = [","] * (len(columns) - 1) + [end]
        for j, (cells, codes) in enumerate(columns):
            block[:, 2 * j] = cells[codes[lo : lo + step]]
        yield "".join(block.ravel().tolist())


def write_csv(path, header: Sequence[str], columns: Sequence):
    """The CSV file of `header` and `csv_rows(columns)`, byte for byte what
    the csv module writes for the same rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(csv_rows(columns))


def write_events(path, events: EventLog):
    write_csv(path, EVENTS_HEADER, [(events.buyers, events.buyer), (events.sellers, events.seller),
                                    (events.kinds, events.kind), events.timestamp])


def write_assignments(path, table: AssignmentTable):
    """The assignments CSV and, beside it, its design JSON sidecar."""
    buyers = (table.buyers, np.arange(len(table.buyers)))
    write_csv(path, ASSIGNMENTS_HEADER, [buyers, (table.labels, table.variant)])
    with open(default_design_path(path), "w", encoding="utf-8") as fh:
        json.dump({"variants": list(map(asdict, table.variants))}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_outcomes(path, table: OutcomeTable):
    """Floats are written as `repr(float(x))`, an empty cell for no y_pre."""
    header = ["seller_id", "y_in", "y_pre"][: 3 if table.has_pre else 2]
    sellers = (table.sellers, np.arange(len(table.sellers)))
    write_csv(path, header, [sellers, *table.y.T[: len(header) - 1]])
