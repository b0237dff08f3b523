"""Feature vocabularies, impression logs and per-position behavior sequences.

One TSV format (UTF-8, tab-separated) serves every table the package
writes: logs and reports alike are lists of flat dataclass rows, written by
`write_tsv` and read back by `read_tsv`. The columns are the dataclass
fields in declaration order, named in a header row; each value is written
with `str` and read back with its field's declared type, which must be
`int`, `float` or `str`. An undefined value is a float NaN, written `nan`.
An impression log holds one `RawImpression` per row, a behavior log one
`RawBehavior` (one historical click) per row.

Tokens are arbitrary strings; integer ids are assigned per field with id 0
reserved for unknown/padding. Time differences are bucketed into 16
logarithmic minute buckets.

Click histories are int64 id arrays in one column order, `HISTORY_COLUMNS`:
item_id, category, query, geo, hour, dow, time_bucket. `encode_history`
gives each user one ts-ascending array of rows (ts, position, then the six
vocabulary ids); `build_position_behavior_sequences` cuts it at a request's
timestamp into `[n, 7]` rows (the six ids, then the recency bucket), in
K + 1 most-recent-first sequences stored back to back: sequence 0 is the
position-blind history DIN reads, sequence k the clicks at position k that
DPIN reads. No other code builds a history's sequences: logged requests
(`group_requests`) and synthetic ones (`serving.synthetic_request`) alike
are cut by `build_position_behavior_sequences`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence, get_type_hints

import numpy as np

from .errors import FormatError, UsageError

USER_FIELDS = ("user_id", "segment")
CONTEXT_FIELDS = ("query", "geo", "hour", "dow")
ITEM_FIELDS = ("item_id", "category")
VOCAB_FIELDS = USER_FIELDS + CONTEXT_FIELDS + ITEM_FIELDS

TRAFFIC_KINDS = ("regular", "randomized")

TIME_BUCKETS = 16

# one row per historical click: the clicked item, its click-time context, its recency
HISTORY_COLUMNS = ITEM_FIELDS + CONTEXT_FIELDS + ("time_bucket",)


@dataclass
class RawImpression:
    """One displayed item exactly as logged (string tokens)."""

    request_id: str
    day: int
    traffic: str
    user_id: str
    segment: str
    query: str
    geo: str
    hour: str
    dow: str
    item_id: str
    category: str
    position: int
    bid: float
    click: int
    ts: int


@dataclass
class RawBehavior:
    """One historical click exactly as logged (string tokens)."""

    user_id: str
    ts: int
    position: int
    item_id: str
    category: str
    query: str
    geo: str
    hour: str
    dow: str


IMPRESSION_COLUMNS = tuple(f.name for f in fields(RawImpression))
BEHAVIOR_COLUMNS = tuple(f.name for f in fields(RawBehavior))


class Vocabulary:
    """Per-field token -> dense id maps; id 0 is unknown/padding everywhere."""

    def __init__(self):
        self._maps: dict[str, dict[str, int]] = {f: {} for f in VOCAB_FIELDS}

    def size(self, field_name: str) -> int:
        return len(self._field(field_name)) + 1

    def encode(self, field_name: str, token: str) -> int:
        return self._field(field_name).get(token, 0)

    def _field(self, field_name: str) -> dict[str, int]:
        if field_name not in self._maps:
            raise UsageError(f"unknown vocabulary field {field_name!r}")
        return self._maps[field_name]

    @classmethod
    def build(cls, impressions: Iterable[RawImpression]) -> "Vocabulary":
        """Assign ids 1, 2, ... to each field's tokens in first-seen order."""
        vocab = cls()
        for imp in impressions:
            for f in VOCAB_FIELDS:
                token = getattr(imp, f)
                ids = vocab._maps[f]
                if token not in ids:
                    ids[token] = len(ids) + 1
        return vocab


# -- file I/O ---------------------------------------------------------------


# the column types `str` writes and the type itself parses back exactly
_COLUMN_TYPES = (int, float, str)


def _columns(record: type) -> dict[str, type]:
    """Field name -> type of `record`, in order; UsageError names a field of another type."""
    types = get_type_hints(record)
    columns = {c.name: types[c.name] for c in fields(record)}
    for name, kind in columns.items():
        if kind not in _COLUMN_TYPES:
            raise UsageError(f"{record.__name__}.{name}: a TSV column must be int, float or str, not {kind}")
    return columns


def read_tsv(path, record: type) -> list:
    """Rows of a table of `record`s; FormatError names the file and line of a bad row."""
    path = Path(path)
    columns = _columns(record)
    parsers = list(columns.values())
    rows = []
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header.split("\t") != list(columns):
            raise FormatError(f"{path}: unsupported {record.__name__} header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(parsers):
                raise FormatError(f"{path}:{lineno}: expected {len(parsers)} columns, found {len(parts)}")
            try:
                rows.append(record(*[parse(part) for parse, part in zip(parsers, parts)]))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
    return rows


def write_tsv(path, record: type, rows: Iterable) -> None:
    """Write `rows`, each a `record`, as a table `read_tsv(path, record)` reads back.

    A `str` value holding a tab or line break would split its row, and a row
    whose line is whitespace only would be skipped as blank, so either raises
    UsageError, naming the record and row, before the file is opened.
    """
    names = list(_columns(record))
    lines = []
    for index, row in enumerate(rows):
        values = [str(getattr(row, name)) for name in names]
        line = "\t".join(values)
        if line.count("\t") != len(names) - 1 or "\n" in line or "\r" in line:
            name = next(n for n, v in zip(names, values) if any(c in v for c in "\t\n\r"))
            raise UsageError(f"{record.__name__}.{name} of rows[{index}] holds a tab or line break")
        if not line.strip():
            raise UsageError(f"{record.__name__} rows[{index}] would be a blank line, which read_tsv skips")
        lines.append(line + "\n")
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(names) + "\n")
        fh.writelines(lines)


# -- behavior sequences ------------------------------------------------------


# dt falls in bucket b >= 1 exactly when log2(1 + dt/60) >= b, i.e. dt >= 60 * (2**b - 1)
_BUCKET_EDGES = 60 * (2 ** np.arange(1, TIME_BUCKETS, dtype=np.int64) - 1)


def time_bucket(delta_seconds):
    """16 logarithmic minute buckets: min(15, floor(log2(1 + dt/60))), elementwise."""
    dt = np.asarray(delta_seconds)
    if (dt < 0).any():
        raise UsageError("time_bucket needs a non-negative time difference")
    return _BUCKET_EDGES.searchsorted(dt, side="right")


@dataclass
class PositionBehaviorSequences:
    """A request's recent clicks as K + 1 sequences, each most recent first.

    `records` holds sequences 0..K back to back, `lengths[k]` rows for
    sequence k, in `HISTORY_COLUMNS` order: sequence 0 is the position-blind
    history, sequence k the clicks at display position k. Clicks at or after
    `reference_ts` never enter (leakage guard). `leaked` counts the user's
    clicks at exactly `reference_ts`, the request's own, which the guard
    keeps out; a sum of `leaked` over requests counts each click at most once.
    """

    records: np.ndarray  # [R, 7]
    lengths: np.ndarray  # [K + 1]
    leaked: int = 0

    @property
    def max_position(self) -> int:
        return len(self.lengths) - 1

    def at(self, sequence: int) -> np.ndarray:
        """The `[n, 7]` rows of `sequence`: 0 for the position-blind history, k for position k."""
        if not 0 <= sequence <= self.max_position:
            raise UsageError(f"sequence {sequence} outside [0, {self.max_position}]")
        start = int(self.lengths[:sequence].sum())
        return self.records[start : start + int(self.lengths[sequence])]


# columns of an encoded history: ts, position, then the ids of HISTORY_COLUMNS[:-1]
_TS, _POSITION, _IDS = 0, 1, slice(2, None)
_NO_HISTORY = np.zeros((0, len(HISTORY_COLUMNS) + 1), dtype=np.int64)
_NO_HISTORY.flags.writeable = False


def _encoder(vocab: Vocabulary, fields: tuple[str, ...]) -> Callable[[object], tuple[int, ...]]:
    """A row's ids of two or more `fields`, one dict lookup each, as `Vocabulary.encode` gives them."""
    maps = [vocab._field(f) for f in fields]
    tokens = attrgetter(*fields)
    unknown = (0,) * len(fields)
    return lambda row: tuple(map(dict.get, maps, tokens(row), unknown))


def encode_history(behaviors: Sequence[RawBehavior], vocab: Vocabulary) -> dict[str, np.ndarray]:
    """Per user token, the user's clicks as one int64 array sorted by ts ascending.

    Rows are (ts, position, item_id, category, query, geo, hour, dow).
    """
    ids = _encoder(vocab, HISTORY_COLUMNS[:-1])
    grouped: dict[str, list[tuple[int, ...]]] = {}
    for b in behaviors:
        grouped.setdefault(b.user_id, []).append((b.ts, b.position) + ids(b))
    history: dict[str, np.ndarray] = {}
    for user, rows in grouped.items():
        events = np.array(rows, dtype=np.int64)
        history[user] = events[np.argsort(events[:, _TS], kind="stable")]
    return history


def build_position_behavior_sequences(
    history: np.ndarray,
    reference_ts: int,
    max_position: int,
    max_len: int,
) -> PositionBehaviorSequences:
    """Cut a user's click history into the position-blind and per-position sequences.

    `history` is one user's `encode_history` array, sorted by ts ascending.
    Events at or after `reference_ts` are excluded (those at exactly
    `reference_ts` are counted), as are events outside positions
    1..`max_position`. Sequence 0 keeps the most recent `max_len` events,
    sequence k the most recent `max_len` logged at position k. The result
    holds copies, so it does not keep `history` alive. Both `max_position`
    and `max_len` must be >= 1 (UsageError).
    """
    if max_position < 1 or max_len < 1:
        raise UsageError(f"max_position and max_len must be >= 1, got {max_position} and {max_len}")
    ts = history[:, _TS]
    cutoff = int(ts.searchsorted(reference_ts))
    past = history[:cutoff][::-1]  # most recent first
    position = past[:, _POSITION]
    # stable sort by position keeps each position's events most recent first
    order = position.argsort(kind="stable")
    if cutoff and not (position[order[0]] >= 1 and position[order[-1]] <= max_position):
        past = past[(position >= 1) & (position <= max_position)]
        position = past[:, _POSITION]
        order = position.argsort(kind="stable")
    rows = np.empty((len(past), len(HISTORY_COLUMNS)), dtype=np.int64)
    rows[:, :-1] = past[:, _IDS]
    # time_bucket's edges; every gap is positive, as the events precede reference_ts
    rows[:, -1] = _BUCKET_EDGES.searchsorted(reference_ts - past[:, _TS], side="right")

    lengths = np.bincount(position, minlength=max_position + 1)  # lengths[0] == 0
    if len(order) > max_len and lengths.max() > max_len:  # keep each position's most recent max_len
        rank = np.arange(len(order)) - (lengths.cumsum() - lengths).repeat(lengths)
        order = order[rank < max_len]
        lengths = np.minimum(lengths, max_len)
    lengths[0] = min(len(past), max_len)
    return PositionBehaviorSequences(
        records=rows[np.concatenate([np.arange(lengths[0]), order])],
        lengths=lengths,
        leaked=int(ts.searchsorted(reference_ts, side="right")) - cutoff,
    )


# -- request grouping -------------------------------------------------------


@dataclass
class Candidate:
    item_ids: tuple[int, int]
    bid: float


@dataclass
class Request:
    """Everything needed to score one ranking request."""

    request_id: str
    day: int
    traffic: str
    ts: int
    user_ids: tuple[int, int]
    context_ids: tuple[int, int, int, int]
    candidates: list[Candidate]
    sequences: PositionBehaviorSequences
    # per displayed impression (training/eval only): position, click
    positions: list[int] = field(default_factory=list)
    clicks: list[int] = field(default_factory=list)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)


def _check_impression(raw: RawImpression, max_position: int) -> None:
    """UsageError naming the field unless `raw` logs a valid impression.

    Its position must be an `int` in [1, `max_position`], its click the `int`
    0 or 1 (a bool is neither), its bid a finite positive `int` or `float`,
    and its traffic one of `TRAFFIC_KINDS`.
    """
    position, click, bid = raw.position, raw.click, raw.bid
    if type(position) is not int:
        raise UsageError(f"position must be an int, got {position!r}")
    if not 1 <= position <= max_position:
        raise UsageError(f"position {position} outside [1, {max_position}]")
    if type(click) is not int or click not in (0, 1):
        raise UsageError(f"click must be 0 or 1, got {click!r}")
    if not (isinstance(bid, (int, float)) and not isinstance(bid, bool) and math.isfinite(bid) and bid > 0):
        raise UsageError(f"bid must be positive and finite, got {bid!r}")
    if raw.traffic not in TRAFFIC_KINDS:
        raise UsageError(f"traffic must be one of {TRAFFIC_KINDS}, got {raw.traffic!r}")


# the fields every impression of one request logs alike
_REQUEST_FIELDS = ("day", "traffic", "ts") + USER_FIELDS + CONTEXT_FIELDS
_request_key = attrgetter(*_REQUEST_FIELDS)


def _check_request(request_id: str, raws: list[RawImpression]) -> None:
    """UsageError naming the request and field unless `raws`, sorted by position, are one request's."""
    key = _request_key(raws[0])
    for previous, raw in zip(raws, raws[1:]):
        if raw.position == previous.position:
            raise UsageError(f"request {request_id!r} logs position {raw.position} twice")
        if _request_key(raw) != key:
            name = next(n for n, a, b in zip(_REQUEST_FIELDS, _request_key(raw), key) if a != b)
            raise UsageError(f"request {request_id!r}: impressions disagree on {name}")


def group_requests(
    raw_impressions: Sequence[RawImpression],
    vocab: Vocabulary,
    history_by_user: dict[str, np.ndarray],
    max_position: int,
    max_len: int,
) -> list[Request]:
    """Group raw impressions by request id and attach behavior sequences.

    `history_by_user` is keyed by the raw user token (see encode_history).
    Requests come out in first-appearance order; displayed items are sorted
    by position. Every impression is validated (UsageError) and encoded; a
    request's impressions must fill distinct positions and agree on day,
    traffic, ts and the user and context fields.
    """
    by_request: dict[str, list[RawImpression]] = {}
    for raw in raw_impressions:
        by_request.setdefault(raw.request_id, []).append(raw)

    user_ids, context_ids, item_ids = (_encoder(vocab, f) for f in (USER_FIELDS, CONTEXT_FIELDS, ITEM_FIELDS))
    requests: list[Request] = []
    for rid, raws in by_request.items():
        for raw in raws:
            _check_impression(raw, max_position)
        raws.sort(key=attrgetter("position"))
        _check_request(rid, raws)
        first = raws[0]
        history = history_by_user.get(first.user_id, _NO_HISTORY)
        requests.append(
            Request(
                request_id=rid,
                day=first.day,
                traffic=first.traffic,
                ts=first.ts,
                user_ids=user_ids(first),
                context_ids=context_ids(first),
                candidates=[Candidate(item_ids=item_ids(r), bid=r.bid) for r in raws],
                sequences=build_position_behavior_sequences(history, first.ts, max_position, max_len),
                positions=[r.position for r in raws],
                clicks=[r.click for r in raws],
            )
        )
    return requests
