"""Countable posets presented as enumerations with finiteness oracles.

A :class:`StreamPoset` is an injective enumeration ``stage -> id`` plus a
decidable ``leq``.  Oracles, when present, must answer with *complete* finite
lists, ranges or :class:`IdRuns` of ids; an oracle callable may return
``None`` for an element whose answer set is not finite.
:func:`validate_oracles` cross-checks every promise against ``leq`` by brute
force over a prefix.
"""

from __future__ import annotations

import inspect
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import FiniteDomainEnd, FormatError, OracleMissing, UnknownIdError
from .kinds import FinSide
from .poset import ID_LIMIT, FinitePoset, order_axiom_faults

__all__ = [
    "IdRuns",
    "OracleBundle",
    "StreamPoset",
    "take",
    "prefix",
    "Violation",
    "ValidationReport",
    "validate_oracles",
    "as_id",
    "read_side",
    "omega_stream",
    "omega_star_stream",
    "zeta_stream",
    "antichain_stream",
    "omega_plus_omega_star_stream",
    "stream_from_finite",
    "zigzag_encode",
    "zigzag_decode",
    "STREAM_FAMILIES",
]


class IdRuns:
    """An oracle answer in parts, each a ``range`` or a list; it lists their concatenation.

    ``len``, ``in`` and iteration read the parts in order, so whatever reads
    an answer as a sequence reads its listing.  The audit and the block runs
    read a ``range`` part off its ends instead of listing it.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[range | list[int]]):
        self.parts = tuple(parts)

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __contains__(self, y) -> bool:
        return any(y in part for part in self.parts)

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.parts)

    def __repr__(self) -> str:
        return f"IdRuns({self.parts!r})"


def _parts(ans) -> tuple:
    """The parts of an oracle answer: an :class:`IdRuns`' own, else the answer alone."""
    return ans.parts if isinstance(ans, IdRuns) else (ans,)


@dataclass(frozen=True)
class OracleBundle:
    """Optional finiteness oracles; each answers completely or with ``None``.

    An answer is a list, a ``range`` or an :class:`IdRuns` of ids, audited
    as its listing.  ``predecessors(x)`` lists all y <= x, ``successors(x)``
    all y >= x, ``interval(x, y)`` everything between x and y in either
    orientation, and ``side(x)`` says which cone of x is finite.
    """

    predecessors: Callable[[int], Sequence[int] | None] | None = None
    successors: Callable[[int], Sequence[int] | None] | None = None
    interval: Callable[[int, int], Sequence[int] | None] | None = None
    side: Callable[[int], FinSide | None] | None = None

    def present(self) -> list[str]:
        return [
            name
            for name in ("predecessors", "successors", "interval", "side")
            if getattr(self, name) is not None
        ]


class StreamPoset:
    """An enumerated poset with decidable comparison.

    ``element_at`` must be injective and raise :class:`FiniteDomainEnd` past
    the end of a finite domain; ``size=None`` declares an unbounded stream.
    ``leq_block`` is an optional bulk hook: ``leq_block(rows)`` returns the
    square boolean relation matrix on a list of ids and, when the hook has a
    ``cols`` parameter, ``leq_block(rows, cols)`` returns the rectangle whose
    cell (i, j) says ``rows[i] <= cols[j]``.  Without one, rectangles fall
    back to ``leq``, which is called on Python ints.  Every cell must agree
    with ``leq``; the oracle auditors spot-check that, and decide the ids an
    oracle answer lists outside the audited prefix with one rectangle per
    answer, passing those ids as an int64 array.  ``leq`` refuses an id
    outside ``0 <= id < 2**63`` with :class:`UnknownIdError`, and so do the
    library streams' hooks.
    """

    def __init__(
        self,
        element_at: Callable[[int], int],
        leq: Callable[[int, int], bool],
        *,
        oracles: OracleBundle | None = None,
        size: int | None = None,
        name: str = "stream",
        leq_block: Callable[..., np.ndarray] | None = None,
    ):
        self._element_at = element_at
        self._leq = leq
        self.oracles = oracles
        self.size = size
        self.name = name
        self._leq_block = leq_block
        self._leq_rect = leq_block if _takes_cols(leq_block) else None
        self._cache: list[int] = []
        self._seen: set[int] = set()

    def element_at(self, stage: int) -> int:
        if 0 <= stage < len(self._cache):  # enumerated and checked already
            return self._cache[stage]
        if stage < 0:
            raise UnknownIdError(f"stages are non-negative, got {stage}")
        if self.size is not None and stage >= self.size:
            raise FiniteDomainEnd(stage)
        while len(self._cache) <= stage:
            nxt = len(self._cache)  # nxt <= stage < size
            x = self._element_at(nxt)
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < ID_LIMIT:
                raise FormatError(f"enumeration produced a non-id value {x!r}")
            if x in self._seen:
                raise FormatError(f"enumeration repeated element {x} at stage {nxt}")
            self._cache.append(x)
            self._seen.add(x)
        return self._cache[stage]

    def leq(self, x: int, y: int) -> bool:
        if not (0 <= x < ID_LIMIT and 0 <= y < ID_LIMIT):
            raise UnknownIdError(f"ids are the ints 0 <= id < 2**63, got ({x}, {y})")
        return bool(self._leq(x, y))

    def relation_matrix(self, rows: Sequence[int], cols: Sequence[int] | None = None) -> np.ndarray:
        """Cell (i, j) says ``rows[i] <= cols[j]``; ``cols`` defaults to ``rows``.

        Without a hook, the ids are checked once, as :meth:`leq` checks them,
        before the raw ``leq`` is asked for each cell.
        """
        hook = self._leq_block if cols is None else self._leq_rect
        shape = (len(rows), len(rows) if cols is None else len(cols))
        if hook is not None:
            m = np.asarray(hook(rows) if cols is None else hook(rows, cols), dtype=bool)
            if m.shape != shape:
                raise FormatError("leq_block returned a wrongly shaped matrix")
            return m
        _domain_ids(rows)
        if cols is not None:
            _domain_ids(cols)
        m = np.zeros(shape, dtype=bool)
        leq = self._leq
        rows, cols = (a.tolist() if isinstance(a, np.ndarray) else a for a in (rows, cols))
        for i, x in enumerate(rows):
            row = m[i]
            for j, y in enumerate(rows if cols is None else cols):
                if leq(x, y):
                    row[j] = True
        return m


def _takes_cols(hook) -> bool:
    """Does a ``leq_block`` hook have a ``cols`` parameter?"""
    try:
        return hook is not None and "cols" in inspect.signature(hook).parameters
    except (TypeError, ValueError):  # no signature to read
        return False


def _bulk(rel: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """A two-list ``leq_block`` hook from a vectorised comparison of id arrays.

    Like :meth:`StreamPoset.leq`, it refuses an id outside ``0 <= id < 2**63``
    with :class:`UnknownIdError`.
    """

    def hook(rows: Sequence[int], cols: Sequence[int] | None = None) -> np.ndarray:
        r = _domain_ids(rows)
        c = r if cols is None else _domain_ids(cols)
        return rel(r[:, None], c[None, :])

    return hook


def _domain_ids(ids: Sequence[int]) -> np.ndarray:
    """``ids`` as an int64 array, or :class:`UnknownIdError` naming the first id outside the domain."""
    try:
        a = np.asarray(ids, dtype=np.int64)
    except OverflowError:
        a = None
    if a is None or a.min(initial=0) < 0:
        y = next(y for y in ids if not 0 <= y < ID_LIMIT)
        raise UnknownIdError(f"ids are the ints 0 <= id < 2**63, got {y}")
    return a


def take(stream: StreamPoset, count: int) -> list[int]:
    """First ``count`` enumerated ids, or all of them if the stream ends.

    One ``element_at`` call enumerates and checks every stage up to the
    last one asked for, in stage order, so the first faulty stage raises.
    """
    stop = count if stream.size is None else min(count, stream.size)
    if stop <= 0:
        return []
    try:
        stream.element_at(stop - 1)
    except FiniteDomainEnd:  # the enumeration ended early; its cache holds what it gave
        pass
    return stream._cache[:stop]


def prefix(stream: StreamPoset, s: int) -> FinitePoset:
    """The induced finite poset on the first ``s`` enumerated elements.

    Propagates :class:`FiniteDomainEnd` if the stream ends before stage ``s``.
    """
    ids = [stream.element_at(stage) for stage in range(s)]
    return FinitePoset(ids, stream.relation_matrix(ids))


def require_oracle(stream: StreamPoset, name: str):
    bundle = stream.oracles
    fn = getattr(bundle, name, None) if bundle is not None else None
    if fn is None:
        raise OracleMissing(f"stream {stream.name!r} has no {name} oracle")
    return fn


# -- validation -------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    kind: str  # UNSOUND | INCOMPLETE | SIDE_INCONSISTENT | RELATION | INVALID
    oracle: str
    subject: tuple
    detail: str


@dataclass
class ValidationReport:
    """Outcome of brute-force oracle checking over a prefix.

    ``not_present`` lists oracles the stream simply does not provide; that is
    never a failure.  ``ok`` holds iff no violations were found.
    """

    stream: str
    requested: int
    prefix_size: int
    not_present: list[str] = field(default_factory=list)
    undefined: dict[str, int] = field(default_factory=dict)
    checked: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "stream": self.stream,
            "requested": self.requested,
            "prefix_size": self.prefix_size,
            "ok": self.ok,
            "not_present": list(self.not_present),
            "undefined": dict(self.undefined),
            "checked": dict(self.checked),
            "violations": [
                {
                    "kind": v.kind,
                    "oracle": v.oracle,
                    "subject": list(v.subject),
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


_FULL_CHECK_ELEMENTS = 300  # above this, per-element checks are sampled
_FULL_CHECK_INTERVAL = 120  # above this, interval pairs are sampled
_ANSWER_SOUND_CAP = 2000  # listed members verified per answer before sampling
_MAX_RECORDED = 50  # violations recorded per answer before truncating
_CHUNK_IDS = 1 << 13  # listed ids screened together; bounds what a chunk holds
_CHUNK_CELLS = 1 << 16  # truth-matrix cells screened together
_SPOT_CELLS = 256  # bulk-hook cells compared with leq on the prefix square
_SPOT_RECT_CELLS = 4  # ... and on each rectangle an audit asks for
_NO_IDS = np.zeros(0, dtype=np.int64)
_RELATION_FAULTS = {
    "reflexive": "relation is not reflexive here",
    "antisymmetric": "relation is not antisymmetric here",
    "transitive": "relation is not transitive on the prefix",
}


def randbelow(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``count`` draws of ``rng.randrange(n)``: the same values, read in batches.

    For ``0 < n < 2**32``, ``randrange(n)`` keeps the top ``n.bit_length()``
    bits of each next 32-bit word of the generator until they fall below
    ``n``.  Each batch asks ``getrandbits`` for as many words as draws are
    missing, so no word past the last draw is read and ``rng`` is left where
    the calls would leave it.
    """
    if not 0 < n < 1 << 32:
        raise ValueError(f"randbelow needs 0 < n < 2**32, got {n}")
    shift = 32 - n.bit_length()
    parts = [_NO_IDS]  # an int64 result, also for count 0
    while count:
        words = np.frombuffer(rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4") >> shift
        parts.append(words[words < n])
        count -= len(parts[-1])
    return np.concatenate(parts)


def _sample_indices(n: int, cap: int, seed: int) -> list[int]:
    if n <= cap:
        return list(range(n))
    rng = random.Random(seed)
    picked = set(range(min(cap // 3, n)))  # always cover the earliest elements
    while len(picked) < cap:
        # As many draws as are missing can only fill the sample on the last one.
        picked.update(randbelow(rng, n, cap - len(picked)).tolist())
    return sorted(picked)


def read_side(raw, x: int) -> FinSide | None:
    """Normalise a side oracle's answer for ``x``; ``None`` stays undefined.

    Raises :class:`FormatError` for anything that names neither cone.
    """
    if raw is None:
        return None
    try:
        return FinSide(raw)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"side oracle answered {raw!r} for element {x}") from exc


class _NotAnId(Exception):
    """An answer entry that lists no id (``args[0]``): the one violation its answer reports."""


def _count(part) -> int:
    """``len(part)``, also for a ``range`` longer than ``sys.maxsize``."""
    try:
        return len(part)
    except OverflowError:
        return -((part.start - part.stop) // part.step)


def answer_size(ans) -> int:
    """``len(ans)``, also for an answer longer than ``sys.maxsize``."""
    try:
        return len(ans)
    except OverflowError:
        return sum(map(_count, _parts(ans)))


def _as_ids(part) -> range | list[int]:
    """An answer part read as ids: a ``range`` as it is, decided from its ends; any other as a list of ints.

    Raises :class:`_NotAnId` with the part's first entry that lists no id.
    """
    if isinstance(part, range):
        if not part or (0 <= part[0] < ID_LIMIT and 0 <= part[-1] < ID_LIMIT):
            return part
        if not 0 <= part[0] < ID_LIMIT:
            raise _NotAnId(part[0])
        # Monotone: the first entry past the bound on the side it runs to.
        bound = ID_LIMIT if part.step > 0 else -1
        raise _NotAnId(part[-((part.start - bound) // part.step)])
    try:
        ids = list(map(operator.index, part))
        if not ids or (min(ids) >= 0 and max(ids) < ID_LIMIT):
            return ids
    except TypeError:
        pass
    y = next(y for y in part if as_id(y) is None)
    try:
        y = operator.index(y)
    except TypeError:
        pass
    raise _NotAnId(y)


def _repeat_free(parts: Sequence[range | list[int]]) -> bool:
    """Do id parts list no id twice, as each is strictly monotone and no two spans meet?"""
    spans = []
    for part in filter(None, parts):
        a, b = part[0], part[-1]
        if isinstance(part, list) and not all(map(operator.lt if a < b else operator.gt, part, part[1:])):
            return False
        spans.append((a, b) if a <= b else (b, a))
    spans.sort()
    return all(s[1] < t[0] for s, t in zip(spans, spans[1:]))


def distinct_ids(ans, other_than: int) -> int:
    """How many distinct ids other than ``other_than`` an answer lists; entries that list none do not count."""
    if isinstance(ans, list):
        return len({as_id(y) for y in ans} - {other_than, None})
    parts = []
    for part in _parts(ans):
        if isinstance(part, range):
            up = part if part.step > 0 else part[::-1]
            up = up[max(0, -(up.start // up.step)) :]  # from its first entry >= 0
            parts.append(range(up.start, min(up.stop, ID_LIMIT), up.step))
        else:
            parts.append([y for y in map(as_id, part) if y is not None])
    if _repeat_free(parts):
        return sum(map(_count, parts)) - any(other_than in part for part in parts)
    return len(set(chain.from_iterable(parts)) - {other_than})


_NOT_AN_ID = "listed element is not an id"
_TWICE = "answer lists an element twice"
_FAILS = "listed element fails the comparison"
_MISSING = "in-prefix element is missing"


def as_id(y) -> int | None:
    """The id an answer entry lists, or None when it lists none.

    Ids are the ints 0 <= id < ``ID_LIMIT``; a bool or a numpy integer counts
    as the int it equals, as it does in an int64 array.
    """
    try:
        y = operator.index(y)
    except TypeError:
        return None
    return y if 0 <= y < ID_LIMIT else None


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ``counts[t]`` items of each t, every item's t and its index among those of its t."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _id_array(ans: list) -> np.ndarray | None:
    """The answer as an int64 array, or None when some entry is not an int."""
    if not ans:
        return _NO_IDS
    try:
        a = np.asarray(ans)
    except (TypeError, ValueError, OverflowError):
        return None
    return a.astype(np.int64, copy=False) if a.ndim == 1 and a.dtype.kind == "i" else None


class PrefixAudit:
    """Oracle answers checked against the relation on a prefix, in bulk.

    :meth:`screen` takes ``(name, i, j, answer, ...)`` queries, where ``name``
    is ``predecessors`` or ``successors`` of ``ids[i]`` or ``interval`` of
    ``ids[i]`` and ``ids[j]``; items after the answer ride along untouched.

    The listing rule.  The truth row of a query holds the prefix ids its
    answer owes; a listed id outside the prefix is decided by the scalar
    ``leq``.  The first entry that is not an id (see :func:`as_id`), and
    failing that the first id listed again, is the one violation an answer
    reports, and ``leq`` never sees it; a ``range`` part is decided from its
    ends before anything is listed.  Otherwise every listed id, or every
    ``len // _ANSWER_SOUND_CAP``-th one of an answer longer than
    ``_ANSWER_SOUND_CAP``, must pass: a prefix id must be owed and any other
    must pass the comparison.  Then every owed id the answer does not list
    is missing, except that a cone answer may leave out its own subject.  An
    answer reports at most ``_MAX_RECORDED`` violations: the ``UNSOUND``
    ones in listing order, then the ``INCOMPLETE`` ones in the order of the
    Python set of owed ids less the listed and exempt ones.

    The screen clears queries a chunk at a time: the chunk's list parts
    become one id array, listed ids are found in the prefix by
    ``searchsorted``, soundness is read off the truth rows and completeness
    is ``truth & ~hit``.  A ``range`` part is never listed: its ends decide
    whether it lists only ids, the entries the rule samples are computed
    from their offsets, and the prefix ids between its ends that lie on its
    step are its other prefix hits.  An answer whose parts are strictly
    monotone with disjoint spans lists no id twice; any other is listed
    whole and checked for repeats.  The sampled ids an answer lists outside
    the prefix are decided in answer order by one rectangular
    ``relation_matrix`` per answer.  Only answers that may be faulty are
    judged, so violations read as if every answer had been checked alone.
    Wherever the stream's bulk hook built a matrix, sampled cells are
    compared with ``leq``; the first disagreement is kept in ``hook_fault``.
    ``relation_faults`` lists what is wrong with the prefix relation itself:
    a hook fault found on the prefix square, then each partial-order axiom
    the square breaks.
    """

    def __init__(self, stream: StreamPoset, ids: list[int]):
        self.stream, self.ids = stream, ids
        self.m = stream.relation_matrix(ids)
        self.mt = np.ascontiguousarray(self.m.T)
        self.arr = np.asarray(ids, dtype=np.int64)
        self.order = np.argsort(self.arr).astype(np.int32)
        self.sorted = self.arr[self.order]
        self.rng = random.Random(len(ids) * 7919 + 13)
        self.hook_fault: Violation | None = None
        if stream._leq_block is not None:
            self._spot_check(ids, ids, self.m, _SPOT_CELLS)
        self.relation_faults = [self.hook_fault] if self.hook_fault else []
        for axiom, at in order_axiom_faults(self.m).items():
            subject = () if axiom == "transitive" else tuple(ids[i] for i in at)
            self.relation_faults.append(Violation("RELATION", "leq", subject, _RELATION_FAULTS[axiom]))

    def _spot_check(self, rows: Sequence[int], cols: Sequence[int], block: np.ndarray, cells: int) -> None:
        if self.hook_fault is not None:
            return
        # Cell k is (randrange(len(rows)), randrange(len(cols))), drawn in that order.
        count = min(cells, block.size)
        if len(rows) == len(cols):
            drawn = randbelow(self.rng, len(rows), 2 * count).tolist()
        else:
            drawn = [self.rng.randrange(len(axis)) for _ in range(count) for axis in (rows, cols)]
        for i, j in zip(drawn[::2], drawn[1::2]):
            x, y = int(rows[i]), int(cols[j])
            if bool(block[i, j]) != self.stream.leq(x, y):
                self.hook_fault = Violation("RELATION", "leq", (x, y), "leq_block disagrees with leq")
                return

    def _rect(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        block = self.stream.relation_matrix(rows, cols)
        if self.stream._leq_rect is not None:
            self._spot_check(rows, cols, block, _SPOT_RECT_CELLS)
        return block

    def _truth(self, names: list[str], i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Per query, which prefix positions a complete answer lists."""
        rows = self.m[i]
        pred = np.array([name == "predecessors" for name in names], dtype=bool)
        rows[pred] = self.mt[i[pred]]
        iv = np.array([name == "interval" for name in names], dtype=bool)
        if iv.any():
            a, b = i[iv], j[iv]
            rows[iv] = (self.m[a] & self.mt[b]) | (self.m[b] & self.mt[a])
        return rows

    def screen(self, queries: Iterable[tuple], first_only: bool = False) -> Iterator[tuple[tuple, object]]:
        """Yield ``(query, violations)`` per query in order, ``None`` for an undefined answer.

        Answers are listed as they arrive (a list, ``range`` or
        :class:`IdRuns` answer is kept as it is) and checked once a chunk
        holds ``_CHUNK_IDS`` listed ids or ``_CHUNK_CELLS`` truth cells; the
        chunk is dropped once it is yielded.  With ``first_only``, a defined
        answer's violations come as ``(first, count)``: the first violation
        the listing rule reports (None when it reports none) and how many it
        reports.
        """
        rows_cap = max(1, _CHUNK_CELLS // len(self.ids))
        batch: list[tuple] = []
        listed = 0
        for q in queries:
            ans = q[3]
            if isinstance(ans, list):
                listed += len(ans)
            elif ans is not None:
                if not isinstance(ans, (range, IdRuns)):
                    ans = list(ans)
                    q = (*q[:3], ans, *q[4:])
                listed += answer_size(ans)
            batch.append(q)
            if listed >= _CHUNK_IDS or len(batch) >= rows_cap:
                yield from self._flush(batch, first_only)
                batch, listed = [], 0
        yield from self._flush(batch, first_only)

    def _flush(self, batch: list[tuple], first_only: bool):
        flag, odd, truth, entries = self._suspects([q for q in batch if q[3] is not None])
        r = 0
        for q in batch:
            if q[3] is None:
                yield q, None
                continue
            if not flag[r]:
                found = (None, 0) if first_only else []
            else:
                fault = odd.get(r)
                found = self._check(q, truth[r], fault, None if fault else entries(r), first_only)
            yield q, found
            r += 1

    def _suspects(self, qs: list[tuple]) -> tuple:
        """Which answers might fail the listing rule (the rest pass it), and what judges them.

        Returns the flags; ``odd``, which maps each answer with an entry that
        is not an id or an id listed twice to its one fault, ``(entry,
        detail)``; every answer's truth row; and ``entries(r)``, what
        :meth:`_check` reads of any other flagged answer r.
        """
        n, k = len(self.ids), len(qs)
        odd: dict[int, tuple] = {}
        if not k:
            return np.zeros(0, dtype=bool), odd, np.zeros((0, n), dtype=bool), None
        names = [q[0] for q in qs]
        i = np.array([q[1] for q in qs], dtype=np.int64)
        j = np.array([q[2] for q in qs], dtype=np.int64)
        # Every answer is read part by part in answer order: a list or range
        # answer is its own one part.  List parts become one id array; a range
        # part is kept as (place, answer, offset in it, first, step, count).  A
        # part's place grows part by part in answer order.
        lists: list[list] = []
        list_at: list[int] = []  # (place, answer, offset) of each list part, flat
        runs: list[int] = []
        size = [0] * k
        for r, q in enumerate(qs):
            ans = q[3]
            if isinstance(ans, list):
                list_at += (len(list_at) + len(runs), r, 0)
                lists.append(ans)
                size[r] = len(ans)
                continue
            try:
                parts = [_as_ids(ans)] if isinstance(ans, range) else [*map(_as_ids, ans.parts)]
            except _NotAnId as exc:
                odd[r] = (exc.args[0], _NOT_AN_ID)
                continue
            if len(parts) > 1 and not _repeat_free(parts):
                parts = [list(chain.from_iterable(parts))]
            offset = 0
            for part in parts:
                count = _count(part)
                if isinstance(part, list):
                    list_at += (len(list_at) + len(runs), r, offset)
                    lists.append(part)
                elif count:
                    runs += (len(list_at) + len(runs), r, offset, part.start, part.step if count > 1 else 1, count)
                offset += count
            size[r] = offset
        # One array for the chunk's lists; list by list only to read the
        # ones numpy does not take as ints, entry by entry.
        flat = _id_array(list(chain.from_iterable(lists)))
        if flat is None:
            arrays = [_id_array(part) for part in lists]
            for t, a in enumerate(arrays):
                if a is None:
                    try:
                        arrays[t] = np.array(_as_ids(lists[t]), dtype=np.int64)
                    except _NotAnId as exc:
                        odd[list_at[3 * t + 1]], arrays[t] = (exc.args[0], _NOT_AN_ID), _NO_IDS
            lists = arrays
            flat = np.concatenate([_NO_IDS, *arrays])
        lens = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        del lists
        # Each listed id's place and answer.
        at = np.array(list_at, dtype=np.int64).reshape(-1, 3)
        place, seg = np.repeat(at[:, 0], lens), np.repeat(at[:, 1], lens)

        def fault(e: np.ndarray, detail: str) -> None:
            """Each answer's first of the ascending flat positions ``e`` is its fault, unless it has one."""
            for t in e[np.unique(seg[e], return_index=True)[1]].tolist():
                odd.setdefault(int(seg[t]), (int(flat[t]), detail))

        # Each answer's fault: its first negative entry, else the first id it
        # lists again.  A list answer's entries are its listing, in order, and
        # so is a run answer's once it lists an id twice.
        fault(np.flatnonzero(flat < 0), _NOT_AN_ID)
        rough = np.zeros(k, dtype=bool)  # only lists that do not strictly increase are sorted
        rough[seg[1:][(flat[1:] <= flat[:-1]) & (seg[1:] == seg[:-1])]] = True
        if rough.any():
            e = np.flatnonzero(rough[seg])
            e = e[np.lexsort((flat[e], seg[e]))]  # stable: equal ids stay in listing order
            fs, ss = flat[e], seg[e]
            fault(np.sort(e[1:][(fs[1:] == fs[:-1]) & (ss[1:] == ss[:-1])]), _TWICE)
        is_odd = np.zeros(k, dtype=bool)
        is_odd[list(odd)] = True
        # The rule verifies the entries at every stride-th offset of an answer.
        stride = np.maximum(np.array(size, dtype=np.int64) // _ANSWER_SOUND_CAP, 1)
        if stride.max() > 1:
            off = np.repeat(at[:, 2] - (np.cumsum(lens) - lens), lens) + np.arange(len(flat))
            sampled = off % stride[seg] == 0
        else:
            sampled = np.ones(len(flat), dtype=bool)
        if runs:
            # A range part adds the entries the rule samples, read off
            # their offsets; in a long answer, also its other prefix hits:
            # the prefix ids between its ends that lie on its step.
            run_place, rr, base, first, step, count = np.array(runs, dtype=np.int64).reshape(-1, 6).T
            st = stride[rr]
            k0 = -base % st
            t, nth = _ragged(np.maximum(0, -((k0 - count) // st)))
            d = k0[t] + nth * st[t]
            drawn = len(t)
            long = np.flatnonzero(st > 1)
            if len(long):
                last = first[long] + step[long] * (count[long] - 1)
                lo = np.searchsorted(self.sorted, np.minimum(first[long], last))
                h, nth = _ragged(np.searchsorted(self.sorted, np.maximum(first[long], last), side="right") - lo)
                gap = self.sorted[lo[h] + nth] - first[long[h]]
                h = long[h]
                on = (gap % step[h] == 0) & ((base[h] + gap // step[h]) % st[h] != 0)
                t, d = np.concatenate([t, h[on]]), np.concatenate([d, gap[on] // step[h[on]]])
            flat = np.concatenate([flat, first[t] + step[t] * d])
            place, seg = np.concatenate([place, run_place[t]]), np.concatenate([seg, rr[t]])
            sampled = np.concatenate([sampled, np.arange(len(t)) < drawn])
        pos = np.searchsorted(self.sorted, flat)
        np.minimum(pos, n - 1, out=pos)
        inside = self.sorted[pos] == flat
        si, ci = seg[inside], self.order[pos[inside]]
        del pos
        truth = self._truth(names, i, j)
        # Completeness; a cone answer may leave out its subject.
        hit = np.zeros((k, n), dtype=bool)
        hit[si, ci] = True
        cone = np.array([name != "interval" for name in names], dtype=bool)
        hit[cone, i[cone]] = True
        miss = truth & ~hit
        flag = is_odd | miss.any(axis=1)
        # Soundness of the listed ids the rule samples.
        owed = np.zeros(len(flat), dtype=bool)
        owed[inside] = truth[si, ci]
        flag[seg[inside & ~owed & sampled]] = True
        # One rectangle per answer for the sampled ids outside the prefix, in
        # answer order: list and range parts are each in order, so a stable
        # sort by place merges them.
        out = np.flatnonzero(sampled & ~inside & ~flag[seg])
        out = out[np.argsort(place[out], kind="stable")]
        bounds = np.searchsorted(seg[out], np.arange(k + 1))
        for r in np.flatnonzero(np.diff(bounds)).tolist():
            zs = flat[out[bounds[r] : bounds[r + 1]]]
            flag[r] = not self._sound_outside(names[r], i[r], j[r], zs).all()
        judged = flag & ~is_odd
        if not judged.any():
            return flag, odd, truth, None
        # The sampled entries of the answers _check judges, in listing order.
        e = np.flatnonzero(sampled & judged[seg])
        e = e[np.argsort(place[e], kind="stable")]
        return flag, odd, truth, _entries(flat[e], seg[e], inside[e] & ~owed[e], ~inside[e], miss)

    def _sound_outside(self, name: str, i: int, j: int, zs: np.ndarray) -> np.ndarray:
        x = self.ids[i]
        if name == "predecessors":
            return self._rect(zs, [x])[:, 0]
        if name == "successors":
            return self._rect([x], zs)[0]
        y = self.ids[j]
        up, down = self._rect([x, y], zs), self._rect(zs, [x, y])
        return (up[0] & down[:, 1]) | (up[1] & down[:, 0])

    def _compare(self, name: str, i: int, j: int) -> Callable[[int], bool]:
        """How the listing rule (see :class:`PrefixAudit`) decides a listed id outside the prefix: the scalar ``leq``."""
        x, leq = self.ids[i], self.stream.leq
        if name == "interval":
            y = self.ids[j]
            return lambda z: (leq(x, z) and leq(z, y)) or (leq(y, z) and leq(z, x))
        return (lambda z: leq(z, x)) if name == "predecessors" else (lambda z: leq(x, z))

    def _check(self, q: tuple, row: np.ndarray, fault: tuple | None, entries: tuple | None, first_only: bool):
        """What the listing rule (see :class:`PrefixAudit`) reports on one flagged query, given its truth row.

        An answer with an entry that is not an id, or with an id listed
        twice, reports its one ``fault``, ``(entry, detail)``, as found by
        the screen.  Any other is judged from the screen's arrays (see
        :func:`_entries`).  Its sampled ids outside the prefix get the
        scalar comparison in listing order until ``_MAX_RECORDED``
        violations are found.  Its missing ids come in the order of the
        rule's set difference, which is built only when two or more are
        missing and there is room to report them.  With ``first_only``, the
        report is ``(first violation or None, count)``.
        """
        name, i, j, ans = q[:4]
        x = self.ids[i]
        exempt = set() if name == "interval" else {x}
        if fault is not None:
            v = Violation("UNSOUND", name, (x, fault[0]), fault[1])
            return (v, 1) if first_only else [v]
        bad_at, unsound, out_at, out_ys, gaps, gap = entries
        if out_ys:
            compare, failed = self._compare(name, i, j), []
            for at, z in zip(out_at, out_ys):
                if bisect_left(bad_at, at) + len(failed) >= _MAX_RECORDED:
                    break  # the answer's report is full by here
                if not compare(z):
                    failed.append((at, z))
            if failed:
                unsound = [z for _, z in sorted([*zip(bad_at, unsound), *failed])][:_MAX_RECORDED]
        room = _MAX_RECORDED - len(unsound)
        count = len(unsound) + min(gaps, room)
        if first_only and unsound:
            return Violation("UNSOUND", name, (x, unsound[0]), _FAILS), count
        if gaps > 1 and room:  # the rule's set of owed ids, built in prefix order, for its iteration order
            absent = islice(set(self.arr[row].tolist()) - set(ans) - exempt, room)
        else:
            absent = [self.ids[gap]] if gaps and room else []
        if first_only:
            return (Violation("INCOMPLETE", name, (x, next(iter(absent))), _MISSING) if count else None), count
        return [Violation("UNSOUND", name, (x, y), _FAILS) for y in unsound] + [
            Violation("INCOMPLETE", name, (x, y), _MISSING) for y in absent
        ]


def _entries(ys, seg, bad, out, miss) -> Callable[[int], tuple]:
    """What :meth:`PrefixAudit._check` reads of a chunk's judged answers.

    ``ys`` and ``seg`` are the sampled entries of those answers and their
    answer, in listing order; ``bad`` marks the prefix ids the listing rule
    calls unsound and ``out`` the ids outside the prefix; ``miss`` marks
    the owed prefix positions each answer does not list.  For answer r, the
    function gives the listing places and ids of its first ``_MAX_RECORDED``
    bad entries, those of its outside entries, how many owed ids it misses
    and the prefix position of the first.
    """
    edges = np.arange(len(miss) + 1)
    at = np.flatnonzero(bad)
    first = np.searchsorted(seg[at], seg[at])  # each answer's first bad entry
    at = at[np.arange(len(at)) - first < _MAX_RECORDED]
    lists = [(a.tolist(), ys[a].tolist(), np.searchsorted(seg[a], edges).tolist()) for a in (at, np.flatnonzero(out))]
    gaps, gap = miss.sum(axis=1).tolist(), miss.argmax(axis=1).tolist()

    def of(r: int) -> tuple:
        return (*(v[b[r] : b[r + 1]] for places, ids, b in lists for v in (places, ids)), gaps[r], gap[r])

    return of


def validate_oracles(stream: StreamPoset, s: int) -> ValidationReport:
    """Check every provided oracle against ``leq`` over the first ``s`` elements.

    Answers are checked for soundness (every listed element really satisfies
    the defining comparison) and prefix-completeness (nothing inside the
    prefix is missed) by one screen of a :class:`PrefixAudit`: the picked
    elements' cone answers, then the interval pairs.  Large prefixes are
    sampled deterministically; the ``checked`` counters say how much was
    examined.
    """
    ids = take(stream, s)
    n = len(ids)
    bundle = stream.oracles or OracleBundle()
    present = bundle.present() if n else []
    report = ValidationReport(stream=stream.name, requested=s, prefix_size=n)
    report.not_present = [f.name for f in fields(OracleBundle) if f.name not in present]
    report.undefined, report.checked = dict.fromkeys(present, 0), dict.fromkeys(present, 0)
    if n == 0:
        return report

    # The bulk hook is an optimization, not an authority: the audit spot-checks
    # it, and the relation itself must restrict to a partial order on the prefix.
    audit = PrefixAudit(stream, ids)
    report.violations += audit.relation_faults

    picked = _sample_indices(n, _FULL_CHECK_ELEMENTS, seed=s * 31 + 7)
    asks = [(name, i, i) for name in ("predecessors", "successors") if name in present for i in picked]
    if "interval" in present:
        head = n if n <= _FULL_CHECK_INTERVAL else 40
        asks += [("interval", i, j) for i in range(head) for j in range(head)]
        if n > _FULL_CHECK_INTERVAL:
            drawn = randbelow(random.Random(s * 101 + 3), n, 2 * 2000).tolist()
            asks += [("interval", i, j) for i, j in zip(drawn[::2], drawn[1::2])]
    queries = (
        (name, i, j, bundle.interval(ids[i], ids[j]) if name == "interval" else getattr(bundle, name)(ids[i]))
        for name, i, j in asks
    )
    refused: set[tuple[str, int]] = set()  # (oracle, i) of each undefined answer, for the side check
    for (name, i, _, _), found in audit.screen(queries):
        if found is None:
            report.undefined[name] += 1
            refused.add((name, i))
            continue
        report.violations += found
        report.checked[name] += 1
        if name == "interval" and len(report.violations) >= 4 * _MAX_RECORDED:
            break

    if bundle.side is not None:
        for i in picked:
            x = ids[i]
            try:
                tag = read_side(bundle.side(x), x)
            except FormatError as exc:
                report.violations.append(Violation("INVALID", "side", (x,), str(exc)))
                continue
            if tag is None:
                report.undefined["side"] += 1
                continue
            cone = "predecessors" if tag is FinSide.FIN_PRED else "successors"
            if (cone, i) in refused:
                detail = f"side says {tag.value} but {cone} gives no finite answer"
                report.violations.append(Violation("SIDE_INCONSISTENT", "side", (x,), detail))
            report.checked["side"] += 1

    # A rectangle the screen asked for can catch the hook too.
    if audit.hook_fault is not None and audit.hook_fault not in report.violations:
        report.violations.append(audit.hook_fault)
    return report


# -- canonical families ------------------------------------------------------
# Each canonical family states its order once, as an expression that serves
# both ``leq`` on ids and the bulk hook on broadcast id arrays.  It avoids ``if``
# (arrays have no truth value) and ``~`` (``~True`` is -2, not False).


def zigzag_encode(value: int) -> int:
    """Signed int -> id: 0,-1,1,-2,2 ... -> 0,1,2,3,4 ..."""
    return 2 * value if value >= 0 else -2 * value - 1


def zigzag_decode(code: int) -> int:
    """Id -> signed int, the inverse of :func:`zigzag_encode`; also elementwise on int arrays."""
    return (code >> 1) ^ -(code & 1)


def omega_stream() -> StreamPoset:
    """The naturals with their usual order; every lower cone is finite."""
    bundle = OracleBundle(
        predecessors=lambda x: range(x + 1),
        successors=None,
        interval=lambda x, y: range(min(x, y), max(x, y) + 1),
        side=lambda x: FinSide.FIN_PRED,
    )
    return StreamPoset(
        lambda s: s, operator.le, oracles=bundle, name="omega", leq_block=_bulk(operator.le)
    )


def omega_star_stream() -> StreamPoset:
    """The naturals reversed; every upper cone is finite."""
    bundle = OracleBundle(
        predecessors=None,
        successors=lambda x: range(x + 1),
        interval=lambda x, y: range(min(x, y), max(x, y) + 1),
        side=lambda x: FinSide.FIN_SUCC,
    )
    return StreamPoset(
        lambda s: s, operator.ge, oracles=bundle, name="omega-star", leq_block=_bulk(operator.ge)
    )


def _zeta_stage_value(variant: int, stage: int) -> int:
    if variant == 0:
        # 0, -1, +1, -2, +2, ...
        return zigzag_decode(stage)
    if variant == 1:
        # 0, +1, -1, +2, -2, ...
        return (stage + 1) // 2 if stage % 2 == 1 else -(stage // 2)
    if variant == 2:
        # 0, +1, +2, -1, +3, +4, -2, ...: two positives, then a negative
        if stage == 0:
            return 0
        q, r = divmod(stage - 1, 3)
        return -(q + 1) if r == 2 else 2 * q + r + 1
    raise UnknownIdError(f"zeta enumeration variant must be 0, 1, or 2, got {variant}")


def zeta_stream(variant: int = 0) -> StreamPoset:
    """The integers, enumerated outward from 0; ids are zigzag codes.

    All three enumeration variants present the same order and the same
    interval oracle; only the stage order differs.  An interval answers an
    :class:`IdRuns` of two ranges, the odd codes of its negatives and then
    the even codes of the rest, which the ζ run hands on part by part.
    """
    _zeta_stage_value(variant, 0)  # validate the variant eagerly

    def interval(x: int, y: int) -> IdRuns:
        a, b = sorted((zigzag_decode(x), zigzag_decode(y)))
        # a..b ascending: the odd codes of the negatives, then the even codes of the rest.
        return IdRuns((range(-2 * a - 1, max(-2 * b - 2, 0), -2), range(max(2 * a, 0), 2 * b + 1, 2)))

    def le(a, b):
        return zigzag_decode(a) <= zigzag_decode(b)

    return StreamPoset(
        lambda s: zigzag_encode(_zeta_stage_value(variant, s)),
        le,
        oracles=OracleBundle(interval=interval),
        name=f"zeta.{variant}",
        leq_block=_bulk(le),
    )


def antichain_stream() -> StreamPoset:
    """Countably many pairwise incomparable elements."""
    bundle = OracleBundle(
        predecessors=lambda x: [x],
        successors=lambda x: [x],
        interval=lambda x, y: [x] if x == y else [],
        side=lambda x: FinSide.FIN_PRED,
    )
    return StreamPoset(
        lambda s: s, operator.eq, oracles=bundle, name="antichain", leq_block=_bulk(operator.eq)
    )


def omega_plus_omega_star_stream() -> StreamPoset:
    """An ascending chain (even ids) entirely below a descending one (odd ids)."""

    def le(a, b):
        return ((a % 2 == 0) & ((b % 2 == 1) | (a <= b))) | ((a % 2 == 1) & (b % 2 == 1) & (a >= b))

    def pred(x: int) -> range | None:
        return range(0, x + 1, 2) if x % 2 == 0 else None

    def succ(x: int) -> range | None:
        return range(1, x + 1, 2) if x % 2 == 1 else None

    def interval(x: int, y: int) -> range | None:
        if x % 2 == y % 2:
            lo, hi = sorted((x, y))
            return range(lo, hi + 1, 2)
        return None  # between the two chains lies an infinite set

    return StreamPoset(
        lambda s: s,
        le,
        oracles=OracleBundle(
            predecessors=pred,
            successors=succ,
            interval=interval,
            side=lambda x: FinSide.FIN_PRED if x % 2 == 0 else FinSide.FIN_SUCC,
        ),
        name="omega-omega-star",
        leq_block=_bulk(le),
    )


def stream_from_finite(
    poset: FinitePoset,
    *,
    side: FinSide | Callable[[int], FinSide | None] | None = FinSide.FIN_PRED,
) -> StreamPoset:
    """Present a finite poset as an exhausted stream with exact oracles.

    In a finite poset both cones are finite, so the default classifies every
    element FIN_PRED; pass a callable to exercise other splits.
    """
    elems = poset.elements
    side_fn = side if callable(side) or side is None else (lambda x, _tag=side: _tag)
    def block(rows: Sequence[int], cols: Sequence[int] | None = None) -> np.ndarray:
        r = [poset._at(x) for x in rows]
        return poset.matrix[np.ix_(r, r if cols is None else [poset._at(y) for y in cols])]

    return StreamPoset(
        lambda s: elems[s],  # the size guard fires before the index can overrun
        poset.le,
        oracles=OracleBundle(
            predecessors=poset.predecessors,
            successors=poset.successors,
            interval=poset.interval,
            side=side_fn,
        ),
        size=len(elems),
        name="finite",
        leq_block=block,
    )


STREAM_FAMILIES = {
    "omega": omega_stream,
    "omega-star": omega_star_stream,
    "zeta": zeta_stream,
    "antichain": antichain_stream,
    "omega-omega-star": omega_plus_omega_star_stream,
}
