"""Countable posets presented as enumerations with finiteness oracles.

A :class:`StreamPoset` is an injective enumeration ``stage -> id`` plus a
decidable ``leq``.  Oracles, when present, must answer with *complete* finite
lists; an oracle callable may return ``None`` for an element whose answer set
is not finite.  :func:`validate_oracles` cross-checks every promise against
``leq`` by brute force over a prefix.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import FiniteDomainEnd, FormatError, OracleMissing, UnknownIdError
from .kinds import FinSide
from .poset import FinitePoset, order_axiom_faults

__all__ = [
    "OracleBundle",
    "StreamPoset",
    "take",
    "prefix",
    "Violation",
    "ValidationReport",
    "validate_oracles",
    "check_listing",
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


@dataclass(frozen=True)
class OracleBundle:
    """Optional finiteness oracles; each answers completely or with ``None``.

    ``predecessors(x)`` lists all y <= x, ``successors(x)`` all y >= x,
    ``interval(x, y)`` everything between x and y in either orientation,
    and ``side(x)`` says which cone of x is finite.
    """

    predecessors: Callable[[int], list[int] | None] | None = None
    successors: Callable[[int], list[int] | None] | None = None
    interval: Callable[[int, int], list[int] | None] | None = None
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
    back to ``leq``.  Every cell must agree with ``leq``; the oracle auditors
    spot-check that, and decide the ids an oracle answer lists outside the
    audited prefix with one rectangle per answer.
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
        if stage < 0:
            raise UnknownIdError(f"stages are non-negative, got {stage}")
        if self.size is not None and stage >= self.size:
            raise FiniteDomainEnd(stage)
        while len(self._cache) <= stage:
            nxt = len(self._cache)
            if self.size is not None and nxt >= self.size:
                raise FiniteDomainEnd(nxt)
            x = self._element_at(nxt)
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise FormatError(f"enumeration produced a non-id value {x!r}")
            if x in self._seen:
                raise FormatError(f"enumeration repeated element {x} at stage {nxt}")
            self._cache.append(x)
            self._seen.add(x)
        return self._cache[stage]

    def leq(self, x: int, y: int) -> bool:
        return bool(self._leq(x, y))

    def relation_matrix(self, rows: Sequence[int], cols: Sequence[int] | None = None) -> np.ndarray:
        """Cell (i, j) says ``rows[i] <= cols[j]``; ``cols`` defaults to ``rows``."""
        hook = self._leq_block if cols is None else self._leq_rect
        shape = (len(rows), len(rows) if cols is None else len(cols))
        if hook is not None:
            m = np.asarray(hook(rows) if cols is None else hook(rows, cols), dtype=bool)
            if m.shape != shape:
                raise FormatError("leq_block returned a wrongly shaped matrix")
            return m
        m = np.zeros(shape, dtype=bool)
        leq = self._leq
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
    """A two-list ``leq_block`` hook from a vectorised comparison of id arrays."""

    def hook(rows: Sequence[int], cols: Sequence[int] | None = None) -> np.ndarray:
        r = np.asarray(rows, dtype=np.int64)
        c = r if cols is None else np.asarray(cols, dtype=np.int64)
        return rel(r[:, None], c[None, :])

    return hook


def take(stream: StreamPoset, count: int) -> list[int]:
    """First ``count`` enumerated ids, or all of them if the stream ends."""
    out: list[int] = []
    for stage in range(count):
        try:
            out.append(stream.element_at(stage))
        except FiniteDomainEnd:
            break
    return out


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


def oracle_answer(fn, *args, what: str = "oracle") -> Iterable[int]:
    """Call a finiteness oracle that the algorithm requires to be defined.

    The answer is returned as given, not copied, for the caller to read once.
    """
    ans = fn(*args)
    if ans is None:
        raise OracleMissing(f"{what} returned no finite answer for {args}")
    return ans


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
_MAX_RECORDED = 50  # violations recorded per oracle before truncating
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


def _sample_indices(n: int, cap: int, seed: int) -> list[int]:
    if n <= cap:
        return list(range(n))
    rng = random.Random(seed)
    picked = set(range(min(cap // 3, n)))  # always cover the earliest elements
    while len(picked) < cap:
        picked.add(rng.randrange(n))
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


def check_listing(
    oracle: str,
    x: int,
    ans: list[int],
    truth: set[int],
    compare: Callable[[int], bool],
    id_set: set[int],
    exempt: set[int] = frozenset(),
) -> list[Violation]:
    """Check one oracle answer about ``x`` against the prefix relation.

    ``truth`` holds the prefix ids the answer must list and ``id_set`` the
    whole prefix; listed ids outside the prefix are decided by ``compare``.
    The answer must list nothing twice, list only elements that pass the
    comparison, and miss no element of ``truth``.  ``exempt`` ids need not be
    listed: cone answers may skip the element itself (self-comparability
    carries no information).  At most ``_MAX_RECORDED`` violations return.
    """
    listed = set(ans)
    if len(listed) != len(ans):
        seen: set[int] = set()
        for y in ans:
            if y in seen:
                return [Violation("UNSOUND", oracle, (x, y), "answer lists an element twice")]
            seen.add(y)
    found: list[Violation] = []
    to_verify = ans if len(ans) <= _ANSWER_SOUND_CAP else ans[:: max(1, len(ans) // _ANSWER_SOUND_CAP)]
    for y in to_verify:
        sound = y in truth if y in id_set else compare(y)
        if not sound:
            found.append(Violation("UNSOUND", oracle, (x, y), "listed element fails the comparison"))
            if len(found) >= _MAX_RECORDED:
                return found
    for y in truth - listed - set(exempt):
        found.append(Violation("INCOMPLETE", oracle, (x, y), "in-prefix element is missing"))
        if len(found) >= _MAX_RECORDED:
            return found
    return found


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

    :meth:`screen` takes ``(name, i, j, answer)`` queries, where ``name`` is
    ``predecessors`` or ``successors`` of ``ids[i]`` or ``interval`` of
    ``ids[i]`` and ``ids[j]``, and clears them a chunk at a time: listed ids
    are found in the prefix by ``searchsorted``, soundness is read off the
    truth rows and completeness is ``truth & ~hit``.  The sampled ids an
    answer lists outside the prefix are decided by one rectangular
    ``relation_matrix`` per answer.  Only answers that may be faulty go
    through :func:`check_listing`, so violations read as if every answer
    had.  Wherever the stream's bulk hook built a matrix, sampled cells are
    compared with ``leq``; the first disagreement is kept in ``hook_fault``.
    """

    def __init__(self, stream: StreamPoset, ids: list[int]):
        self.stream, self.ids, self.id_set = stream, ids, set(ids)
        self.m = stream.relation_matrix(ids)
        self.mt = np.ascontiguousarray(self.m.T)
        arr = np.asarray(ids, dtype=np.int64)
        self.order = np.argsort(arr).astype(np.int32)
        self.sorted = arr[self.order]
        self.rng = random.Random(len(ids) * 7919 + 13)
        self.hook_fault: Violation | None = None
        if stream._leq_block is not None:
            self._spot_check(ids, ids, self.m, _SPOT_CELLS)

    def _spot_check(self, rows: Sequence[int], cols: Sequence[int], block: np.ndarray, cells: int) -> None:
        if self.hook_fault is not None:
            return
        for _ in range(min(cells, block.size)):
            i, j = self.rng.randrange(len(rows)), self.rng.randrange(len(cols))
            if bool(block[i, j]) != self.stream.leq(rows[i], cols[j]):
                self.hook_fault = Violation(
                    "RELATION", "leq", (rows[i], cols[j]), "leq_block disagrees with leq"
                )
                return

    def _rect(self, rows: list[int], cols: list[int]) -> np.ndarray:
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

    def screen(self, queries: Iterable[tuple]) -> Iterator[tuple[tuple, list[Violation] | None]]:
        """Yield ``(query, violations)`` per query in order, ``None`` for an undefined answer.

        Answers are listed as they arrive and checked once a chunk holds
        ``_CHUNK_IDS`` listed ids or ``_CHUNK_CELLS`` truth cells.
        """
        rows_cap = max(1, _CHUNK_CELLS // len(self.ids))
        batch: list[tuple] = []
        listed = 0
        for name, i, j, ans in queries:
            ans = None if ans is None else list(ans)
            batch.append((name, i, j, ans))
            listed += len(ans) if ans is not None else 0
            if listed >= _CHUNK_IDS or len(batch) >= rows_cap:
                yield from self._flush(batch)
                batch, listed = [], 0
        yield from self._flush(batch)

    def _flush(self, batch: list[tuple]):
        suspect = iter(self._suspects([q for q in batch if q[3] is not None]))
        for q in batch:
            if q[3] is None:
                yield q, None
            else:
                yield q, self._check(*q) if next(suspect) else []

    def _suspects(self, qs: list[tuple]) -> np.ndarray:
        """Which answers might fail :func:`check_listing`; the rest pass it."""
        n, k = len(self.ids), len(qs)
        flag = np.zeros(k, dtype=bool)
        if not k:
            return flag
        names = [q[0] for q in qs]
        i = np.array([q[1] for q in qs], dtype=np.int64)
        j = np.array([q[2] for q in qs], dtype=np.int64)
        arrays = [_id_array(q[3]) for q in qs]
        for r, a in enumerate(arrays):
            if a is None:
                flag[r], arrays[r] = True, _NO_IDS
        lens = np.array([len(a) for a in arrays], dtype=np.int64)
        flat = np.concatenate(arrays)
        del arrays
        ends = np.cumsum(lens)
        starts = ends - lens
        seg = np.repeat(np.arange(k, dtype=np.int32), lens)
        flag[seg[flat < 0]] = True
        # A repeated id: only answers that do not strictly increase are sorted.
        rough = np.zeros(k, dtype=bool)
        rough[seg[1:][(flat[1:] <= flat[:-1]) & (seg[1:] == seg[:-1])]] = True
        if rough.any():
            keep = rough[seg]
            fs, ss = flat[keep], seg[keep]
            o = np.lexsort((fs, ss))
            fs, ss = fs[o], ss[o]
            flag[ss[1:][(fs[1:] == fs[:-1]) & (ss[1:] == ss[:-1])]] = True
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
        flag |= (truth & ~hit).any(axis=1)
        # Soundness of the listed ids check_listing samples.
        sampled = np.ones(len(flat), dtype=bool)
        for r in np.flatnonzero(lens > _ANSWER_SOUND_CAP):
            sampled[starts[r] : ends[r]] = False
            sampled[starts[r] : ends[r] : lens[r] // _ANSWER_SOUND_CAP] = True
        flag[si[~truth[si, ci] & sampled[inside]]] = True
        out = np.flatnonzero(sampled & ~inside & ~flag[seg])
        for part in np.split(out, np.flatnonzero(np.diff(seg[out])) + 1) if len(out) else ():
            r = seg[part[0]]
            flag[r] = not self._sound_outside(names[r], i[r], j[r], flat[part].tolist()).all()
        return flag

    def _sound_outside(self, name: str, i: int, j: int, zs: list[int]) -> np.ndarray:
        x = self.ids[i]
        if name == "predecessors":
            return self._rect(zs, [x])[:, 0]
        if name == "successors":
            return self._rect([x], zs)[0]
        y = self.ids[j]
        up, down = self._rect([x, y], zs), self._rect(zs, [x, y])
        return (up[0] & down[:, 1]) | (up[1] & down[:, 0])

    def _check(self, name: str, i: int, j: int, ans: list) -> list[Violation]:
        ids, leq = self.ids, self.stream.leq
        x = ids[i]
        row = self._truth([name], np.array([i]), np.array([j]))[0]
        truth = {ids[k] for k in np.nonzero(row)[0]}
        if name == "interval":
            y = ids[j]
            compare = lambda z: (leq(x, z) and leq(z, y)) or (leq(y, z) and leq(z, x))  # noqa: E731
            return check_listing(name, x, ans, truth, compare, self.id_set)
        compare = (lambda z: leq(z, x)) if name == "predecessors" else (lambda z: leq(x, z))
        return check_listing(name, x, ans, truth, compare, self.id_set, exempt={x})


def validate_oracles(stream: StreamPoset, s: int) -> ValidationReport:
    """Check every provided oracle against ``leq`` over the first ``s`` elements.

    Answers are checked for soundness (every listed element really satisfies
    the defining comparison) and prefix-completeness (nothing inside the
    prefix is missed) by a :class:`PrefixAudit`.  Large prefixes are sampled
    deterministically; the ``checked`` counters say how much was examined.
    """
    ids = take(stream, s)
    n = len(ids)
    report = ValidationReport(stream=stream.name, requested=s, prefix_size=n)
    if n == 0:
        report.not_present = ["predecessors", "successors", "interval", "side"]
        return report

    # The bulk hook is an optimization, not an authority: the audit spot-checks it.
    audit = PrefixAudit(stream, ids)
    if audit.hook_fault is not None:
        report.violations.append(audit.hook_fault)

    # The relation itself must restrict to a partial order on the prefix.
    for axiom, at in order_axiom_faults(audit.m).items():
        subject = () if axiom == "transitive" else tuple(ids[i] for i in at)
        report.violations.append(Violation("RELATION", "leq", subject, _RELATION_FAULTS[axiom]))

    bundle = stream.oracles
    if bundle is None:
        report.not_present = ["predecessors", "successors", "interval", "side"]
        return report

    for name in ("predecessors", "successors", "interval", "side"):
        if getattr(bundle, name) is None:
            report.not_present.append(name)

    picked = _sample_indices(n, _FULL_CHECK_ELEMENTS, seed=s * 31 + 7)

    for name in ("predecessors", "successors"):
        fn = getattr(bundle, name)
        if fn is None:
            continue
        count = 0
        und = 0
        for _, found in audit.screen((name, i, i, fn(ids[i])) for i in picked):
            if found is None:
                und += 1
                continue
            report.violations += found
            count += 1
        report.checked[name] = count
        report.undefined[name] = und

    if bundle.interval is not None:
        if n <= _FULL_CHECK_INTERVAL:
            pairs = [(i, j) for i in range(n) for j in range(n)]
        else:
            rng = random.Random(s * 101 + 3)
            head = min(40, n)
            pairs = [(i, j) for i in range(head) for j in range(head)]
            while len(pairs) < head * head + 2000:
                pairs.append((rng.randrange(n), rng.randrange(n)))
        count = 0
        und = 0
        queries = (("interval", i, j, bundle.interval(ids[i], ids[j])) for i, j in pairs)
        for _, found in audit.screen(queries):
            if found is None:
                und += 1
                continue
            report.violations += found
            count += 1
            if len(report.violations) >= 4 * _MAX_RECORDED:
                break
        report.checked["interval"] = count
        report.undefined["interval"] = und

    if bundle.side is not None:
        count = 0
        und = 0
        for i in picked:
            x = ids[i]
            try:
                tag = read_side(bundle.side(x), x)
            except FormatError as exc:
                report.violations.append(Violation("INVALID", "side", (x,), str(exc)))
                continue
            if tag is None:
                und += 1
                continue
            cone = "predecessors" if tag is FinSide.FIN_PRED else "successors"
            cone_fn = getattr(bundle, cone)
            if cone_fn is not None and cone_fn(x) is None:
                report.violations.append(
                    Violation(
                        "SIDE_INCONSISTENT",
                        "side",
                        (x,),
                        f"side says {tag.value} but {cone} gives no finite answer",
                    )
                )
            count += 1
        report.checked["side"] = count
        report.undefined["side"] = und

    # A rectangle the screen asked for can catch the hook too.
    if audit.hook_fault is not None and audit.hook_fault not in report.violations:
        report.violations.append(audit.hook_fault)
    return report


# -- canonical families ------------------------------------------------------


def zigzag_encode(value: int) -> int:
    """Signed int -> id: 0,-1,1,-2,2 ... -> 0,1,2,3,4 ..."""
    return 2 * value if value >= 0 else -2 * value - 1


def zigzag_decode(code: int) -> int:
    return code // 2 if code % 2 == 0 else -(code + 1) // 2


def _unzig(codes: np.ndarray) -> np.ndarray:
    """:func:`zigzag_decode` over an array of ids."""
    return np.where(codes % 2 == 0, codes // 2, -(codes + 1) // 2)


def omega_stream() -> StreamPoset:
    """The naturals with their usual order; every lower cone is finite."""
    bundle = OracleBundle(
        predecessors=lambda x: list(range(x + 1)),
        successors=None,
        interval=lambda x, y: list(range(min(x, y), max(x, y) + 1)),
        side=lambda x: FinSide.FIN_PRED,
    )
    return StreamPoset(
        lambda s: s,
        lambda x, y: x <= y,
        oracles=bundle,
        name="omega",
        leq_block=_bulk(lambda a, b: a <= b),
    )


def omega_star_stream() -> StreamPoset:
    """The naturals reversed; every upper cone is finite."""
    bundle = OracleBundle(
        predecessors=None,
        successors=lambda x: list(range(x + 1)),
        interval=lambda x, y: list(range(min(x, y), max(x, y) + 1)),
        side=lambda x: FinSide.FIN_SUCC,
    )
    return StreamPoset(
        lambda s: s,
        lambda x, y: x >= y,
        oracles=bundle,
        name="omega-star",
        leq_block=_bulk(lambda a, b: a >= b),
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
    interval oracle; only the stage order differs.
    """
    _zeta_stage_value(variant, 0)  # validate the variant eagerly

    def interval(x: int, y: int) -> list[int]:
        a, b = sorted((zigzag_decode(x), zigzag_decode(y)))
        return [zigzag_encode(v) for v in range(a, b + 1)]

    return StreamPoset(
        lambda s: zigzag_encode(_zeta_stage_value(variant, s)),
        lambda x, y: zigzag_decode(x) <= zigzag_decode(y),
        oracles=OracleBundle(interval=interval),
        name=f"zeta.{variant}",
        leq_block=_bulk(lambda a, b: _unzig(a) <= _unzig(b)),
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
        lambda s: s,
        lambda x, y: x == y,
        oracles=bundle,
        name="antichain",
        leq_block=_bulk(lambda a, b: a == b),
    )


def omega_plus_omega_star_stream() -> StreamPoset:
    """An ascending chain (even ids) entirely below a descending one (odd ids)."""

    def leq(x: int, y: int) -> bool:
        if x % 2 == 0:
            return x <= y if y % 2 == 0 else True
        return False if y % 2 == 0 else x >= y

    def pred(x: int) -> list[int] | None:
        return list(range(0, x + 1, 2)) if x % 2 == 0 else None

    def succ(x: int) -> list[int] | None:
        return list(range(1, x + 1, 2)) if x % 2 == 1 else None

    def interval(x: int, y: int) -> list[int] | None:
        if x % 2 == y % 2:
            lo, hi = sorted((x, y))
            return list(range(lo, hi + 1, 2))
        return None  # between the two chains lies an infinite set

    def block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ea, eb = a % 2 == 0, b % 2 == 0
        return (ea & eb & (a <= b)) | (ea & ~eb) | (~ea & ~eb & (a >= b))

    return StreamPoset(
        lambda s: s,
        leq,
        oracles=OracleBundle(
            predecessors=pred,
            successors=succ,
            interval=interval,
            side=lambda x: FinSide.FIN_PRED if x % 2 == 0 else FinSide.FIN_SUCC,
        ),
        name="omega-omega-star",
        leq_block=_bulk(block),
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
