"""Countable posets presented as enumerations with finiteness oracles.

A :class:`StreamPoset` is an injective enumeration ``stage -> id`` plus a
decidable ``leq``.  Oracles, when present, must answer with *complete* finite
lists; an oracle callable may return ``None`` for an element whose answer set
is not finite.  :func:`validate_oracles` cross-checks every promise against
``leq`` by brute force over a prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import FiniteDomainEnd, FormatError, OracleMissing, UnknownIdError
from .kinds import FinSide
from .poset import FinitePoset, order_axiom_faults

__all__ = [
    "OracleBundle",
    "StreamPoset",
    "take",
    "prefix",
    "relation_matrix",
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
    ``leq_block`` is an optional bulk hook returning the boolean relation
    matrix for a list of ids; it must agree with ``leq`` pointwise.
    """

    def __init__(
        self,
        element_at: Callable[[int], int],
        leq: Callable[[int, int], bool],
        *,
        oracles: OracleBundle | None = None,
        size: int | None = None,
        name: str = "stream",
        leq_block: Callable[[Sequence[int]], np.ndarray] | None = None,
    ):
        self._element_at = element_at
        self._leq = leq
        self.oracles = oracles
        self.size = size
        self.name = name
        self._leq_block = leq_block
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

    def relation_matrix(self, ids: Sequence[int]) -> np.ndarray:
        if self._leq_block is not None:
            m = np.asarray(self._leq_block(ids), dtype=bool)
            if m.shape != (len(ids), len(ids)):
                raise FormatError("leq_block returned a wrongly shaped matrix")
            return m
        n = len(ids)
        m = np.zeros((n, n), dtype=bool)
        leq = self._leq
        for i, x in enumerate(ids):
            row = m[i]
            for j, y in enumerate(ids):
                if leq(x, y):
                    row[j] = True
        return m


def take(stream: StreamPoset, count: int) -> list[int]:
    """First ``count`` enumerated ids, or all of them if the stream ends."""
    out: list[int] = []
    for stage in range(count):
        try:
            out.append(stream.element_at(stage))
        except FiniteDomainEnd:
            break
    return out


def relation_matrix(stream: StreamPoset, ids: Sequence[int]) -> np.ndarray:
    return stream.relation_matrix(ids)


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


def oracle_answer(fn, *args, what: str = "oracle") -> list[int]:
    """Call a finiteness oracle that the algorithm requires to be defined."""
    ans = fn(*args)
    if ans is None:
        raise OracleMissing(f"{what} returned no finite answer for {args}")
    return list(ans)


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


def validate_oracles(stream: StreamPoset, s: int) -> ValidationReport:
    """Check every provided oracle against ``leq`` over the first ``s`` elements.

    Answers are checked for soundness (every listed element really satisfies
    the defining comparison) and prefix-completeness (nothing inside the
    prefix is missed).  Large prefixes are sampled deterministically; the
    ``checked`` counters say how much was examined.
    """
    ids = take(stream, s)
    n = len(ids)
    report = ValidationReport(stream=stream.name, requested=s, prefix_size=n)
    if n == 0:
        report.not_present = ["predecessors", "successors", "interval", "side"]
        return report

    m = stream.relation_matrix(ids)

    # The bulk hook is an optimization, not an authority: spot-check it.
    if stream._leq_block is not None:
        rng = random.Random(n * 7919 + 13)
        for _ in range(min(256, n * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            if bool(m[i, j]) != stream.leq(ids[i], ids[j]):
                report.violations.append(
                    Violation(
                        "RELATION",
                        "leq",
                        (ids[i], ids[j]),
                        "leq_block disagrees with leq",
                    )
                )
                break

    # The relation itself must restrict to a partial order on the prefix.
    for axiom, at in order_axiom_faults(m).items():
        subject = () if axiom == "transitive" else tuple(ids[i] for i in at)
        report.violations.append(Violation("RELATION", "leq", subject, _RELATION_FAULTS[axiom]))

    bundle = stream.oracles
    if bundle is None:
        report.not_present = ["predecessors", "successors", "interval", "side"]
        return report

    for name in ("predecessors", "successors", "interval", "side"):
        if getattr(bundle, name) is None:
            report.not_present.append(name)

    id_set = set(ids)
    picked = _sample_indices(n, _FULL_CHECK_ELEMENTS, seed=s * 31 + 7)

    # Predecessors read a column of the relation, successors a row.
    for name, rel, below in (("predecessors", m.T, True), ("successors", m, False)):
        fn = getattr(bundle, name)
        if fn is None:
            continue
        count = 0
        und = 0
        for i in picked:
            x = ids[i]
            ans = fn(x)
            if ans is None:
                und += 1
                continue
            truth = {ids[j] for j in np.nonzero(rel[i])[0]}
            compare = (lambda y, x=x: stream.leq(y, x)) if below else (lambda y, x=x: stream.leq(x, y))
            report.violations += check_listing(name, x, list(ans), truth, compare, id_set, exempt={x})
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
        for i, j in pairs:
            x, y = ids[i], ids[j]
            ans = bundle.interval(x, y)
            if ans is None:
                und += 1
                continue
            between = (m[i, :] & m[:, j]) | (m[j, :] & m[:, i])
            truth = {ids[k] for k in np.nonzero(between)[0]}
            report.violations += check_listing(
                "interval",
                x,
                list(ans),
                truth,
                lambda z, x=x, y=y: (stream.leq(x, z) and stream.leq(z, y))
                or (stream.leq(y, z) and stream.leq(z, x)),
                id_set,
            )
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

    return report


# -- canonical families ------------------------------------------------------


def zigzag_encode(value: int) -> int:
    """Signed int -> id: 0,-1,1,-2,2 ... -> 0,1,2,3,4 ..."""
    return 2 * value if value >= 0 else -2 * value - 1


def zigzag_decode(code: int) -> int:
    return code // 2 if code % 2 == 0 else -(code + 1) // 2


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
        leq_block=lambda ids: np.asarray(ids)[:, None] <= np.asarray(ids)[None, :],
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
        leq_block=lambda ids: np.asarray(ids)[:, None] >= np.asarray(ids)[None, :],
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

    def block(ids: Sequence[int]) -> np.ndarray:
        vals = np.asarray([zigzag_decode(x) for x in ids])
        return vals[:, None] <= vals[None, :]

    return StreamPoset(
        lambda s: zigzag_encode(_zeta_stage_value(variant, s)),
        lambda x, y: zigzag_decode(x) <= zigzag_decode(y),
        oracles=OracleBundle(interval=interval),
        name=f"zeta.{variant}",
        leq_block=block,
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
        leq_block=lambda ids: np.eye(len(ids), dtype=bool),
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

    def block(ids: Sequence[int]) -> np.ndarray:
        a = np.asarray(ids)
        ev = a % 2 == 0
        le = a[:, None] <= a[None, :]
        ge = a[:, None] >= a[None, :]
        evx, evy = ev[:, None], ev[None, :]
        return (evx & evy & le) | (evx & ~evy) | (~evx & ~evy & ge)

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
        leq_block=block,
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
    idx = poset._index

    def block(ids: Sequence[int]) -> np.ndarray:
        rows = [idx[x] for x in ids]
        return poset.matrix[np.ix_(rows, rows)]

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
