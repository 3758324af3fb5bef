"""Encoder posets and their decoders.

Three families live here.  Marker gadgets (FufGadget) turn finite set
unions into predecessor counts of a distinguished marker.  Stage orders
(StageOrder) turn an injective number sequence into a linear order whose
shape separates stages that a later value undercuts from stages that stay
minimal forever.  The two stream gadgets glue stage orders to reference
chains or antichains so that linearizing a prefix answers questions about
the generating function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    FormatError,
    HorizonTooSmall,
    MissingPartError,
    NotAnExtension,
    NotInjective,
    PrefixTooShort,
    UnknownIdError,
)
from .kinds import FinSide, Kind
from .linearize import split_linearize
from .poset import FinitePoset, LinearOrder, build_poset, is_linear_extension
from .streams import IdRuns, OracleBundle, StreamPoset, _bulk, stream_from_finite

__all__ = [
    "FunctionSpec",
    "StageOrder",
    "make_stage_order",
    "RangeGadget",
    "make_range_gadget",
    "DecodedFalseStages",
    "decode_false_stages",
    "read_false_stages",
    "EmbedGadget",
    "make_embed_gadget",
    "decode_range",
    "FufGadget",
    "make_fuf_gadget",
    "fuf_decode",
]

# Sentinel standing in for "no later stage undercuts this one".
_NO_WITNESS = 1 << 62


@dataclass(frozen=True)
class FunctionSpec:
    """An injective map on the naturals: a permuted head, shifted-identity tail.

    ``head`` is a permutation of range(len(head)); past it the map is
    n + gap.  Tail values exceed every head value, so each descent (a later,
    smaller value) lies inside the head and every question about descents is
    settled by a finite scan.  A positive ``gap`` leaves the naturals in
    [window, window + gap) outside the value set.
    """

    head: tuple[int, ...] = ()
    gap: int = 0

    def __post_init__(self) -> None:
        head = tuple(self.head)
        object.__setattr__(self, "head", head)
        if sorted(head) != list(range(len(head))):
            raise NotInjective(
                f"head must be a permutation of 0..{len(head) - 1}, got {list(head)}"
            )
        if self.gap < 0:
            raise FormatError(f"tail gap must be a natural, got {self.gap}")
        object.__setattr__(self, "_witness", _witness_table(head))

    @property
    def window(self) -> int:
        return len(self.head)

    def value(self, n: int) -> int:
        if n < 0:
            raise UnknownIdError(f"stages are non-negative, got {n}")
        return self.head[n] if n < len(self.head) else n + self.gap

    def values(self, count: int) -> list[int]:
        return [*self.head[: max(count, 0)], *range(self.window + self.gap, count + self.gap)]

    def in_range(self, m: int) -> bool:
        """Ground truth for "is m a value", by direct evaluation."""
        if m in self.head:
            return True
        return m >= len(self.head) + self.gap

    def witness_after(self, n: int) -> int | None:
        """Least k > n with f(k) < f(n), or None if no later value drops.

        Tail values rise and exceed every head value, so only head stages
        are ever undercut, and only by head stages.
        """
        if n < 0:
            raise UnknownIdError(f"stages are non-negative, got {n}")
        return self._witness[n] if n < len(self._witness) else None

    def false_stages(self) -> frozenset[int]:
        return frozenset(n for n, t in enumerate(self._witness) if t is not None)

    def describe(self) -> str:
        base = "identity" if not self.head else "perm:" + ",".join(str(v) for v in self.head)
        return base if self.gap == 0 else f"{base};gap:{self.gap}"

    @classmethod
    def parse(cls, text: str) -> "FunctionSpec":
        """Parse ``identity``, ``perm:v0,v1,...``, or ``swap:k``.

        Any form takes an optional ``;gap:N`` suffix shifting the tail.
        """
        text = text.strip()
        gap = 0
        if ";" in text:
            text, _, tail = text.partition(";")
            if not tail.startswith("gap:"):
                raise FormatError(f"unrecognized spec suffix {tail!r}")
            try:
                gap = int(tail[len("gap:") :])
            except ValueError as exc:
                raise FormatError(f"bad gap in {tail!r}") from exc
        if text == "identity":
            return cls((), gap)
        if text.startswith("perm:"):
            body = text[len("perm:") :]
            try:
                head = tuple(int(v) for v in body.split(","))
            except ValueError as exc:
                raise FormatError(f"bad permutation list {body!r}") from exc
            return cls(head, gap)
        if text.startswith("swap:"):
            try:
                k = int(text[len("swap:") :])
            except ValueError as exc:
                raise FormatError(f"bad swap count in {text!r}") from exc
            if k < 0:
                raise FormatError("swap count must be non-negative")
            head = []
            for i in range(k):
                head.extend((2 * i + 1, 2 * i))
            return cls(tuple(head), gap)
        raise FormatError(f"unrecognized function spec {text!r}")


def _witness_table(values: Sequence[int]) -> tuple[int | None, ...]:
    """For each position, the first later position holding a smaller value."""
    out: list[int | None] = [None] * len(values)
    stack: list[int] = []
    for k, v in enumerate(values):
        while stack and values[stack[-1]] > v:
            out[stack.pop()] = k
        stack.append(k)
    return tuple(out)


def _witness_times(witness: Iterable[int | None]) -> list[int]:
    """A witness table with ``_NO_WITNESS`` standing for "never undercut"."""
    return [_NO_WITNESS if t is None else t for t in witness]


def _stage_le(n, m, t_n, t_m):
    """Does stage n sit at or below stage m, given t(n) and t(m)?

    t(k) is the first later stage whose value drops below f(k), or
    ``_NO_WITNESS``.  Works on ints and elementwise on int arrays.
    """
    return ((n < m) & (t_n <= m)) | ((n >= m) & (t_m > n))


@dataclass(frozen=True)
class StageOrder:
    """The linear order induced on stages 0..s-1 by an injective sequence.

    Stage n sits at-or-below stage m exactly when some stage in (n, m]
    undercuts f(n), or when m <= n and nothing in (m, n] undercuts f(m).
    With t(n) the first later stage whose value drops below f(n), this
    collapses to :func:`_stage_le`: t(n) <= m for n < m, and t(m) > n for n >= m.

    Comparabilities are prefix-stable: a longer sequence can only assign a
    witness >= s to stages that had none, and both clauses are insensitive
    to that for stages below s.
    """

    values: tuple[int, ...]
    witness: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if len(self.witness) != len(self.values):
            raise FormatError("witness table length mismatch")
        object.__setattr__(self, "_t", _witness_times(self.witness))

    @property
    def size(self) -> int:
        return len(self.values)

    def _check_stage(self, n: int) -> None:
        if not (0 <= n < len(self.values)):
            raise UnknownIdError(f"stage {n} outside 0..{len(self.values) - 1}")

    def leq(self, n: int, m: int) -> bool:
        self._check_stage(n)
        self._check_stage(m)
        return _stage_le(n, m, self._t[n], self._t[m])

    @property
    def ground_truth_false(self) -> frozenset[int]:
        return frozenset(n for n, t in enumerate(self.witness) if t is not None)

    def ascending(self) -> list[int]:
        """All stages, least first.

        Undercut stages come first by witness time; never-undercut stages
        follow in reverse, which is exactly what the two clauses force.
        """
        return sorted(range(len(self.values)), key=lambda n: (self._t[n], -n))


def make_stage_order(f_prefix: Sequence[int]) -> StageOrder:
    values = tuple(int(v) for v in f_prefix)
    if any(v < 0 for v in values):
        raise FormatError("stage values must be naturals")
    if len(set(values)) != len(values):
        raise NotInjective(f"values repeat: {list(values)}")
    return StageOrder(values, _witness_table(values))


# ---------------------------------------------------------------------------
# Range gadget: stage order glued beside a descending reference chain, no stage
# comparable to any chain element.  Even ids 2n carry the stage elements a_n, odd
# ids 2n+1 the chain b_n with b_n <= b_m iff n >= m, interleaved by id.


@dataclass(frozen=True)
class RangeGadget:
    fspec: FunctionSpec
    stream: StreamPoset

    def ground_truth_false(self) -> frozenset[int]:
        return self.fspec.false_stages()


def make_range_gadget(spec: FunctionSpec | str) -> RangeGadget:
    fspec = FunctionSpec.parse(spec) if isinstance(spec, str) else spec
    window = fspec.window
    # Only head stages are ever undercut, so one slot past the head serves every tail stage.
    wit = _witness_times(fspec._witness) + [_NO_WITNESS]
    wit_arr = np.array(wit, dtype=np.int64)
    # Head values stay below window + gap, so no tail stage undercuts a head
    # stage: past the head, the head stages above n are the never-undercut ones.
    never_undercut = [2 * m for m in range(window) if wit[m] == _NO_WITNESS]
    # The stages form a chain, so the head stages between two head stages are
    # a run of ``ascending``, the head listed least first; ``rank`` places
    # each head stage in it.
    ascending = StageOrder(fspec.head, fspec._witness).ascending()
    rank = {n: r for r, n in enumerate(ascending)}

    def t(n: int) -> int:
        if n < 0:
            raise UnknownIdError(f"stages are non-negative, got {n}")
        return wit[min(n, window)]

    def leq(x: int, y: int) -> bool:
        if x < 0 or y < 0:
            raise UnknownIdError(f"gadget ids are non-negative, got ({x}, {y})")
        if x % 2 == 0 and y % 2 == 0:
            n, m = x // 2, y // 2
            return _stage_le(n, m, t(n), t(m))
        return x % 2 == 1 and y % 2 == 1 and x >= y

    def side(x: int) -> FinSide:
        if x % 2 == 0 and t(x // 2) != _NO_WITNESS:
            return FinSide.FIN_PRED
        return FinSide.FIN_SUCC

    def predecessors(x: int) -> list[int] | None:
        if x % 2 == 1:
            return None  # everything earlier in the chain sits above
        n = x // 2
        if t(n) == _NO_WITNESS:
            return None
        # n is undercut, so n and every stage before it lie in the head.
        early = [2 * m for m in range(n) if t(m) <= n]
        return early + list(range(2 * n, 2 * t(n), 2))

    def successors(x: int) -> Sequence[int] | None:
        if x % 2 == 1:
            return range(1, x + 1, 2)
        n = x // 2
        if t(n) != _NO_WITNESS:
            return None
        if n < window:
            return [2 * m for m in range(n + 1) if t(m) > n]
        # Stages past the head are never undercut, so all of them up to n lie above.
        return IdRuns((never_undercut, range(2 * window, x + 1, 2)))

    def interval(x: int, y: int) -> list[int] | None:
        if x % 2 != y % 2:
            return []
        if x % 2 == 1:
            return list(range(min(x, y), max(x, y) + 1, 2))
        if leq(x, y):
            low, high = x // 2, y // 2
        elif leq(y, x):
            low, high = y // 2, x // 2
        else:
            return []
        # The gap between an undercut stage and a never-undercut one holds
        # cofinitely many stages.
        if t(low) != _NO_WITNESS and t(high) == _NO_WITNESS:
            return None
        if t(high) != _NO_WITNESS:
            # Both ends are undercut, so they and everything between lie in the head.
            return [2 * p for p in sorted(ascending[rank[low] : rank[high] + 1])]
        # Neither end is undercut: between them lie the never-undercut stages
        # from high up to low.
        head = [2 * p for p in range(high, min(low + 1, window)) if t(p) == _NO_WITNESS]
        return head + list(range(2 * max(high, window), 2 * low + 1, 2))

    def rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n, m, ea, eb = a // 2, b // 2, a % 2 == 0, b % 2 == 0
        t_n, t_m = wit_arr[np.minimum(n, window)], wit_arr[np.minimum(m, window)]
        return (ea & eb & _stage_le(n, m, t_n, t_m)) | (~ea & ~eb & (a >= b))

    stream = StreamPoset(
        lambda s: s,
        leq,
        oracles=OracleBundle(
            predecessors=predecessors,
            successors=successors,
            interval=interval,
            side=side,
        ),
        name=f"range-gadget({fspec.describe()})",
        leq_block=_bulk(rel),
    )
    return RangeGadget(fspec, stream)


@dataclass(frozen=True)
class DecodedFalseStages:
    stages: frozenset[int]
    horizon: int

    def to_json_dict(self) -> dict:
        return {"stages": sorted(self.stages), "horizon": self.horizon}


def decode_false_stages(order: LinearOrder, s: int) -> DecodedFalseStages:
    """Which of the first ``s`` stages sit below every present chain element.

    The horizon M is the longest contiguous run b_0..b_{M-1} found in
    ``order``; reading stops with HorizonTooSmall when M < s or when some
    a_n with n < s is absent, since then the answer could still change.

    Exact on orders built by :func:`split_linearize`, whose ω* blocks go left
    of all earlier ones; those are the only orders it is promised for.  Other
    linear extensions of the gadget can place a never-undercut stage left of
    every chain element, and then it is read as false.
    """
    if s < 0:
        raise FormatError(f"stage count must be a natural, got {s}")
    a_pos: dict[int, int] = {}
    b_indices: set[int] = set()
    min_b_pos: int | None = None
    for pos, x in enumerate(order):
        if x % 2 == 1:
            b_indices.add((x - 1) // 2)
            if min_b_pos is None:
                min_b_pos = pos
        else:
            a_pos[x // 2] = pos
    horizon = 0
    while horizon in b_indices:
        horizon += 1
    if horizon < s:
        raise HorizonTooSmall(
            f"contiguous chain run has length {horizon}, need at least {s}"
        )
    missing = [n for n in range(s) if n not in a_pos]
    if missing:
        raise HorizonTooSmall(f"stage elements {missing[:4]} absent from the order")
    if min_b_pos is None:
        return DecodedFalseStages(frozenset(), 0)
    stages = frozenset(n for n in range(s) if a_pos[n] < min_b_pos)
    return DecodedFalseStages(stages, horizon)


def read_false_stages(gadget: RangeGadget, s: int, horizon: int) -> DecodedFalseStages:
    """The false stages below ``s``, read off the split of the first 2·min(s, horizon) ids.

    The gadget's stream enumerates a_0, b_0, a_1, b_1, ..., so with
    k = min(s, horizon) those ids are a_0..a_{k-1} and b_0..b_{k-1}, and the
    chain run read is k: ``horizon`` only caps it, and when it is below
    ``s`` :func:`decode_false_stages` refuses with HorizonTooSmall.

    Reading more ids cannot change the answer.  The split of a longer
    prefix runs the same blocks first, since each run's pivot is the least
    unabsorbed id of its part and this prefix's ids come first.  Its later
    FIN_PRED blocks go right of the earlier ones and its later FIN_SUCC
    blocks left of them, and every position is final, so the longer order
    is this order's FIN_PRED part, the new FIN_PRED blocks, the new FIN_SUCC
    blocks, then this order's FIN_SUCC part.  So a stage below ``s`` that
    sits right of some chain element here still does there.  A stage of the
    FIN_PRED part left of every chain element here stays left of them,
    since every new element goes right of that part.  Only a FIN_SUCC stage
    left of every chain element could move, because new chain elements may
    go left of it; such a reading is refused with HorizonTooSmall.  On the
    gadget it cannot arise: the last FIN_SUCC id is b_{k-1}, whose
    successors are the earlier chain ids, so no earlier block holds it, and
    its block is pulled last and goes leftmost.
    """
    if s < 0:
        raise FormatError(f"stage count must be a natural, got {s}")
    order = split_linearize(gadget.stream, 2 * min(s, horizon))
    decoded = decode_false_stages(order, s)
    movable = [n for n in sorted(decoded.stages) if order.sides[2 * n] is not FinSide.FIN_PRED]
    if movable:
        raise HorizonTooSmall(
            f"FIN_SUCC stages {movable[:4]} sit left of every chain element, so a longer split can move them"
        )
    return decoded


# ---------------------------------------------------------------------------
# Embed gadget: an antichain a_0, a_1, ... over stacked finite fans.  Stage n
# contributes n+1 bottom elements lying below exactly the a_m with f(n) <= m,
# so the rank of a_m in any honest embedding exceeds every n with f(n) <= m.


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


def _fan_coords(x: int) -> tuple[int, int]:
    """Decode an odd id into its (stage, copy) pair."""
    k = (x - 1) // 2
    n = (math.isqrt(8 * k + 1) - 1) // 2
    return n, k - _triangle(n)


def _fan_id(n: int, j: int) -> int:
    return 2 * (_triangle(n) + j) + 1


@dataclass(frozen=True)
class EmbedGadget:
    fspec: FunctionSpec
    stream: StreamPoset

    @staticmethod
    def top_id(m: int) -> int:
        return 2 * m

    @staticmethod
    def fan_id(n: int, j: int) -> int:
        return _fan_id(n, j)


def make_embed_gadget(spec: FunctionSpec | str) -> EmbedGadget:
    fspec = FunctionSpec.parse(spec) if isinstance(spec, str) else spec
    window = fspec.window

    def leq(x: int, y: int) -> bool:
        if x < 0 or y < 0:
            raise UnknownIdError(f"gadget ids are non-negative, got ({x}, {y})")
        if x == y:
            return True
        if x % 2 == 1 and y % 2 == 0:
            n, _ = _fan_coords(x)
            return fspec.value(n) <= y // 2
        return False

    def predecessors(x: int) -> Sequence[int]:
        if x % 2 == 1:
            return [x]
        m = x // 2
        fans = [range(_fan_id(n, 0), _fan_id(n, n) + 1, 2) for n in range(window) if fspec.value(n) <= m]
        # Past the head f(n) = n + gap, so the stages window..m - gap all
        # qualify, and their fans are consecutive odd ids.
        last = m - fspec.gap
        if last >= window:
            fans.append(range(_fan_id(window, 0), _fan_id(last, last) + 1, 2))
        return IdRuns(fans)

    def successors(x: int) -> list[int] | None:
        if x % 2 == 0:
            return [x]
        return None  # a fan element sits below cofinitely many tops

    def interval(x: int, y: int) -> list[int]:
        if x == y:
            return [x]
        if leq(x, y) or leq(y, x):
            return [x, y]  # two-layer order: nothing fits strictly between
        return []

    head_vals = np.array(
        [fspec.value(n) for n in range(window)] + [0], dtype=np.int64
    )

    def fan_value(arr: np.ndarray) -> np.ndarray:
        """f(n) for the stage n of each (odd) fan id."""
        k = np.maximum(arr - 1, 0) // 2
        n = ((np.sqrt(8.0 * k + 1.0) - 1.0) / 2.0).astype(np.int64)
        # Triangle numbers in uint64: (n + 1)(n + 2) passes 2**63 on the last fans below it.
        ku, u = k.astype(np.uint64), n.astype(np.uint64)
        n = np.where((u + 1) * (u + 2) // 2 <= ku, n + 1, n)
        u = n.astype(np.uint64)
        n = np.where(u * (u + 1) // 2 > ku, n - 1, n)
        return np.where(n < window, head_vals[np.minimum(n, window)], n + fspec.gap)

    def rel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        fan_below_top = (a % 2 == 1) & (b % 2 == 0) & (fan_value(a) <= b // 2)
        return fan_below_top | (a == b)

    stream = StreamPoset(
        lambda s: s,
        leq,
        oracles=OracleBundle(
            predecessors=predecessors,
            successors=successors,
            interval=interval,
            side=lambda x: FinSide.FIN_PRED,
        ),
        name=f"embed-gadget({fspec.describe()})",
        leq_block=_bulk(rel),
    )
    return EmbedGadget(fspec, stream)


def decode_range(h, f_prefix: Sequence[int], m: int) -> bool:
    """Is ``m`` a value of the generating function, read off an embedding.

    ``h`` must assign the top element a_m a rank in the ascending canonical
    order; any stage producing m must sit below that rank, so scanning the
    prefix up to it is conclusive once the prefix is long enough.
    """
    if m < 0:
        raise FormatError(f"range members are naturals, got {m}")
    coords = h.coords
    top = 2 * m
    if top not in coords:
        raise UnknownIdError(f"embedding does not cover the top element for {m}")
    if h.kind is not Kind.OMEGA:
        raise FormatError(f"range decoding needs an omega embedding, got {h.kind.value}")
    bound = coords[top]
    values = list(f_prefix)
    for n in range(min(bound, len(values))):
        if values[n] == m:
            return True
    if bound > len(values):
        raise PrefixTooShort(
            f"need the first {bound} values to rule {m} out, have {len(values)}"
        )
    return False


# ---------------------------------------------------------------------------
# Marker gadgets: disjoint finite parts, each tied to its own marker(s).


@dataclass(frozen=True)
class FufGadget:
    """Finitely many antichain parts, each bound to a marker.

    The base poset is the disjoint sum of the parts; in the OMEGA variant
    part members sit below their top marker, the OMEGA_STAR variant is the
    order dual, and the ZETA variant adds a bottom marker below each part.
    """

    base: FinitePoset
    variant: Kind
    parts: tuple[tuple[int, ...], ...]
    top_markers: tuple[int, ...]
    bottom_markers: tuple[int, ...] = ()

    @property
    def union_size(self) -> int:
        return sum(len(p) for p in self.parts)

    def stream(self) -> StreamPoset:
        tag = FinSide.FIN_SUCC if self.variant is Kind.OMEGA_STAR else FinSide.FIN_PRED
        return stream_from_finite(self.base, side=tag)


def make_fuf_gadget(
    sets: Sequence[int | Iterable[object]], variant: Kind = Kind.OMEGA
) -> FufGadget:
    """Build the marker gadget for the given parts.

    Each entry of ``sets`` is a part: either its size or an iterable of
    distinct labels (only the count matters; elements are re-idded
    sequentially, members first, markers after, parts in order).
    """
    try:
        variant = Kind(variant)
    except ValueError as exc:
        raise FormatError(f"unknown gadget variant {variant!r}") from exc
    if variant not in (Kind.OMEGA, Kind.OMEGA_STAR, Kind.ZETA):
        raise FormatError(f"no marker gadget variant for kind {variant.value}")
    sizes: list[int] = []
    for part in sets:
        if isinstance(part, int):
            if part < 0:
                raise FormatError(f"part sizes are naturals, got {part}")
            sizes.append(part)
        else:
            sizes.append(len(set(part)))
    if not sizes:
        raise MissingPartError("at least one part is required")
    parts: list[tuple[int, ...]] = []
    tops: list[int] = []
    bottoms: list[int] = []
    relation: list[tuple[int, int]] = []
    nxt = 0
    for size in sizes:
        if variant is Kind.ZETA:
            bottom = nxt
            nxt += 1
            bottoms.append(bottom)
        members = tuple(range(nxt, nxt + size))
        nxt += size
        marker = nxt
        nxt += 1
        parts.append(members)
        tops.append(marker)
        if variant is Kind.OMEGA:
            relation.extend((x, marker) for x in members)
        elif variant is Kind.OMEGA_STAR:
            relation.extend((marker, x) for x in members)
        else:
            relation.extend((bottom, x) for x in members)
            relation.extend((x, marker) for x in members)
            relation.append((bottom, marker))  # holds even when the part is empty
    base = build_poset(range(nxt), relation)
    return FufGadget(
        base=base,
        variant=variant,
        parts=tuple(parts),
        top_markers=tuple(tops),
        bottom_markers=tuple(bottoms),
    )


def fuf_decode(order: LinearOrder | Sequence[int], gadget: FufGadget) -> int:
    """A bound on the size of the union of the parts, read off an extension.

    Every member sits below its own top marker (dually above its bottom
    marker), so counting below the highest marker (above the lowest, or
    strictly between the two) covers the whole union.
    """
    if not isinstance(order, LinearOrder):
        order = LinearOrder(tuple(order))
    check = is_linear_extension(order, gadget.base)
    if not check:
        raise NotAnExtension(check.detail)
    pos = order.index_of
    if gadget.variant is Kind.OMEGA:
        return pos(max(gadget.top_markers, key=pos))
    if gadget.variant is Kind.OMEGA_STAR:
        return len(order) - 1 - pos(min(gadget.top_markers, key=pos))
    lo = pos(min(gadget.bottom_markers, key=pos))
    hi = pos(max(gadget.top_markers, key=pos))
    return hi - lo - 1
