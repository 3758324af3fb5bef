"""Constructive linearization: deterministic insertion, block runs, splits.

All block constructions share one discipline: pick the least-enumerated
element not yet absorbed, ask an oracle for the complete finite set it pins
down, and emit that set (minus everything already emitted) as one block whose
internal order comes from the deterministic insertion rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ClassifierInconsistent, FiniteDomainEnd, FormatError, OracleMissing, TooLarge
from .kinds import BlockSide, FinSide, Kind
from .poset import FinitePoset, LinearOrder
from .streams import IdRuns, StreamPoset, read_side, require_oracle, take

__all__ = [
    "Block",
    "BlockSeq",
    "szpilrajn_extend",
    "omega_linearize",
    "omega_star_linearize",
    "zeta_linearize",
    "split_linearize",
    "linearize",
    "omega_blocks",
    "assemble",
]

# Liveness guard: stages examined while hunting one pivot.  Honest streams
# always have a pivot within the elements they have not emitted yet.
MAX_PIVOT_SCAN = 1_000_000
# Work guard: pairs in a split's FIN_SUCC x FIN_PRED cross check.  The check
# runs in rectangles of at most CROSS_CHUNK_CELLS pairs, so its memory stays
# bounded; the limit bounds its time, about 16 s through the omega-omega-star
# bulk hook on a 2-core host.  One rectangle over all the pairs would hold
# about 3 bytes per pair with that hook's temporaries, 12 GiB at the limit.
MAX_CROSS_CELLS = 1 << 32
CROSS_CHUNK_CELLS = 1 << 24


class Block(NamedTuple):
    """One emitted block: its pivot, its sorted members, its placement side.

    A named tuple: immutable, hashable, equal when its fields are equal, and
    built for the cost of a tuple, since a run builds one per block.
    """

    pivot: int
    members: tuple[int, ...]
    side: BlockSide


@dataclass(frozen=True)
class BlockSeq:
    blocks: tuple[Block, ...]
    kind: Kind

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def block_of(self, x: int) -> int:
        for i, b in enumerate(self.blocks):
            if x in b.members:
                return i
        raise KeyError(x)


def szpilrajn_extend(poset: FinitePoset) -> LinearOrder:
    """Deterministic linear extension by insertion.

    Elements are processed in the poset's enumeration order; each is placed
    immediately after its rightmost already-placed predecessor, else
    immediately before its leftmost already-placed successor, else at the
    right end.  Placed predecessors always precede placed successors, so the
    rule keeps the list an extension at every step.  Each element's
    predecessors and successors are read once, as its column and row of the
    poset's relation matrix.
    """
    m = poset.matrix
    placed: list[int] = []  # matrix indices, left to right
    for i in range(poset.size):
        below = m[:, i].tolist()
        at = len(placed)
        for k in range(at - 1, -1, -1):
            if below[placed[k]]:
                at = k + 1
                break
        else:
            above = m[i].tolist()
            for k, j in enumerate(placed):
                if above[j]:
                    at = k
                    break
        placed.insert(at, i)
    els = poset.elements
    return LinearOrder(tuple(els[j] for j in placed))


def _induced(stream: StreamPoset, members: Sequence[int]) -> FinitePoset:
    return FinitePoset(members, stream.relation_matrix(members))


def _segment(stream: StreamPoset, members: Sequence[int]) -> list[int]:
    if len(members) == 1:
        return [members[0]]
    return list(szpilrajn_extend(_induced(stream, members)))


def _unabsorbed(ids: Iterable[int], absorbed: set[int], links: dict[int, dict[int, int]]) -> list[int]:
    """The ids of ``ids`` not in ``absorbed``, listed; a ``range`` costs its new ids, not its length.

    ``links[s]`` maps y to z when y, y + s, ..., z - s are all absorbed.  A
    range is walked up from its low end, absorbed runs are jumped along the
    links, and each id passed is pointed at its run's end: the interval case
    of path-compressed disjoint-set union.  The caller absorbs every id this
    returns, so the range's low end is pointed past the range too; until
    then that link is read only if the low end was absorbed already, and the
    ids it skips are absorbed or listed.  An :class:`IdRuns` is read part by
    part into one list, so a step may hand on the parts of several answers
    as one :class:`IdRuns`; other answers are probed id by id.
    """
    cls = type(ids)
    if cls is range:
        parts = (ids,)
    elif cls is IdRuns:
        parts = ids.parts
    else:
        return list(filterfalse(absorbed.__contains__, ids))
    out: list[int] = []
    append = out.append
    for part in parts:
        if type(part) is not range:
            out.extend(filterfalse(absorbed.__contains__, part))
            continue
        if part.step < 0:
            part = part[::-1]
        s, stop, y = part.step, part.stop, part.start
        link = links.get(s)
        if link is None:
            link = links[s] = {}
        while y < stop:
            if y not in absorbed:
                append(y)
                y += s
                continue
            passed = []
            while y < stop and y in absorbed:
                passed.append(y)
                y = link.get(y, y + s)
            for x in passed:
                link[x] = y
        if part:  # the caller absorbs every id listed, so then the whole part is absorbed
            link[part.start] = y
    return out


def _block_run(
    stream: StreamPoset,
    step: Callable[[int], tuple[Iterable[int], BlockSide]],
    enumeration: Sequence[int] | None = None,
) -> Iterator[tuple[Block, list[int]]]:
    """The one block construction behind every block run, one block per pull.

    Each pivot is the least-enumerated id not yet absorbed.  With complete
    oracles that is exactly the pivot eligibility condition of every run
    here, because the absorbed set is the union of the oracle-defined sets
    of all earlier pivots.  ``step(pivot)`` returns the ids the pivot pins
    down and the side its block goes on; the block is the pivot plus those
    ids minus everything absorbed (:func:`_unabsorbed`), sorted, and it
    comes with its segment.  A block whose only new id is its pivot is
    built as it stands.

    The run enumerates ``enumeration`` when one is given, read as given: it
    holds ids that ``stream.element_at`` has already checked.  Otherwise it
    enumerates the stream itself, reading the stages the stream has already
    checked off its cache and pulling only the others through
    ``element_at``, so each id is checked once.
    """
    absorbed: set[int] = set()
    absorb, absorb_all = absorbed.add, absorbed.update
    links: dict[int, dict[int, int]] = {}
    # The stream's cache holds every stage it has enumerated and checked.
    known = stream._cache if enumeration is None else enumeration
    stage = scanned = 0
    while True:
        if stage < len(known):
            pivot = known[stage]
        elif enumeration is not None:
            return
        else:
            try:
                pivot = stream.element_at(stage)
            except FiniteDomainEnd:
                return
        stage += 1
        if pivot in absorbed:
            scanned += 1
            if scanned > MAX_PIVOT_SCAN:
                raise TooLarge(
                    f"no new pivot within {MAX_PIVOT_SCAN} stages; stream may not satisfy its kind promise"
                )
            continue
        scanned = 0
        ids, side = step(pivot)
        new = _unabsorbed(ids, absorbed, links)
        if not new or (len(new) == 1 and new[0] == pivot):
            absorb(pivot)
            yield Block(pivot, (pivot,), side), [pivot]
            continue
        members = tuple(sorted({pivot, *new}))
        absorb_all(members)
        yield Block(pivot, members, side), _segment(stream, members)


def assemble(
    kind: Kind, run: Iterable[tuple[Block, list[int]]], blocks_wanted: int | None = None,
    elements_wanted: int | None = None, *, until: Callable[[Block], bool] | None = None,
) -> tuple[BlockSeq, LinearOrder]:
    """Pull blocks off ``run`` while the budget lasts and lay out their order.

    A block budget wins over an element budget; with neither, the run goes
    to its end.  ``until(block)`` stops the pull after the first block it
    accepts.  ``LEFT`` segments go on the left, ``RIGHT`` ones on the right,
    and every run but the rising one anchors signed position 0 at the first
    pivot.
    """
    if blocks_wanted is not None:
        elements_wanted = None
    blocks: list[Block] = []
    positions: deque[int] = deque()
    run = iter(run)
    left = BlockSide.LEFT  # read once, not once per block
    while (blocks_wanted is None or len(blocks) < blocks_wanted) and (
        elements_wanted is None or len(positions) < elements_wanted
    ):
        block, seg = next(run, (None, None))
        if block is None:
            break
        if block.side is left:
            positions.extendleft(reversed(seg))
        else:
            positions.extend(seg)
        blocks.append(block)
        if until is not None and until(block):
            break
    order = tuple(positions)
    anchor = order.index(blocks[0].pivot) if blocks and kind is not Kind.OMEGA else None
    return BlockSeq(tuple(blocks), kind), LinearOrder(order, anchor_index=anchor)


def _cone_step(name: str, fn: Callable, side: BlockSide) -> Callable[[int], tuple[Iterable[int], BlockSide]]:
    """A one-sided run's step: the ``name`` oracle's answer for the pivot, on ``side``."""

    def step(pivot: int) -> tuple[Iterable[int], BlockSide]:
        ans = fn(pivot)
        if ans is None:
            raise OracleMissing(f"{name} oracle returned no finite answer for {(pivot,)}")
        return ans, side

    return step


def omega_blocks(stream: StreamPoset) -> Iterator[tuple[Block, list[int]]]:
    """The ω run of ``stream`` as blocks with their segments, pulled one at a time."""
    fn = require_oracle(stream, "predecessors")
    return _block_run(stream, _cone_step("predecessors", fn, BlockSide.RIGHT))


def omega_linearize(
    stream: StreamPoset,
    blocks_wanted: int | None = None,
    *,
    elements_wanted: int | None = None,
) -> tuple[BlockSeq, LinearOrder]:
    """Block linearization for streams whose lower cones are finite.

    Block n's pivot is the least-enumerated element outside all earlier
    blocks; its members are the pivot's predecessors minus earlier blocks.
    The output order concatenates the blocks left to right.
    """
    return assemble(Kind.OMEGA, omega_blocks(stream), blocks_wanted, elements_wanted)


def omega_star_linearize(
    stream: StreamPoset,
    blocks_wanted: int | None = None,
    *,
    elements_wanted: int | None = None,
) -> tuple[BlockSeq, LinearOrder]:
    """Dual block linearization: finite upper cones, blocks grow leftward.

    The returned order anchors block 0 rightmost (its pivot is signed
    position 0).
    """
    fn = require_oracle(stream, "successors")
    run = _block_run(stream, _cone_step("successors", fn, BlockSide.LEFT))
    return assemble(Kind.OMEGA_STAR, run, blocks_wanted, elements_wanted)


def zeta_linearize(
    stream: StreamPoset,
    blocks_wanted: int | None = None,
    *,
    elements_wanted: int | None = None,
) -> tuple[BlockSeq, LinearOrder]:
    """Two-ended block linearization for streams with finite intervals.

    Block n's pivot is the least-enumerated element not covered by any
    interval between earlier pivots; its members are everything in an
    interval between an earlier-or-current pivot and the new pivot, minus
    earlier coverage.  A block goes LEFT when its pivot sits below some
    earlier pivot, else RIGHT; the order is realized as a deque.

    Only the extremal earlier pivots are asked: for a new pivot p the run
    queries ``interval(m, p)`` for each minimal earlier pivot m <= p,
    ``interval(M, p)`` for each maximal earlier pivot M >= p, and
    ``interval(p, p)``.  This yields the same blocks as asking every earlier
    pivot z, under one assumption: an honest ``interval`` answers ``[]`` for
    incomparable ids, as the ``OracleBundle`` contract says.  Proof:

    - if z and p are incomparable, ``interval(z, p)`` is empty;
    - if z <= p, the finite set of earlier pivots has a minimal m <= z, so
      m <= p and [z, p] is contained in [m, p] by transitivity;
    - if z >= p, dually some maximal M >= z has [p, z] contained in [p, M].

    Each extremal pivot is itself an earlier pivot, so the union of answers,
    hence ``members`` and ``covered``, is unchanged; p lies below some
    earlier pivot exactly when it lies below a maximal one, so ``side`` is
    unchanged too.  Asking only the *nearest* pivot would be unsound (with
    z < a < p, z < z' < p and a incomparable to z', the element a lies in
    [z, p] but not in [z', p]); the farthest pivots do not have that gap.
    Incomparable pivots are no longer asked at all, so an oracle that has
    no answer for such a pair no longer stops the run.

    The answers are handed on part by part, as one :class:`IdRuns`: a
    ``range`` answer stays a range, an :class:`IdRuns` gives its parts and
    any other answer is one list part.  So :func:`_unabsorbed` jumps the
    absorbed ids of every range, and a run over range answers costs its new
    ids, not the lengths of its intervals.
    """
    fn = require_oracle(stream, "interval")
    leq = stream._leq  # read for its truth only, as StreamPoset.leq reads it
    minimal: list[int] = []
    maximal: list[int] = []

    def step(pivot: int) -> tuple[Iterable[int], BlockSide]:
        nonlocal minimal, maximal
        below = [m for m in minimal if leq(m, pivot)]
        above = [m for m in maximal if leq(pivot, m)]
        parts: list = []
        for z in below + above + [pivot]:
            ans = fn(z, pivot)
            if ans is None:
                raise OracleMissing(f"interval oracle returned no finite answer for {(z, pivot)}")
            parts += ans.parts if type(ans) is IdRuns else (ans,)
        # An earlier pivot below p means p is not minimal, and then no
        # minimal pivot lies above it; dually for the maximal list.
        if not below:
            minimal = [m for m in minimal if not leq(pivot, m)] + [pivot]
        if not above:
            maximal = [m for m in maximal if not leq(m, pivot)] + [pivot]
        return IdRuns(parts), BlockSide.LEFT if above else BlockSide.RIGHT

    return assemble(Kind.ZETA, _block_run(stream, step), blocks_wanted, elements_wanted)


def split_linearize(stream: StreamPoset, elements_wanted: int) -> LinearOrder:
    """Linearize a stream whose elements each promise one finite cone.

    The first ``elements_wanted`` enumerated elements are partitioned by the
    side oracle; the FIN_PRED part runs through the omega block run, the
    FIN_SUCC part through the omega-star one, and the output is their
    concatenation (side-0 entirely below side-1), tagged with the
    per-element sides.  Each run enumerates its part's id list as given, so
    every id is checked once, by ``stream.element_at``.
    """
    side_fn = require_oracle(stream, "side")
    parts: dict[FinSide, list[int]] = {FinSide.FIN_PRED: [], FinSide.FIN_SUCC: []}
    for x in take(stream, elements_wanted):
        tag = side_fn(x)
        if type(tag) is not FinSide:
            tag = read_side(tag, x)
            if tag is None:
                raise OracleMissing(f"side oracle gave no class for element {x}")
        parts[tag].append(x)
    halves = []
    for tag, name, label, side in (
        (FinSide.FIN_PRED, "predecessors", "fin-pred", BlockSide.RIGHT),
        (FinSide.FIN_SUCC, "successors", "fin-succ", BlockSide.LEFT),
    ):
        fn = getattr(stream.oracles, name)
        if fn is None:
            raise OracleMissing(f"stream {f'{stream.name}/{label}'!r} has no {name} oracle")
        segs = [seg for _, seg in _block_run(stream, _cone_step(name, fn, side), parts[tag])]
        # RIGHT blocks go above the earlier ones, LEFT blocks below them.
        halves.append(list(chain.from_iterable(segs if side is BlockSide.RIGHT else reversed(segs))))
    emitted_low, emitted_high = halves
    clash = set(emitted_low) & set(emitted_high)
    if clash:
        raise ClassifierInconsistent(
            f"elements {sorted(clash)[:4]} were emitted on both sides"
        )
    # Downward-closure check: nothing classified FIN_SUCC may sit below
    # anything classified FIN_PRED.  Without a bulk hook the rectangle falls
    # back to pairwise leq, so every pair is checked either way.  The rows go
    # in chunks, first to last, so the first pair found is the first in
    # row-major order.
    if emitted_low and emitted_high:
        if len(emitted_high) * len(emitted_low) > MAX_CROSS_CELLS:
            raise TooLarge(
                f"the split's cross check of {len(emitted_high)} x {len(emitted_low)} elements exceeds "
                f"the limit of {MAX_CROSS_CELLS} pairs"
            )
        rows = max(1, CROSS_CHUNK_CELLS // len(emitted_low))
        for start in range(0, len(emitted_high), rows):
            cross = stream.relation_matrix(emitted_high[start : start + rows], emitted_low)
            if cross.any():
                i, j = np.argwhere(cross)[0]
                raise ClassifierInconsistent(
                    f"FIN_SUCC element {emitted_high[start + i]} lies below FIN_PRED element {emitted_low[j]}"
                )
    sides: dict[int, FinSide] = dict.fromkeys(emitted_low, FinSide.FIN_PRED)
    sides.update(dict.fromkeys(emitted_high, FinSide.FIN_SUCC))
    return LinearOrder(
        tuple(emitted_low) + tuple(emitted_high),
        sides=sides,
    )


def linearize(
    stream: StreamPoset,
    kind: Kind,
    *,
    blocks: int | None = None,
    elements: int | None = None,
) -> tuple[BlockSeq | None, LinearOrder]:
    """Kind-dispatching front door used by the CLI."""
    if blocks is None and elements is None:
        raise FormatError("a blocks or elements budget is required")
    runs = {Kind.OMEGA: omega_linearize, Kind.OMEGA_STAR: omega_star_linearize, Kind.ZETA: zeta_linearize}
    if kind in runs:  # looked up per call, so the module names stay rebindable
        return runs[kind](stream, blocks, elements_wanted=elements)
    if kind is Kind.OMEGA_PLUS_OMEGA_STAR:
        if elements is None:
            raise FormatError("the split construction takes an elements budget")
        return None, split_linearize(stream, elements)
    raise FormatError(f"unknown kind {kind!r}")
