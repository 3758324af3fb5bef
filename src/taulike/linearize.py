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
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ClassifierInconsistent,
    FiniteDomainEnd,
    FormatError,
    OracleMissing,
    TooLarge,
)
from .kinds import BlockSide, FinSide, Kind
from .poset import FinitePoset, LinearOrder
from .streams import StreamPoset, oracle_answer, read_side, require_oracle, take

__all__ = [
    "Block",
    "BlockSeq",
    "szpilrajn_extend",
    "omega_linearize",
    "omega_star_linearize",
    "zeta_linearize",
    "split_linearize",
    "linearize",
]

# Liveness guard: stages examined while hunting one pivot.  Honest streams
# always have a pivot within the elements they have not emitted yet.
MAX_PIVOT_SCAN = 1_000_000


@dataclass(frozen=True)
class Block:
    """One emitted block: its pivot, its sorted members, its placement side."""

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

    def placement_le(self, x: int, y: int) -> bool:
        """Debug view of the derived block placement order.

        x is placed at-or-below y when they share a block, or when the later
        of the two blocks points away from the earlier one (RIGHT blocks go
        above everything older, LEFT blocks below).
        """
        i, j = self.block_of(x), self.block_of(y)
        if i == j:
            return True  # within a block only <=_P decides; caller refines
        if i < j:
            return self.blocks[j].side is BlockSide.RIGHT
        return self.blocks[i].side is BlockSide.LEFT


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


def _block_run(
    stream: StreamPoset,
    kind: Kind,
    step: Callable[[int], tuple[Iterable[int], BlockSide]],
    blocks_wanted: int | None,
    elements_wanted: int | None,
) -> tuple[BlockSeq, LinearOrder]:
    """The one block construction behind every block run.

    Each pivot is the least-enumerated id not yet absorbed.  With complete
    oracles that is exactly the pivot eligibility condition of every run
    here, because the absorbed set is the union of the oracle-defined sets
    of all earlier pivots.  ``step(pivot)`` returns the ids the pivot pins
    down and the side its block goes on; the block is the pivot plus those
    ids minus everything absorbed, sorted, and its segment goes on the left
    of the order for ``LEFT`` and on the right for ``RIGHT``.  Every run but
    the rising one anchors signed position 0 at the first pivot.
    """
    # A block budget wins over an element budget; no budget means run until
    # the stream is exhausted.
    if blocks_wanted is not None:
        elements_wanted = None
    absorbed: set[int] = set()
    blocks: list[Block] = []
    positions: deque[int] = deque()
    emitted = stage = scanned = 0
    while (blocks_wanted is None or len(blocks) < blocks_wanted) and (
        elements_wanted is None or emitted < elements_wanted
    ):
        try:
            pivot = stream.element_at(stage)
        except FiniteDomainEnd:
            break
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
        fresh = set(filterfalse(absorbed.__contains__, ids))
        fresh.add(pivot)
        members = sorted(fresh)
        absorbed.update(members)
        seg = _segment(stream, members)
        if side is BlockSide.LEFT:
            positions.extendleft(reversed(seg))
        else:
            positions.extend(seg)
        blocks.append(Block(pivot=pivot, members=tuple(members), side=side))
        emitted += len(members)
    order = tuple(positions)
    anchor = order.index(blocks[0].pivot) if blocks and kind is not Kind.OMEGA else None
    return BlockSeq(tuple(blocks), kind), LinearOrder(order, anchor_index=anchor)


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
    fn = require_oracle(stream, "predecessors")

    def step(pivot: int) -> tuple[Iterable[int], BlockSide]:
        return oracle_answer(fn, pivot, what="predecessors oracle"), BlockSide.RIGHT

    return _block_run(stream, Kind.OMEGA, step, blocks_wanted, elements_wanted)


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

    def step(pivot: int) -> tuple[Iterable[int], BlockSide]:
        return oracle_answer(fn, pivot, what="successors oracle"), BlockSide.LEFT

    return _block_run(stream, Kind.OMEGA_STAR, step, blocks_wanted, elements_wanted)


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
    """
    fn = require_oracle(stream, "interval")
    minimal: list[int] = []
    maximal: list[int] = []

    def step(pivot: int) -> tuple[Iterable[int], BlockSide]:
        nonlocal minimal, maximal
        below = [m for m in minimal if stream.leq(m, pivot)]
        above = [m for m in maximal if stream.leq(pivot, m)]
        answers = [
            oracle_answer(fn, z, pivot, what="interval oracle") for z in below + above + [pivot]
        ]
        # An earlier pivot below p means p is not minimal, and then no
        # minimal pivot lies above it; dually for the maximal list.
        if not below:
            minimal = [m for m in minimal if not stream.leq(pivot, m)] + [pivot]
        if not above:
            maximal = [m for m in maximal if not stream.leq(m, pivot)] + [pivot]
        return chain.from_iterable(answers), BlockSide.LEFT if above else BlockSide.RIGHT

    return _block_run(stream, Kind.ZETA, step, blocks_wanted, elements_wanted)


def _substream(stream: StreamPoset, ids: Sequence[int], label: str) -> StreamPoset:
    seq = list(ids)
    return StreamPoset(
        lambda s: seq[s],
        stream.leq,
        oracles=stream.oracles,
        size=len(seq),
        name=f"{stream.name}/{label}",
        leq_block=stream._leq_block,
    )


def split_linearize(stream: StreamPoset, elements_wanted: int) -> LinearOrder:
    """Linearize a stream whose elements each promise one finite cone.

    The first ``elements_wanted`` enumerated elements are partitioned by the
    side oracle; the FIN_PRED part runs through omega_linearize, the FIN_SUCC
    part through omega_star_linearize, and the output is their concatenation
    (side-0 entirely below side-1), tagged with the per-element sides.
    """
    side_fn = require_oracle(stream, "side")
    horizon = take(stream, elements_wanted)
    lower: list[int] = []
    upper: list[int] = []
    for x in horizon:
        tag = read_side(side_fn(x), x)
        if tag is None:
            raise OracleMissing(f"side oracle gave no class for element {x}")
        if tag is FinSide.FIN_PRED:
            lower.append(x)
        else:
            upper.append(x)
    _, low_order = omega_linearize(_substream(stream, lower, "fin-pred"))
    _, high_order = omega_star_linearize(_substream(stream, upper, "fin-succ"))

    emitted_low = list(low_order)
    emitted_high = list(high_order)
    clash = set(emitted_low) & set(emitted_high)
    if clash:
        raise ClassifierInconsistent(
            f"elements {sorted(clash)[:4]} were emitted on both sides"
        )
    # Downward-closure check: nothing classified FIN_SUCC may sit below
    # anything classified FIN_PRED.  Without a bulk hook the rectangle falls
    # back to pairwise leq, so every pair is checked either way.
    if emitted_low and emitted_high:
        cross = stream.relation_matrix(emitted_high, emitted_low)
        if cross.any():
            i, j = np.argwhere(cross)[0]
            raise ClassifierInconsistent(
                f"FIN_SUCC element {emitted_high[i]} lies below FIN_PRED element {emitted_low[j]}"
            )
    sides: dict[int, FinSide] = {x: FinSide.FIN_PRED for x in emitted_low}
    sides.update({x: FinSide.FIN_SUCC for x in emitted_high})
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
    if kind is Kind.OMEGA:
        return omega_linearize(stream, blocks, elements_wanted=elements)
    if kind is Kind.OMEGA_STAR:
        return omega_star_linearize(stream, blocks, elements_wanted=elements)
    if kind is Kind.ZETA:
        return zeta_linearize(stream, blocks, elements_wanted=elements)
    if kind is Kind.OMEGA_PLUS_OMEGA_STAR:
        if elements is None:
            raise FormatError("the split construction takes an elements budget")
        return None, split_linearize(stream, elements)
    raise FormatError(f"unknown kind {kind!r}")
