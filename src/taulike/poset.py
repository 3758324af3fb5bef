"""Finite partial orders, linear orders, and canonical comparison points.

Element ids are non-negative ints throughout.  A :class:`FinitePoset` stores
its full reflexive-transitive relation as one read-only boolean matrix, so
``le`` is an array lookup and cones, intervals and covers are row, column and
matrix operations.  The constructor re-checks the partial-order axioms of
every matrix it is given; :func:`build_poset` closes generator pairs into a
matrix that satisfies them by construction and skips that check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    CycleError,
    FormatError,
    TooLarge,
    UnknownIdError,
)
from .kinds import FinSide, Kind

__all__ = [
    "FinitePoset",
    "LinearOrder",
    "CanonicalPoint",
    "ExtensionCheck",
    "build_poset",
    "is_linear_extension",
    "POSET_SCHEMA",
    "poset_to_json_dict",
    "poset_from_json_dict",
]

POSET_SCHEMA = "taulike.poset/1"
# Size guard for poset documents: the matrix is quadratic in the element count
# and closure ORs one row of that many bits per element and per pair, so larger
# documents are refused before any of that work.
# Writing obeys the same guard, so every document written here reads back.
MAX_DOCUMENT_ELEMENTS = 4096
MAX_DOCUMENT_PAIRS = 64 * MAX_DOCUMENT_ELEMENTS
# Element ids are the ints 0 <= id < ID_LIMIT, the range of the int64 arrays
# that relation matrices and oracle audits index by id.
ID_LIMIT = 1 << 63


def _index_ids(elements: Sequence[int]) -> dict[int, int]:
    """Position of each id; raises :class:`UnknownIdError` on a bad or repeated id."""
    index: dict[int, int] = {}
    for i, x in enumerate(elements):
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < ID_LIMIT:
            raise UnknownIdError(f"element ids must be ints in [0, 2**63), got {x!r}")
        if index.setdefault(x, i) != i:
            raise UnknownIdError(f"duplicate element id {x}")
    return index


def _generator_matrix(
    index: Mapping[int, int], pairs: Iterable[tuple[int, int]]
) -> np.ndarray:
    """The diagonal plus one cell per ``(lower, upper)`` pair."""
    m = np.eye(len(index), dtype=bool)
    for a, b in pairs:
        if a not in index or b not in index:
            raise UnknownIdError(f"relation pair ({a}, {b}) references an undeclared id")
        m[index[a], index[b]] = True
    return m


def order_axiom_faults(m: np.ndarray) -> dict[str, tuple[int, ...]]:
    """Each partial-order axiom the square boolean matrix ``m`` breaks, in the
    order reflexive, antisymmetric, transitive, with its first row-major
    witness as matrix indices: ``(i,)``, ``(i, j)`` or ``(i, j, k)``."""
    faults: dict[str, tuple[int, ...]] = {}
    diagonal = m.diagonal()
    if not diagonal.all():
        faults["reflexive"] = (int(np.argmin(diagonal)),)
    both = m & m.T
    np.fill_diagonal(both, False)
    if both.any():
        faults["antisymmetric"] = tuple(np.argwhere(both)[0].tolist())
    mf = m.astype(np.float32)
    gap = (mf @ mf > 0) & ~m
    if gap.any():
        i, k = np.argwhere(gap)[0].tolist()
        faults["transitive"] = (i, int(np.argmax(m[i] & m[:, k])), k)
    return faults


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """A finite poset over explicit ids.

    ``elements`` fixes the enumeration order used by every deterministic
    algorithm downstream; ``matrix[i, j]`` says ``elements[i] <= elements[j]``
    in the closed relation.  The matrix is a read-only copy of the one given
    and the only store: ``leq``, cones, intervals and covers are read off it.
    Equal posets list the same elements in the same order under one relation.
    """

    elements: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        index = _index_ids(elements)
        m = np.array(self.matrix, dtype=bool)
        if m.shape != (len(elements),) * 2:
            raise FormatError(f"relation matrix of shape {m.shape} for {len(elements)} elements")
        self._settle(elements, index, m)
        for axiom, at in order_axiom_faults(m).items():
            ids = [elements[i] for i in at]
            if axiom == "antisymmetric":
                raise _cycle_error(ids[0], ids[1])
            raise FormatError(f"relation is not {axiom} at {' <= '.join(map(str, ids))}")

    def _settle(self, elements: tuple[int, ...], index: dict[int, int], m: np.ndarray) -> None:
        """Store the fields; ``m`` is kept, not copied, and made read-only."""
        m.flags.writeable = False
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_closed(
        cls, elements: Iterable[int], pairs: Iterable[tuple[int, int]]
    ) -> "FinitePoset":
        """Build from closed ``(lower, upper)`` pairs, adding the diagonal."""
        elems = tuple(elements)
        return cls(elems, _generator_matrix(_index_ids(elems), pairs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.elements == other.elements and np.array_equal(self.matrix, other.matrix)

    def __hash__(self) -> int:
        return hash((self.elements, np.packbits(self.matrix).tobytes()))

    @cached_property
    def leq(self) -> frozenset[tuple[int, int]]:
        """The closed relation as ``(lower, upper)`` pairs, diagonal included."""
        els = self.elements
        ii, jj = np.nonzero(self.matrix)
        return frozenset((els[i], els[j]) for i, j in zip(ii.tolist(), jj.tolist()))

    # -- queries -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._index

    def _at(self, x: int) -> int:
        i = self._index.get(x)
        if i is None:
            raise UnknownIdError(f"element {x} is not in this poset")
        return i

    def _listed(self, mask: np.ndarray) -> list[int]:
        els = self.elements
        return [els[i] for i in mask.nonzero()[0].tolist()]

    def le(self, x: int, y: int) -> bool:
        index = self._index
        if x not in index or y not in index:
            raise UnknownIdError(f"le() saw unknown id in ({x}, {y})")
        return self.matrix.item(index[x], index[y])

    def predecessors(self, x: int) -> list[int]:
        """All y with y <= x, in element order (includes x)."""
        return self._listed(self.matrix[:, self._at(x)])

    def successors(self, x: int) -> list[int]:
        """All y with x <= y, in element order (includes x)."""
        return self._listed(self.matrix[self._at(x)])

    def interval(self, x: int, y: int) -> list[int]:
        """All z with x <= z <= y or y <= z <= x, in element order.

        Comparability is read from two cells first: an incomparable pair is
        ``[]``, and a comparable one ANDs one row with one column.
        """
        m, i, j = self.matrix, self._at(x), self._at(y)
        if m.item(i, j):
            return self._listed(m[i] & m[:, j])
        if m.item(j, i):
            return self._listed(m[j] & m[:, i])
        return []

    def restrict(self, keep: Iterable[int]) -> "FinitePoset":
        """Induced sub-poset on ``keep``, in the order given."""
        kept = tuple(keep)
        rows = [self._at(x) for x in kept]
        return FinitePoset(kept, self.matrix[np.ix_(rows, rows)])

    def covers(self) -> list[tuple[int, int]]:
        """The transitive reduction, sorted; closure recovers ``leq`` exactly."""
        return list(map(tuple, self.cover_pairs().tolist()))

    def cover_pairs(self) -> np.ndarray:
        """The transitive reduction as a sorted ``(k, 2)`` int64 array of ``(lower, upper)`` ids.

        A strict pair is a cover when no element lies strictly between, that
        is, strict and not strict·strict (Aho, Garey and Ullman, 1972).
        """
        strict = self.matrix & ~np.eye(self.size, dtype=bool)
        sf = strict.astype(np.float32)
        els = np.array(self.elements, dtype=np.int64)
        pairs = els[np.argwhere(strict & ~(sf @ sf > 0))]
        return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def build_poset(
    elements: Iterable[int], relation: Iterable[tuple[int, int]]
) -> FinitePoset:
    """Close ``relation`` reflexively and transitively over ``elements``.

    Raises :class:`UnknownIdError` on a bad or duplicate id, then on the first
    pair that names an undeclared id, and :class:`CycleError` if the closure
    is not antisymmetric, naming the least-enumerated element on a cycle and
    the least-enumerated other element in its strongly connected component.

    One pass over the pairs (Purdom, BIT 1970): a Kahn sort, then each
    element's row, an int with bit ``j`` for ``elements[j]``, is its own bit
    ORed with the closed rows of its generator successors, taken in reverse
    topological order.  The matrix is a partial order by construction, so the
    axiom check of the public constructor is not run on it.
    """
    elems = tuple(elements)
    index = _index_ids(elems)
    n = len(elems)
    succ: list[list[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    for a, b in relation:
        if a not in index or b not in index:
            raise UnknownIdError(f"relation pair ({a}, {b}) references an undeclared id")
        i, j = index[a], index[b]
        if i != j:
            succ[i].append(j)
            indegree[j] += 1
    order = [i for i in range(n) if not indegree[i]]
    for i in order:  # grows while it is walked
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < n:
        i, j = _cycle_witness(succ)
        raise _cycle_error(elems[i], elems[j])
    rows = [0] * n
    for i in reversed(order):
        row = 1 << i
        for j in succ[i]:
            row |= rows[j]
        rows[i] = row
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), dtype=np.uint8)
    m = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)
    poset = object.__new__(FinitePoset)
    poset._settle(elems, index, m)
    return poset


def _cycle_witness(succ: Sequence[Sequence[int]]) -> tuple[int, int]:
    """The least index on a cycle of the graph ``succ`` and the least other
    index in its strongly connected component, by an iterative Tarjan pass.

    In the closure these are the first row-major pair of distinct indices
    below each other, the pair :func:`order_axiom_faults` names.
    """
    n = len(succ)
    number, low = [-1] * n, [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    calls: list[tuple[int, Iterator[int]]] = []
    tick = itertools.count()
    best = (n, n)

    def enter(v: int) -> None:
        number[v] = low[v] = next(tick)
        stack.append(v)
        on_stack[v] = True
        calls.append((v, iter(succ[v])))

    for root in range(n):
        if number[root] < 0:
            enter(root)
        while calls:
            v, children = calls[-1]
            for w in children:
                if number[w] < 0:
                    enter(w)
                    break
                if on_stack[w]:
                    low[v] = min(low[v], number[w])
            else:
                calls.pop()
                if calls:
                    u = calls[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == number[v]:  # v roots a component: pop it
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    for w in component:
                        on_stack[w] = False
                    if len(component) > 1:
                        first, second = sorted(component)[:2]
                        best = min(best, (first, second))
    return best


def _cycle_error(a: int, b: int) -> CycleError:
    return CycleError(f"elements {a} and {b} are mutually below each other")


# -- linear orders -------------------------------------------------------


@dataclass(frozen=True)
class LinearOrder:
    """A finite linear order, read left (least) to right (greatest).

    ``anchor_index`` marks signed position 0 for two-ended outputs.
    ``sides`` records per-element finiteness classes when the order came out
    of a side-split run.
    """

    positions: tuple[int, ...]
    anchor_index: int | None = None
    sides: Mapping[int, FinSide] | None = None

    def __post_init__(self) -> None:
        if len(set(self.positions)) != len(self.positions):
            raise FormatError("linear order repeats an element")
        if self.anchor_index is not None and not (
            0 <= self.anchor_index < max(len(self.positions), 1)
        ):
            raise FormatError("anchor index out of range")

    @cached_property
    def _index(self) -> dict[int, int]:
        return {x: i for i, x in enumerate(self.positions)}

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self):
        return iter(self.positions)

    def __contains__(self, x: int) -> bool:
        return x in self._index

    def index_of(self, x: int) -> int:
        if x not in self._index:
            raise UnknownIdError(f"element {x} is not in this linear order")
        return self._index[x]

    def precedes(self, x: int, y: int) -> bool:
        return self.index_of(x) < self.index_of(y)

    def signed_position(self, x: int) -> int:
        """Offset from the anchor; requires an anchored (two-ended) order."""
        if self.anchor_index is None:
            raise FormatError("this linear order has no anchor")
        return self.index_of(x) - self.anchor_index


@dataclass(frozen=True)
class ExtensionCheck:
    """Boolean verdict plus a reason code (falsy when the check fails)."""

    ok: bool
    code: str = "ok"
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def is_linear_extension(
    order: LinearOrder | Sequence[int], poset: FinitePoset
) -> ExtensionCheck:
    """Does ``order`` list exactly ``poset.elements`` consistently with <=?"""
    positions = tuple(order)
    if set(positions) != set(poset.elements) or len(positions) != poset.size:
        return ExtensionCheck(False, "element-mismatch", "orders a different element set")
    at = {x: i for i, x in enumerate(positions)}
    pos = np.array([at[x] for x in poset.elements], dtype=np.int64)
    backwards = poset.matrix & (pos[:, None] > pos[None, :])
    if backwards.any():
        i, j = np.argwhere(backwards)[0]
        a, b = poset.elements[i], poset.elements[j]
        return ExtensionCheck(False, "order-violation", f"{a} <= {b} but {b} comes first")
    return ExtensionCheck(True)


# -- canonical comparison points ------------------------------------------


@total_ordering
@dataclass(frozen=True)
class CanonicalPoint:
    """A point of one of the four canonical orders, with its native comparison.

    Coordinates: naturals for omega (ascending) and omega-star (descending),
    ``(side, k)`` pairs for omega-omega-star with side 0 below side 1, and
    signed ints for zeta.  Points of different kinds do not compare.
    """

    kind: Kind
    coord: int | tuple[int, int]

    def __post_init__(self) -> None:
        k = self.coord
        if self.kind in (Kind.OMEGA, Kind.OMEGA_STAR):
            if not isinstance(k, int) or k < 0:
                raise FormatError(f"{self.kind.value} coordinates are naturals, got {k!r}")
        elif self.kind is Kind.ZETA:
            if not isinstance(k, int):
                raise FormatError(f"zeta coordinates are ints, got {k!r}")
        else:
            if (
                not isinstance(k, tuple)
                or len(k) != 2
                or k[0] not in (0, 1)
                or not isinstance(k[1], int)
                or k[1] < 0
            ):
                raise FormatError(
                    f"omega-omega-star coordinates are (side, k) with side in {{0,1}}, got {k!r}"
                )

    def sort_key(self) -> tuple[int, int]:
        if self.kind is Kind.OMEGA:
            return (0, self.coord)
        if self.kind is Kind.OMEGA_STAR:
            return (0, -self.coord)
        if self.kind is Kind.ZETA:
            return (0, self.coord)
        side, k = self.coord
        return (side, k if side == 0 else -k)

    def __lt__(self, other: "CanonicalPoint") -> bool:
        if not isinstance(other, CanonicalPoint):
            raise TypeError(f"cannot compare CanonicalPoint with {type(other).__name__}")
        if other.kind is not self.kind:
            raise TypeError(f"cannot compare {self.kind.value} with {other.kind.value}")
        return self.sort_key() < other.sort_key()


# -- JSON ------------------------------------------------------------------

_ALLOWED_KEYS = {"schema", "elements", "relation", "meta"}


def _check_document_size(elements: int, pairs: int = 0) -> None:
    if elements > MAX_DOCUMENT_ELEMENTS:
        raise TooLarge(f"poset document has {elements} elements; the limit is {MAX_DOCUMENT_ELEMENTS}")
    if pairs > MAX_DOCUMENT_PAIRS:
        raise TooLarge(f"poset document has {pairs} relation pairs; the limit is {MAX_DOCUMENT_PAIRS}")


def poset_to_json_dict(poset: FinitePoset, meta: dict | None = None) -> dict:
    """Serialize as elements plus generator pairs (the transitive reduction).

    Raises ``TooLarge`` for a poset whose document the loader would refuse."""
    _check_document_size(poset.size)  # before the covers are computed
    relation = poset.cover_pairs().tolist()
    _check_document_size(poset.size, len(relation))
    doc: dict = {
        "schema": POSET_SCHEMA,
        "elements": list(poset.elements),
        "relation": relation,
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def poset_from_json_dict(doc: object) -> FinitePoset:
    """Load a poset document; relation pairs are generators, closure applies."""
    if not isinstance(doc, dict):
        raise FormatError("poset document must be a JSON object")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise FormatError(f"unknown keys in poset document: {sorted(unknown)}")
    if "elements" not in doc or "relation" not in doc:
        raise FormatError("poset document needs 'elements' and 'relation'")
    elements = doc["elements"]
    relation = doc["relation"]
    if not isinstance(elements, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in elements
    ):
        raise FormatError("'elements' must be a list of ints")
    if not isinstance(relation, list):
        raise FormatError("'relation' must be a list of pairs")
    _check_document_size(len(elements), len(relation))
    pairs = []
    for item in relation:
        if isinstance(item, list) and len(item) == 2:
            x, y = item
            if isinstance(x, int) and isinstance(y, int) and not isinstance(x, bool) and not isinstance(y, bool):
                pairs.append((x, y))
                continue
        raise FormatError(f"relation entry {item!r} is not an id pair")
    return build_poset(elements, pairs)
