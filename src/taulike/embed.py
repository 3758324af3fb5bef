"""Reading canonical coordinates off a linearized prefix."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import ClassifierInconsistent, NotStabilized, OracleMissing
from .kinds import FinSide, Kind
from .linearize import linearize
from .poset import CanonicalPoint, LinearOrder
from .streams import StreamPoset

__all__ = [
    "EMBEDDING_SCHEMA",
    "Embedding",
    "embed_omega",
    "embed_omega_star",
    "embed_omega_plus_omega_star",
    "embed_zeta",
    "embed_poset",
]

EMBEDDING_SCHEMA = "taulike.embedding/1"


@dataclass(frozen=True)
class Embedding:
    """A finite partial order-embedding into one canonical order.

    ``coords`` holds one coordinate per embedded id, as
    :class:`CanonicalPoint` reads it: a natural, a signed int, or a
    ``(side, k)`` pair.  :meth:`point` and :attr:`assignments` build the
    points, validated by :class:`CanonicalPoint`, only when they are read.
    """

    kind: Kind
    coords: Mapping[int, int | tuple[int, int]]

    def __len__(self) -> int:
        return len(self.coords)

    def coord(self, x: int) -> int | tuple[int, int]:
        return self.coords[x]

    def point(self, x: int) -> CanonicalPoint:
        return CanonicalPoint(self.kind, self.coords[x])

    @cached_property
    def assignments(self) -> dict[int, CanonicalPoint]:
        """Every embedded id's point, built on first read."""
        kind = self.kind
        return {x: CanonicalPoint(kind, c) for x, c in self.coords.items()}

    def to_json_dict(self) -> dict:
        coords = self.coords
        rows = []
        for x in sorted(coords):
            c = coords[x]
            rows.append([x, list(c) if isinstance(c, tuple) else c])
        return {
            "schema": EMBEDDING_SCHEMA,
            "kind": self.kind.value,
            "map": rows,
        }


def embed_omega(order: LinearOrder) -> Embedding:
    """Each element's coordinate is how many elements sit to its left."""
    return Embedding(Kind.OMEGA, dict(zip(order, range(len(order)))))


def embed_omega_star(order: LinearOrder) -> Embedding:
    """Dual coordinate: how many elements sit to the right."""
    return Embedding(Kind.OMEGA_STAR, dict(zip(order, range(len(order) - 1, -1, -1))))


def embed_omega_plus_omega_star(order: LinearOrder) -> Embedding:
    """Two-sided coordinates driven by the order's recorded side tags.

    FIN_PRED elements count from the left end on side 0, FIN_SUCC elements
    from the right end on side 1.
    """
    if order.sides is None:
        raise OracleMissing("this order carries no side tags; run a split first")
    sides, upper = order.sides, FinSide.FIN_SUCC  # read once, not once per element
    top = len(order) - 1
    coords: dict[int, tuple[int, int]] = {}
    seen_upper = False
    for i, x in enumerate(order):
        tag = sides.get(x)
        if tag is None:
            raise OracleMissing(f"element {x} has no recorded side")
        if tag is upper:
            seen_upper = True
            coords[x] = (1, top - i)
        else:
            if seen_upper:
                raise ClassifierInconsistent(
                    f"FIN_PRED element {x} appears above a FIN_SUCC element"
                )
            coords[x] = (0, i)
    return Embedding(Kind.OMEGA_PLUS_OMEGA_STAR, coords)


def embed_zeta(order: LinearOrder) -> Embedding:
    """Signed positions relative to the anchor (the first block's pivot)."""
    if order.anchor_index is None:
        raise NotStabilized("no anchor position; the two-ended run emitted nothing")
    low = -order.anchor_index
    return Embedding(Kind.ZETA, dict(zip(order, range(low, low + len(order)))))


def embed_poset(
    stream: StreamPoset,
    kind: Kind,
    *,
    blocks: int | None = None,
    elements: int | None = None,
) -> Embedding:
    """Linearize a prefix of ``stream`` and read coordinates off the result."""
    _, order = linearize(stream, kind, blocks=blocks, elements=elements)
    # looked up per call, so the module names stay rebindable
    readers = {
        Kind.OMEGA: embed_omega,
        Kind.OMEGA_STAR: embed_omega_star,
        Kind.OMEGA_PLUS_OMEGA_STAR: embed_omega_plus_omega_star,
        Kind.ZETA: embed_zeta,
    }
    return readers[kind](order)
