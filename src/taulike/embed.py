"""Reading canonical coordinates off a linearized prefix."""

from __future__ import annotations

from dataclasses import dataclass
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
    """A finite partial order-embedding into one canonical order."""

    kind: Kind
    assignments: Mapping[int, CanonicalPoint]

    def __len__(self) -> int:
        return len(self.assignments)

    def coord(self, x: int) -> int | tuple[int, int]:
        return self.assignments[x].coord

    def point(self, x: int) -> CanonicalPoint:
        return self.assignments[x]

    def to_json_dict(self) -> dict:
        rows = []
        for x in sorted(self.assignments):
            c = self.assignments[x].coord
            rows.append([x, list(c) if isinstance(c, tuple) else c])
        return {
            "schema": EMBEDDING_SCHEMA,
            "kind": self.kind.value,
            "map": rows,
        }


def embed_omega(order: LinearOrder) -> Embedding:
    """Each element's coordinate is how many elements sit to its left."""
    pts = {
        x: CanonicalPoint(Kind.OMEGA, i) for i, x in enumerate(order)
    }
    return Embedding(Kind.OMEGA, pts)


def embed_omega_star(order: LinearOrder) -> Embedding:
    """Dual coordinate: how many elements sit to the right."""
    top = len(order) - 1
    pts = {
        x: CanonicalPoint(Kind.OMEGA_STAR, top - i) for i, x in enumerate(order)
    }
    return Embedding(Kind.OMEGA_STAR, pts)


def embed_omega_plus_omega_star(order: LinearOrder) -> Embedding:
    """Two-sided coordinates driven by the order's recorded side tags.

    FIN_PRED elements count from the left end on side 0, FIN_SUCC elements
    from the right end on side 1.
    """
    if order.sides is None:
        raise OracleMissing("this order carries no side tags; run a split first")
    top = len(order) - 1
    pts: dict[int, CanonicalPoint] = {}
    seen_upper = False
    for i, x in enumerate(order):
        tag = order.sides.get(x)
        if tag is None:
            raise OracleMissing(f"element {x} has no recorded side")
        if tag is FinSide.FIN_SUCC:
            seen_upper = True
            pts[x] = CanonicalPoint(Kind.OMEGA_PLUS_OMEGA_STAR, (1, top - i))
        else:
            if seen_upper:
                raise ClassifierInconsistent(
                    f"FIN_PRED element {x} appears above a FIN_SUCC element"
                )
            pts[x] = CanonicalPoint(Kind.OMEGA_PLUS_OMEGA_STAR, (0, i))
    return Embedding(Kind.OMEGA_PLUS_OMEGA_STAR, pts)


def embed_zeta(order: LinearOrder) -> Embedding:
    """Signed positions relative to the anchor (the first block's pivot)."""
    if order.anchor_index is None:
        raise NotStabilized("no anchor position; the two-ended run emitted nothing")
    pts = {
        x: CanonicalPoint(Kind.ZETA, i - order.anchor_index)
        for i, x in enumerate(order)
    }
    return Embedding(Kind.ZETA, pts)


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
