"""Kind checks and seeded random posets.

:func:`check_tau_like` and :func:`check_kinds` report what a finite
inspection can certify about a kind's finiteness promise, as
:class:`TauReport`s: read off the matrix of a finite poset, or off one
:class:`~taulike.streams.PrefixAudit` of a stream's prefix.
:func:`random_poset` builds the seeded posets of ``--family random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FormatError, TooLarge, UnknownIdError
from .kinds import FinSide, Kind
from .poset import FinitePoset, build_poset
from .streams import OracleBundle, PrefixAudit, StreamPoset, answer_size, distinct_ids, read_side, take

__all__ = [
    "check_tau_like",
    "check_kinds",
    "TauReport",
    "random_poset",
]

MAX_RANDOM = 64  # default size guard for random generation


@dataclass
class TauReport:
    """What a finite inspection can certify about a kind promise."""

    kind: Kind
    ok: bool
    scope: str  # "finite" or "prefix"
    counts: dict[int, int]
    max_interval: int | None = None
    notes: list[str] | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "ok": self.ok,
            "scope": self.scope,
            "counts": {str(k): v for k, v in self.counts.items()},
            "max_interval": self.max_interval,
            "notes": list(self.notes or []),
        }


def check_tau_like(
    target: FinitePoset | StreamPoset, kind: Kind, prefix_size: int = 50
) -> TauReport:
    """Report per-element witnessed counts for the finiteness promise of ``kind``.

    A finite poset satisfies every kind vacuously, so the report carries the
    witnessed statistics.  For a stream, each prefix element asks the oracle
    its kind relies on (predecessors for omega, successors for omega-star,
    the side-chosen cone for omega-omega-star, ``interval(ids[0], x)`` for
    zeta); every answer must be defined and pass the listing rule of
    :class:`PrefixAudit` against the prefix relation, and its size goes into
    the counts.  The audit screens the answers in bulk and spot-checks the
    stream's bulk hook; a disagreement with ``leq`` is the first note, and
    otherwise each partial-order axiom the prefix relation breaks is one.
    This is the one-kind case of :func:`check_kinds`.
    """
    return check_kinds(target, [kind], prefix_size)[0]


_CONE_OF = {Kind.OMEGA: "predecessors", Kind.OMEGA_STAR: "successors"}


def check_kinds(
    target: FinitePoset | StreamPoset, kinds: Sequence[Kind], prefix_size: int = 50
) -> list[TauReport]:
    """One :func:`check_tau_like` report per kind, all from one audit of the prefix.

    Each prefix element asks each oracle question once, whichever kinds rely
    on it: ``side(x)`` when omega-omega-star is checked, then
    ``predecessors(x)`` and ``successors(x)`` as omega, omega-star or the side
    ask for them, then ``interval(ids[0], x)`` for zeta.  Each answer is
    screened once and credited to every kind that relies on it; no answer is
    kept past its chunk.  A faulty answer's note names the first violation
    the listing rule of :class:`PrefixAudit` reports and how many more it
    reports, so the screen builds only that one.  A bulk-hook fault found anywhere in the
    call is the first note of every report; without one, each partial-order
    axiom the prefix relation breaks heads every report.
    """
    if isinstance(target, FinitePoset):
        return [_finite_report(target, kind) for kind in kinds]
    ids = take(target, prefix_size)
    if not ids:
        return [TauReport(kind=kind, ok=True, scope="prefix", counts={}, notes=[]) for kind in kinds]
    bundle = target.oracles or OracleBundle()
    audit = PrefixAudit(target, ids)
    first = ids[0]
    counts: dict[Kind, dict[int, int]] = {kind: {} for kind in kinds}
    notes: dict[Kind, list[str | None]] = {kind: [None] * len(ids) for kind in kinds}
    split = Kind.OMEGA_PLUS_OMEGA_STAR
    cones = {name: [kind for kind in kinds if _CONE_OF.get(kind) == name] for name in ("predecessors", "successors")}
    zeta = [Kind.ZETA] if Kind.ZETA in kinds else []

    def queries():
        for i, x in enumerate(ids):
            asks = {name: list(credited) for name, credited in cones.items()}
            if split in kinds:
                try:
                    tag = read_side(bundle.side(x), x) if bundle.side else None
                except FormatError as exc:
                    notes[split][i] = str(exc)
                else:
                    if tag is None:
                        notes[split][i] = f"element {x} has no side answer"
                    else:
                        asks["predecessors" if tag is FinSide.FIN_PRED else "successors"].append(split)
            for name, credited in asks.items():
                if credited:
                    fn = getattr(bundle, name)
                    yield name, i, i, fn(x) if fn else None, credited
            if zeta:
                fn = bundle.interval
                yield "interval", 0, i, fn(first, x) if fn else None, zeta

    for (name, _, j, ans, credited), found in audit.screen(queries(), first_only=True):
        x = ids[j]
        for kind in credited:
            if ans is None:
                notes[kind][j] = f"element {x} has no finite answer for {kind.value}"
                continue
            v, count = found
            counts[kind][x] = _others_listed(ans, x, count)
            if v is not None:
                more = f" and {count - 1} more" if count > 1 else ""
                notes[kind][j] = f"{v.kind.lower()} {name} answer for {x}: {v.detail} ({v.subject[1]}){more}"
    # A lying hook's matrix says nothing about leq, so its note stands alone.
    fault = audit.hook_fault
    if fault is not None:
        head = [f"leq_block disagrees with leq on {fault.subject}"]
    else:
        head = [f"{v.detail} {v.subject}" if v.subject else v.detail for v in audit.relation_faults]
    reports = []
    for kind in kinds:
        kept = head + [note for note in notes[kind] if note is not None]
        reports.append(TauReport(kind=kind, ok=not kept, scope="prefix", counts=counts[kind], notes=kept))
    return reports


def _others_listed(ans: Sequence[int], x: int, faults: int) -> int:
    """How many ids other than ``x`` an answer lists; one with no faults lists nothing twice."""
    if not faults:
        return answer_size(ans) - (x in ans)
    return distinct_ids(ans, x)


def _finite_report(target: FinitePoset, kind: Kind) -> TauReport:
    # counts are strict: the element itself never witnesses its own bound
    m = target.matrix
    below, above = m.sum(axis=0) - 1, m.sum(axis=1) - 1
    strict = {
        Kind.OMEGA: below,
        Kind.OMEGA_STAR: above,
        Kind.OMEGA_PLUS_OMEGA_STAR: np.minimum(below, above),
    }.get(kind, np.zeros_like(below))
    counts = dict(zip(target.elements, strict.tolist()))
    max_interval = None
    if kind is Kind.ZETA and target.size:
        mf = m.astype(np.float32)
        # (mf @ mf)[i, j] counts the z with i <= z <= j, exactly below 2**24
        max_interval = int((mf @ mf).max())
    return TauReport(kind=kind, ok=True, scope="finite", counts=counts, max_interval=max_interval)


def random_poset(n: int, density: float, seed: int, max_size: int = MAX_RANDOM) -> FinitePoset:
    """A seeded random poset: orient pairs along a random permutation.

    Each pair below the diagonal of the permutation becomes a generator with
    probability ``density``; the result is closed.  density=0 gives an
    antichain, density=1 a chain.  Deterministic for a fixed seed.
    """
    if n > max_size:
        raise TooLarge(f"{n} elements exceeds the random-generation guard {max_size}")
    if n < 0:
        raise UnknownIdError("poset size must be non-negative")
    if not 0.0 <= density <= 1.0:
        raise UnknownIdError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                gens.append((perm[i], perm[j]))
    return build_poset(range(n), gens)

