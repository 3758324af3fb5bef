"""Independent brute-force oracles.

Everything here recomputes facts from first principles (definitions, not the
library's algorithms) so tests can compare two routes to the same answer.
Expected values frozen into tests were produced by these functions.
"""

from __future__ import annotations

from itertools import permutations


def closure_pairs(elements, pairs) -> set[tuple[int, int]]:
    """Reflexive-transitive closure by repeated composition."""
    rel = {(x, x) for x in elements} | {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def predecessors(universe, leq, x) -> list[int]:
    return sorted(y for y in universe if leq(y, x))


def successors(universe, leq, x) -> list[int]:
    return sorted(y for y in universe if leq(x, y))


def interval(universe, leq, x, y) -> list[int]:
    return sorted(
        z
        for z in universe
        if (leq(x, z) and leq(z, y)) or (leq(y, z) and leq(z, x))
    )


def covers(universe, leq) -> list[tuple[int, int]]:
    """Strict pairs a < b with no c strictly between them, sorted."""

    def lt(a, b):
        return a != b and leq(a, b)

    return sorted(
        (a, b)
        for a in universe
        for b in universe
        if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in universe)
    )


def stage_leq(values, n: int, m: int) -> bool:
    """Comparison of enumeration stages, straight from the defining clauses:
    n sits below m when some later-up-to-m value drops under f(n), or when
    m <= n and every value strictly between stays above f(m)."""
    if any(values[k] < values[n] for k in range(n + 1, m + 1)):
        return True
    return m <= n and all(values[k] > values[m] for k in range(m + 1, n + 1))


def stage_false(values, n: int) -> bool:
    """A stage is false when some later value in the list drops below it."""
    return any(values[k] < values[n] for k in range(n + 1, len(values)))


def is_linear_extension_naive(seq, elements, leq) -> bool:
    """Quadratic definition check: a permutation where leq never points
    backwards."""
    seq = list(seq)
    if sorted(seq) != sorted(elements):
        return False
    pos = {x: i for i, x in enumerate(seq)}
    return all(
        pos[a] <= pos[b] for a in elements for b in elements if leq(a, b)
    )


def extensions_by_permutation(elements, leq) -> set[tuple[int, ...]]:
    """All linear extensions by filtering every permutation.  Exponential;
    keep |elements| <= 8."""
    return {
        p
        for p in permutations(sorted(elements))
        if is_linear_extension_naive(p, elements, leq)
    }


def insertion_order(members, leq) -> list[int]:
    """The deterministic insertion rule, restated: each element in turn goes
    right after its last placed predecessor, else right before its first
    placed successor, else at the right end."""
    placed: list[int] = []
    for x in members:
        preds = [i for i, y in enumerate(placed) if leq(y, x)]
        succs = [i for i, y in enumerate(placed) if leq(x, y)]
        if preds:
            placed.insert(preds[-1] + 1, x)
        elif succs:
            placed.insert(succs[0], x)
        else:
            placed.append(x)
    return placed


def cone_blocks(enumeration, cone, blocks_wanted=None, elements_wanted=None):
    """The one-sided block run, restated: each pivot is the least-enumerated
    id not yet absorbed, and its block is ``({pivot} | cone(pivot))`` minus
    everything absorbed, sorted.

    A block budget wins over an element budget; with neither, the run uses
    up ``enumeration``.  Returns ``(pivot, members)`` pairs."""
    absorbed: set[int] = set()
    blocks: list[tuple[int, tuple[int, ...]]] = []
    emitted = 0
    for p in enumeration:
        if blocks_wanted is not None:
            if len(blocks) >= blocks_wanted:
                break
        elif elements_wanted is not None and emitted >= elements_wanted:
            break
        if p in absorbed:
            continue
        members = tuple(sorted(({p} | set(cone(p))) - absorbed))
        absorbed.update(members)
        blocks.append((p, members))
        emitted += len(members)
    return blocks


def zeta_blocks_every_pivot(enumeration, leq, interval, blocks_wanted=None, elements_wanted=None):
    """The two-ended block run with no pruning: every new pivot asks the
    interval oracle from every earlier pivot and from itself.

    Returns ``(blocks, order, anchor)`` with blocks as (pivot, members,
    side) triples, over the finite ``enumeration`` or until the budget is
    spent; a block budget wins over an element budget."""
    covered: set[int] = set()
    pivots: list[int] = []
    blocks: list[tuple[int, tuple[int, ...], str]] = []
    order: list[int] = []
    for p in enumeration:
        if blocks_wanted is not None:
            if len(blocks) >= blocks_wanted:
                break
        elif elements_wanted is not None and len(order) >= elements_wanted:
            break
        if p in covered:
            continue
        cover = {p}
        for z in pivots + [p]:
            cover.update(interval(z, p))
        members = sorted(cover - covered)
        covered |= cover
        left = any(leq(p, z) for z in pivots)
        seg = insertion_order(members, leq)
        order = seg + order if left else order + seg
        blocks.append((p, tuple(members), "LEFT" if left else "RIGHT"))
        pivots.append(p)
    anchor = order.index(blocks[0][0]) if blocks else None
    return blocks, order, anchor


def listing_faults(oracle, x, ans, truth, compare, prefix, exempt=(), cap=50, sound_cap=2000):
    """The rule one oracle answer about ``x`` must pass, restated.

    ``truth`` holds the prefix ids the answer owes, ``prefix`` all prefix
    ids; a listed id outside the prefix is decided by ``compare``.  A
    repeated id is the only fault reported; otherwise every listed id (every
    ``len // sound_cap``-th one in a longer answer) must pass, and every owed
    id but the ``exempt`` ones must be listed.  At most ``cap`` faults, as
    ``(kind, oracle, subject, detail)``.
    """
    ans = list(ans)
    seen = set()
    for y in ans:
        if y in seen:
            return [("UNSOUND", oracle, (x, y), "answer lists an element twice")]
        seen.add(y)
    found = []
    step = max(1, len(ans) // sound_cap) if len(ans) > sound_cap else 1
    for y in ans[::step]:
        if not (y in truth if y in prefix else compare(y)):
            found.append(("UNSOUND", oracle, (x, y), "listed element fails the comparison"))
            if len(found) >= cap:
                return found
    for y in truth - seen - set(exempt):
        found.append(("INCOMPLETE", oracle, (x, y), "in-prefix element is missing"))
        if len(found) >= cap:
            return found
    return found


def listing_rule(ids, leq, name, i, j):
    """Owed prefix ids, comparison and exempt ids for one query, by definition:
    the predecessors or successors of ``ids[i]``, or the interval between
    ``ids[i]`` and ``ids[j]``."""
    x, y = ids[i], ids[j]
    if name == "predecessors":
        return {z for z in ids if leq(z, x)}, (lambda z: leq(z, x)), {x}
    if name == "successors":
        return {z for z in ids if leq(x, z)}, (lambda z: leq(x, z)), {x}

    def between(z):
        return (leq(x, z) and leq(z, y)) or (leq(y, z) and leq(z, x))

    return {z for z in ids if between(z)}, between, set()


def audit_each_answer(ids, leq, queries, stop=200):
    """Check ``(name, i, j, answer)`` queries one at a time, in order.

    Returns ``(faults, checked, undefined)``.  An undefined answer is
    ``None``.  Interval checking ends after the answer that brings the
    fault count to ``stop``.
    """
    faults, checked, undefined = [], {}, {}
    prefix = set(ids)
    for name, i, j, ans in queries:
        checked.setdefault(name, 0)
        undefined.setdefault(name, 0)
        if ans is None:
            undefined[name] += 1
            continue
        truth, compare, exempt = listing_rule(ids, leq, name, i, j)
        faults += listing_faults(name, ids[i], ans, truth, compare, prefix, exempt)
        checked[name] += 1
        if name == "interval" and len(faults) >= stop:
            break
    return faults, checked, undefined


def tau_each_answer(ids, leq, kind, answer):
    """``check_tau_like``'s counts and notes for an omega, omega-star or zeta
    promise, each element's answer checked alone; ``answer(x)`` is the raw
    oracle answer (``None`` when undefined)."""
    name = {"omega": "predecessors", "omega-star": "successors", "zeta": "interval"}[kind]
    counts, notes = {}, []
    for i, x in enumerate(ids):
        ans = answer(x)
        if ans is None:
            notes.append(f"element {x} has no finite answer for {kind}")
            continue
        ans = list(ans)
        counts[x] = len(set(ans) - {x})
        truth, compare, exempt = listing_rule(ids, leq, name, 0 if kind == "zeta" else i, i)
        found = listing_faults(name, x, ans, truth, compare, set(ids), exempt)
        if found:
            fault, _, subject, detail = found[0]
            more = f" and {len(found) - 1} more" if len(found) > 1 else ""
            notes.append(f"{fault.lower()} {name} answer for {x}: {detail} ({subject[1]}){more}")
    return counts, notes
