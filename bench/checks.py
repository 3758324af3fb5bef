"""Reference computations and output checks for the benchmark.

Nothing here imports taulike.  Every expectation is recomputed from the
inputs the generator drew: relations are closed with this module's own
bitset closure, zeta ids are decoded by this module's own zigzag decoder,
and function questions are answered by brute-force evaluation of the drawn
values.  A check raises :class:`WrongOutput` on the first fault it finds and
otherwise returns the number of elements the output delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


class WrongOutput(AssertionError):
    """The program's output contradicts the reference computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


# -- finite relations ----------------------------------------------------------


@dataclass(frozen=True)
class Closed:
    """A closed finite order: ``up[i]`` is the bitset of j with e_i <= e_j."""

    elements: tuple[int, ...]
    index: dict
    up: tuple[int, ...]

    def le(self, x: int, y: int) -> bool:
        return bool(self.up[self.index[x]] >> self.index[y] & 1)

    def strict_pairs(self) -> set[tuple[int, int]]:
        out = set()
        for i, x in enumerate(self.elements):
            bits = self.up[i] & ~(1 << i)
            while bits:
                low = bits & -bits
                out.add((x, self.elements[low.bit_length() - 1]))
                bits ^= low
        return out


def close(elements: Sequence[int], generators: Iterable[Sequence[int]]) -> Closed:
    """Reflexive-transitive closure of ``generators``; raises on a cycle."""
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    expect(len(index) == len(elements), "element ids repeat")
    succ: list[set[int]] = [set() for _ in elements]
    indeg = [0] * len(elements)
    for a, b in generators:
        expect(a in index and b in index, f"pair ({a}, {b}) leaves the element set")
        i, j = index[a], index[b]
        if i != j and j not in succ[i]:
            succ[i].add(j)
            indeg[j] += 1
    # Kahn's order, then close from the top down.
    ready = [i for i, d in enumerate(indeg) if d == 0]
    topo: list[int] = []
    while ready:
        i = ready.pop()
        topo.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    expect(len(topo) == len(elements), "generators contain a cycle")
    up = [0] * len(elements)
    for i in reversed(topo):
        bits = 1 << i
        for j in succ[i]:
            bits |= up[j]
        up[i] = bits
    return Closed(elements, index, tuple(up))


def check_extension(order: Sequence[int], le: Callable[[int, int], bool], what: str) -> None:
    """``order`` lists distinct elements and never puts a larger one first."""
    order = list(order)
    expect(len(set(order)) == len(order), f"{what}: order repeats an element")
    for j, y in enumerate(order):
        for x in order[:j]:
            if le(y, x):
                raise WrongOutput(f"{what}: {y} <= {x} but {x} comes first")


def check_closed_extension(order: Sequence[int], rel: Closed, what: str) -> None:
    """Linear-extension test against a closed finite order, by bitsets."""
    order = list(order)
    expect(len(set(order)) == len(order), f"{what}: order repeats an element")
    placed = 0
    for x in order:
        expect(x in rel.index, f"{what}: {x} is not an element")
        i = rel.index[x]
        above = rel.up[i] & ~(1 << i)
        if above & placed:
            raise WrongOutput(f"{what}: an element above {x} comes before it")
        placed |= 1 << i


def check_reduction(elements: Sequence[int], relation: Sequence[Sequence[int]], truth: Closed, what: str) -> None:
    """``relation`` is the transitive reduction of ``truth`` on ``elements``."""
    expect(list(elements) == list(truth.elements), f"{what}: element list differs")
    pairs = [tuple(p) for p in relation]
    expect(len(set(pairs)) == len(pairs), f"{what}: relation repeats a pair")
    got = close(elements, pairs)
    expect(got.up == truth.up, f"{what}: closure of the relation is not the prefix order")
    down = [0] * len(truth.elements)
    for i, bits in enumerate(truth.up):
        for j in range(len(truth.elements)):
            if bits >> j & 1:
                down[j] |= 1 << i
    for a, b in pairs:
        i, j = truth.index[a], truth.index[b]
        expect(i != j, f"{what}: relation lists a diagonal pair ({a}, {a})")
        between = truth.up[i] & down[j] & ~(1 << i) & ~(1 << j)
        expect(between == 0, f"{what}: pair ({a}, {b}) is implied by a longer path")


# -- canonical families ----------------------------------------------------------


def zigzag_value(code: int) -> int:
    """The integer a zeta id stands for: ids 0, 1, 2, 3, 4 are 0, -1, 1, -2, 2."""
    return code // 2 if code % 2 == 0 else -(code + 1) // 2


def family_le(family: str) -> Callable[[int, int], bool]:
    if family == "omega":
        return lambda x, y: x <= y
    if family == "omega-star":
        return lambda x, y: x >= y
    if family.startswith("zeta"):
        return lambda x, y: zigzag_value(x) <= zigzag_value(y)
    if family == "antichain":
        return lambda x, y: x == y
    if family == "omega-omega-star":
        def le(x: int, y: int) -> bool:
            if x % 2 == 0:
                return y % 2 == 1 or x <= y
            return y % 2 == 1 and x >= y
        return le
    raise ValueError(family)


# Which finiteness promise each canonical family keeps, per kind.
FAMILY_KINDS = {
    "omega": {"omega": True, "omega-star": False, "omega-omega-star": True, "zeta": True},
    "omega-star": {"omega": False, "omega-star": True, "omega-omega-star": True, "zeta": True},
    "zeta": {"omega": False, "omega-star": False, "omega-omega-star": False, "zeta": True},
    "omega-omega-star": {"omega": False, "omega-star": False, "omega-omega-star": True, "zeta": False},
    "antichain": {"omega": True, "omega-star": True, "omega-omega-star": True, "zeta": True},
}


def finite_side(family: str, x: int) -> str:
    """Which cone of x is finite in a canonical family."""
    if family == "omega-star" or (family == "omega-omega-star" and x % 2 == 1):
        return "succ"
    return "pred"


def strict_count(family: str, kind: str, first: int, x: int) -> int:
    """The count a verify report owes for element x of a family prefix.

    Every cone and interval these counts measure lies in the ids up to
    max(first, x), so a brute-force scan over those ids is exhaustive.
    """
    le = family_le(family)
    if kind == "zeta":
        if family.startswith("zeta"):
            return abs(zigzag_value(x) - zigzag_value(first))
        between = lambda z: (le(first, z) and le(z, x)) or (le(x, z) and le(z, first))
        return sum(1 for z in range(max(first, x) + 1) if z != x and between(z))
    side = {"omega": "pred", "omega-star": "succ"}.get(kind) or finite_side(family, x)
    if side == "pred":
        return sum(1 for y in range(x + 1) if y != x and le(y, x))
    return sum(1 for y in range(x + 1) if y != x and le(x, y))


# -- function specs ---------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """A drawn injective function: a permuted head, then n -> n + gap."""

    head: tuple[int, ...]
    gap: int = 0

    def value(self, n: int) -> int:
        return self.head[n] if n < len(self.head) else n + self.gap

    def text(self) -> str:
        base = "perm:" + ",".join(map(str, self.head))
        return base if self.gap == 0 else f"{base};gap:{self.gap}"

    def false_stages(self, below: int) -> set[int]:
        """Stages n < below that some later value undercuts, by brute force.

        Tail values exceed every head value, so scanning to a margin past
        the head sees every descent.
        """
        reach = max(below, len(self.head)) + 2
        vals = [self.value(k) for k in range(reach)]
        return {n for n in range(below) if any(vals[k] < vals[n] for k in range(n + 1, reach))}

    def in_range(self, m: int) -> bool:
        return any(self.value(n) == m for n in range(m + len(self.head) + 1))

    def stage_le(self, n: int, m: int) -> bool:
        """Stage order from its two defining clauses."""
        if any(self.value(k) < self.value(n) for k in range(n + 1, m + 1)):
            return True
        return m <= n and all(self.value(k) > self.value(m) for k in range(m + 1, n + 1))


def range_gadget_le(spec: Spec) -> Callable[[int, int], bool]:
    """Stage elements at even ids beside a descending chain at odd ids."""

    def le(x: int, y: int) -> bool:
        if x % 2 == 0 and y % 2 == 0:
            return spec.stage_le(x // 2, y // 2)
        if x % 2 == 1 and y % 2 == 1:
            return x >= y
        return False

    return le


def fan_stage(x: int) -> int:
    """Stage of an odd embed-gadget id; fan n holds n + 1 consecutive odd ids."""
    k, n = (x - 1) // 2, 0
    while k > n:
        k -= n + 1
        n += 1
    return n


def embed_gadget_le(spec: Spec) -> Callable[[int, int], bool]:
    """Fan elements of stage n lie below top 2m exactly when f(n) <= m."""

    def le(x: int, y: int) -> bool:
        if x == y:
            return True
        return x % 2 == 1 and y % 2 == 0 and spec.value(fan_stage(x)) <= y // 2

    return le


def closed_from_le(ids: Sequence[int], le: Callable[[int, int], bool]) -> Closed:
    """Closure of a relation already known to be an order, on ``ids``."""
    ids = tuple(ids)
    return close(ids, [(a, b) for a in ids for b in ids if a != b and le(a, b)])


# -- output checks -------------------------------------------------------------


def check_oracle_report(doc: dict, requested: int) -> int:
    expect(doc.get("schema") == "taulike.oracle/1", "not an oracle report")
    expect(doc["prefix_size"] == requested, f"prefix_size {doc['prefix_size']} != {requested}")
    expect(doc["ok"] is True and not doc["violations"], "honest bundle was flagged")
    expect(sum(doc["checked"].values()) > 0, "audit checked nothing")
    return doc["prefix_size"]


def check_verify(doc: dict, family: str, size: int) -> int:
    expect(doc.get("schema") == "taulike.verify/1", "not a verify report")
    ids = list(range(size))
    kinds = FAMILY_KINDS[family]
    expect([r["kind"] for r in doc["reports"]] == list(kinds), "report kinds differ")
    total = 0
    for r in doc["reports"]:
        want = kinds[r["kind"]]
        expect(r["ok"] is want, f"{family} as {r['kind']}: ok={r['ok']}, owed {want}")
        if want:
            expect(sorted(map(int, r["counts"])) == ids, f"{family} as {r['kind']}: counts cover other ids")
            for key, count in r["counts"].items():
                owed = strict_count(family, r["kind"], ids[0], int(key))
                expect(count == owed, f"{family} as {r['kind']}: count[{key}] = {count}, owed {owed}")
        total += len(r["counts"])
    expect(doc["ok"] is all(kinds.values()), "overall verdict differs")
    return total


def check_audit(doc: dict, owed: str | None) -> int:
    """A library audit summary: honest (owed None) or flagged with ``owed``."""
    if owed is None:
        expect(doc["ok"] is True and sum(doc["checked"].values()) > 0, "honest audit failed")
    else:
        expect(doc["ok"] is False, f"seeded {owed} fault was not flagged")
        expect(any(v["kind"] == owed for v in doc["violations"]), f"no {owed} violation named")
    return doc["prefix_size"]


def check_zeta_order(order: Sequence[int], anchor: int | None, budget: int, what: str) -> None:
    vals = [zigzag_value(x) for x in order]
    expect(len(order) >= budget, f"{what}: emitted {len(order)} < {budget}")
    expect(vals == list(range(vals[0], vals[0] + len(vals))), f"{what}: not one contiguous ascending run")
    expect(vals[0] <= 0 <= vals[-1], f"{what}: run does not contain 0")
    if anchor is not None:
        expect(vals[anchor] == 0, f"{what}: anchor is not the element 0")


def check_zeta_embedding(doc: dict, budget: int) -> int:
    expect(doc.get("kind") == "zeta", "not a zeta embedding")
    rows = doc["map"]
    for x, c in rows:
        expect(c == zigzag_value(x), f"zeta coordinate of {x} is {c}, not {zigzag_value(x)}")
    order = [x for x, _ in sorted(rows, key=lambda r: r[1])]
    check_zeta_order(order, None, budget, "zeta embedding")
    return len(rows)


def check_blocks(doc: dict, what: str) -> None:
    blocks = doc["blocks"]
    members = [x for b in blocks for x in b["members"]]
    expect(len(set(members)) == len(members), f"{what}: blocks overlap")
    expect(set(members) == set(doc["order"]), f"{what}: blocks do not partition the order")
    for b in blocks:
        expect(b["pivot"] in b["members"], f"{what}: pivot {b['pivot']} outside its block")


def check_block_prefix(small: dict, big: dict, what: str) -> None:
    """The smaller run's blocks open the larger run, and its order is a
    contiguous stretch of the larger order."""
    bs, bb = small["blocks"], big["blocks"]
    expect(bb[: len(bs)] == bs, f"{what}: smaller run's blocks are not the first blocks")
    so, bo = small["order"], big["order"]
    if not so:
        return
    expect(so[0] in bo, f"{what}: smaller order missing from the larger")
    i = bo.index(so[0])
    expect(bo[i : i + len(so)] == so, f"{what}: smaller order is not a contiguous stretch")


def check_family_linearize(doc: dict, family: str, kind: str, budget: int) -> int:
    order = doc["order"]
    what = f"linearize {kind} on {family}"
    check_extension(order, family_le(family), what)
    if kind == "zeta":
        check_zeta_order(order, doc["anchor"], budget, what)
        expect(doc["blocks"][0]["pivot"] == 0, f"{what}: first pivot is not stage 0")
    elif kind == "omega-omega-star":
        expect(sorted(order) == list(range(budget)), f"{what}: emitted set is not the first {budget} ids")
        sides = dict((x, s) for x, s in doc["sides"])
        for x in order:
            owed = "FIN_PRED" if x % 2 == 0 else "FIN_SUCC"
            expect(sides[x] == owed, f"{what}: side of {x} is {sides[x]}")
    else:
        # One-sided runs emit whole cones: the emitted set is the first ids.
        expect(sorted(order) == list(range(len(order))) and len(order) >= budget, f"{what}: emitted set is not a cone")
    if doc["blocks"] is not None:
        check_blocks(doc, what)
    return len(order)


def check_family_embedding(doc: dict, kind: str, budget: int) -> int:
    """Canonical coordinates: zeta values, ranks equal to ids, or (side, rank)."""
    if kind == "zeta":
        return check_zeta_embedding(doc, budget)
    rows = doc["map"]
    expect(len(rows) >= budget, f"embedding covers {len(rows)} < {budget}")
    for x, c in rows:
        if kind == "omega-omega-star":
            owed = [0, x // 2] if x % 2 == 0 else [1, (x - 1) // 2]
        else:
            owed = x  # ranks count the ids below (above, for omega-star)
        expect(c == owed, f"{kind} coordinate of {x} is {c}, owed {owed}")
    return len(rows)


def check_split_prefix(small: dict, big: dict) -> None:
    low = lambda d: [x for x, s in d["sides"] if s == "FIN_PRED"]
    high = lambda d: [x for x, s in d["sides"] if s == "FIN_SUCC"]
    expect(low(big)[: len(low(small))] == low(small), "split: lower part is not a prefix")
    hs, hb = high(small), high(big)
    expect(hb[len(hb) - len(hs) :] == hs, "split: upper part is not a suffix")


def check_finite_linearize(doc: dict, rel: Closed, kind: str, budget: int) -> int:
    order = doc["order"]
    what = f"linearize {kind} on a poset file"
    expect(len(order) >= min(budget, len(rel.elements)), f"{what}: emitted {len(order)} < {budget}")
    check_closed_extension(order, rel, what)
    check_blocks(doc, what)
    if kind == "zeta":
        pivot = rel.elements[0]
        expect(doc["blocks"][0]["pivot"] == pivot, f"{what}: first pivot is not stage 0")
        expect(order[doc["anchor"]] == pivot, f"{what}: anchor is not the first pivot")
    return len(order)


def check_chain_zeta(doc: dict, chain: Sequence[int], budget: int) -> int:
    """On a chain a zeta run emits one contiguous stretch of the chain."""
    order = doc["order"]
    what = "zeta run on a chain"
    expect(len(order) >= min(budget, len(chain)), f"{what}: emitted {len(order)} < {budget}")
    if order:
        i = chain.index(order[0])
        expect(list(chain[i : i + len(order)]) == order, f"{what}: not a contiguous stretch of the chain")
    return len(order)


def check_false_stages(doc: dict, spec: Spec) -> int:
    s = doc["requested"]
    truth = spec.false_stages(s)
    expect(set(doc["stages"]) == truth, f"decoded false stages {doc['stages']} != {sorted(truth)}")
    expect(doc["horizon"] >= s, "decoder horizon below the requested stages")
    return doc["horizon"]


def check_range(doc: dict, spec: Spec, m: int) -> int:
    expect(doc["m"] == m, "decoded a different m")
    expect(doc["member"] is spec.in_range(m), f"membership of {m} is {doc['member']}")
    # Every fan element below the top for m precedes it in an omega run.
    below = sum(n + 1 for n in range(m + len(spec.head) + 1) if spec.value(n) <= m)
    expect(doc["rank"] >= below, f"rank {doc['rank']} leaves out fan elements below the top")
    return doc["rank"] + 1


def check_gadget_prefix(doc: dict, le: Callable[[int, int], bool], size: int) -> int:
    prefix = doc["prefix"]
    expect(prefix["elements"] == list(range(size)), "prefix elements are not stages 0..n-1")
    truth = closed_from_le(prefix["elements"], le)
    check_reduction(prefix["elements"], prefix["relation"], truth, "gadget prefix")
    return size


def fuf_truth(doc: dict) -> Closed:
    """The marker gadget's order, from its listed parts and markers."""
    variant = doc["variant"]
    pairs = []
    for i, part in enumerate(doc["parts"]):
        top = doc["top_markers"][i]
        if variant == "omega":
            pairs += [(x, top) for x in part]
        elif variant == "omega-star":
            pairs += [(top, x) for x in part]
        else:
            bottom = doc["bottom_markers"][i]
            pairs += [(bottom, x) for x in part] + [(x, top) for x in part] + [(bottom, top)]
    return close(doc["poset"]["elements"], pairs)


def check_fuf_gadget(doc: dict, sizes: Sequence[int], variant: str) -> int:
    expect(doc["variant"] == variant, "gadget variant differs")
    expect([len(p) for p in doc["parts"]] == list(sizes), "part sizes differ from the drawn ones")
    expect(doc["union_size"] == sum(sizes), "union size differs from the drawn one")
    ids = [x for p in doc["parts"] for x in p] + doc["top_markers"] + doc["bottom_markers"]
    expect(sorted(ids) == sorted(doc["poset"]["elements"]), "parts and markers do not cover the poset")
    expect(len(set(ids)) == len(ids), "parts and markers overlap")
    check_reduction(doc["poset"]["elements"], doc["poset"]["relation"], fuf_truth(doc), "fuf gadget")
    return len(doc["poset"]["elements"])


def check_fuf_decode(doc: dict, gadget_doc: dict, sizes: Sequence[int]) -> int:
    expect(doc["union_size"] == sum(sizes), "decoded union size differs from the drawn one")
    expect(doc["bound"] >= sum(sizes), f"bound {doc['bound']} below the union size {sum(sizes)}")
    truth = fuf_truth(gadget_doc)
    expect(sorted(doc["order"]) == sorted(truth.elements), "decoded order misses elements")
    check_closed_extension(doc["order"], truth, "fuf decode")
    return len(doc["order"])
