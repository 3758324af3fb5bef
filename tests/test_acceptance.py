"""End-to-end acceptance battery, one test per shipped guarantee.

Every test times itself and folds its wall-clock cap into the pass
condition, so a regression in speed fails the same line as a regression
in substance.  The one-line verdicts are replayed in the terminal
summary by the conftest hook.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import brute
from brute import chain_poset, fence_poset
from taulike import (
    FinSide,
    HorizonTooSmall,
    Kind,
    OracleBundle,
    StreamPoset,
    antichain_stream,
    decode_false_stages,
    decode_range,
    embed_omega,
    embed_omega_star,
    embed_poset,
    fuf_decode,
    is_linear_extension,
    make_embed_gadget,
    make_fuf_gadget,
    make_range_gadget,
    make_stage_order,
    omega_linearize,
    omega_plus_omega_star_stream,
    omega_star_linearize,
    omega_star_stream,
    omega_stream,
    read_false_stages,
    split_linearize,
    stream_from_finite,
    szpilrajn_extend,
    validate_oracles,
    zeta_linearize,
    zeta_stream,
)
from taulike.gadgets import FunctionSpec
from taulike.harness import random_poset

# Shared by criteria 6 and 8: eventually increasing injective maps, each
# with at most 5 stages undercut by a later value.
TWENTY_SPECS = (
    "identity",
    "perm:1,0,2",
    "perm:2,0,1",
    "swap:1",
    "swap:2",
    "swap:3",
    "swap:4",
    "swap:5",
    "perm:4,3,2,1,0",
    "perm:1,2,3,4,0",
    "perm:0,2,1,4,3",
    "perm:5,0,1,2,3,4",
    "perm:3,1,4,0,2",
    "identity;gap:3",
    "perm:1,0,2;gap:5",
    "swap:2;gap:1",
    "perm:2,0,1;gap:7",
    "perm:0,1,3,2;gap:2",
    "swap:4;gap:3",
    "perm:4,0,1,2,3;gap:10",
)


def test_criterion_1_szpilrajn_soundness(record_criterion):
    """500 seeded random posets: the deterministic extension is a real one."""
    t0 = time.perf_counter()
    densities = (0.1, 0.3, 0.7)
    checked = 0
    for i in range(500):
        n = 1 + (i % 8)
        p = random_poset(n, densities[i % 3], seed=1000 + i)
        order = szpilrajn_extend(p)
        assert is_linear_extension(order, p)
        # n = 8 antichains have 40320 extensions; check the definition
        # instead of materializing them
        if n <= 7:
            assert tuple(order) in brute.linear_extensions(p.elements, p.le)
        else:
            assert brute.is_linear_extension_naive(order, p.elements, p.le)
        checked += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        1,
        checked == 500 and elapsed < 30.0,
        f"{checked}/500 random posets, output always among the exhaustive "
        f"extensions; {elapsed:.1f}s (cap 30s)",
    )


def _omega_block_laws(stream: StreamPoset) -> None:
    seq_small, ord_small = omega_linearize(stream, 5)
    seq_big, ord_big = omega_linearize(stream, 20)
    for seq, order in ((seq_small, ord_small), (seq_big, ord_big)):
        emitted = [x for b in seq for x in b.members]
        assert sorted(emitted) == sorted(order), "blocks must partition the output"
        assert len(set(emitted)) == len(emitted)
    dom = list(ord_big)
    for x in dom:
        for y in dom:
            if stream.leq(x, y):
                assert seq_big.block_of(x) <= seq_big.block_of(y)
    # prefix stability: the 5-block run is literally a prefix of the 20-block run
    assert list(ord_small) == list(ord_big)[: len(ord_small)]
    small_pivots = [b.pivot for b in seq_small]
    assert small_pivots == [b.pivot for b in seq_big][: len(small_pivots)]


def test_criterion_2_omega_block_laws(record_criterion):
    t0 = time.perf_counter()
    families = 0
    _omega_block_laws(omega_stream())
    _omega_block_laws(antichain_stream())
    families += 2
    profiles = []
    for parts in range(1, 7):
        profiles.extend(itertools.combinations_with_replacement(range(5), parts))
    for profile in profiles:
        gadget = make_fuf_gadget(list(profile))
        _omega_block_laws(gadget.stream())
        assert validate_oracles(gadget.stream(), len(gadget.base.elements)).ok
        families += 1
    for i in range(30):
        p = random_poset(1 + i % 10, (0.1, 0.3, 0.7)[i % 3], seed=4000 + i)
        _omega_block_laws(stream_from_finite(p))
        families += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        2,
        elapsed < 10.0,
        f"block partition/monotonicity/stability on {families} streams "
        f"({len(profiles)} marker-gadget profiles), zero violations; "
        f"{elapsed:.1f}s (cap 10s)",
    )


def _zeta_laws(stream: StreamPoset, budget: int):
    seq, order = zeta_linearize(stream, budget)
    dom = list(order)
    for x in dom:
        for y in dom:
            if stream.leq(x, y) and x != y:
                assert order.precedes(x, y)
    # an element strictly between two pivots in the output must belong to a
    # block no later than the newer of the two
    pivots = [b.pivot for b in seq]
    for i, zi in enumerate(pivots):
        for j, zj in enumerate(pivots):
            lo, hi = order.index_of(zi), order.index_of(zj)
            if lo >= hi:
                continue
            cap = max(i, j)
            for u in dom[lo + 1 : hi]:
                assert seq.block_of(u) <= cap
    return order


def test_criterion_3_zeta_laws(record_criterion):
    t0 = time.perf_counter()
    for variant in (0, 1, 2):
        _zeta_laws(zeta_stream(variant), 12)
    finite = 0
    for n in range(1, 13):
        for make in (chain_poset, fence_poset):
            p = make(n)
            order = _zeta_laws(stream_from_finite(p), 2 * n + 4)
            assert len(order) == n and is_linear_extension(order, p)
            if n <= 10:
                assert tuple(order) in brute.linear_extensions(p.elements, p.le)
            else:
                assert brute.is_linear_extension_naive(order, p.elements, p.le)
            finite += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        3,
        elapsed < 10.0,
        f"extension + interval-containment on 3 interleaved enumerations and "
        f"{finite} chains/fences, zero violations; {elapsed:.1f}s (cap 10s)",
    )


def _marker_profiles(budget: int, markers_per_part: int):
    out = []
    for parts in range(1, budget + 1):
        for profile in itertools.combinations_with_replacement(range(budget + 1), parts):
            if sum(profile) + markers_per_part * parts <= budget:
                out.append(profile)
    return out


def test_criterion_4_fuf_round_trip(record_criterion):
    """Every extension of every small marker gadget decodes to a valid bound."""
    t0 = time.perf_counter()
    total = 0
    for variant, markers_per_part in ((Kind.OMEGA, 1), (Kind.ZETA, 2)):
        for profile in _marker_profiles(7, markers_per_part):
            gadget = make_fuf_gadget(list(profile), variant)
            for order in brute.linear_extensions(gadget.base.elements, gadget.base.le):
                assert fuf_decode(order, gadget) >= gadget.union_size
                total += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        4,
        elapsed < 60.0,
        f"decoded bound covers the union in all {total} extensions of every "
        f"gadget with at most 7 elements, both variants; {elapsed:.1f}s (cap 60s)",
    )


def test_criterion_5_stage_order_linearity(record_criterion):
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    for _ in range(200):
        length = rng.randint(1, 12)
        values = rng.sample(range(60), length + 5)
        short = make_stage_order(values[:length])
        s = short.size
        for n in range(s):
            assert short.leq(n, n)
            for m in range(s):
                assert short.leq(n, m) or short.leq(m, n)
                if n != m:
                    assert not (short.leq(n, m) and short.leq(m, n))
                for k in range(s):
                    if short.leq(n, m) and short.leq(m, k):
                        assert short.leq(n, k)
        long = make_stage_order(values)
        for n in range(s):
            for m in range(s):
                assert short.leq(n, m) == long.leq(n, m)
    elapsed = time.perf_counter() - t0
    record_criterion(
        5,
        elapsed < 10.0,
        f"200 random injective prefixes: total, antisymmetric, transitive, "
        f"and stable under 5 extra values; {elapsed:.1f}s (cap 10s)",
    )


def test_criterion_6_false_stage_recovery(record_criterion):
    """Split pipeline recovers the undercut stages exactly at every horizon."""
    t0 = time.perf_counter()
    horizons = (100, 250, 500)
    exact = {h: 0 for h in horizons}
    stop_rule_exact = {h: 0 for h in horizons}
    for text in TWENTY_SPECS:
        f = FunctionSpec.parse(text)
        assert len(f.false_stages()) <= 5, text
        truth = {n for n in f.false_stages() if n < 50}
        gadget = make_range_gadget(f)
        for h in horizons:
            order = split_linearize(gadget.stream, 2 * h)
            if decode_false_stages(order, 50).stages == truth:
                exact[h] += 1
            decoded = read_false_stages(gadget, 50, h)
            if decoded.stages == truth and decoded.horizon == 50:
                stop_rule_exact[h] += 1
    for h in horizons:
        print(f"convergence: horizon {h}: {exact[h]}/20 exact, stop rule {stop_rule_exact[h]}/20")
    elapsed = time.perf_counter() - t0
    record_criterion(
        6,
        exact[500] == 20 and exact[250] == 20 and exact[100] == 20
        and all(n == 20 for n in stop_rule_exact.values()) and elapsed < 60.0,
        f"false stages below 50 exact for 20/20 functions at horizon 500 "
        f"(convergence {exact[100]}/{exact[250]}/{exact[500]} at 100/250/500, stop rule "
        f"{stop_rule_exact[100]}/{stop_rule_exact[250]}/{stop_rule_exact[500]}); "
        f"{elapsed:.1f}s (cap 60s)",
    )


def _reading(decode):
    try:
        return decode().stages
    except HorizonTooSmall as exc:
        return str(exc)


def test_the_stop_rule_reads_the_stages_the_full_horizon_split_reads():
    """The 2·min(S, horizon) split gives the stages and refusals of the 2·horizon one."""
    rng = random.Random(2024)
    drawn = []
    for _ in range(20):
        head = list(range(rng.choice((8, 24, 60))))
        rng.shuffle(head)
        drawn.append(FunctionSpec(tuple(head), rng.randrange(4)))
    refusals = 0
    for f in [*map(FunctionSpec.parse, TWENTY_SPECS), *drawn]:
        gadget = make_range_gadget(f)
        splits = {}
        for s in (0, 1, 10, 50):
            for h in (s // 2, s, 2 * s, 300, 1600):
                if h not in splits:
                    splits[h] = split_linearize(gadget.stream, 2 * h)
                old = _reading(lambda: decode_false_stages(splits[h], s))
                assert _reading(lambda: read_false_stages(gadget, s, h)) == old, (f.describe(), s, h)
                refusals += isinstance(old, str)
    assert refusals == 40 * 3  # every s // 2 < s refuses


def _embedding_laws(stream: StreamPoset, emb) -> int:
    dom = sorted(emb.assignments)
    points = [emb.point(x) for x in dom]
    assert len(set(points)) == len(points), "embedding must be injective"
    for x in dom:
        for y in dom:
            if stream.leq(x, y):
                assert emb.point(x) <= emb.point(y)
    return len(dom)


def test_criterion_7_embedding_soundness(record_criterion):
    t0 = time.perf_counter()
    checked = 0

    # rising families: rank must recount the elements placed to the left,
    # and dominate the strict lower cone the oracle promises
    omega_families = [
        omega_stream(),
        antichain_stream(),
        make_fuf_gadget([1, 2]).stream(),
        make_fuf_gadget([3, 1, 2]).stream(),
        make_fuf_gadget([4, 4, 4, 4]).stream(),
        make_embed_gadget("perm:2,0,1").stream,
        stream_from_finite(random_poset(24, 0.3, seed=7)),
    ]
    for stream in omega_families:
        _, order = omega_linearize(stream, elements_wanted=300)
        emb = embed_omega(order)
        checked += _embedding_laws(stream, emb)
        dom = list(order)
        for x in dom:
            rank = emb.coord(x)
            assert rank == sum(1 for y in dom if y != x and order.precedes(y, x))
            preds = stream.oracles.predecessors(x)
            assert rank >= len(set(preds) - {x})
    # the canonical rising chain pins the rank to the oracle count exactly
    chain = omega_stream()
    _, order = omega_linearize(chain, elements_wanted=300)
    emb = embed_omega(order)
    for x in order:
        assert emb.coord(x) == len(set(chain.oracles.predecessors(x)) - {x})

    for stream in (omega_star_stream(), make_fuf_gadget([1, 2], Kind.OMEGA_STAR).stream()):
        _, order = omega_star_linearize(stream, elements_wanted=300)
        checked += _embedding_laws(stream, embed_omega_star(order))
    for variant in (0, 1, 2):
        stream = zeta_stream(variant)
        checked += _embedding_laws(stream, embed_poset(stream, Kind.ZETA, elements=301))
    for stream in (omega_plus_omega_star_stream(), make_range_gadget("swap:2;gap:1").stream):
        emb = embed_poset(stream, Kind.OMEGA_PLUS_OMEGA_STAR, elements=300)
        checked += _embedding_laws(stream, emb)

    elapsed = time.perf_counter() - t0
    record_criterion(
        7,
        elapsed < 10.0,
        f"injective, order-preserving, ranks recount predecessors on 14 "
        f"families ({checked} embedded elements, exhaustive pairs); "
        f"{elapsed:.1f}s (cap 10s)",
    )


def test_criterion_8_range_recovery_via_embedding(record_criterion):
    t0 = time.perf_counter()
    decided = 0
    for text in TWENTY_SPECS:
        f = FunctionSpec.parse(text)
        gadget = make_embed_gadget(f)
        emb = embed_poset(gadget.stream, Kind.OMEGA, elements=1700)
        values = f.values(2000)
        for m in range(50):
            assert decode_range(emb, values, m) == f.in_range(m)
            decided += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        8,
        decided == 1000 and elapsed < 60.0,
        f"range membership of every m < 50 decided correctly for 20/20 "
        f"functions ({decided} queries); {elapsed:.1f}s (cap 60s)",
    )


def _fault_fixtures():
    """Three deliberately broken oracle bundles and the violation they owe."""

    def stream_of(bundle: OracleBundle) -> StreamPoset:
        return StreamPoset(lambda s: s, lambda x, y: x <= y, oracles=bundle, name="fault")

    omits = OracleBundle(predecessors=lambda x: [y for y in range(x + 1) if y != 2])
    overfull = OracleBundle(predecessors=lambda x: list(range(x + 2)))
    untagged = OracleBundle(predecessors=lambda x: None, side=lambda x: FinSide.FIN_PRED)
    return (
        (stream_of(omits), "INCOMPLETE"),
        (stream_of(overfull), "UNSOUND"),
        (stream_of(untagged), "SIDE_INCONSISTENT"),
    )


def test_criterion_9_oracle_honesty(record_criterion):
    t0 = time.perf_counter()
    specs = [FunctionSpec.parse(t) for t in (
        "identity", "perm:1,0,2", "swap:3",
        "perm:4,3,2,1,0", "identity;gap:3", "perm:1,0,2;gap:5",
    )]
    honest = 0
    for f in specs:
        for stream in (make_range_gadget(f).stream, make_embed_gadget(f).stream):
            assert validate_oracles(stream, 100).ok
            honest += 1
    # deep prefixes are quadratic to audit; spot the long-range behaviour on a
    # spread of gadget shapes instead of every spec
    for f in specs[:3]:
        assert validate_oracles(make_range_gadget(f).stream, 1000).ok
        honest += 1
    for f in specs[3:5]:
        assert validate_oracles(make_embed_gadget(f).stream, 1000).ok
        honest += 1
    for profile, variant in (([1, 2], Kind.OMEGA), ([2, 0, 3], Kind.OMEGA_STAR), ([1, 1, 1], Kind.ZETA)):
        stream = make_fuf_gadget(profile, variant).stream()
        for budget in (100, 1000):
            assert validate_oracles(stream, budget).ok
            honest += 1
    named = 0
    for stream, expected_kind in _fault_fixtures():
        report = validate_oracles(stream, 25)
        assert not report.ok
        assert any(v.kind == expected_kind for v in report.violations)
        named += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        9,
        named == 3 and elapsed < 10.0,
        f"{honest} gadget-stream audits clean at prefixes 100/1000, all 3 "
        f"seeded faults named; {elapsed:.1f}s (cap 10s)",
    )


def test_seeded_fault_reports_are_pinned():
    # The golden file pins the order of the violations, not only their kinds.
    golden = json.loads((Path(__file__).parent / "golden" / "oracle_seeded_faults.json").read_text())
    assert {kind: validate_oracles(stream, 150).to_json_dict() for stream, kind in _fault_fixtures()} == golden


def test_seeded_fault_reports_at_the_benchmark_2n_prefix_are_pinned():
    golden = json.loads((Path(__file__).parent / "golden" / "oracle_seeded_faults_300.json").read_text())
    assert {kind: validate_oracles(stream, 300).to_json_dict() for stream, kind in _fault_fixtures()} == golden
