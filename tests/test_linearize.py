"""Deterministic extension, block runs for each target shape, side split."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import operator
import random
import time
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from brute import antichain_poset, chain_poset

from taulike import (
    Block,
    ClassifierInconsistent,
    FormatError,
    Kind,
    OracleMissing,
    TooLarge,
    assemble,
    build_poset,
    embed_poset,
    is_linear_extension,
    linearize,
    make_fuf_gadget,
    make_range_gadget,
    omega_blocks,
    omega_linearize,
    omega_star_linearize,
    random_poset,
    split_linearize,
    szpilrajn_extend,
    zeta_linearize,
)
from taulike.kinds import BlockSide, FinSide
from taulike.linearize import _block_run
from taulike.streams import (
    IdRuns,
    OracleBundle,
    StreamPoset,
    antichain_stream,
    omega_plus_omega_star_stream,
    omega_star_stream,
    omega_stream,
    stream_from_finite,
    take,
    zeta_stream,
    zigzag_decode,
)


# -- deterministic insertion -----------------------------------------------


def test_szpilrajn_empty():
    assert tuple(szpilrajn_extend(build_poset([], []))) == ()


def test_szpilrajn_chain_identity():
    assert tuple(szpilrajn_extend(chain_poset(3))) == (0, 1, 2)


def test_szpilrajn_pinned_insertion():
    # 0 placed; 1 has no placed relatives, goes right; 2 precedes 0
    p = build_poset([0, 1, 2], [(2, 0)])
    assert tuple(szpilrajn_extend(p)) == (2, 0, 1)


def test_szpilrajn_antichain_is_enumeration_order():
    assert tuple(szpilrajn_extend(antichain_poset(4))) == (0, 1, 2, 3)


@settings(max_examples=60)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda p: p[0] < p[1]),
        max_size=10,
    )
)
def test_szpilrajn_always_extends(pairs):
    p = build_poset(range(7), pairs)
    assert is_linear_extension(szpilrajn_extend(p), p).ok


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 40),
    density=st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_szpilrajn_places_by_the_insertion_rule(n, density, seed):
    base = random_poset(n, density, seed)
    p = base.restrict(random.Random(seed).sample(base.elements, n))  # a shuffled order
    assert list(szpilrajn_extend(p)) == brute.insertion_order(p.elements, p.le)


# -- omega runs ---------------------------------------------------------------


def test_omega_canonical_chain():
    blocks, order = omega_linearize(omega_stream(), 4)
    assert tuple(order) == (0, 1, 2, 3)
    assert [b.pivot for b in blocks] == [0, 1, 2, 3]
    assert [b.members for b in blocks] == [(0,), (1,), (2,), (3,)]


def test_omega_antichain_singletons():
    blocks, order = omega_linearize(antichain_stream(), 5)
    assert tuple(order) == (0, 1, 2, 3, 4)
    assert all(len(b.members) == 1 for b in blocks)


def test_omega_fuf_pinned():
    # one-element part, two-element part; markers after their parts
    gadget = make_fuf_gadget([1, 2])
    blocks, order = omega_linearize(gadget.stream(), 5)
    assert tuple(order) == (0, 1, 2, 3, 4)
    assert [b.pivot for b in blocks] == [0, 1, 2, 3, 4]
    # at the last pivot the marker absorbs nothing new: {4} u {2,3} minus earlier
    assert blocks.blocks[4].members == (4,)


def test_omega_requires_predecessors():
    with pytest.raises(OracleMissing):
        omega_linearize(zeta_stream(), 3)


def test_omega_element_budget():
    _, order = omega_linearize(omega_stream(), None, elements_wanted=6)
    assert len(order) >= 6


def test_omega_runs_finite_stream_to_exhaustion():
    p = random_poset(6, 0.4, seed=3)
    blocks, order = omega_linearize(stream_from_finite(p), None)
    assert sorted(order) == list(p.elements)
    # blocks partition the domain exactly
    seen = [x for b in blocks for x in b.members]
    assert sorted(seen) == list(p.elements) and len(seen) == len(set(seen))


# -- omega-star runs ------------------------------------------------------------


def test_omega_star_canonical():
    blocks, order = omega_star_linearize(omega_star_stream(), 4)
    assert tuple(order) == (3, 2, 1, 0)
    assert order.anchor_index == 3  # block 0 sits rightmost


def test_omega_star_antichain_reversed():
    _, order = omega_star_linearize(antichain_stream(), 5)
    assert tuple(order) == (4, 3, 2, 1, 0)


def test_omega_star_dual_fuf_mirror():
    gadget = make_fuf_gadget([1, 2], variant=Kind.OMEGA_STAR)
    _, order = omega_star_linearize(gadget.stream(), 5)
    assert tuple(order) == (4, 3, 2, 1, 0)


def test_omega_star_requires_successors():
    with pytest.raises(OracleMissing):
        omega_star_linearize(omega_stream(), 3)


def test_omega_star_prefix_grows_leftward():
    small = omega_star_linearize(omega_star_stream(), 3)[1]
    big = omega_star_linearize(omega_star_stream(), 7)[1]
    assert tuple(big)[-3:] == tuple(small)
    # anchored signed positions agree between runs
    for x in small:
        assert small.signed_position(x) == big.signed_position(x)


# -- zeta runs --------------------------------------------------------------------


def test_zeta_canonical_pinned():
    blocks, order = zeta_linearize(zeta_stream(), 5)
    values = [zigzag_decode(x) for x in order]
    assert values == [-2, -1, 0, 1, 2]
    assert [b.side for b in blocks] == [
        BlockSide.RIGHT,
        BlockSide.LEFT,
        BlockSide.RIGHT,
        BlockSide.LEFT,
        BlockSide.RIGHT,
    ]
    assert all(len(b.members) == 1 for b in blocks)
    assert [zigzag_decode(b.pivot) for b in blocks] == [0, -1, 1, -2, 2]
    # anchor marks the first pivot, so signed positions read off the values
    assert [order.signed_position(x) for x in order] == values


def test_zeta_antichain_all_right():
    blocks, order = zeta_linearize(antichain_stream(), 6)
    assert tuple(order) == (0, 1, 2, 3, 4, 5)
    assert all(b.side is BlockSide.RIGHT for b in blocks)


def test_zeta_finite_chain():
    p = chain_poset(3)
    _, order = zeta_linearize(stream_from_finite(p), None)
    assert tuple(order) == (0, 1, 2)
    assert is_linear_extension(order, p).ok


def test_zeta_requires_interval():
    from taulike.streams import StreamPoset

    bare = StreamPoset(lambda s: s, lambda x, y: x <= y)
    with pytest.raises(OracleMissing):
        zeta_linearize(bare, 3)


def test_zeta_extension_property_on_canonical():
    # all emitted pairs respect the integer order
    for variant in (0, 1, 2):
        _, order = zeta_linearize(zeta_stream(variant), 12)
        vals = [zigzag_decode(x) for x in order]
        assert vals == sorted(vals)


def test_zeta_interval_containment_bound():
    # elements strictly between two pivots never show up in later blocks
    for variant in (0, 1, 2):
        blocks, order = zeta_linearize(zeta_stream(variant), 10)
        pivots = [b.pivot for b in blocks]
        for i, zi in enumerate(pivots):
            for j, zj in enumerate(pivots):
                lo = min(order.index_of(zi), order.index_of(zj))
                hi = max(order.index_of(zi), order.index_of(zj))
                for pos in range(lo + 1, hi):
                    x = order.positions[pos]
                    assert blocks.block_of(x) <= max(i, j)


# -- block laws on mixed finite inputs ----------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_omega_block_monotone_on_random_finite(seed):
    p = random_poset(7, 0.4, seed=seed)
    blocks, order = omega_linearize(stream_from_finite(p), None)
    assert is_linear_extension(order, p).ok
    for x in p.elements:
        for y in p.elements:
            if p.le(x, y):
                assert blocks.block_of(x) <= blocks.block_of(y)


@pytest.mark.parametrize("seed", range(10))
def test_omega_star_block_monotone_dual(seed):
    p = random_poset(7, 0.4, seed=seed)
    blocks, order = omega_star_linearize(stream_from_finite(p), None)
    assert is_linear_extension(order, p).ok
    for x in p.elements:
        for y in p.elements:
            if p.le(x, y):
                assert blocks.block_of(x) >= blocks.block_of(y)


@pytest.mark.parametrize("seed", range(10))
def test_zeta_extends_on_random_finite(seed):
    p = random_poset(7, 0.4, seed=seed)
    blocks, order = zeta_linearize(stream_from_finite(p), None)
    assert is_linear_extension(order, p).ok
    # every member is comparable with its block pivot
    for b in blocks:
        for x in b.members:
            assert p.le(x, b.pivot) or p.le(b.pivot, x)


# -- one-sided runs against the restated rule -------------------------------------------

# How a bundle may hand back a correct cone: the run must read each shape alike.
_CONE_SHAPES = {
    "list": lambda x, ans, rng: ans,
    "shuffled": lambda x, ans, rng: rng.sample(ans, len(ans)),
    "repeated": lambda x, ans, rng: ans + ans[::2],
    "tuple": lambda x, ans, rng: tuple(ans),
    "generator": lambda x, ans, rng: (y for y in ans),
    "no pivot": lambda x, ans, rng: [y for y in ans if y != x],
}


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 40),
    density=st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]),
    seed=st.integers(0, 2**16),
    shape=st.sampled_from(sorted(_CONE_SHAPES)),
    dual=st.booleans(),
    budget=st.sampled_from(["none", "blocks", "elements", "both"]),
    size=st.integers(0, 12),
)
def test_cone_runs_match_the_restated_rule(n, density, seed, shape, dual, budget, size):
    rng = random.Random(seed)
    base = random_poset(n, density, seed)
    p = base.restrict(rng.sample(base.elements, n))  # enumerate in a shuffled order
    stream = stream_from_finite(p)
    name = "successors" if dual else "predecessors"
    inner, reshape = getattr(p, name), _CONE_SHAPES[shape]

    def cone(x):
        return reshape(x, inner(x), rng)

    stream.oracles = dataclasses.replace(stream.oracles, **{name: cone})
    blocks_wanted = size if budget in ("blocks", "both") else None
    elements_wanted = size if budget in ("elements", "both") else None

    run = omega_star_linearize if dual else omega_linearize
    blocks, order = run(stream, blocks_wanted, elements_wanted=elements_wanted)
    want = brute.cone_blocks(p.elements, cone, blocks_wanted, elements_wanted)
    side = BlockSide.LEFT if dual else BlockSide.RIGHT
    assert [(b.pivot, b.members, b.side) for b in blocks] == [(x, m, side) for x, m in want]
    segs = [brute.insertion_order(members, p.le) for _, members in want]
    if dual:
        segs.reverse()
    assert list(order) == [x for seg in segs for x in seg]
    if dual and want:
        assert order.anchor_index == list(order).index(want[0][0])


# -- the extremal-pivot rule against the every-pivot rule ------------------------------


def _zeta_run_matches_every_pivot(stream, enumeration, blocks_wanted=None, elements_wanted=None):
    blocks, order = zeta_linearize(stream, blocks_wanted, elements_wanted=elements_wanted)
    want_blocks, want_order, want_anchor = brute.zeta_blocks_every_pivot(
        enumeration, stream.leq, stream.oracles.interval, blocks_wanted, elements_wanted
    )
    got = [(b.pivot, b.members, b.side.value) for b in blocks]
    assert got == want_blocks
    assert list(order) == want_order
    assert order.anchor_index == want_anchor


def _in_runs(listing: list[int], rng: random.Random):
    """``listing``, maybe reversed, cut at random points into parts.

    In each piece a maximal run on one step is a ``range``, and an id left
    at its end is a list; a cut at an end or twice at one point leaves an
    empty part.  One part may come bare, more come as an :class:`IdRuns`.
    """
    ids = listing[::-1] if rng.random() < 0.5 else list(listing)
    cuts = sorted(rng.choices(range(len(ids) + 1), k=rng.randint(0, 4)))
    parts: list = []
    for a, b in zip([0, *cuts], [*cuts, len(ids)]):
        piece = ids[a:b]
        if not piece:
            parts.append(rng.choice(([], range(a, a))))
        i = 0
        while i + 1 < len(piece):
            step, j = piece[i + 1] - piece[i], i + 1
            while j + 1 < len(piece) and piece[j + 1] - piece[j] == step:
                j += 1
            parts.append(range(piece[i], piece[j] + step, step))
            i = j + 1
        if i < len(piece):
            parts.append(piece[i:])
    return parts[0] if len(parts) == 1 and rng.random() < 0.5 else IdRuns(parts)


@pytest.mark.parametrize("density", [0.0, 0.1, 0.25, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("seed", range(8))
def test_zeta_matches_every_pivot_rule_on_random_finite(density, seed):
    p = random_poset(12, density, seed=seed)
    _zeta_run_matches_every_pivot(stream_from_finite(p), p.elements)
    # The same intervals in runs and lists, which the run reads part by part.
    rng, stream = random.Random(seed), stream_from_finite(p)
    stream.oracles = dataclasses.replace(stream.oracles, interval=lambda x, y: _in_runs(p.interval(x, y), rng))
    _zeta_run_matches_every_pivot(stream, p.elements)


def test_zeta_matches_every_pivot_rule_on_nearest_pivot_counterexample():
    # z < a < p and z < z' < p with a incomparable to z': a lies in [z, p]
    # only, so a rule asking just the nearest earlier pivot would miss it
    z, z2, a, p = range(4)
    poset = build_poset(range(4), [(z, a), (a, p), (z, z2), (z2, p)])
    for enumeration in permutations(range(4)):
        shuffled = poset.restrict(enumeration)
        _zeta_run_matches_every_pivot(stream_from_finite(shuffled), enumeration)


@pytest.mark.parametrize("variant", [0, 1, 2])
def test_zeta_matches_every_pivot_rule_on_canonical(variant):
    stream = zeta_stream(variant)
    enumeration = [stream.element_at(s) for s in range(120)]
    _zeta_run_matches_every_pivot(stream, enumeration, 60)
    _zeta_run_matches_every_pivot(stream, enumeration, None, 45)


@pytest.mark.parametrize("density", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_zeta_matches_every_pivot_rule_under_element_budgets(density, seed):
    p = random_poset(12, density, seed=seed)
    for elements_wanted in (0, 1, 5, 11):
        _zeta_run_matches_every_pivot(stream_from_finite(p), p.elements, None, elements_wanted)
        # a block budget wins over an element budget
        _zeta_run_matches_every_pivot(stream_from_finite(p), p.elements, 2, elements_wanted)


@pytest.mark.parametrize("variant", [0, 1, 2])
def test_zeta_interval_calls_per_block_stay_bounded(variant):
    stream = zeta_stream(variant)
    calls = []
    inner = stream.oracles.interval
    stream.oracles = dataclasses.replace(
        stream.oracles, interval=lambda x, y: calls.append((x, y)) or inner(x, y)
    )
    blocks, order = zeta_linearize(stream, elements_wanted=400)
    assert len(order) == 400
    assert len(calls) <= 3 * len(blocks)


@pytest.mark.parametrize("seed", range(6))
def test_outputs_land_in_brute_force_extension_lists(seed):
    p = random_poset(6, 0.35, seed=seed)
    everyone = set(brute.linear_extensions(p.elements, p.le))
    s = stream_from_finite(p)
    assert tuple(omega_linearize(s, None)[1]) in everyone
    assert tuple(omega_star_linearize(stream_from_finite(p), None)[1]) in everyone
    assert tuple(zeta_linearize(stream_from_finite(p), None)[1]) in everyone
    assert tuple(szpilrajn_extend(p)) in everyone


def test_a_block_is_an_immutable_hashable_record_equal_by_its_fields():
    b = Block(3, (1, 3), BlockSide.LEFT)
    assert b == Block(pivot=3, members=(1, 3), side=BlockSide.LEFT)
    assert (b.pivot, b.members, b.side) == (3, (1, 3), BlockSide.LEFT)
    assert b != Block(3, (1, 3), BlockSide.RIGHT)
    assert b != Block(3, (3,), BlockSide.LEFT)
    assert b != Block(1, (1, 3), BlockSide.LEFT)
    assert hash(b) == hash(Block(3, (1, 3), BlockSide.LEFT))
    assert len({b, Block(3, (1, 3), BlockSide.LEFT), Block(1, (1,), BlockSide.LEFT)}) == 2
    for field, value in (("pivot", 4), ("members", (4,)), ("side", BlockSide.RIGHT)):
        with pytest.raises(AttributeError):
            setattr(b, field, value)
    assert b == Block(3, (1, 3), BlockSide.LEFT)


def test_prefix_stability_blocks_and_order():
    for make, run in (
        (omega_stream, omega_linearize),
        (omega_star_stream, omega_star_linearize),
        (zeta_stream, zeta_linearize),
    ):
        small_blocks, small_order = run(make(), 5)
        big_blocks, big_order = run(make(), 20)
        assert big_blocks.blocks[:5] == small_blocks.blocks
        for x in small_order:
            for y in small_order:
                if x != y:
                    assert small_order.precedes(x, y) == big_order.precedes(x, y)


def test_omega_predecessor_sets_final_once_emitted():
    small = omega_linearize(omega_plus_omega_star_substream(), 4)[1]
    big = omega_linearize(omega_plus_omega_star_substream(), 12)[1]
    spos = {x: i for i, x in enumerate(small)}
    bpos = {x: i for i, x in enumerate(big)}
    for x in small:
        below_small = {y for y in small if spos[y] < spos[x]}
        below_big = {y for y in big if bpos[y] < bpos[x]}
        assert below_small == below_big


def omega_plus_omega_star_substream():
    # the even (ascending) half of the two-chain stream, an honest omega-like input
    base = omega_plus_omega_star_stream()
    from taulike.streams import StreamPoset

    return StreamPoset(
        lambda s: 2 * s,
        base.leq,
        oracles=base.oracles,
        name="even-chain",
    )


# -- split runs ----------------------------------------------------------------------


def test_split_canonical_two_chains():
    order = split_linearize(omega_plus_omega_star_stream(), 8)
    assert tuple(order) == (0, 2, 4, 6, 7, 5, 3, 1)
    assert order.sides[0] is FinSide.FIN_PRED
    assert order.sides[7] is FinSide.FIN_SUCC


def test_split_all_fin_pred_degenerates_to_omega():
    p = random_poset(6, 0.4, seed=11)
    split = split_linearize(stream_from_finite(p), 6)
    plain = omega_linearize(stream_from_finite(p), None)[1]
    assert tuple(split) == tuple(plain)


def test_split_range_gadget_sides():
    gadget = make_range_gadget("perm:1,0,2")
    order = split_linearize(gadget.stream, 16)
    lower = [x for x in order if order.sides[x] is FinSide.FIN_PRED]
    upper = [x for x in order if order.sides[x] is FinSide.FIN_SUCC]
    # stage 0 is the only false stage: a_0 = id 0 sits alone in the lower part
    assert lower == [0]
    assert set(upper) == set(order) - {0}
    assert tuple(order)[: len(lower)] == tuple(lower)


def test_split_requires_side_oracle():
    with pytest.raises(OracleMissing):
        split_linearize(zeta_stream(), 4)


def test_split_rejects_inconsistent_sides():
    # a two-chain whose lower element claims the upper side
    p = chain_poset(2)
    s = stream_from_finite(
        p, side=lambda x: FinSide.FIN_SUCC if x == 0 else FinSide.FIN_PRED
    )
    with pytest.raises(ClassifierInconsistent):
        split_linearize(s, 2)


def test_split_cross_check_is_complete_without_bulk_hook():
    # An antichain except for one pair u <= v with u FIN_SUCC and v FIN_PRED;
    # the cone oracles hide it, so only the cross-check can see it.  The dual
    # run emits FIN_SUCC elements in reverse, which puts u last, past the
    # first 400_000 // len(low) of them that a pairwise cap would reach.
    # The check reads the high x low rectangle and nothing more.
    low, high = 633, 640
    u, v = low, 0
    calls = []

    def leq(x, y):
        calls.append((x, y))
        return x == y or (x, y) == (u, v)

    s = StreamPoset(
        lambda st: st,
        leq,
        oracles=OracleBundle(
            predecessors=lambda x: [x],
            successors=lambda x: [x],
            side=lambda x: FinSide.FIN_PRED if x < low else FinSide.FIN_SUCC,
        ),
        size=low + high,
        name="hidden-pair",
    )
    assert s._leq_block is None and high - 1 >= 400_000 // low
    with pytest.raises(ClassifierInconsistent, match=f"FIN_SUCC element {u} lies below"):
        split_linearize(s, low + high)
    assert len(calls) == high * low
    assert {x for x, _ in calls} == set(range(low, low + high))
    assert {y for _, y in calls} == set(range(low))


def _hidden_pairs_stream(low: int, high: int, hidden: set[tuple[int, int]]) -> StreamPoset:
    """An antichain of ``low`` FIN_PRED and ``high`` FIN_SUCC ids plus the
    ``hidden`` pairs x <= y, which the cone oracles do not list."""
    return StreamPoset(
        lambda st: st,
        lambda x, y: x == y or (x, y) in hidden,
        oracles=OracleBundle(
            predecessors=lambda x: [x],
            successors=lambda x: [x],
            side=lambda x: FinSide.FIN_PRED if x < low else FinSide.FIN_SUCC,
        ),
        size=low + high,
        name="hidden-pairs",
    )


@pytest.mark.parametrize("seed", range(6))
def test_the_cross_check_in_chunks_finds_the_first_pair_of_the_whole_rectangle(monkeypatch, seed):
    rng = random.Random(seed)
    low, high = 23, 17
    hidden = {(rng.randrange(low, low + high), rng.randrange(low)) for _ in range(seed % 4)}
    whole = None
    if hidden:
        with pytest.raises(ClassifierInconsistent) as whole:
            split_linearize(_hidden_pairs_stream(low, high, hidden), low + high)
    shapes = []
    inner = StreamPoset.relation_matrix

    def spy(stream, rows, cols=None):
        shapes.append((len(rows), len(cols)))
        return inner(stream, rows, cols)

    monkeypatch.setattr(StreamPoset, "relation_matrix", spy)
    for cells in (1, low, 3 * low + 5, low * high - 1):
        monkeypatch.setattr(importlib.import_module("taulike.linearize"), "CROSS_CHUNK_CELLS", cells)
        shapes.clear()
        if whole is None:
            split_linearize(_hidden_pairs_stream(low, high, hidden), low + high)
        else:
            with pytest.raises(ClassifierInconsistent) as err:
                split_linearize(_hidden_pairs_stream(low, high, hidden), low + high)
            assert str(err.value) == str(whole.value)
        rows = max(1, cells // low)
        assert all(shape == (rows, low) for shape in shapes[:-1])
        assert 1 <= shapes[-1][0] <= rows and shapes[-1][1] == low
        assert sum(r for r, _ in shapes) <= high
        if whole is None:
            assert sum(r for r, _ in shapes) == high


def test_split_rejects_junk_side_answers():
    p = chain_poset(2)
    s = stream_from_finite(p, side=lambda x: "sideways")
    with pytest.raises(FormatError):
        split_linearize(s, 2)


def test_split_missing_side_answer():
    p = chain_poset(2)
    s = stream_from_finite(p, side=lambda x: None)
    with pytest.raises(OracleMissing):
        split_linearize(s, 2)


_TWO_CHAINS_10 = (0, 2, 4, 6, 8, 9, 7, 5, 3, 1)


@pytest.mark.parametrize(
    "answer, outcome",
    [
        (FinSide.FIN_PRED, _TWO_CHAINS_10),
        ("FIN_PRED", _TWO_CHAINS_10),
        (FinSide.FIN_SUCC, (OracleMissing, "successors oracle returned no finite answer for (4,)")),
        ("FIN_SUCC", (OracleMissing, "successors oracle returned no finite answer for (4,)")),
        ("garbage", (FormatError, "side oracle answered 'garbage' for element 4")),
        (None, (OracleMissing, "side oracle gave no class for element 4")),
    ],
    ids=["member FIN_PRED", "string FIN_PRED", "member FIN_SUCC", "string FIN_SUCC", "garbage", "none"],
)
def test_split_reads_every_shape_of_side_answer(answer, outcome):
    # Element 4 of the two chains answers ``answer``; results and texts
    # are the ones captured before members skipped the string reading.
    s = omega_plus_omega_star_stream()
    inner = s.oracles.side
    s.oracles = dataclasses.replace(s.oracles, side=lambda x: answer if x == 4 else inner(x))
    if outcome == _TWO_CHAINS_10:
        assert tuple(split_linearize(s, 10)) == outcome
        return
    error, text = outcome
    with pytest.raises(error) as err:
        split_linearize(s, 10)
    assert str(err.value) == text


@pytest.mark.parametrize(
    "make, n",
    [
        (omega_plus_omega_star_stream, 300),
        (lambda: make_range_gadget("perm:2,5,1,7,0,4,3,6;gap:2").stream, 300),
        (lambda: stream_from_finite(random_poset(40, 0.2, 3), side=lambda x: FinSide.FIN_PRED), 40),
    ],
)
def test_split_checks_each_enumerated_id_once(monkeypatch, make, n):
    # element_at checks the stages that a call adds to its stream's cache;
    # count them per stream, over every StreamPoset the split may build.
    checked: dict[StreamPoset, Counter] = {}
    inner = StreamPoset.element_at

    def counted(stream, stage):
        before = len(stream._cache)
        try:
            return inner(stream, stage)
        finally:
            checked.setdefault(stream, Counter()).update(range(before, len(stream._cache)))

    monkeypatch.setattr(StreamPoset, "element_at", counted)
    order = split_linearize(make(), n)
    assert len(order) >= n
    assert [c for c in checked.values() if c] == [Counter(range(n))]


def _split_by_the_restated_rule(stream, n):
    """The split run, restated: the first ``n`` ids parted by side, each part
    run by ``brute.cone_blocks`` and laid out by ``brute.insertion_order``."""
    ids = [stream.element_at(k) for k in range(n)]
    fin = {x: FinSide(stream.oracles.side(x)) for x in ids}
    low = brute.cone_blocks([x for x in ids if fin[x] is FinSide.FIN_PRED], stream.oracles.predecessors)
    high = brute.cone_blocks([x for x in ids if fin[x] is FinSide.FIN_SUCC], stream.oracles.successors)
    low_order = [y for _, members in low for y in brute.insertion_order(members, stream.leq)]
    high_order = [y for _, members in reversed(high) for y in brute.insertion_order(members, stream.leq)]
    sides = {x: FinSide.FIN_PRED for x in low_order} | {x: FinSide.FIN_SUCC for x in high_order}
    return low_order + high_order, sides


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 30),
    density=st.sampled_from([0.0, 0.1, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
    marked=st.integers(0, 30),
    wanted=st.integers(0, 30),
)
def test_split_runs_match_the_restated_rule_on_random_finite(n, density, seed, marked, wanted):
    # The down-set below ``marked`` drawn elements is FIN_PRED, the rest FIN_SUCC.
    rng = random.Random(seed)
    base = random_poset(n, density, seed)
    p = base.restrict(rng.sample(base.elements, n))
    marks = rng.sample(p.elements, min(marked, n))
    down = {y for x in marks for y in p.predecessors(x)}

    def side(x):
        return FinSide.FIN_PRED if x in down else FinSide.FIN_SUCC

    wanted = min(wanted, n)
    order = split_linearize(stream_from_finite(p, side=side), wanted)
    want_order, want_sides = _split_by_the_restated_rule(stream_from_finite(p, side=side), wanted)
    assert list(order) == want_order
    assert dict(order.sides) == want_sides


@settings(max_examples=40, deadline=None)
@given(
    head=st.integers(1, 6).flatmap(lambda w: st.permutations(range(w))),
    gap=st.integers(0, 3),
    wanted=st.integers(0, 120),
)
def test_split_runs_match_the_restated_rule_on_range_gadgets(head, gap, wanted):
    spec = f"perm:{','.join(map(str, head))};gap:{gap}"
    order = split_linearize(make_range_gadget(spec).stream, wanted)
    want_order, want_sides = _split_by_the_restated_rule(make_range_gadget(spec).stream, wanted)
    assert list(order) == want_order
    assert dict(order.sides) == want_sides


# -- budgets and dispatch ---------------------------------------------------------------


def _none_at(fn, k):
    return lambda *args: None if k in args else fn(*args)


@pytest.mark.parametrize(
    "run, name, make, text",
    [
        (omega_linearize, "predecessors", omega_stream, "predecessors oracle returned no finite answer for (3,)"),
        (omega_star_linearize, "successors", omega_star_stream, "successors oracle returned no finite answer for (3,)"),
        (zeta_linearize, "interval", zeta_stream, "interval oracle returned no finite answer for (2, 3)"),
    ],
)
def test_a_none_answer_ends_the_run_in_oracle_missing(run, name, make, text):
    # The texts were captured before the runs checked their answers inline.
    stream = make()
    stream.oracles = dataclasses.replace(stream.oracles, **{name: _none_at(getattr(stream.oracles, name), 3)})
    with pytest.raises(OracleMissing) as err:
        run(stream, 10)
    assert str(err.value) == text


def test_budgets_blocks_wins_over_elements():
    blocks, _ = omega_linearize(omega_stream(), 3, elements_wanted=50)
    assert len(blocks) == 3


def test_dispatcher_needs_a_budget():
    with pytest.raises(FormatError):
        linearize(omega_stream(), Kind.OMEGA)


def test_dispatcher_split_needs_elements():
    with pytest.raises(FormatError):
        linearize(omega_plus_omega_star_stream(), Kind.OMEGA_PLUS_OMEGA_STAR, blocks=3)


def test_dispatcher_routes_each_kind():
    b, order = linearize(omega_stream(), Kind.OMEGA, blocks=3)
    assert tuple(order) == (0, 1, 2) and len(b) == 3
    b, order = linearize(omega_star_stream(), Kind.OMEGA_STAR, blocks=3)
    assert tuple(order) == (2, 1, 0)
    b, order = linearize(zeta_stream(), Kind.ZETA, blocks=3)
    assert [zigzag_decode(x) for x in order] == [-1, 0, 1]
    b, order = linearize(omega_plus_omega_star_stream(), Kind.OMEGA_PLUS_OMEGA_STAR, elements=4)
    assert b is None and len(order) >= 4


def test_placement_debug_view_consistent_with_order():
    for blocks, order in (
        omega_linearize(omega_stream(), 8),
        omega_star_linearize(omega_star_stream(), 8),
        zeta_linearize(zeta_stream(), 8),
        zeta_linearize(zeta_stream(1), 8),
    ):
        placed = [(b.members, b.side) for b in blocks]
        for x in order:
            for y in order:
                if x != y and blocks.block_of(x) != blocks.block_of(y):
                    # across blocks the placement decides the realized line
                    assert brute.placement_le(placed, x, y) == order.precedes(x, y)


# -- the pivot scan's liveness guard ----------------------------------------------


def _absorbing_stream(absorbed):
    """An antichain whose first pivot's oracles claim the next ``absorbed``
    stages, so the scan for the second pivot walks past all of them."""
    first = list(range(absorbed + 1))
    return StreamPoset(
        lambda s: s,
        lambda x, y: x == y,
        oracles=OracleBundle(
            predecessors=lambda x: first if x == 0 else [x],
            interval=lambda x, y: first if x == y == 0 else [x] if x == y else [],
        ),
        name="absorbing",
    )


def test_pivot_scan_guard_stops_a_stream_without_new_pivots(monkeypatch):
    monkeypatch.setattr(importlib.import_module("taulike.linearize"), "MAX_PIVOT_SCAN", 300)
    messages = []
    for run in (omega_linearize, zeta_linearize):
        with pytest.raises(TooLarge) as err:
            run(_absorbing_stream(301), 2)
        messages.append(str(err.value))
        blocks, order = run(_absorbing_stream(300), 2)
        assert [b.pivot for b in blocks] == [0, 301] and len(order) == 302
    assert messages[0] == messages[1]
    assert "no new pivot within 300 stages" in messages[0]


# -- pulled runs ------------------------------------------------------------------


def _random_stream(seed: int) -> StreamPoset:
    return stream_from_finite(random_poset(30, 0.2, seed))


_RUNS = [
    *[(omega_linearize, make) for make in (omega_stream, antichain_stream)],
    *[(omega_star_linearize, make) for make in (omega_star_stream, antichain_stream)],
    *[(zeta_linearize, make) for make in (zeta_stream, lambda: zeta_stream(2), omega_stream)],
    (zeta_linearize, antichain_stream),
    *[
        (run, lambda seed=seed: _random_stream(seed))
        for run in (omega_linearize, omega_star_linearize, zeta_linearize)
        for seed in range(3)
    ],
]


@pytest.mark.parametrize("run, make", _RUNS)
@pytest.mark.parametrize("k", [1, 3, 7])
def test_a_doubled_budget_only_adds_blocks(run, make, k):
    assert run(make(), 2 * k)[0].blocks[:k] == run(make(), k)[0].blocks
    short = run(make(), elements_wanted=k)[0].blocks
    assert run(make(), elements_wanted=2 * k)[0].blocks[: len(short)] == short


def test_a_run_pulls_no_block_past_its_budget():
    asked = []

    def counted():
        bundle = OracleBundle(predecessors=lambda x: asked.append(x) or list(range(x + 1)))
        return StreamPoset(lambda s: s, lambda x, y: x <= y, oracles=bundle)

    for budget, expect in (
        ({"blocks_wanted": 0}, []),
        ({"elements_wanted": 0}, []),
        ({"blocks_wanted": 3}, [0, 1, 2]),
        ({"elements_wanted": 3}, [0, 1, 2]),
        ({"blocks_wanted": 9, "until": lambda b: b.pivot == 4}, [0, 1, 2, 3, 4]),
        ({"elements_wanted": 2, "until": lambda b: b.pivot == 4}, [0, 1]),
    ):
        asked.clear()
        blocks, order = assemble(Kind.OMEGA, omega_blocks(counted()), **budget)
        assert asked == expect == list(order) == [b.pivot for b in blocks], budget


# -- range answers ---------------------------------------------------------------

_RANGES = st.builds(range, st.integers(0, 40), st.integers(-1, 40), st.sampled_from([1, 2, 3, -1, -2, -3]))
_LISTS = st.lists(st.integers(0, 40), max_size=12)
# Id runs mix range and list parts, empty ones among them, with steps of both signs.
_ANSWERS = st.one_of(_RANGES, _LISTS, st.builds(IdRuns, st.lists(st.one_of(_RANGES, _LISTS), max_size=5)))


# How the k-th step's answer is shaped around its pivot p, given the earlier pivots.
_SHAPES = {
    "as drawn": lambda p, ans, earlier: ans,
    "without the pivot": lambda p, ans, earlier: [y for y in ans if y != p],
    "the pivot twice": lambda p, ans, earlier: [p, *ans, p],
    "absorbed ids": lambda p, ans, earlier: [*earlier, *ans],
    "a range past the pivot": lambda p, ans, earlier: range(p + 1, p + 1 + len(ans)),
    "id runs": lambda p, ans, earlier: IdRuns([ans, [p], range(p - 1, -1, -2)]),
}


def _cone_of_answers(answers: list, shape: str, listed: bool):
    """A cone whose k-th call answers ``answers[k % len(answers)]``, shaped."""
    earlier: list[int] = []

    def cone(pivot: int):
        ans = _SHAPES[shape](pivot, answers[len(earlier) % len(answers)], list(earlier))
        earlier.append(pivot)
        return list(ans) if listed else ans

    return cone


def _run_of_answers(order: list[int], answers: list, listed: bool, shape: str = "as drawn") -> list:
    """Every block of a run whose steps answer with :func:`_cone_of_answers`."""
    stream = StreamPoset(lambda s: order[s], operator.le, size=len(order))
    cone = _cone_of_answers(answers, shape, listed)
    return list(_block_run(stream, lambda pivot: (cone(pivot), BlockSide.RIGHT)))


@settings(max_examples=200, deadline=None)
@given(st.permutations(range(30)), st.lists(_ANSWERS, min_size=1, max_size=30), st.sampled_from(sorted(_SHAPES)))
def test_range_answers_give_the_blocks_of_their_listings(order, answers, shape):
    # Steps of either sign, empty and overlapping ranges, lists among them,
    # and answers that omit the pivot, repeat it, or name absorbed ids.
    run = _run_of_answers(order, answers, False, shape)
    assert run == _run_of_answers(order, answers, True, shape)
    want = brute.cone_blocks(order, _cone_of_answers(answers, shape, True))
    assert [(b.pivot, b.members) for b, _ in run] == want
    assert [seg for _, seg in run] == [brute.insertion_order(members, operator.le) for _, members in want]


@pytest.mark.parametrize(
    "make, kind, x",
    [
        (omega_stream, Kind.OMEGA, 4),
        (omega_star_stream, Kind.OMEGA_STAR, 4),
        (omega_plus_omega_star_stream, Kind.OMEGA_PLUS_OMEGA_STAR, 5),
        (lambda: make_range_gadget("perm:2,5,1,7,0,4,3,6;gap:2").stream, Kind.OMEGA_PLUS_OMEGA_STAR, 5),
    ],
)
@pytest.mark.parametrize("budget", [0, 1, 7, 500])
def test_range_answers_give_the_outputs_of_their_listings(make, kind, x, budget):
    oracles = make().oracles
    assert isinstance(oracles.predecessors(x) if kind is Kind.OMEGA else oracles.successors(x), range)
    assert linearize(make(), kind, elements=budget) == linearize(brute.listed_oracles(make()), kind, elements=budget)
    assert embed_poset(make(), kind, elements=budget) == embed_poset(brute.listed_oracles(make()), kind, elements=budget)


def _with_deadline(stream: StreamPoset, seconds: float) -> StreamPoset:
    """``stream`` with oracles that fail the test once ``seconds`` have passed.

    A run asks an oracle once per block, so a run that has gone quadratic
    stops at its deadline instead of running on for hours.
    """
    end = time.perf_counter() + seconds

    def timed(fn):
        def ask(*args):
            if time.perf_counter() > end:
                pytest.fail(f"the run was still asking its oracles after {seconds} s")
            return fn(*args)

        return ask

    bundle = stream.oracles
    stream.oracles = dataclasses.replace(bundle, **{name: timed(getattr(bundle, name)) for name in bundle.present()})
    return stream


@pytest.mark.parametrize(
    "kind, make, n",
    [
        (Kind.OMEGA, omega_stream, 200_000),
        (Kind.OMEGA_STAR, omega_star_stream, 200_000),
        (
            Kind.OMEGA_PLUS_OMEGA_STAR,
            lambda: make_range_gadget("perm:1,3,13,10,9,16,17,8,7,0,4,14,15,23,11,2,21,19,20,6,5,18,12,22").stream,
            100_000,
        ),
        *(pytest.param(Kind.ZETA, lambda v=v: zeta_stream(v), 50_000, id=f"zeta-zeta.{v}-50000") for v in range(3)),
        (Kind.ZETA, omega_stream, 50_000),
    ],
)
def test_block_runs_at_scale_run_in_seconds(kind, make, n):
    """Each range answer costs its new ids, so these runs take about a second;
    without path compression every walk is linear and each run quadratic.
    A ζ run hands its interval answers on part by part, so it jumps them too."""
    start = time.perf_counter()
    _, order = linearize(_with_deadline(make(), 5.0), kind, elements=n)
    assert time.perf_counter() - start < 5.0
    assert len(order) == n
    if kind is Kind.ZETA:
        stream = make()
        value = zigzag_decode if stream.name.startswith("zeta") else int
        assert list(order) == sorted(take(stream, n), key=value)
    elif kind is not Kind.OMEGA_PLUS_OMEGA_STAR:
        assert list(order) == list(range(n) if kind is Kind.OMEGA else range(n - 1, -1, -1))


# -- the per-layer tracer's hooks -------------------------------------------------


@pytest.mark.parametrize(
    "kind, make, reached",
    [
        (Kind.OMEGA, omega_stream, "omega_linearize"),
        (Kind.OMEGA_STAR, omega_star_stream, "omega_star_linearize"),
        (Kind.ZETA, zeta_stream, "zeta_linearize"),
        (Kind.OMEGA_PLUS_OMEGA_STAR, omega_plus_omega_star_stream, "split_linearize"),
    ],
)
def test_dispatcher_goes_through_the_rebindable_runs(monkeypatch, kind, make, reached):
    # bench/tracing.py counts runs and blocks by rebinding these module names
    module = importlib.import_module("taulike.linearize")
    calls = []
    for name in ("omega_linearize", "omega_star_linearize", "zeta_linearize", "split_linearize"):
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    module.linearize(make(), kind, elements=4)
    assert calls[:1] == [reached]


@pytest.mark.parametrize(
    "kind, make, reached",
    [
        (Kind.OMEGA, omega_stream, "embed_omega"),
        (Kind.OMEGA_STAR, omega_star_stream, "embed_omega_star"),
        (Kind.ZETA, zeta_stream, "embed_zeta"),
        (Kind.OMEGA_PLUS_OMEGA_STAR, omega_plus_omega_star_stream, "embed_omega_plus_omega_star"),
    ],
)
def test_embed_goes_through_the_rebindable_readers(monkeypatch, kind, make, reached):
    # bench/tracing.py counts embeddings by rebinding these module names
    module = importlib.import_module("taulike.embed")
    calls = []
    for name in ("embed_omega", "embed_omega_star", "embed_zeta", "embed_omega_plus_omega_star"):
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    module.embed_poset(make(), kind, elements=4)
    assert calls == [reached]


def test_the_tracer_names_resolve():
    # bench/tracing.py, loaded without installing its tracer
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for prefix, (mod_name, names) in tracing.TIMED_FUNCTIONS.items():
        module = importlib.import_module(mod_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{prefix}: {mod_name}.{name} is gone"
    assert list(tracing.ORACLES) == [f.name for f in dataclasses.fields(OracleBundle)]
    # Every method install() patches with ``self._set(Class, "name", ...)``.
    classes = {"StreamPoset": StreamPoset, "FinitePoset": importlib.import_module("taulike.poset").FinitePoset}
    patched = [
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(ast.parse(path.read_text()))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "_set"
        and isinstance(call.args[0], ast.Name)
        and call.args[0].id in classes
    ]
    assert len(patched) >= 7
    for owner, name in patched:
        assert name in vars(classes[owner]), f"{owner}.{name} is gone"
    assert isinstance(vars(classes["FinitePoset"])["from_closed"], classmethod)
