"""Generated reverse-order instances and their decoders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from taulike import (
    FormatError,
    HorizonTooSmall,
    Kind,
    LinearOrder,
    MissingPartError,
    NotAnExtension,
    NotInjective,
    PrefixTooShort,
    UnknownIdError,
    all_linear_extensions,
    decode_false_stages,
    decode_range,
    embed_poset,
    fuf_decode,
    is_linear_extension,
    make_embed_gadget,
    make_fuf_gadget,
    make_range_gadget,
    make_stage_order,
    split_linearize,
    szpilrajn_extend,
    validate_oracles,
)
from taulike.gadgets import EmbedGadget, FunctionSpec, _stage_le, _witness_times, _witness_table
from taulike.kinds import FinSide
from taulike.streams import take


# -- function specs -----------------------------------------------------------


def test_spec_identity():
    f = FunctionSpec.parse("identity")
    assert f.values(4) == [0, 1, 2, 3]
    assert f.false_stages() == frozenset()


def test_spec_perm():
    f = FunctionSpec.parse("perm:1,0,2")
    assert f.values(5) == [1, 0, 2, 3, 4]
    assert f.false_stages() == frozenset({0})


def test_spec_swap():
    f = FunctionSpec.parse("swap:2")
    # swaps 2k and 2k+1 inside the head window
    assert f.values(4) == [1, 0, 3, 2]
    assert f.false_stages() == frozenset({0, 2})


def test_spec_gap_tail():
    f = FunctionSpec.parse("perm:1,0,2;gap:5")
    assert f.values(5) == [1, 0, 2, 8, 9]
    assert not f.in_range(5)
    assert f.in_range(2) and f.in_range(8)


def test_spec_describe_round_trip():
    for text in ("identity", "perm:2,0,1", "swap:3", "perm:1,0;gap:4"):
        f = FunctionSpec.parse(text)
        assert FunctionSpec.parse(f.describe()) == f


def test_spec_rejects_non_permutation_head():
    with pytest.raises(NotInjective):
        FunctionSpec((0, 0, 1))
    with pytest.raises(NotInjective):
        FunctionSpec((0, 5))  # head must cover 0..len-1


def test_spec_rejects_bad_text():
    with pytest.raises(FormatError):
        FunctionSpec.parse("nonsense")
    with pytest.raises(FormatError):
        FunctionSpec.parse("perm:a,b")
    with pytest.raises(FormatError):
        FunctionSpec.parse("identity;gap:-2")


def test_spec_witnesses():
    f = FunctionSpec.parse("perm:2,0,1")
    # f = [2,0,1,3,...]: stage 0 undercut at 1; stage 1,2 never
    assert f.witness_after(0) == 1
    assert f.witness_after(1) is None
    assert f.witness_after(2) is None


@settings(max_examples=80)
@given(st.permutations(list(range(7))))
def test_witness_table_matches_naive_scan(head):
    values = list(head) + [7, 8, 9]
    table = _witness_table(values)
    for n in range(len(values)):
        naive = next(
            (k for k in range(n + 1, len(values)) if values[k] < values[n]), None
        )
        assert table[n] == naive


# -- the stage order ------------------------------------------------------------


@settings(max_examples=80)
@given(st.lists(st.integers(0, 40), unique=True, max_size=12))
def test_stage_rule_matches_the_defining_clauses(values):
    t = _witness_times(_witness_table(values))
    for n in range(len(values)):
        for m in range(len(values)):
            assert _stage_le(n, m, t[n], t[m]) == brute.stage_leq(values, n, m), (values, n, m)
    n, m = np.indices((len(values),) * 2)
    t_arr = np.array(t, dtype=np.int64)
    truth = [[brute.stage_leq(values, a, b) for b in range(len(values))] for a in range(len(values))]
    assert _stage_le(n, m, t_arr[n], t_arr[m]).tolist() == truth


def test_stage_order_identity_is_reversed_chain():
    a = make_stage_order([0, 1, 2])
    for n in range(3):
        for m in range(3):
            assert a.leq(n, m) == (m <= n)


def test_stage_order_pinned_three_stages():
    a = make_stage_order([1, 0, 2])
    assert a.ascending() == [0, 2, 1]
    assert a.leq(0, 2) and a.leq(2, 1) and a.leq(0, 1)
    assert not a.leq(1, 0) and not a.leq(2, 0)
    assert a.ground_truth_false == frozenset({0})


def test_stage_order_single_point():
    a = make_stage_order([5])
    assert a.size == 1 and a.leq(0, 0)
    assert a.ground_truth_false == frozenset()


def test_stage_order_rejects_bad_input():
    with pytest.raises(NotInjective):
        make_stage_order([3, 3])
    with pytest.raises(FormatError):
        make_stage_order([1, -2])
    with pytest.raises(UnknownIdError):
        make_stage_order([1, 0]).leq(0, 5)


@settings(max_examples=60)
@given(st.permutations(list(range(6))))
def test_stage_order_matches_defining_clauses(values):
    a = make_stage_order(values)
    for n in range(6):
        for m in range(6):
            assert a.leq(n, m) == brute.stage_leq(values, n, m), (values, n, m)


@settings(max_examples=60)
@given(st.permutations(list(range(6))))
def test_stage_order_is_linear(values):
    a = make_stage_order(values)
    idx = range(6)
    for n in idx:
        for m in idx:
            assert a.leq(n, m) or a.leq(m, n)
            if n != m:
                assert not (a.leq(n, m) and a.leq(m, n))
    asc = a.ascending()
    pos = {n: i for i, n in enumerate(asc)}
    for n in idx:
        for m in idx:
            if a.leq(n, m):
                assert pos[n] <= pos[m]


@settings(max_examples=40)
@given(st.permutations(list(range(5))), st.integers(5, 9))
def test_stage_order_prefix_stable(head, extra):
    short = make_stage_order(head)
    long = make_stage_order(list(head) + [extra, extra + 1])
    for n in range(5):
        for m in range(5):
            assert short.leq(n, m) == long.leq(n, m)


def test_stage_order_ground_truth_matches_naive():
    values = [3, 1, 4, 0, 2, 5, 6]
    a = make_stage_order(values)
    naive = {n for n in range(len(values)) if brute.stage_false(values, n)}
    assert a.ground_truth_false == naive


# -- the range gadget --------------------------------------------------------------


def test_range_gadget_identity_all_true():
    g = make_range_gadget("identity")
    side = g.stream.oracles.side
    assert all(side(2 * n) is FinSide.FIN_SUCC for n in range(10))


def test_range_gadget_pinned_sides():
    g = make_range_gadget("perm:1,0,2")
    side = g.stream.oracles.side
    assert side(0) is FinSide.FIN_PRED  # a_0: the lone false stage
    assert all(side(2 * n) is FinSide.FIN_SUCC for n in range(1, 8))
    assert all(side(2 * n + 1) is FinSide.FIN_SUCC for n in range(8))
    assert g.ground_truth_false() == frozenset({0})


def test_range_gadget_b_chain():
    g = make_range_gadget("identity")
    succ = g.stream.oracles.successors
    for n in range(5):
        assert list(succ(2 * n + 1)) == [2 * k + 1 for k in range(n + 1)]
    # B is a descending chain under the id order
    assert g.stream.leq(7, 3) and not g.stream.leq(3, 7)


def test_range_gadget_halves_are_incomparable():
    # a disjoint sum: no a sits below any b in the poset itself; only the
    # split extension pushes false stages under the whole b chain
    g = make_range_gadget("perm:1,0,2")
    for n in range(5):
        for m in range(5):
            assert not g.stream.leq(2 * n, 2 * m + 1)
            assert not g.stream.leq(2 * m + 1, 2 * n)


def test_range_gadget_enumeration_interleaves():
    g = make_range_gadget("identity")
    assert take(g.stream, 6) == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("text", ["identity", "perm:1,0,2", "swap:1", "perm:2,0,1;gap:3"])
def test_range_gadget_leq_matches_stage_clauses(text):
    g = make_range_gadget(text)
    f = FunctionSpec.parse(text)
    values = f.values(12)
    for n in range(12):
        for m in range(12):
            assert g.stream.leq(2 * n, 2 * m) == brute.stage_leq(values, n, m)
            assert g.stream.leq(2 * n + 1, 2 * m + 1) == (n >= m)
            # the two summands never mix
            assert not g.stream.leq(2 * n, 2 * m + 1)
            assert not g.stream.leq(2 * m + 1, 2 * n)


@pytest.mark.parametrize("text", ["identity", "perm:1,0,2", "swap:2"])
def test_range_gadget_block_hook_matches_scalar(text):
    g = make_range_gadget(text)
    ids = take(g.stream, 30)
    m = g.stream.relation_matrix(ids)
    for i, x in enumerate(ids):
        for j, y in enumerate(ids):
            assert bool(m[i, j]) == g.stream.leq(x, y), (x, y)


@pytest.mark.parametrize("text", ["identity", "perm:1,0,2", "swap:1", "perm:2,0,1;gap:2"])
def test_range_gadget_oracles_validate(text):
    report = validate_oracles(make_range_gadget(text).stream, 80)
    assert report.ok, report.to_json_dict()


ORACLE_SPECS = [
    "identity", "swap:3", "perm:4,3,2,1,0", "perm:1,0,2;gap:5",
    "perm:2,5,1,7,0,4,3,6;gap:2", "perm:3,0,5,1,7,2,4,6,9,8",
]


def _listed(ans):
    """An oracle answer as the list it stands for; an undefined one stays ``None``."""
    return None if ans is None else list(ans)


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_range_gadget_oracles_match_their_definitions(text):
    f = FunctionSpec.parse(text)
    bound = 101 + f.window  # past every stage an answer about ids below 201 can list
    values = f.values(bound)
    le = {(n, m): brute.stage_leq(values, n, m) for n in range(bound) for m in range(bound)}
    undercut = [brute.stage_false(values, n) for n in range(bound)]
    oracles = make_range_gadget(f).stream.oracles

    def stages(keep):
        return [2 * p for p in range(bound) if keep(p)]

    for x in range(201):
        n = x // 2
        if x % 2:
            assert oracles.predecessors(x) is None
            assert list(oracles.successors(x)) == list(range(1, x + 1, 2))
        else:
            assert _listed(oracles.predecessors(x)) == (stages(lambda p: le[p, n]) if undercut[n] else None), x
            assert _listed(oracles.successors(x)) == (None if undercut[n] else stages(lambda p: le[n, p])), x
    for x in range(201):
        for y in range(201):
            got = _listed(oracles.interval(x, y))
            a, b = x // 2, y // 2
            if x % 2 != y % 2:
                assert got == []
            elif x % 2:
                assert got == list(range(min(x, y), max(x, y) + 1, 2))
            elif not (le[a, b] or le[b, a]):
                assert got == []
            else:
                low, high = (a, b) if le[a, b] else (b, a)
                if undercut[low] and not undercut[high]:
                    assert got is None
                else:
                    assert got == stages(lambda p: le[low, p] and le[p, high]), (x, y)


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_embed_gadget_predecessors_match_their_definition(text):
    f = FunctionSpec.parse(text)
    values = f.values(101 + f.window)
    oracles = make_embed_gadget(f).stream.oracles
    for m in range(101):
        fans = [EmbedGadget.fan_id(n, j) for n, v in enumerate(values) if v <= m for j in range(n + 1)]
        assert list(oracles.predecessors(EmbedGadget.top_id(m))) == fans, m


def test_range_gadget_rejects_non_injective():
    with pytest.raises(NotInjective):
        make_range_gadget(FunctionSpec((0, 0, 1)))


def test_range_gadget_refuses_negative_stage_ids():
    s = make_range_gadget("swap:2").stream
    for call in (lambda: s.leq(-2, 0), lambda: s.leq(0, -4), lambda: s.oracles.side(-2)):
        with pytest.raises(UnknownIdError):
            call()


@pytest.mark.parametrize("make", [make_range_gadget, make_embed_gadget])
def test_gadgets_refuse_negative_ids_in_leq_and_the_hook(make):
    s = make("swap:2").stream
    calls = [
        lambda: s.leq(-1, 0),
        lambda: s.leq(0, -1),
        lambda: s.leq(-2, 0),
        lambda: s.leq(-3, -1),
        lambda: s.relation_matrix([0, -1, 2]),
        lambda: s.relation_matrix([0, 2], [-2]),
        lambda: s.relation_matrix([-1], [0, 1]),
    ]
    for call in calls:
        with pytest.raises(UnknownIdError):
            call()


@settings(max_examples=60, deadline=None)
@given(
    head=st.one_of(
        st.integers(0, 5).map(lambda k: FunctionSpec.parse(f"swap:{k}").head),
        st.integers(0, 8).flatmap(lambda w: st.permutations(range(w))),
    ),
    gap=st.integers(0, 3),
)
@example(head=(), gap=0)
def test_range_gadget_cones_match_the_stage_rule_through_the_tail(head, gap):
    f = FunctionSpec(tuple(head), gap)
    bound = 3 * f.window + 4  # past the head, into the tail
    values = f.values(bound)
    oracles = make_range_gadget(f).stream.oracles
    for n in range(bound):
        if brute.stage_false(values, n):
            below = [2 * p for p in range(bound) if brute.stage_leq(values, p, n)]
            assert (_listed(oracles.predecessors(2 * n)), oracles.successors(2 * n)) == (below, None), n
        else:
            above = [2 * p for p in range(n + 1) if brute.stage_leq(values, n, p)]
            assert (oracles.predecessors(2 * n), _listed(oracles.successors(2 * n))) == (None, above), n


# -- false-stage decoding -------------------------------------------------------------


def _decode(text: str, s: int, horizon: int):
    g = make_range_gadget(text)
    order = split_linearize(g.stream, 2 * horizon)
    return decode_false_stages(order, s)


def test_decode_false_stages_pinned():
    out = _decode("perm:1,0,2", 1, 40)
    assert out.stages == frozenset({0})
    assert out.horizon >= 1


def test_decode_false_stages_identity_empty():
    assert _decode("identity", 10, 40).stages == frozenset()


def test_decode_false_stages_zero_requested():
    assert _decode("perm:1,0,2", 0, 10).stages == frozenset()


def test_decode_false_stages_exact_below_horizon():
    f = FunctionSpec.parse("swap:3")
    out = _decode("swap:3", 6, 50)
    assert out.stages == {n for n in f.false_stages() if n < 6}


def test_decode_false_stages_horizon_guard():
    g = make_range_gadget("identity")
    order = split_linearize(g.stream, 6)  # only b_0..b_2 present
    with pytest.raises(HorizonTooSmall):
        decode_false_stages(order, 50)


def test_decode_false_stages_needs_the_a_side():
    # an order with b's but missing a_1 cannot answer s=2
    order = LinearOrder((0, 1, 3, 5))
    with pytest.raises(HorizonTooSmall):
        decode_false_stages(order, 2)


def test_decoded_json_shape():
    out = _decode("perm:1,0,2", 2, 30)
    doc = out.to_json_dict()
    assert doc["stages"] == [0] and doc["horizon"] == out.horizon


# -- the embedding gadget ---------------------------------------------------------------


def test_embed_gadget_ids_round_trip():
    from taulike.gadgets import _fan_coords, _fan_id

    for n in range(10):
        for j in range(n + 1):
            x = _fan_id(n, j)
            assert x % 2 == 1
            assert _fan_coords(x) == (n, j)


def test_embed_gadget_f0_below_everything():
    g = make_embed_gadget("identity")
    b00 = EmbedGadget.fan_id(0, 0)
    for m in range(8):
        assert g.stream.leq(b00, EmbedGadget.top_id(m))


def test_embed_gadget_pinned_predecessors():
    g = make_embed_gadget("perm:1,0,2")
    preds = g.stream.oracles.predecessors(EmbedGadget.top_id(0))
    assert list(preds) == [EmbedGadget.fan_id(1, 0), EmbedGadget.fan_id(1, 1)]


def test_embed_gadget_fans_minimal():
    g = make_embed_gadget("perm:1,0,2")
    for n in range(4):
        for j in range(n + 1):
            assert g.stream.oracles.predecessors(EmbedGadget.fan_id(n, j)) == [
                EmbedGadget.fan_id(n, j)
            ]


def test_embed_gadget_tops_antichain():
    g = make_embed_gadget("identity")
    assert not g.stream.leq(EmbedGadget.top_id(0), EmbedGadget.top_id(1))
    assert not g.stream.leq(EmbedGadget.top_id(1), EmbedGadget.top_id(0))


@pytest.mark.parametrize("text", ["identity", "perm:1,0,2", "swap:1", "perm:2,0,1;gap:2"])
def test_embed_gadget_oracles_validate(text):
    report = validate_oracles(make_embed_gadget(text).stream, 80)
    assert report.ok, report.to_json_dict()


@pytest.mark.parametrize("text", ["identity", "perm:1,0,2", "swap:2;gap:1"])
def test_embed_gadget_block_hook_matches_scalar(text):
    g = make_embed_gadget(text)
    ids = take(g.stream, 40)
    m = g.stream.relation_matrix(ids)
    for i, x in enumerate(ids):
        for j, y in enumerate(ids):
            assert bool(m[i, j]) == g.stream.leq(x, y), (x, y)


# -- range decoding -------------------------------------------------------------------


def _range_pipeline(text: str, m: int, budget: int = 64):
    g = make_embed_gadget(text)
    emb = embed_poset(g.stream, Kind.OMEGA, elements=budget)
    f = FunctionSpec.parse(text)
    return decode_range(emb, f.values(budget), m)


def test_decode_range_pinned_true():
    assert _range_pipeline("perm:1,0,2", 0) is True


def test_decode_range_pinned_false_needs_gap():
    assert _range_pipeline("perm:1,0,2;gap:5", 4) is False


def test_decode_range_first_value_true():
    assert _range_pipeline("perm:2,0,1", 2) is True


def test_decode_range_prefix_too_short():
    g = make_embed_gadget("identity")
    emb = embed_poset(g.stream, Kind.OMEGA, elements=64)
    with pytest.raises(PrefixTooShort):
        decode_range(emb, [0, 1], 7)


def test_decode_range_unknown_top():
    g = make_embed_gadget("identity")
    emb = embed_poset(g.stream, Kind.OMEGA, elements=10)
    with pytest.raises(UnknownIdError):
        decode_range(emb, list(range(50)), 40)


def test_decode_range_refuses_a_missing_top_then_a_wrong_kind():
    from taulike import embed_omega_star, embed_zeta

    short = embed_poset(make_embed_gadget("identity").stream, Kind.OMEGA, elements=10)
    with pytest.raises(UnknownIdError, match=r"^embedding does not cover the top element for 40$"):
        decode_range(short, list(range(50)), 40)
    order = LinearOrder((0, 1, 2, 3), anchor_index=1)
    for emb, name in ((embed_zeta(order), "zeta"), (embed_omega_star(order), "omega-star")):
        with pytest.raises(FormatError, match=rf"^range decoding needs an omega embedding, got {name}$"):
            decode_range(emb, list(range(50)), 1)
        # a missing top is named first, whatever the kind
        with pytest.raises(UnknownIdError, match=r"^embedding does not cover the top element for 2$"):
            decode_range(emb, list(range(50)), 2)


@pytest.mark.parametrize("m", range(8))
def test_decode_range_matches_membership(m):
    f = FunctionSpec.parse("perm:3,1,0,2;gap:2")
    got = _range_pipeline("perm:3,1,0,2;gap:2", m, budget=220)
    assert got == f.in_range(m)


# -- finite union gadgets ---------------------------------------------------------------


def test_fuf_single_empty_set():
    g = make_fuf_gadget([set()])
    assert g.base.size == 1
    assert g.top_markers == (0,)
    assert fuf_decode(szpilrajn_extend(g.base), g) == 0


def test_fuf_pinned_two_parts():
    g = make_fuf_gadget([{"x00"}, {"x10", "x11"}])
    assert g.base.size == 5
    x00, m0, x10, x11, m1 = 0, 1, 2, 3, 4
    assert g.base.le(x00, m0) and g.base.le(x10, m1) and g.base.le(x11, m1)
    assert not g.base.le(x00, m1) and not g.base.le(m0, m1)
    strict = [(a, b) for (a, b) in g.base.leq if a != b]
    assert sorted(strict) == [(0, 1), (2, 4), (3, 4)]


def test_fuf_zeta_variant_three_chain():
    g = make_fuf_gadget([1], variant=Kind.ZETA)
    lo, x, hi = g.bottom_markers[0], g.parts[0][0], g.top_markers[0]
    assert g.base.le(lo, x) and g.base.le(x, hi) and g.base.le(lo, hi)
    assert g.base.size == 3


def test_fuf_zeta_empty_part_keeps_marker_pair():
    g = make_fuf_gadget([0], variant=Kind.ZETA)
    lo, hi = g.bottom_markers[0], g.top_markers[0]
    assert g.base.size == 2 and g.base.le(lo, hi)


def test_fuf_omega_star_is_dual():
    up = make_fuf_gadget([2, 1])
    down = make_fuf_gadget([2, 1], variant=Kind.OMEGA_STAR)
    assert up.base.size == down.base.size
    # markers sit below their parts in the dual
    m0 = down.top_markers[0]
    for x in down.parts[0]:
        assert down.base.le(m0, x)


def test_fuf_rejects_empty_profile_and_junk():
    with pytest.raises(MissingPartError):
        make_fuf_gadget([])
    with pytest.raises(FormatError):
        make_fuf_gadget([-1])
    with pytest.raises(FormatError):
        make_fuf_gadget([1], variant="diagonal")


def test_fuf_decode_pinned():
    g = make_fuf_gadget([{"x00"}, {"x10", "x11"}])
    order = LinearOrder((0, 1, 2, 3, 4))
    assert fuf_decode(order, g) == 4
    assert g.union_size == 3


def test_fuf_decode_bound_on_all_extensions_omega():
    g = make_fuf_gadget([1, 1])
    for order in all_linear_extensions(g.base):
        assert fuf_decode(order, g) >= g.union_size


def test_fuf_decode_bound_on_all_extensions_zeta():
    g = make_fuf_gadget([1, 1], variant=Kind.ZETA)
    for order in all_linear_extensions(g.base):
        assert fuf_decode(order, g) >= g.union_size


def test_fuf_decode_bound_three_singletons():
    # three two-chains: 90 interleavings, bound holds in each
    g = make_fuf_gadget([1, 1, 1])
    orders = all_linear_extensions(g.base)
    assert len(orders) == 90
    assert all(fuf_decode(o, g) >= 3 for o in orders)


def test_fuf_decode_rejects_non_extension():
    g = make_fuf_gadget([{"x"}])
    with pytest.raises(NotAnExtension):
        fuf_decode(LinearOrder((1, 0)), g)
    with pytest.raises(NotAnExtension):
        fuf_decode(LinearOrder((0,)), g)


def test_fuf_stream_round_trip_through_linearizer():
    from taulike import omega_linearize

    g = make_fuf_gadget([2, 3, 1])
    _, order = omega_linearize(g.stream(), None)
    assert is_linear_extension(order, g.base).ok
    assert fuf_decode(order, g) >= g.union_size


def test_fuf_sets_given_as_iterables_are_deduplicated():
    g = make_fuf_gadget([["a", "a", "b"]])
    assert len(g.parts[0]) == 2
