"""Finite posets, linear orders, canonical points, JSON format."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
import taulike.poset
from taulike import (
    CanonicalPoint,
    CycleError,
    FinitePoset,
    FormatError,
    Kind,
    LinearOrder,
    UnknownIdError,
    build_poset,
    is_linear_extension,
    poset_from_json_dict,
    poset_to_json_dict,
    random_poset,
)
from taulike.poset import MAX_DOCUMENT_ELEMENTS, MAX_DOCUMENT_PAIRS, POSET_SCHEMA, order_axiom_faults


# -- construction and closure -------------------------------------------


def test_build_antichain_reflexive_only():
    p = build_poset([0, 1], [])
    assert p.leq == frozenset({(0, 0), (1, 1)})


def test_build_transitivity_forced():
    p = build_poset([0, 1, 2], [(0, 1), (1, 2)])
    assert (0, 2) in p.leq
    assert p.le(0, 2) and not p.le(2, 0)


def test_build_cycle_rejected():
    with pytest.raises(CycleError):
        build_poset([0, 1], [(0, 1), (1, 0)])


def test_build_long_cycle_rejected():
    with pytest.raises(CycleError):
        build_poset([0, 1, 2], [(0, 1), (1, 2), (2, 0)])


def test_build_dangling_pair_rejected():
    with pytest.raises(UnknownIdError):
        build_poset([0, 1], [(0, 5)])


def test_build_duplicate_ids_rejected():
    with pytest.raises(UnknownIdError):
        build_poset([0, 1, 1], [])


def test_build_negative_id_rejected():
    with pytest.raises(UnknownIdError):
        build_poset([-1, 0], [])


def test_ids_lie_below_two_to_the_63():
    assert build_poset([2**63 - 1, 3], [(3, 2**63 - 1)]).le(3, 2**63 - 1)
    for bad in (2**63, 2**70):
        with pytest.raises(UnknownIdError):
            build_poset([bad, 3], [])
        with pytest.raises(UnknownIdError):
            poset_from_json_dict({"elements": [bad, 3], "relation": [[3, bad]]})


@given(
    ids=st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=24),
    picks=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=40),
    repeats=st.lists(st.integers(0, 39), max_size=8),
    reversals=st.lists(st.integers(0, 39), max_size=2),
)
# two cycles; a walk from index 0 closes {0, 3} first and {1, 2} last
@example(ids=[0, 1, 2, 3], picks=[(0, 3), (3, 0), (1, 2), (2, 1), (2, 0)], repeats=[], reversals=[])
def test_build_closure_matches_naive(ids, picks, repeats, reversals):
    """Closure and the CycleError witness against repeated composition, with
    ids enumerated out of numeric order, self pairs and repeated pairs; a
    reversed copy of a drawn pair makes cycles common."""
    drawn = [(ids[a % len(ids)], ids[b % len(ids)]) for a, b in picks] if ids else []
    pairs = drawn + [(x, x) for x in ids[::3]]
    pairs += [pairs[k] for k in repeats if k < len(pairs)]
    pairs += [drawn[k % len(drawn)][::-1] for k in reversals if drawn]
    witness = brute.cycle_witness(ids, pairs)
    if witness:
        with pytest.raises(CycleError) as raised:
            build_poset(ids, pairs)
        assert str(raised.value) == f"elements {witness[0]} and {witness[1]} are mutually below each other"
    else:
        assert build_poset(ids, pairs).leq == frozenset(brute.closure_pairs(ids, pairs))


def test_build_poset_skips_the_axiom_check_that_the_constructor_makes(monkeypatch):
    calls = []

    def spy(m):
        calls.append(m.shape)
        return order_axiom_faults(m)

    monkeypatch.setattr(taulike.poset, "order_axiom_faults", spy)
    p = build_poset([0, 1, 2], [(0, 1), (1, 2)])
    assert calls == []
    assert FinitePoset(p.elements, p.matrix) == p
    assert calls == [(3, 3)]


def test_cone_queries_match_brute_force():
    p = build_poset([0, 1, 2, 3, 4], [(0, 2), (1, 2), (2, 3)])
    universe = p.elements
    for x in universe:
        assert p.predecessors(x) == brute.predecessors(universe, p.le, x)
        assert p.successors(x) == brute.successors(universe, p.le, x)
    for x in universe:
        for y in universe:
            assert p.interval(x, y) == brute.interval(universe, p.le, x, y)


def test_interval_is_symmetric():
    p = build_poset([0, 1, 2], [(0, 1), (1, 2)])
    assert p.interval(2, 0) == p.interval(0, 2) == [0, 1, 2]
    assert p.interval(1, 1) == [1]


def test_restrict_keeps_induced_order():
    p = build_poset([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    q = p.restrict([0, 2, 3])
    assert q.elements == (0, 2, 3)
    assert q.le(0, 3) and q.le(2, 3) and not q.le(3, 0)


def test_covers_of_chain_are_steps():
    p = build_poset([0, 1, 2], [(0, 1), (1, 2)])
    assert sorted(p.covers()) == [(0, 1), (1, 2)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 40),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_matrix_queries_match_brute_force(n, density, seed, data):
    p = random_poset(n, density, seed)
    universe = p.elements
    truth = p.leq
    le = lambda a, b: (a, b) in truth
    assert all(p.le(a, b) == le(a, b) for a in universe for b in universe)
    for x in universe:
        assert p.predecessors(x) == brute.predecessors(universe, le, x)
        assert p.successors(x) == brute.successors(universe, le, x)
        for y in universe:
            assert p.interval(x, y) == brute.interval(universe, le, x, y)
    covers = p.covers()
    assert covers == brute.covers(universe, le)
    assert brute.closure_pairs(universe, covers) == truth
    # restrict keeps the order given, and its queries list in that order
    keep = data.draw(st.permutations(universe))[: data.draw(st.integers(0, n))]
    q = p.restrict(keep)
    assert q.elements == tuple(keep)
    assert q.leq == {(a, b) for a, b in truth if a in keep and b in keep}
    for x in keep:
        assert q.predecessors(x) == [y for y in keep if le(y, x)]
        assert q.successors(x) == [y for y in keep if le(x, y)]


def test_constructor_rejects_bad_matrices():
    eye = np.eye(3, dtype=bool)
    with pytest.raises(FormatError, match="shape"):
        FinitePoset((0, 1, 2), np.eye(2, dtype=bool))
    m = eye.copy()
    m[1, 1] = False
    with pytest.raises(FormatError, match="not reflexive at 1"):
        FinitePoset((0, 1, 2), m)
    m = eye.copy()
    m[0, 2] = m[2, 0] = True
    with pytest.raises(CycleError, match="elements 0 and 2 are mutually below each other"):
        FinitePoset((0, 1, 2), m)
    m = eye.copy()
    m[0, 1] = m[1, 2] = True
    with pytest.raises(FormatError, match="not transitive at 0 <= 1 <= 2"):
        FinitePoset((0, 1, 2), m)


def test_matrix_is_read_only_and_owned():
    given_matrix = np.eye(2, dtype=bool)
    p = FinitePoset((0, 1), given_matrix)
    with pytest.raises(ValueError):
        p.matrix[0, 1] = True
    given_matrix[0, 1] = True  # the poset keeps its own copy
    assert not p.le(0, 1)


def test_equality_and_hash_follow_elements_and_relation():
    a = build_poset([0, 1, 2], [(0, 1), (1, 2)])
    b = FinitePoset.from_closed([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != build_poset([0, 1, 2], [(0, 1)])
    assert a != build_poset([1, 0, 2], [(0, 1), (1, 2)])  # element order counts
    assert len({a, b}) == 1


def test_unknown_element_queries_raise():
    p = build_poset([0], [])
    with pytest.raises(UnknownIdError):
        p.le(0, 9)
    with pytest.raises(UnknownIdError):
        p.predecessors(9)


# -- small shapes ------------------------------------------------------------


def chain(n):
    return build_poset(range(n), [(i, i + 1) for i in range(n - 1)])


# -- linear orders ----------------------------------------------------------


def test_linear_order_rejects_duplicates():
    with pytest.raises(FormatError):
        LinearOrder((0, 1, 0))


def test_linear_order_lookup():
    order = LinearOrder((4, 2, 7))
    assert order.index_of(2) == 1
    assert order.precedes(4, 7)
    assert not order.precedes(7, 2)
    with pytest.raises(UnknownIdError):
        order.index_of(99)


def test_signed_positions_need_anchor():
    plain = LinearOrder((0, 1, 2))
    with pytest.raises(FormatError):
        plain.signed_position(0)
    anchored = LinearOrder((5, 6, 7), anchor_index=1)
    assert [anchored.signed_position(x) for x in (5, 6, 7)] == [-1, 0, 1]


def test_is_linear_extension_chain_true():
    assert is_linear_extension([0, 1, 2], chain(3)).ok


def test_is_linear_extension_reversed_chain_false():
    check = is_linear_extension([1, 0], chain(2))
    assert not check.ok and check.code == "order-violation"


def test_is_linear_extension_pinned_three_element():
    p = build_poset([0, 1, 2], [(2, 0)])
    assert is_linear_extension([2, 0, 1], p).ok
    # cross-checked against the full brute-force extension list
    assert (2, 0, 1) in brute.extensions_by_permutation(p.elements, p.le)


def test_is_linear_extension_element_mismatch():
    check = is_linear_extension([0, 1], chain(3))
    assert not check.ok and check.code == "element-mismatch"


# -- canonical points --------------------------------------------------------


def _points(kind):
    if kind in (Kind.OMEGA, Kind.OMEGA_STAR):
        return [CanonicalPoint(kind, k) for k in range(11)]
    if kind is Kind.ZETA:
        return [CanonicalPoint(kind, k) for k in range(-10, 11)]
    return [CanonicalPoint(kind, (s, k)) for s in (0, 1) for k in range(11)]


@pytest.mark.parametrize("kind", list(Kind))
def test_canonical_points_totally_ordered(kind):
    pts = _points(kind)
    for a in pts:
        for b in pts:
            assert (a <= b) or (b <= a)
            if (a <= b) and (b <= a):
                assert a == b
            for c in pts:
                if a <= b and b <= c:
                    assert a <= c


def test_canonical_omega_ascending_and_star_descending():
    assert CanonicalPoint(Kind.OMEGA, 2) < CanonicalPoint(Kind.OMEGA, 5)
    assert CanonicalPoint(Kind.OMEGA_STAR, 5) < CanonicalPoint(Kind.OMEGA_STAR, 2)


def test_canonical_two_ended_shape():
    low = CanonicalPoint(Kind.OMEGA_PLUS_OMEGA_STAR, (0, 3))
    high_far = CanonicalPoint(Kind.OMEGA_PLUS_OMEGA_STAR, (1, 7))
    high_near = CanonicalPoint(Kind.OMEGA_PLUS_OMEGA_STAR, (1, 2))
    assert low < high_far < high_near


def test_canonical_zeta_signed():
    assert CanonicalPoint(Kind.ZETA, -3) < CanonicalPoint(Kind.ZETA, 0) < CanonicalPoint(Kind.ZETA, 2)


def test_canonical_cross_kind_comparison_rejected():
    with pytest.raises(TypeError):
        CanonicalPoint(Kind.OMEGA, 1) < CanonicalPoint(Kind.ZETA, 1)


def test_canonical_bad_coordinates_rejected():
    with pytest.raises(FormatError):
        CanonicalPoint(Kind.OMEGA, -1)
    with pytest.raises(FormatError):
        CanonicalPoint(Kind.OMEGA_PLUS_OMEGA_STAR, (2, 0))
    with pytest.raises(FormatError):
        CanonicalPoint(Kind.ZETA, (0, 1))


# -- JSON --------------------------------------------------------------------


def test_poset_json_round_trip():
    p = build_poset([0, 1, 2, 3], [(0, 1), (1, 3), (2, 3)])
    doc = poset_to_json_dict(p)
    assert doc["schema"] == POSET_SCHEMA
    again = poset_from_json_dict(json.loads(json.dumps(doc)))
    assert again.elements == p.elements and again.leq == p.leq


def test_poset_json_relation_is_closed_on_load():
    doc = {"elements": [0, 1, 2], "relation": [[0, 1], [1, 2]]}
    p = poset_from_json_dict(doc)
    assert p.le(0, 2)


def test_poset_json_unknown_keys_rejected():
    doc = {"elements": [0], "relation": [], "colour": "red"}
    with pytest.raises(FormatError):
        poset_from_json_dict(doc)


def test_poset_json_missing_keys_rejected():
    with pytest.raises(FormatError):
        poset_from_json_dict({"elements": [0]})


def test_poset_json_bad_entries_rejected():
    with pytest.raises(FormatError):
        poset_from_json_dict({"elements": [0, "x"], "relation": []})
    with pytest.raises(FormatError):
        poset_from_json_dict({"elements": [0, 1], "relation": [[0, 1, 2]]})
    with pytest.raises(FormatError):
        poset_from_json_dict({"elements": [True], "relation": []})


def test_poset_json_cycle_detected_on_load():
    with pytest.raises(CycleError):
        poset_from_json_dict({"elements": [0, 1], "relation": [[0, 1], [1, 0]]})


def _largest_document(name: str) -> dict:
    n = MAX_DOCUMENT_ELEMENTS
    if name == "dag":  # each pair goes up in id order
        pairs = np.sort(np.random.default_rng(19).integers(0, n, (MAX_DOCUMENT_PAIRS, 2)), axis=1).tolist()
    else:
        pairs = {
            "chain": [[i, i + 1] for i in range(n - 1)],
            "antichain": [],
            "cycle": [[i, (i + 1) % n] for i in range(n)],
        }[name]
    return {"elements": list(range(n)), "relation": pairs}


@pytest.mark.parametrize("name", ["chain", "antichain", "dag", "cycle"])
def test_documents_at_the_size_guard_load_in_seconds(name):
    """The guard's largest documents load in time that grows with the pairs, not
    cubically with the elements; the cycle is found and named as fast."""
    doc = _largest_document(name)
    start = time.perf_counter()
    if name == "cycle":
        with pytest.raises(CycleError, match="^elements 0 and 1 are mutually below each other$"):
            poset_from_json_dict(doc)
    else:
        p = poset_from_json_dict(doc)
    assert time.perf_counter() - start < 5.0
    n = MAX_DOCUMENT_ELEMENTS
    if name == "chain":
        assert np.array_equal(p.matrix, np.triu(np.ones((n, n), dtype=bool)))
    elif name == "antichain":
        assert np.array_equal(p.matrix, np.eye(n, dtype=bool))
    elif name == "dag":  # the closure stays on and above the diagonal
        lower, upper = np.array(doc["relation"]).T
        assert p.matrix[lower, upper].all() and p.matrix.diagonal().all()
        assert not np.tril(p.matrix, -1).any()


@settings(max_examples=40)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] < p[1]),
        max_size=10,
    )
)
def test_poset_json_round_trip_random(pairs):
    p = build_poset(range(6), pairs)
    assert poset_from_json_dict(poset_to_json_dict(p)).leq == p.leq
