"""The brute-force extension enumerator, kind reports, random generators."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import brute
from brute import antichain_poset, chain_poset, fence_poset
from taulike import (
    Kind,
    TaulikeError,
    TooLarge,
    check_kinds,
    check_tau_like,
    is_linear_extension,
    make_embed_gadget,
    make_fuf_gadget,
    make_range_gadget,
    random_poset,
    szpilrajn_extend,
    validate_oracles,
)
from taulike.streams import (
    STREAM_FAMILIES,
    OracleBundle,
    StreamPoset,
    omega_plus_omega_star_stream,
    omega_stream,
    stream_from_finite,
    take,
)


# -- brute-force extension enumeration ----------------------------------------


def _extensions(p):
    return brute.linear_extensions(p.elements, p.le)


def test_two_antichain_has_two_extensions():
    assert len(_extensions(antichain_poset(2))) == 2


def test_three_chain_has_one_extension():
    assert len(_extensions(chain_poset(3))) == 1


def test_three_antichain_has_six_extensions():
    assert len(_extensions(antichain_poset(3))) == 6


@pytest.mark.parametrize("n", range(7))
def test_antichain_extension_count_is_factorial(n):
    assert len(_extensions(antichain_poset(n))) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_chain_extension_count_is_one(n):
    assert len(_extensions(chain_poset(n))) == 1


def test_fuf_example_count_frozen():
    # 20 interleavings of a 2-chain with a 3-element vee, counted once by
    # the permutation filter and frozen here as a regression value
    from taulike import make_fuf_gadget

    g = make_fuf_gadget([1, 2])
    assert len(_extensions(g.base)) == 20


def test_extension_set_members_are_extensions_and_distinct():
    p = fence_poset(5)
    exts = _extensions(p)
    assert len(set(exts)) == len(exts)
    for order in exts:
        assert is_linear_extension(order, p).ok


@pytest.mark.parametrize("seed", range(8))
def test_extensions_match_permutation_filter(seed):
    p = random_poset(6, 0.4, seed=seed)
    ours = set(_extensions(p))
    assert ours == brute.extensions_by_permutation(p.elements, p.le)


# -- kind reports --------------------------------------------------------------


def test_report_three_chain_zeta():
    report = check_tau_like(chain_poset(3), Kind.ZETA)
    assert report.ok and report.scope == "finite"
    assert report.max_interval == 3


def test_report_finite_counts_are_strict():
    report = check_tau_like(chain_poset(4), Kind.OMEGA)
    assert report.counts == {0: 0, 1: 1, 2: 2, 3: 3}
    dual = check_tau_like(chain_poset(4), Kind.OMEGA_STAR)
    assert dual.counts == {0: 3, 1: 2, 2: 1, 3: 0}


def test_report_omega_stream_counts():
    report = check_tau_like(omega_stream(), Kind.OMEGA, prefix_size=50)
    assert report.ok and report.scope == "prefix"
    assert report.counts == {n: n for n in range(50)}


def test_report_names_unsound_oracle():
    bundle = OracleBundle(predecessors=lambda x: [x, x + 1])  # x+1 is above x
    s = StreamPoset(lambda st: st, lambda x, y: x <= y, oracles=bundle, name="bad")
    report = check_tau_like(s, Kind.OMEGA, prefix_size=10)
    assert not report.ok
    assert any("unsound" in note for note in report.notes)


def test_report_spot_checks_the_bulk_hook():
    # Every answer lists the whole prefix.  An all-True hook makes that look
    # sound and complete; leq says most of it is unsound.
    s = StreamPoset(
        lambda st: st,
        lambda x, y: x <= y,
        oracles=OracleBundle(predecessors=lambda x: list(range(50))),
        leq_block=lambda rows, cols=None: np.ones((len(rows), len(rows if cols is None else cols)), dtype=bool),
        name="all-true",
    )
    report = check_tau_like(s, Kind.OMEGA, prefix_size=50)
    assert not report.ok
    assert len(report.notes) == 1 and report.notes[0].startswith("leq_block disagrees with leq on (")


def _near() -> StreamPoset:
    # predecessors agrees with leq, but leq is no partial order: 0 <= 1 <= 0.
    return StreamPoset(
        lambda st: st,
        lambda x, y: abs(x - y) <= 1,
        oracles=OracleBundle(predecessors=lambda x: [y for y in (x - 1, x, x + 1) if y >= 0]),
        name="near",
    )


def _strict() -> StreamPoset:
    # < is not reflexive; the honest omega answers then list what leq refuses.
    return StreamPoset(lambda st: st, lambda x, y: x < y, oracles=omega_stream().oracles, name="strict")


@pytest.mark.parametrize(
    "make, head, answer_notes",
    [
        (_near, ["relation is not antisymmetric here (0, 1)", "relation is not transitive on the prefix"], 0),
        (_strict, ["relation is not reflexive here (0,)"], 20),
    ],
)
def test_report_checks_the_partial_order_axioms(make, head, answer_notes):
    report = check_tau_like(make(), Kind.OMEGA, prefix_size=20)
    assert not report.ok
    assert report.notes[: len(head)] == head and len(report.notes) == len(head) + answer_notes
    assert all(r.notes[: len(head)] == head for r in check_kinds(make(), list(Kind), 20))
    relation = [v for v in validate_oracles(make(), 20).violations if v.kind == "RELATION"]
    assert [f"{v.detail} {v.subject}" if v.subject else v.detail for v in relation] == head


def test_report_missing_oracle_not_ok():
    s = StreamPoset(lambda st: st, lambda x, y: x <= y, name="bare")
    report = check_tau_like(s, Kind.OMEGA, prefix_size=5)
    assert not report.ok


# -- one audit for every kind -------------------------------------------------------

_AUDITED = {
    **STREAM_FAMILIES,
    "range-gadget": lambda: make_range_gadget("swap:2").stream,
    "embed-gadget": lambda: make_embed_gadget("perm:1,0,3,2").stream,
    **{
        f"fuf-{variant.value}": (lambda profile=profile, variant=variant: make_fuf_gadget(profile, variant).stream())
        for profile, variant in (([1, 2], Kind.OMEGA), ([2, 0, 3], Kind.OMEGA_STAR), ([1, 1, 1], Kind.ZETA))
    },
}


def _counting(stream: StreamPoset) -> Counter:
    """Wrap the stream's oracles; the counter tallies each (oracle, arguments) asked."""
    asked: Counter = Counter()

    def wrap(name, fn):
        def counted(*args):
            asked[name, args] += 1
            return fn(*args)

        return counted if fn is not None else None

    bundle = stream.oracles
    names = ("predecessors", "successors", "interval", "side")
    stream.oracles = OracleBundle(**{name: wrap(name, getattr(bundle, name)) for name in names})
    return asked


@pytest.mark.parametrize("size", [50, 150])
@pytest.mark.parametrize("family", list(_AUDITED))
def test_one_audit_reports_what_one_audit_per_kind_reports(family, size):
    make = _AUDITED[family]
    together = check_kinds(make(), list(Kind), size)
    apart = [check_tau_like(make(), kind, size) for kind in Kind]
    assert [r.to_json_dict() for r in together] == [r.to_json_dict() for r in apart]


@pytest.mark.parametrize("family", list(_AUDITED))
def test_one_audit_asks_each_oracle_question_once(family):
    stream = _AUDITED[family]()
    asked = _counting(stream)
    check_kinds(stream, list(Kind), 60)
    assert asked and max(asked.values()) == 1
    sides = sum(count for (name, _), count in asked.items() if name == "side")
    assert sides == (len(take(stream, 60)) if stream.oracles.side else 0)


@pytest.mark.parametrize("family", [family for family, make in _AUDITED.items() if make().oracles.side])
@pytest.mark.parametrize("size", [1, 60, 120])
def test_validate_oracles_asks_each_oracle_question_once(family, size):
    # Up to 120 elements every cone and every interval pair is asked; the
    # side check reads the cone answer the screen already holds.
    stream = _AUDITED[family]()
    asked = _counting(stream)
    report = validate_oracles(stream, size)
    assert asked and max(asked.values()) == 1
    n = report.prefix_size
    per_oracle = Counter(name for name, _ in asked)
    assert per_oracle == {name: n * n if name == "interval" else n for name in stream.oracles.present()}


def test_a_hook_fault_found_in_one_audit_heads_every_report():
    # The hook lies on the prefix square, so the first spot check finds it.
    s = StreamPoset(
        lambda st: st,
        lambda x, y: x <= y,
        oracles=omega_stream().oracles,
        leq_block=lambda rows, cols=None: np.ones((len(rows), len(rows if cols is None else cols)), dtype=bool),
        name="all-true",
    )
    reports = check_kinds(s, list(Kind), 20)
    (head,) = {r.notes[0] for r in reports}
    assert head.startswith("leq_block disagrees with leq on (")
    assert not any(r.ok for r in reports)


# -- lying bundles -----------------------------------------------------------------


def _lying_naturals_interval() -> StreamPoset:
    # F1: interval(x, y) = [x, y] lists x twice when x == y and skips the middle
    return StreamPoset(
        lambda st: st,
        lambda x, y: x <= y,
        oracles=OracleBundle(interval=lambda x, y: [x, y]),
        name="F1",
    )


def _lying_two_chains(**lies) -> StreamPoset:
    base = omega_plus_omega_star_stream()
    return StreamPoset(
        lambda st: st,
        base.leq,
        oracles=replace(base.oracles, **lies),
        name="lying-two-chains",
        leq_block=base.relation_matrix,
    )


def _flagged(make_report) -> bool:
    try:
        return not make_report().ok
    except TaulikeError:
        return True


@pytest.mark.parametrize(
    "make_stream, kind",
    [
        (_lying_naturals_interval, Kind.ZETA),  # F1
        (lambda: _lying_two_chains(predecessors=lambda x: [x]), Kind.OMEGA_PLUS_OMEGA_STAR),  # F2
        (lambda: _lying_two_chains(side=lambda x: "FIN_PRED"), Kind.OMEGA_PLUS_OMEGA_STAR),  # F3
        (lambda: _lying_two_chains(side=lambda x: "sideways"), Kind.OMEGA_PLUS_OMEGA_STAR),
    ],
    ids=["F1-interval", "F2-predecessors", "F3-string-side", "garbage-side"],
)
@pytest.mark.parametrize("size", [10, 150])
def test_report_flags_lying_bundles(make_stream, kind, size):
    assert _flagged(lambda: check_tau_like(make_stream(), kind, prefix_size=size))


def test_report_notes_name_the_garbage_side_answer():
    report = check_tau_like(
        _lying_two_chains(side=lambda x: "sideways"), Kind.OMEGA_PLUS_OMEGA_STAR, prefix_size=3
    )
    assert not report.ok and "'sideways'" in report.notes[0]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 9),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    kind=st.sampled_from([Kind.OMEGA, Kind.OMEGA_STAR, Kind.ZETA]),
    data=st.data(),
)
def test_report_flags_one_dropped_element(n, density, seed, kind, data):
    poset = random_poset(n, density, seed=seed)
    stream = stream_from_finite(poset)
    universe, le = poset.elements, poset.le
    first = stream.element_at(0)
    if kind is Kind.OMEGA:
        name, honest = "predecessors", lambda x: brute.predecessors(universe, le, x)
    elif kind is Kind.OMEGA_STAR:
        name, honest = "successors", lambda x: brute.successors(universe, le, x)
    else:
        name, honest = "interval", lambda x: brute.interval(universe, le, first, x)
    assert check_tau_like(stream, kind, prefix_size=n).ok
    # A cone answer may leave out the element itself; anything else is owed.
    dropped = [(x, y) for x in universe for y in honest(x) if kind is Kind.ZETA or y != x]
    assume(dropped)
    x0, y0 = data.draw(st.sampled_from(dropped))

    def lying(*args):
        return [y for y in honest(args[-1]) if (args[-1], y) != (x0, y0)]

    stream.oracles = replace(stream.oracles, **{name: lying})
    report = check_tau_like(stream, kind, prefix_size=n)
    assert not report.ok
    assert any(f"answer for {x0}" in note for note in report.notes)


def test_report_json_shape():
    doc = check_tau_like(chain_poset(2), Kind.OMEGA).to_json_dict()
    assert doc["kind"] == "omega" and doc["ok"] is True and doc["scope"] == "finite"


# -- random generation -----------------------------------------------------------


def test_random_poset_deterministic_under_seed():
    a = random_poset(10, 0.3, seed=42)
    b = random_poset(10, 0.3, seed=42)
    assert a.elements == b.elements and a.leq == b.leq
    c = random_poset(10, 0.3, seed=43)
    assert a.leq != c.leq  # overwhelmingly likely; fixed seeds make it stable


def test_random_poset_density_edges():
    assert random_poset(6, 0.0, seed=1).leq == antichain_poset(6).leq
    chain_like = random_poset(6, 1.0, seed=1)
    # density one totally orders the permutation: one maximal chain
    assert len(_extensions(chain_like)) == 1


def test_random_poset_guards():
    with pytest.raises(TooLarge):
        random_poset(65, 0.5, seed=0)
    from taulike import UnknownIdError

    with pytest.raises(UnknownIdError):
        random_poset(-1, 0.5, seed=0)
    with pytest.raises(UnknownIdError):
        random_poset(5, 1.5, seed=0)


def test_fence_shape():
    p = fence_poset(4)  # 0 < 1 > 2 < 3
    assert p.le(0, 1) and p.le(2, 1) and p.le(2, 3)
    assert not p.le(0, 2) and not p.le(0, 3)


# -- deterministic extension on random inputs -------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_szpilrajn_lands_in_extension_set(seed):
    p = random_poset(7, 0.35, seed=seed)
    order = szpilrajn_extend(p)
    assert brute.is_linear_extension_naive(order, p.elements, p.le)
    assert is_linear_extension(order, p).ok
