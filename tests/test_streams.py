"""Stream presentation, oracle bundles, and the oracle validator."""

from __future__ import annotations

import dataclasses
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from taulike import (
    FiniteDomainEnd,
    FormatError,
    Kind,
    build_poset,
    make_embed_gadget,
    make_range_gadget,
    check_kinds,
    check_tau_like,
    linearize,
    random_poset,
    validate_oracles,
)
from taulike.kinds import FinSide
from taulike.streams import (
    STREAM_FAMILIES,
    IdRuns,
    OracleBundle,
    PrefixAudit,
    StreamPoset,
    _bulk,
    antichain_stream,
    omega_plus_omega_star_stream,
    omega_star_stream,
    omega_stream,
    prefix,
    randbelow,
    read_side,
    stream_from_finite,
    take,
    zeta_stream,
    zigzag_decode,
    zigzag_encode,
)


# -- enumeration -----------------------------------------------------------


def test_omega_prefix_is_chain():
    p = prefix(omega_stream(), 3)
    assert p.elements == (0, 1, 2)
    assert p.le(0, 2) and not p.le(2, 0)


def test_antichain_prefix_is_antichain():
    p = prefix(antichain_stream(), 2)
    assert not p.le(0, 1) and not p.le(1, 0)


def test_empty_prefix():
    assert prefix(omega_stream(), 0).size == 0


def test_prefix_monotone_restriction():
    s = zeta_stream()
    small, big = prefix(s, 4), prefix(s, 9)
    assert big.restrict(small.elements).leq == small.leq


def test_take_stops_at_finite_end():
    s = stream_from_finite(build_poset([0, 1, 2], []))
    assert take(s, 10) == [0, 1, 2]


def test_prefix_propagates_finite_end():
    s = stream_from_finite(build_poset([0, 1], []))
    with pytest.raises(FiniteDomainEnd):
        prefix(s, 3)


def test_repeating_enumeration_rejected():
    s = StreamPoset(lambda stage: 7, lambda x, y: x == y)
    assert s.element_at(0) == 7
    with pytest.raises(FormatError):
        s.element_at(1)


def test_non_id_enumeration_rejected():
    s = StreamPoset(lambda stage: -1, lambda x, y: True)
    with pytest.raises(FormatError):
        s.element_at(0)


@pytest.mark.parametrize("bad", [-1, 2**63, 2**70])
def test_an_enumerated_non_id_ends_every_run_in_a_format_error(bad):
    # 2**63 once reached the auditors' int64 arrays and ended in an OverflowError.
    def stream():
        oracles = OracleBundle(predecessors=lambda x: [x])
        return StreamPoset(lambda k: [3, bad][k], lambda x, y: x <= y, oracles=oracles, size=2)

    runs = [
        lambda s: validate_oracles(s, 2),
        lambda s: check_tau_like(s, Kind.OMEGA, prefix_size=2),
        lambda s: linearize(s, Kind.OMEGA, elements=2),
    ]
    for run in runs:
        with pytest.raises(FormatError, match=f"non-id value {bad}$"):
            run(stream())
    assert StreamPoset(lambda k: 2**63 - 1, lambda x, y: True).element_at(0) == 2**63 - 1


def test_negative_stage_rejected():
    from taulike import UnknownIdError

    with pytest.raises(UnknownIdError):
        omega_stream().element_at(-1)


def test_relation_matrix_block_matches_scalar():
    from taulike import make_embed_gadget, make_range_gadget

    for s in (
        omega_stream(),
        omega_star_stream(),
        zeta_stream(),
        antichain_stream(),
        omega_plus_omega_star_stream(),
        stream_from_finite(random_poset(20, 0.3, seed=2)),
        make_range_gadget("perm:2,0,3,1;gap:2").stream,
        make_embed_gadget("perm:2,0,3,1;gap:2").stream,
    ):
        ids = take(s, 12)
        # rectangles reach past the prefix, in any order and size
        rows, cols = take(s, 20)[::-3], take(s, 20)[5:]
        for r, c, block in ((ids, ids, s.relation_matrix(ids)), (rows, cols, s.relation_matrix(rows, cols))):
            assert block.shape == (len(r), len(c))
            for i, x in enumerate(r):
                for j, y in enumerate(c):
                    assert bool(block[i, j]) == s.leq(x, y), (s.name, x, y)
        assert s.relation_matrix([], cols).shape == (0, len(cols))
    # far past the gadget heads; odd strides mix every parity pair
    for s in (
        omega_plus_omega_star_stream(),
        make_range_gadget("perm:2,0,3,1;gap:2").stream,
        make_embed_gadget("perm:2,0,3,1;gap:2").stream,
    ):
        rows, cols = list(range(0, 401, 3)), list(range(400, -1, -7))
        block = s.relation_matrix(rows, cols)
        for i, x in enumerate(rows):
            for j, y in enumerate(cols):
                assert bool(block[i, j]) == s.leq(x, y), (s.name, x, y)


# Ids drawn at and past both ends of the domain 0 <= id < 2**63.
_EDGE_IDS = st.one_of(
    st.integers(-(2**64), -1),
    st.integers(0, 60),
    st.integers(2**63 - 60, 2**63 + 60),
    st.integers(2**62, 2**63 - 1),
    st.integers(2**63, 2**65),
)
_DOMAIN_STREAMS = {
    **STREAM_FAMILIES,
    "range-gadget": lambda: make_range_gadget("perm:2,0,3,1;gap:2").stream,
    "embed-gadget": lambda: make_embed_gadget("perm:2,0,3,1;gap:2").stream,
    # no hook: relation_matrix asks the raw leq, which answers any ints
    "hookless": lambda: StreamPoset(lambda s: s, operator.le, name="hookless"),
}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_DOMAIN_STREAMS)), x=_EDGE_IDS, y=_EDGE_IDS)
@example(name="embed-gadget", x=2**63 - 99, y=6_074_000_998)  # the last fan below 2**63, at the top over it
@example(name="hookless", x=-1, y=3)  # the raw leq says True; leq refuses
def test_leq_and_the_hook_agree_or_both_refuse_an_id_outside_the_domain(name, x, y):
    from taulike import UnknownIdError

    stream = _DOMAIN_STREAMS[name]()
    asks = (
        lambda: stream.leq(x, y),
        lambda: bool(stream.relation_matrix([x], [y])[0, 0]),
        lambda: bool(stream.relation_matrix([x, y])[0, 1]),
    )
    outcomes = set()
    for ask in asks:
        try:
            outcomes.add(ask())
        except UnknownIdError:
            outcomes.add("refused")
    assert len(outcomes) == 1, outcomes
    assert (outcomes == {"refused"}) == (not (0 <= x < 2**63 and 0 <= y < 2**63))


def test_one_list_hook_serves_squares_and_leq_serves_rectangles():
    seen = []

    def hook(ids):
        seen.append(list(ids))
        return np.less_equal.outer(ids, ids)

    s = StreamPoset(lambda st: st, lambda x, y: x <= y, leq_block=hook)
    assert s.relation_matrix([0, 2, 1]).tolist() == [[True, True, True], [False, True, False], [False, True, True]]
    assert s.relation_matrix([5, 1], [0, 3]).tolist() == [[False, False], [False, True]]
    assert seen == [[0, 2, 1]]


# -- zigzag ids --------------------------------------------------------------


def test_zigzag_pins():
    assert [zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("value", range(-25, 26))
def test_zigzag_round_trip(value):
    assert zigzag_decode(zigzag_encode(value)) == value


@given(
    codes=st.lists(st.integers(0, 2**62), max_size=30),
    values=st.lists(st.integers(-(2**61), 2**61 - 1), max_size=30),
)
def test_zigzag_decode_is_one_expression_for_ints_and_arrays(codes, values):
    decoded = zigzag_decode(np.array(codes, dtype=np.int64))
    assert decoded.dtype == np.int64
    assert decoded.tolist() == [zigzag_decode(c) for c in codes]
    encoded = [zigzag_encode(v) for v in values]
    assert [zigzag_decode(c) for c in encoded] == values
    assert zigzag_decode(np.array(encoded, dtype=np.int64)).tolist() == values


@given(variant=st.integers(0, 2), a=st.integers(-60, 60), b=st.integers(-60, 60))
@example(variant=0, a=-9, b=-3)  # all negative
@example(variant=1, a=4, b=11)  # all positive
@example(variant=2, a=-5, b=7)  # across zero
@example(variant=0, a=-6, b=-6)  # x == y
@example(variant=1, a=0, b=0)
def test_zeta_interval_is_the_per_id_list(variant, a, b):
    interval = zeta_stream(variant).oracles.interval
    x, y = zigzag_encode(a), zigzag_encode(b)
    low, high = sorted((a, b))
    answer = interval(x, y)
    assert type(answer) is IdRuns and all(type(part) is range for part in answer.parts)
    assert list(answer) == [zigzag_encode(v) for v in range(low, high + 1)]


def test_zeta_variants_present_same_order():
    base = zeta_stream(0)
    for variant in (1, 2):
        other = zeta_stream(variant)
        ids = sorted(set(take(base, 15)) & set(take(other, 15)))
        for x in ids:
            for y in ids:
                assert base.leq(x, y) == other.leq(x, y)


def test_zeta_variant_enumerations_differ():
    assert take(zeta_stream(0), 5) != take(zeta_stream(1), 5)
    # variant 2 emits two positives per negative
    vals = [zigzag_decode(x) for x in take(zeta_stream(2), 7)]
    assert vals == [0, 1, 2, -1, 3, 4, -2]


def test_bad_zeta_variant_rejected():
    from taulike import UnknownIdError

    with pytest.raises(UnknownIdError):
        zeta_stream(3)


# -- finite posets as streams -------------------------------------------------


def test_finite_stream_oracles_match_brute_force():
    p = build_poset([0, 1, 2, 3, 4], [(0, 2), (1, 2), (2, 4), (3, 4)])
    s = stream_from_finite(p)
    universe = p.elements
    for x in universe:
        assert s.oracles.predecessors(x) == brute.predecessors(universe, s.leq, x)
        assert s.oracles.successors(x) == brute.successors(universe, s.leq, x)
        for y in universe:
            assert s.oracles.interval(x, y) == brute.interval(universe, s.leq, x, y)


def test_finite_stream_side_callable():
    p = build_poset([0, 1], [])
    s = stream_from_finite(p, side=lambda x: FinSide.FIN_SUCC if x else FinSide.FIN_PRED)
    assert s.oracles.side(0) is FinSide.FIN_PRED
    assert s.oracles.side(1) is FinSide.FIN_SUCC


# -- validator: honest streams ------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        omega_stream,
        omega_star_stream,
        zeta_stream,
        antichain_stream,
        omega_plus_omega_star_stream,
    ],
)
def test_validator_passes_on_canonical_families(make):
    report = validate_oracles(make(), 60)
    assert report.ok, report.to_json_dict()


def test_validator_passes_on_finite_stream():
    p = build_poset([0, 1, 2, 3], [(0, 1), (2, 3)])
    report = validate_oracles(stream_from_finite(p), 10)
    assert report.ok and report.prefix_size == 4


def test_validator_reports_not_present():
    report = validate_oracles(zeta_stream(), 20)
    assert "predecessors" in report.not_present
    assert "successors" in report.not_present
    assert report.ok


def test_validator_counts_undefined_answers():
    report = validate_oracles(omega_plus_omega_star_stream(), 30)
    assert report.ok
    # the two one-sided cones answer None off their own chain
    assert report.undefined["predecessors"] > 0
    assert report.undefined["successors"] > 0


def test_validator_report_json_shape():
    doc = validate_oracles(omega_stream(), 10).to_json_dict()
    assert doc["ok"] is True
    assert set(doc) == {
        "stream",
        "requested",
        "prefix_size",
        "ok",
        "not_present",
        "undefined",
        "checked",
        "violations",
    }


# -- validator: seeded faults -------------------------------------------------


def _faulty(bundle: OracleBundle) -> StreamPoset:
    return StreamPoset(lambda s: s, lambda x, y: x <= y, oracles=bundle, name="faulty")


def test_validator_names_missing_predecessor():
    # omits 2 from the lower cone of every x >= 2
    bundle = OracleBundle(predecessors=lambda x: [y for y in range(x + 1) if y != 2])
    report = validate_oracles(_faulty(bundle), 25)
    assert not report.ok
    hits = [v for v in report.violations if v.kind == "INCOMPLETE"]
    assert hits and all(v.subject[1] == 2 for v in hits)
    assert all(v.oracle == "predecessors" for v in hits)


def test_validator_flags_unsound_listing():
    bundle = OracleBundle(predecessors=lambda x: list(range(x + 2)))  # x+1 is not below x
    report = validate_oracles(_faulty(bundle), 25)
    kinds = {v.kind for v in report.violations}
    assert "UNSOUND" in kinds


def test_validator_flags_side_without_cone():
    bundle = OracleBundle(
        predecessors=lambda x: None,
        side=lambda x: FinSide.FIN_PRED,
    )
    report = validate_oracles(_faulty(bundle), 10)
    kinds = {v.kind for v in report.violations}
    assert "SIDE_INCONSISTENT" in kinds


def test_validator_flags_duplicate_listing():
    bundle = OracleBundle(predecessors=lambda x: [0, 0] if x == 0 else list(range(x + 1)))
    report = validate_oracles(_faulty(bundle), 5)
    assert any(v.kind == "UNSOUND" and "twice" in v.detail for v in report.violations)


def test_validator_flags_broken_relation():
    s = StreamPoset(lambda st: st, lambda x, y: True, name="everything-comparable")
    report = validate_oracles(s, 5)
    assert any(v.kind == "RELATION" for v in report.violations)


@pytest.mark.parametrize(
    "leq, expected",
    [
        (lambda x, y: x < y, [("RELATION", "leq", (3,), "relation is not reflexive here")]),
        (
            lambda x, y: x // 2 <= y // 2,
            [("RELATION", "leq", (4, 5), "relation is not antisymmetric here")],
        ),
        (
            lambda x, y: y in (x, x + 1),
            [("RELATION", "leq", (), "relation is not transitive on the prefix")],
        ),
        (
            lambda x, y: abs(x - y) == 1,
            [
                ("RELATION", "leq", (3,), "relation is not reflexive here"),
                ("RELATION", "leq", (3, 4), "relation is not antisymmetric here"),
                ("RELATION", "leq", (), "relation is not transitive on the prefix"),
            ],
        ),
    ],
    ids=["strict", "pairs", "steps", "neighbours"],
)
def test_validator_relation_violations_pinned(leq, expected):
    report = validate_oracles(StreamPoset(lambda st: st + 3, leq, name="broken"), 6)
    assert [(v.kind, v.oracle, v.subject, v.detail) for v in report.violations] == expected


def test_prefix_of_a_non_reflexive_stream_is_rejected():
    s = StreamPoset(lambda st: st, lambda x, y: x < y, name="strict")
    with pytest.raises(FormatError, match="not reflexive at 0"):
        prefix(s, 3)


def test_validator_flags_disagreeing_block_hook():
    import numpy as np

    s = StreamPoset(
        lambda st: st,
        lambda x, y: x <= y,
        leq_block=lambda ids: np.zeros((len(ids), len(ids)), dtype=bool),
        name="lying-block",
    )
    report = validate_oracles(s, 10)
    assert any(v.kind == "RELATION" and v.oracle == "leq" for v in report.violations)


def _rectangles_lie(bundle: OracleBundle) -> StreamPoset:
    # honest squares; every rectangle says "all comparable"
    def hook(rows, cols=None):
        if cols is None:
            return np.less_equal.outer(rows, rows)
        return np.ones((len(rows), len(cols)), dtype=bool)

    return StreamPoset(lambda st: st, lambda x, y: x <= y, oracles=bundle, leq_block=hook, name="lying-rectangles")


def test_auditors_catch_a_lying_rectangle_hook():
    # predecessors also list x + 1 .. x + 4, all past a prefix of 10 and all unsound
    bundle = OracleBundle(predecessors=lambda x: list(range(x + 5)) if x == 9 else list(range(x + 1)))
    report = validate_oracles(_rectangles_lie(bundle), 10)
    assert not report.ok
    (fault,) = report.violations
    assert (fault.kind, fault.detail) == ("RELATION", "leq_block disagrees with leq") and fault.subject[1] == 9
    tau = check_tau_like(_rectangles_lie(bundle), Kind.OMEGA, prefix_size=10)
    assert not tau.ok and tau.notes in (["leq_block disagrees with leq on (%d, 9)" % y] for y in range(10, 14))
    # without a hook the same lie is decided by leq
    hookless = StreamPoset(lambda st: st, lambda x, y: x <= y, oracles=bundle)
    assert [v.subject for v in validate_oracles(hookless, 10).violations] == [(9, y) for y in range(10, 14)]


def test_validator_empty_prefix_trivially_ok():
    s = stream_from_finite(build_poset([], []))
    report = validate_oracles(s, 5)
    assert report.ok and report.prefix_size == 0


def _two_chains_with_side(side) -> StreamPoset:
    base = omega_plus_omega_star_stream()
    h = base.oracles
    bundle = OracleBundle(h.predecessors, h.successors, h.interval, side)
    return StreamPoset(lambda s: s, base.leq, oracles=bundle, name="two-chains", leq_block=base.relation_matrix)


def test_validator_reads_string_side_answers_as_sides():
    # F4: "FIN_PRED" for every element; odd ids have no finite lower cone
    report = validate_oracles(_two_chains_with_side(lambda x: "FIN_PRED"), 20)
    hits = [v for v in report.violations if v.oracle == "side"]
    assert hits and all(v.kind == "SIDE_INCONSISTENT" and v.subject[0] % 2 == 1 for v in hits)


def test_validator_flags_garbage_side_answers():
    report = validate_oracles(_two_chains_with_side(lambda x: "sideways"), 10)
    assert not report.ok
    assert all(v.kind == "INVALID" and "'sideways'" in v.detail for v in report.violations)
    assert report.checked["side"] == 0


def test_read_side_normalises_or_refuses():
    assert read_side(None, 0) is None
    assert read_side(FinSide.FIN_SUCC, 0) is FinSide.FIN_SUCC
    assert read_side("FIN_PRED", 0) is FinSide.FIN_PRED
    for raw in ("sideways", 0, ["FIN_PRED"]):
        with pytest.raises(FormatError):
            read_side(raw, 3)


def test_the_audit_names_each_listing_fault():
    # The prefix is the chain 0 < 1 < 2 < 3; the id 9 lies outside it, below every other id.
    stream = StreamPoset(lambda st: st, lambda x, y: x == 9 or (y != 9 and x <= y))
    answers = [
        [0, 1, 2],  # honest
        [0, 1],  # leaves out the subject itself
        [0, 1, 1, 2],
        [0, 2],
        [0, 1, 2, 3, 9],  # 9 passes the comparison, 3 does not
    ]
    screened = PrefixAudit(stream, take(stream, 4)).screen([("predecessors", 2, 2, ans) for ans in answers])
    assert [[(v.kind, v.subject, v.detail) for v in found] for _, found in screened] == [
        [],
        [],
        [("UNSOUND", (2, 1), "answer lists an element twice")],
        [("INCOMPLETE", (2, 1), "in-prefix element is missing")],
        [("UNSOUND", (2, 3), "listed element fails the comparison")],
    ]


# -- bulk screening against the per-answer rule ---------------------------------


def _with_hook(stream: StreamPoset, hook: str) -> StreamPoset:
    """The same stream with a two-list, a one-list or no bulk hook."""
    block = {"two": stream._leq_block, "one": lambda ids, square=stream._leq_block: square(ids), "none": None}[hook]
    return StreamPoset(
        stream._element_at, stream._leq, oracles=stream.oracles, size=stream.size,
        name=stream.name, leq_block=block,
    )


def _spaced_naturals(base: int) -> StreamPoset:
    # Prefix ids sit 7 apart above ``base``, so cone answers are long and
    # list mostly ids outside the prefix.
    return StreamPoset(
        lambda st: base + 7 * st,
        lambda x, y: x <= y,
        oracles=OracleBundle(
            predecessors=lambda x: list(range(x + 1)),
            interval=lambda x, y: list(range(min(x, y), max(x, y) + 1)),
        ),
        name="spaced",
        leq_block=lambda rows, cols=None: np.less_equal.outer(rows, rows if cols is None else cols),
    )


def _lie(fn, subject, fault, pick, extra):
    """``fn`` with one fault in its answers about ``subject``."""

    def lying(*args):
        ans = fn(*args)
        if ans is None or (fault != "every-interval" and args[0] != subject):
            return ans
        ans = list(ans)
        at = pick % max(len(ans), 1)
        if fault in ("drop", "every-interval"):
            return ans[:at] + ans[at + 1:]
        if fault == "dup":
            return ans + ans[at:at + 1]
        if fault == "swap":  # the first listed id, which is always verified, gives way
            return [extra] + ans[1:]
        if fault == "ends":  # an interval answer [x, y] owes every prefix id between them
            return ans[:1] + ans[-1:]
        if fault == "beyond":  # 60 ids past the answer's top, in and outside the prefix
            top = max(ans, default=extra)
            return ans + list(range(top + 1, top + 61))
        return ans + [extra]  # "extra" names any element, "outside" one past the prefix

    return lying


@st.composite
def _lying_audits(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 24))
        poset = random_poset(n, draw(st.floats(0.0, 1.0)), seed=draw(st.integers(0, 10_000)))
        stream = stream_from_finite(poset)
        s = draw(st.integers(1, n))
        inside, universe = list(poset.elements[:s]), list(poset.elements)
        outside = universe[s:]
    else:
        stream = _spaced_naturals(draw(st.integers(1500, 9000)))
        # Now and then 53+ elements: an interval answer naming only its ends
        # misses 51+ prefix ids.  Rarely, as every interval is audited.
        long = draw(st.sampled_from(["short"] * 9 + ["long"])) == "long"
        s = draw(st.integers(53, 56) if long else st.integers(1, 30))
        inside = take(stream, s)
        outside = [inside[-1] + 3, inside[-1] + 10, inside[0] + 1, inside[0] // 2]
        universe = inside + outside
    bundle = stream.oracles
    names = [name for name in ("predecessors", "successors", "interval") if getattr(bundle, name)]
    # Faults past the 50-violation cap; a finite poset has no 60 ids to name beyond an answer.
    capped = ["ends"] + ["beyond"] * (stream.name == "spaced")
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(names))
        fault = draw(st.sampled_from(
            ["drop", "dup", "extra", "outside", "swap"] + capped + ["every-interval"] * (name == "interval")
        ))
        pool = outside if fault in ("outside", "swap") and outside else universe
        lying = _lie(
            getattr(bundle, name), draw(st.sampled_from(inside)), fault,
            draw(st.integers(0, 10_000)), draw(st.sampled_from(pool)),
        )
        bundle = dataclasses.replace(bundle, **{name: lying})
    stream.oracles = bundle
    return _with_hook(stream, draw(st.sampled_from(["two", "one", "none"]))), s


def _assert_per_answer_rule(stream: StreamPoset, s: int) -> None:
    """Both auditors report what checking each answer alone reports."""
    ids, bundle, leq = take(stream, s), stream.oracles, stream.leq
    n = len(ids)
    queries = [
        (name, i, i, getattr(bundle, name)(ids[i]))
        for name in ("predecessors", "successors") if getattr(bundle, name) for i in range(n)
    ]
    if bundle.interval:
        queries += [("interval", i, j, bundle.interval(ids[i], ids[j])) for i in range(n) for j in range(n)]
    faults, checked, undefined = brute.audit_each_answer(ids, leq, queries)

    report = validate_oracles(stream, s)
    listing = [v for v in report.violations if v.oracle in checked]
    assert [(v.kind, v.oracle, v.subject, v.detail) for v in listing] == faults
    assert {k: report.checked[k] for k in checked} == checked
    assert {k: report.undefined[k] for k in checked} == undefined

    for kind, name in ((Kind.OMEGA, "predecessors"), (Kind.OMEGA_STAR, "successors"), (Kind.ZETA, "interval")):
        fn = getattr(bundle, name)
        if fn is None:
            answer = lambda x: None  # noqa: E731
        else:
            answer = (lambda x, fn=fn: fn(ids[0], x)) if kind is Kind.ZETA else fn
        counts, notes = brute.tau_each_answer(ids, leq, kind.value, answer)
        got = check_tau_like(stream, kind, prefix_size=s)
        assert (got.counts, got.notes, got.ok) == (counts, notes, not notes)


@settings(max_examples=120, deadline=None)
@given(case=_lying_audits())
def test_bulk_audits_match_the_per_answer_rule(case):
    _assert_per_answer_rule(*case)


@pytest.mark.parametrize("hook", ["two", "one", "none"])
def test_bulk_audit_stops_where_the_per_answer_rule_stops(hook):
    stream = stream_from_finite(random_poset(24, 0.3, seed=5))
    h = stream.oracles
    stream.oracles = dataclasses.replace(h, interval=_lie(h.interval, None, "every-interval", 0, None))
    stream = _with_hook(stream, hook)
    report = validate_oracles(stream, 24)
    assert len(report.violations) >= 200 and report.checked["interval"] < 24 * 24
    _assert_per_answer_rule(stream, 24)


@pytest.mark.parametrize("hook", ["two", "one", "none"])
def test_long_answers_are_sampled_like_the_per_answer_rule(hook):
    # 5001+ ids per answer: every 2nd one is verified.  Position 0 is, so the
    # lie there is named; position 1 is not, so that lie passes unseen.
    stream = _spaced_naturals(5000)
    honest = stream.oracles.predecessors
    stream.oracles = OracleBundle(predecessors=lambda x: [x + 1, x + 2] + honest(x)[2:])
    stream = _with_hook(stream, hook)
    report = validate_oracles(stream, 5)
    assert [(v.kind, v.subject) for v in report.violations] == [("UNSOUND", (x, x + 1)) for x in take(stream, 5)]
    _assert_per_answer_rule(stream, 5)


@pytest.mark.parametrize("hook", ["two", "one", "none"])
def test_answers_past_the_cap_report_what_the_per_answer_rule_reports(hook):
    stream = _with_hook(_spaced_naturals(1500), hook)
    ids = take(stream, 60)
    honest = stream.oracles
    x, y = ids[3], ids[59]
    queries = [
        ("interval", 3, 59, [x, y]),  # 55 prefix ids missing
        ("predecessors", 10, 10, honest.predecessors(ids[10]) + list(range(ids[10] + 1, ids[10] + 61))),
    ]
    leq, asked = stream.leq, []
    stream.leq = lambda a, b: asked.append(a) or leq(a, b)  # only the comparison calls it without a hook
    screened = []
    for name, i, j, ans in queries:
        truth, compare, exempt = brute.listing_rule(ids, leq, name, i, j)
        asked.clear()
        ((_, found),) = PrefixAudit(stream, ids).screen([(name, i, j, ans)])
        ((_, first),) = PrefixAudit(stream, ids).screen([(name, i, j, ans)], first_only=True)
        decided = []
        assert [(v.kind, v.oracle, v.subject, v.detail) for v in found] == brute.listing_faults(
            name, ids[i], ans, truth, lambda z: decided.append(z) or compare(z), set(ids), exempt
        )
        if hook == "none" and name == "predecessors":  # leq(z, x) once per id decided, on both passes
            assert asked == 2 * decided
        assert len(found) == 50 and first == (found[0], 50)
        screened.append(found)
    missing, unsound = ([v.subject[1] for v in found] for found in screened)
    assert missing != sorted(missing)  # the set's order, not the prefix order
    assert {y in set(ids) for y in unsound} == {True, False}


# -- entries that are not ids ---------------------------------------------------

# Each entry, and the subject a violation names for it: an int where it is one.
_NOT_IDS = [
    (-1, -1),
    (-3, -3),
    (np.int64(-2), -2),
    (2**63, 2**63),
    (2**64 + 5, 2**64 + 5),
    ([1], [1]),
    ("3", "3"),
    (None, None),
    (1.0, 1.0),
    (np.float64(2.0), 2.0),
]


def _with_listing(stream: StreamPoset, at: int, edit) -> StreamPoset:
    """``stream`` whose ``predecessors(at)`` answer is ``edit(honest answer)``."""
    honest = stream.oracles.predecessors
    stream.oracles = dataclasses.replace(
        stream.oracles, predecessors=lambda x: edit(honest(x)) if x == at else honest(x)
    )
    return stream


def _assert_not_an_id(stream: StreamPoset, s: int, x: int, subject) -> None:
    """Both auditors name the one entry of ``x``'s predecessors answer that is not an id."""
    report = validate_oracles(stream, s)
    assert [(v.kind, v.oracle, v.subject, v.detail) for v in report.violations] == [
        ("UNSOUND", "predecessors", (x, subject), "listed element is not an id")
    ]
    tau = check_tau_like(stream, Kind.OMEGA, prefix_size=s)
    assert not tau.ok
    assert tau.notes == [f"unsound predecessors answer for {x}: listed element is not an id ({subject})"]


@pytest.mark.parametrize("hook", ["two", "one", "none"])
@pytest.mark.parametrize("entry, subject", _NOT_IDS, ids=[repr(e) for e, _ in _NOT_IDS])
def test_an_entry_that_is_not_an_id_is_unsound(entry, subject, hook):
    stream = _with_listing(_with_hook(omega_stream(), hook), 4, lambda ans: [*ans, entry])
    _assert_not_an_id(stream, 20, 4, subject)
    # The count is of the ids listed, so the stray entry adds nothing.
    assert check_tau_like(stream, Kind.OMEGA, prefix_size=20).counts[4] == 4


@pytest.mark.parametrize("entry", [[1], "3", None, 1.0])
def test_an_answer_of_one_stray_entry_is_unsound(entry):
    # The honest answer is [1]; [1.0] once passed as if it were that.
    stream = _with_listing(antichain_stream(), 1, lambda ans: [entry])
    _assert_not_an_id(stream, 10, 1, entry)


def test_a_negative_id_on_the_embed_gadget_is_unsound():
    # The gadget's leq refuses negative ids, so the audit must decide this
    # entry without asking it.
    stream = _with_listing(make_embed_gadget("swap:2").stream, 4, lambda ans: [*ans, -1])
    _assert_not_an_id(stream, 50, 4, -1)


def test_a_negative_id_on_every_answer_is_unsound():
    # operator.le(-3, x) holds, so a comparison would pass every one of them.
    stream = omega_stream()
    honest = stream.oracles.predecessors
    stream.oracles = dataclasses.replace(stream.oracles, predecessors=lambda x: [*honest(x), -3])
    report = validate_oracles(stream, 20)
    assert not report.ok
    assert [v.subject for v in report.violations] == [(x, -3) for x in range(20)]
    assert {v.detail for v in report.violations} == {"listed element is not an id"}
    tau = check_tau_like(stream, Kind.OMEGA, prefix_size=20)
    assert tau.notes == [f"unsound predecessors answer for {x}: listed element is not an id (-3)" for x in range(20)]
    assert tau.counts == {x: x for x in range(20)}


_RANGE_STREAMS = [
    omega_stream,
    omega_star_stream,
    omega_plus_omega_star_stream,
    lambda: make_range_gadget("perm:2,5,1,7,0,4,3,6;gap:2").stream,
]


@pytest.mark.parametrize("make", _RANGE_STREAMS)
def test_range_answers_are_audited_as_their_listings(make):
    oracles = make().oracles
    assert isinstance((oracles.successors or oracles.predecessors)(3), range)
    listed = brute.listed_oracles(make())
    assert validate_oracles(make(), 150).to_json_dict() == validate_oracles(listed, 150).to_json_dict()
    assert check_kinds(make(), list(Kind), 150) == check_kinds(listed, list(Kind), 150)


@pytest.mark.parametrize(
    "lie",
    [
        lambda x: range(x + 2),  # lists x + 1, which lies above x
        lambda x: range(1, x + 1),  # misses 0
        lambda x: range(x, -1, -1),  # the honest ids, top down
        lambda x: range(x, x + 3),  # x, x + 1 and x + 2
        lambda x: range(0, x + 1, 2),  # every other id
        lambda x: range(x + 1) if x % 7 else range(0),  # some answers empty
    ],
)
def test_a_lying_range_answer_is_audited_as_its_listing(lie):
    def stream(listed: bool) -> StreamPoset:
        answer = (lambda x: list(lie(x))) if listed else lie
        return StreamPoset(lambda s: s, operator.le, oracles=OracleBundle(predecessors=answer))

    for s in (20, 150):
        assert validate_oracles(stream(False), s).to_json_dict() == validate_oracles(stream(True), s).to_json_dict()
        assert check_tau_like(stream(False), Kind.OMEGA, s) == check_tau_like(stream(True), Kind.OMEGA, s)


def test_bools_and_numpy_integers_count_as_the_ids_they_equal():
    def predecessors(x):
        return [False, True] if x == 1 else [np.int64(y) for y in range(x + 1)]

    stream = StreamPoset(lambda st: st, lambda x, y: x <= y, oracles=OracleBundle(predecessors=predecessors))
    assert validate_oracles(stream, 12).ok
    report = check_tau_like(stream, Kind.OMEGA, prefix_size=12)
    assert report.ok and report.counts == {x: x for x in range(12)}


# -- answers as id runs -------------------------------------------------------------


@pytest.mark.parametrize(
    "answer, subject, others",
    [
        (range(0, 2**64), 2**63, 2**63 - 1),
        (range(-(2**64), 5), -(2**64), 4),
        (IdRuns(([1], range(2**63 - 2, 2**64))), 2**63, 3),
        (range(2**63, 2**63 + 2), 2**63, 0),
        (IdRuns((range(0, 4), range(2**63 + 5, 2**63 - 5, -3))), 2**63 + 5, 5),
        (range(3, -(2**64), -2), -1, 1),
    ],
)
def test_a_range_with_entries_past_the_ids_is_decided_from_its_ends(answer, subject, others):
    # Listing range(0, 2**64) would never end, and len() of it overflows.
    stream = _with_listing(omega_stream(), 3, lambda ans: answer)
    _assert_not_an_id(stream, 10, 3, subject)
    assert check_tau_like(stream, Kind.OMEGA, prefix_size=10).counts[3] == others


@pytest.mark.parametrize("answer", [IdRuns(([0, 1001],)), IdRuns(([0], range(0), [1001]))])
def test_a_run_answer_of_lists_is_checked_as_its_own_among_list_answers(answer):
    # Every other answer is a list whose odd ids lie outside the prefix, so
    # its outside ids and those of the run must not be mixed up in one chunk.
    def predecessors(x):
        return answer if x == 0 else list(range(x + 1))

    def stream(pred):
        return StreamPoset(
            lambda t: 2 * t, operator.le, oracles=OracleBundle(predecessors=pred), leq_block=_bulk(operator.le)
        )

    runs, listed = stream(predecessors), stream(lambda x: list(predecessors(x)))
    report = validate_oracles(runs, 20)
    assert not report.ok
    assert report.to_json_dict() == validate_oracles(listed, 20).to_json_dict()
    assert check_tau_like(runs, Kind.OMEGA, prefix_size=20) == check_tau_like(listed, Kind.OMEGA, prefix_size=20)


def test_leq_reads_python_ints_where_the_audit_asks_outside_the_prefix():
    # Without a rectangle hook, the audit's outside ids reach leq one by one.
    def leq(x, y):
        assert type(x) is int and type(y) is int
        return x <= y

    stream = StreamPoset(lambda t: 2 * t, leq, oracles=OracleBundle(predecessors=lambda x: range(x + 1)))
    assert validate_oracles(stream, 20).ok
    assert check_tau_like(stream, Kind.OMEGA, prefix_size=20).ok


def test_an_audit_reads_a_long_range_answer_off_its_ends():
    # Stages are 2**50 apart, so range(x + 1) lists up to about 2**56.6 ids.
    def hook(rows, cols=None):
        r = np.asarray(rows, dtype=np.int64)
        return r[:, None] <= (r if cols is None else np.asarray(cols, dtype=np.int64))[None, :]

    stream = StreamPoset(
        lambda t: t * 2**50, operator.le, oracles=OracleBundle(predecessors=lambda x: range(x + 1)), leq_block=hook
    )
    report = validate_oracles(stream, 100)
    assert report.ok and report.checked == {"predecessors": 100}
    tau = check_tau_like(stream, Kind.OMEGA, prefix_size=100)
    assert tau.ok and tau.counts[99 * 2**50] == 99 * 2**50


_EDGE = 2**63
_PART_STARTS = st.one_of(st.integers(-6, 9000), st.integers(_EDGE - 6, _EDGE + 2))
_RANGE_PARTS = st.builds(
    lambda start, length, step: range(start, start + length * step, step),
    _PART_STARTS,
    st.integers(0, 2600),
    st.integers(1, 4) | st.integers(-4, -1),
)
_LIST_PARTS = st.lists(st.integers(-3, 9000) | st.integers(_EDGE - 2, _EDGE + 2), max_size=6)


@st.composite
def _run_answers(draw, x: int):
    """An answer for predecessors(x): drawn parts, or range(x + 1) in parts with at most one fault."""
    if draw(st.booleans()):
        return IdRuns(draw(st.lists(_RANGE_PARTS | _LIST_PARTS, min_size=1, max_size=4)))
    fault = draw(st.sampled_from(["none", "unsound", "missing", "overrun"]))
    if fault == "missing":
        cut = 211 * draw(st.integers(0, x // 211))  # a prefix id, left out
    else:
        cut = draw(st.integers(0, x + 1))
        if draw(st.booleans()):  # at an entry the audit samples
            cut -= cut % max(1, (x + 1 + (fault == "unsound")) // 2000)
    low = list(range(cut)) if draw(st.booleans()) else range(cut - 1, -1, -1)
    start, top = cut + (fault == "missing"), x
    if fault == "overrun":  # the last entries of the high part lie above x
        top += draw(st.integers(1, 4))
        if draw(st.booleans()):  # ... and the last one where the audit samples
            top += -top % max(1, (x + 5) // 2000)
        return IdRuns((low, range(start, top + 1)))
    high = range(x, start - 1, -1) if draw(st.booleans()) else range(start, x + 1)
    middle = [x + 1 + draw(st.integers(0, 500))] if fault == "unsound" else []
    return IdRuns((low, middle, high))


@st.composite
def _run_cases(draw):
    # Prefix ids sit 211 apart, so honest answers list up to 8,000 ids, most
    # of them outside the prefix, and past 4,000 the audit samples them.
    s = draw(st.integers(5, 40))
    ats = draw(st.lists(st.integers(0, s - 1), max_size=4, unique=True))
    answers = {211 * t: draw(_run_answers(211 * t)) for t in ats}
    lie = draw(st.none() | st.integers(0, 9000))
    return s, answers, lie, draw(st.booleans())


@settings(max_examples=120, deadline=None)
@given(case=_run_cases())
def test_run_answers_are_audited_as_their_listings(case):
    s, answers, lie, plain = case

    def stream(listed: bool, asked: list) -> StreamPoset:
        def predecessors(x):
            ans = answers.get(x, list(range(x + 1)) if plain else range(x + 1))
            return list(ans) if listed else ans

        def hook(rows, cols=None):
            asked.append((list(rows), cols and list(cols)))
            r = np.asarray(rows, dtype=np.int64)[:, None]
            m = r <= (r.T if cols is None else np.asarray(cols, dtype=np.int64)[None, :])
            return m ^ (r == lie) if lie is not None else m  # a lying hook flips the row of one id

        bundle = OracleBundle(predecessors=predecessors)
        return StreamPoset(lambda t: 211 * t, operator.le, oracles=bundle, leq_block=hook)

    # The same reports from the same rectangles, asked in the same order.
    runs, listed = [], []
    report = validate_oracles(stream(False, runs), s).to_json_dict()
    assert report == validate_oracles(stream(True, listed), s).to_json_dict()
    assert check_tau_like(stream(False, runs), Kind.OMEGA, s) == check_tau_like(stream(True, listed), Kind.OMEGA, s)
    assert runs == listed


def test_id_runs_read_as_the_concatenation_of_their_parts():
    runs = IdRuns(([4, 2], range(7, 10), range(3, -1, -2), []))
    assert list(runs) == [4, 2, 7, 8, 9, 3, 1]
    assert len(runs) == 7
    assert 8 in runs and 1 in runs and 5 not in runs


# -- chunk screening against each answer alone ------------------------------------

_STRAYS = [None, 1.5, 2.0, "3", "x", [1], [], (2,), True, False, -1, -5, np.int64(-4),
           np.float64(3.0), 2**63, 2**63 + 7, 2**64, np.uint64(3), np.uint64(2**63)]
_EDITS = ["honest", "undefined", "dup", "drop", "outside", "stray", "nest", "bool", "numpy", "unsigned", "ends",
          "beyond", "runs"]


def _screened_stream(which: str) -> StreamPoset:
    if which == "omega":
        return omega_stream()
    if which == "zeta":
        return zeta_stream()
    if which == "range-gadget":
        return make_range_gadget("swap:2").stream
    return StreamPoset(  # hookless: every relation cell comes from leq
        lambda st: st,
        lambda x, y: x <= y,
        oracles=OracleBundle(
            predecessors=lambda x: list(range(x + 1)),
            successors=lambda x: list(range(x, x + 5)),  # finite on purpose, so unsound past x + 4
            interval=lambda x, y: list(range(min(x, y), max(x, y) + 1)),
        ),
        name="hookless",
    )


def _edit(ans, edit: str, k: int, outside: int, stray):
    if edit == "undefined":
        return None
    ans = list(ans or [])
    at = k % (len(ans) + 1)
    if edit == "dup" and ans:
        return ans + [ans[at % len(ans)]]
    if edit == "drop" and ans:
        return ans[:at] + ans[at + 1:]
    if edit == "outside":
        return ans[:at] + [outside] + ans[at:]
    if edit == "stray":
        return ans[:at] + [stray] + ans[at:]
    if edit == "nest" and ans:
        return ans[:at] + [[ans[at % len(ans)]]] + ans[at + 1:]
    if edit == "bool":
        return [bool(y) if type(y) is int and y in (0, 1) else y for y in ans]
    if edit == "numpy":
        return [np.int64(y) if type(y) is int and 0 <= y < 2**63 else y for y in ans]
    if edit == "unsigned":
        return [np.uint64(y) if type(y) is int and 0 <= y < 2**63 else y for y in ans]
    if edit == "ends":  # [x, y] for an interval: past 50 missing ids on a long prefix
        return ans[:1] + ans[-1:]
    if edit == "beyond":  # 60 ids past the top: past 50 unsound ones, in and outside the prefix
        top = max((y for y in ans if type(y) is int and 0 <= y < 2**62), default=0)
        return ans + list(range(top + 1, top + 61))
    if edit == "runs":  # a list part, then a range part that lists as much of the rest from ``at`` on as it can
        cut = next(c for c in range(at, len(ans) + 1) if _as_range(ans[c:]) is not None)
        return IdRuns((ans[:cut], _as_range(ans[cut:])))
    return ans


def _as_range(run: list) -> range | None:
    """The range that lists ``run``, or None when no range does."""
    if not all(type(y) is int for y in run):
        return None
    step = run[1] - run[0] if len(run) > 1 else 1
    if step == 0 or any(b - a != step for a, b in zip(run, run[1:])):
        return None
    return range(run[0], run[-1] + step, step) if run else range(0)


@st.composite
def _chunks(draw):
    which = draw(st.sampled_from(["omega", "zeta", "range-gadget", "hookless", "spaced"]))
    if which == "spaced":  # prefix ids 7 apart from 1,500 up, so a set of them is not in ascending order
        stream, s = _spaced_naturals(draw(st.integers(1500, 9000))), draw(st.integers(1, 80))
    else:
        stream, s = _screened_stream(which), draw(st.integers(1, 30))
    ids = take(stream, s)
    bundle = stream.oracles
    names = [name for name in ("predecessors", "successors", "interval") if getattr(bundle, name)]
    queries = []
    for _ in range(draw(st.integers(1, 30))):
        name = draw(st.sampled_from(names))
        i = draw(st.integers(0, s - 1))
        j = draw(st.integers(0, s - 1)) if name == "interval" else i
        fn = getattr(bundle, name)
        ans = fn(ids[i], ids[j]) if name == "interval" else fn(ids[i])
        for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
            outside = max(ids) + draw(st.integers(1, 50))
            ans = _edit(ans, edit, draw(st.integers(0, 100)), outside, draw(st.sampled_from(_STRAYS)))
        queries.append((name, i, j, ans))
    return stream, ids, queries


@settings(max_examples=150, deadline=None)
@given(case=_chunks())
def test_chunk_screening_equals_checking_each_answer_alone(case):
    stream, ids, queries = case
    screened = list(PrefixAudit(stream, ids).screen(queries))
    assert [q for q, _ in screened] == queries
    for (name, i, j, ans), (_, found) in zip(queries, screened):
        if ans is None:
            assert found is None
            continue
        truth, compare, exempt = brute.listing_rule(ids, stream.leq, name, i, j)
        assert [(v.kind, v.oracle, v.subject, v.detail) for v in found] == brute.listing_faults(
            name, ids[i], ans, truth, compare, set(ids), exempt
        )
        # An integer a violation names is a Python int, also where the screen read it off an array.
        assert all(type(y) is int for v in found for y in v.subject if isinstance(y, (int, np.integer)))


# -- batched draws -----------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 13, 2024])
def test_randbelow_gives_the_values_of_randrange(seed):
    for n in range(1, 1001):
        batched, single = random.Random(seed), random.Random(seed)
        count = 1 + n % 9
        assert randbelow(batched, n, count).tolist() == [single.randrange(n) for _ in range(count)]
        # ... and leaves the generator where the calls leave it
        assert batched.getrandbits(32) == single.getrandbits(32)


def test_randbelow_refuses_bounds_randrange_reads_otherwise():
    assert randbelow(random.Random(0), 5, 0).tolist() == []
    for n in (0, -3, 2**32):
        with pytest.raises(ValueError):
            randbelow(random.Random(0), n, 4)
