"""Rank embeddings into the four canonical shapes."""

from __future__ import annotations

import pytest

from taulike import (
    ClassifierInconsistent,
    FormatError,
    Kind,
    LinearOrder,
    NotStabilized,
    OracleMissing,
    embed_omega,
    embed_omega_plus_omega_star,
    embed_omega_star,
    embed_poset,
    embed_zeta,
    make_embed_gadget,
    make_fuf_gadget,
    make_range_gadget,
    omega_linearize,
    split_linearize,
    zeta_linearize,
)
from taulike.embed import EMBEDDING_SCHEMA, Embedding
from taulike.kinds import FinSide
from taulike.poset import CanonicalPoint
from taulike.streams import STREAM_FAMILIES, omega_stream, zeta_stream, zigzag_decode


# -- omega ranks -------------------------------------------------------------


def test_embed_omega_singleton():
    emb = embed_omega(LinearOrder((7,)))
    assert emb.point(7) == CanonicalPoint(Kind.OMEGA, 0)


def test_embed_omega_three_ranks():
    emb = embed_omega(LinearOrder((4, 5, 6)))
    assert [emb.coord(x) for x in (4, 5, 6)] == [0, 1, 2]


def test_embed_omega_fuf_identity_ranks():
    gadget = make_fuf_gadget([1, 2])
    _, order = omega_linearize(gadget.stream(), 5)
    emb = embed_omega(order)
    assert [emb.coord(x) for x in order] == [0, 1, 2, 3, 4]


# -- omega-star ranks -----------------------------------------------------------


def test_embed_omega_star_singleton():
    emb = embed_omega_star(LinearOrder((7,)))
    assert emb.coord(7) == 0


def test_embed_omega_star_three():
    emb = embed_omega_star(LinearOrder((10, 11, 12)))
    assert [emb.coord(x) for x in (10, 11, 12)] == [2, 1, 0]
    assert emb.point(10) < emb.point(11) < emb.point(12)


def test_embed_omega_star_mirrors_dual_gadget():
    from taulike import omega_star_linearize

    gadget = make_fuf_gadget([1, 2], variant=Kind.OMEGA_STAR)
    _, order = omega_star_linearize(gadget.stream(), 5)
    emb = embed_omega_star(order)
    # order is [4,3,2,1,0]: successor counts descend along the line
    assert [emb.coord(x) for x in order] == [4, 3, 2, 1, 0]


# -- two-ended case split ----------------------------------------------------------


def test_embed_two_sided_pinned_case_formula():
    order = LinearOrder(
        (0, 1, 2),
        sides={0: FinSide.FIN_PRED, 1: FinSide.FIN_PRED, 2: FinSide.FIN_SUCC},
    )
    emb = embed_omega_plus_omega_star(order)
    assert emb.coord(0) == (0, 0)
    assert emb.coord(1) == (0, 1)
    assert emb.coord(2) == (1, 0)
    assert emb.point(0) < emb.point(1) < emb.point(2)


def test_embed_two_sided_all_lower_reduces_to_omega():
    order = LinearOrder((5, 6), sides={5: FinSide.FIN_PRED, 6: FinSide.FIN_PRED})
    emb = embed_omega_plus_omega_star(order)
    assert emb.coord(5) == (0, 0) and emb.coord(6) == (0, 1)


def test_embed_two_sided_range_gadget_pipeline():
    gadget = make_range_gadget("perm:1,0,2")
    order = split_linearize(gadget.stream, 12)
    emb = embed_omega_plus_omega_star(order)
    # the lone false stage lands at the bottom of the lower side
    assert emb.coord(0) == (0, 0)
    b_ids = sorted(x for x in order if x % 2 == 1)
    ks = [emb.coord(b) for b in b_ids]
    assert all(side == 1 for side, _ in ks)
    # later b's sit lower: (1,k) points descend with the index, so k grows
    assert [k for _, k in ks] == sorted(k for _, k in ks)
    points = [emb.point(b) for b in b_ids]
    assert all(points[i] > points[i + 1] for i in range(len(points) - 1))


def test_embed_two_sided_requires_sides():
    with pytest.raises(OracleMissing):
        embed_omega_plus_omega_star(LinearOrder((0, 1)))
    with pytest.raises(OracleMissing):
        embed_omega_plus_omega_star(LinearOrder((0, 1), sides={0: FinSide.FIN_PRED}))


def test_embed_two_sided_rejects_interleaved_sides():
    order = LinearOrder(
        (0, 1, 2),
        sides={0: FinSide.FIN_PRED, 1: FinSide.FIN_SUCC, 2: FinSide.FIN_PRED},
    )
    with pytest.raises(ClassifierInconsistent):
        embed_omega_plus_omega_star(order)


# -- zeta signed ranks ---------------------------------------------------------------


def test_embed_zeta_singleton():
    emb = embed_zeta(LinearOrder((3,), anchor_index=0))
    assert emb.coord(3) == 0


def test_embed_zeta_pinned_window():
    _, order = zeta_linearize(zeta_stream(), 3)
    emb = embed_zeta(order)
    got = {zigzag_decode(x): emb.coord(x) for x in order}
    assert got == {-1: -1, 0: 0, 1: 1}


def test_embed_zeta_two_elements():
    emb = embed_zeta(LinearOrder((8, 9), anchor_index=0))
    assert emb.coord(8) == 0 and emb.coord(9) == 1


def test_embed_zeta_requires_anchor():
    with pytest.raises(NotStabilized):
        embed_zeta(LinearOrder((0, 1)))


# -- pipeline -------------------------------------------------------------------------


def test_embed_poset_omega_identity():
    emb = embed_poset(omega_stream(), Kind.OMEGA, blocks=6)
    assert all(emb.coord(n) == n for n in range(6))


def test_embed_poset_fuf_ranks():
    gadget = make_fuf_gadget([1, 2])
    emb = embed_poset(gadget.stream(), Kind.OMEGA, blocks=5)
    assert [emb.coord(x) for x in range(5)] == [0, 1, 2, 3, 4]


def test_embed_poset_reversal_gadget_rank_bound():
    gadget = make_embed_gadget("perm:1,0,2")
    emb = embed_poset(gadget.stream, Kind.OMEGA, elements=24)
    # a_0 = id 0 sits above the two fan elements of row 1
    assert emb.coord(0) >= 2


def test_embed_poset_zeta_signed():
    emb = embed_poset(zeta_stream(), Kind.ZETA, blocks=7)
    for x, point in emb.assignments.items():
        assert point.coord == zigzag_decode(x)


def test_embed_poset_split_kind():
    from taulike.streams import omega_plus_omega_star_stream

    emb = embed_poset(omega_plus_omega_star_stream(), Kind.OMEGA_PLUS_OMEGA_STAR, elements=8)
    assert emb.coord(0) == (0, 0)
    assert emb.coord(1) == (1, 0)


# -- laws -------------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [Kind.OMEGA, Kind.OMEGA_STAR])
def test_embeddings_injective_and_order_preserving(kind):
    order = LinearOrder(tuple(range(10, 40)))
    emb = embed_omega(order) if kind is Kind.OMEGA else embed_omega_star(order)
    pts = [emb.point(x) for x in order]
    assert len({p.coord for p in pts}) == len(pts)
    for i in range(len(pts) - 1):
        assert pts[i] < pts[i + 1]


def test_embedding_monotone_growth():
    small = embed_poset(omega_stream(), Kind.OMEGA, blocks=4)
    big = embed_poset(omega_stream(), Kind.OMEGA, blocks=9)
    for x, point in small.assignments.items():
        assert big.point(x) == point


def test_embedding_json_shape():
    emb = embed_omega(LinearOrder((2, 0)))
    doc = emb.to_json_dict()
    assert doc["schema"] == EMBEDDING_SCHEMA
    assert doc["kind"] == "omega"
    assert doc["map"] == [[0, 1], [2, 0]]


def test_embedding_json_tuple_coords_as_lists():
    order = LinearOrder((0, 1), sides={0: FinSide.FIN_PRED, 1: FinSide.FIN_SUCC})
    doc = embed_omega_plus_omega_star(order).to_json_dict()
    assert doc["map"] == [[0, [0, 0]], [1, [1, 0]]]


# -- coordinates stored, points built on demand ----------------------------------------

# Every canonical family with each kind whose run it can serve; between them
# they reach all four readers.
_EMBEDDABLE = [
    ("omega", Kind.OMEGA),
    ("omega", Kind.ZETA),
    ("omega-star", Kind.OMEGA_STAR),
    ("omega-star", Kind.ZETA),
    ("zeta", Kind.ZETA),
    *(("antichain", kind) for kind in Kind),
    ("omega-omega-star", Kind.OMEGA_PLUS_OMEGA_STAR),
]


@pytest.mark.parametrize(("family", "kind"), _EMBEDDABLE)
def test_points_are_the_stored_coordinates_of_the_embedding_kind(family, kind):
    emb = embed_poset(STREAM_FAMILIES[family](), kind, elements=30)
    assert emb.kind is kind and len(emb) == len(emb.coords) == 30
    points = {x: CanonicalPoint(kind, emb.coord(x)) for x in emb.coords}
    for x, point in points.items():
        assert emb.point(x) == point
    assert emb.assignments == points


def test_a_point_is_validated_when_it_is_read():
    emb = Embedding(Kind.OMEGA, {4: 0, 5: -1})
    assert len(emb) == 2 and emb.coord(5) == -1
    assert emb.point(4) == CanonicalPoint(Kind.OMEGA, 0)
    with pytest.raises(FormatError, match="omega coordinates are naturals, got -1"):
        emb.point(5)
    with pytest.raises(FormatError, match="omega coordinates are naturals, got -1"):
        emb.assignments


@pytest.mark.parametrize(
    "argv",
    [
        ("embed", "--kind", "omega", "--family", "omega", "--blocks", "20"),
        ("embed", "--kind", "omega-star", "--family", "omega-star", "--blocks", "20"),
        ("embed", "--kind", "omega-omega-star", "--family", "omega-omega-star", "--elements", "20"),
        ("embed", "--kind", "zeta", "--family", "zeta", "--blocks", "20"),
        ("decode", "range", "--f", "perm:1,0,2", "--elements", "2", "--horizon", "64"),
    ],
)
def test_the_embedding_commands_print_coordinates_without_building_points(monkeypatch, capsys, argv):
    from taulike.cli import main

    built = []
    check = CanonicalPoint.__post_init__
    monkeypatch.setattr(CanonicalPoint, "__post_init__", lambda self: built.append(self) or check(self))
    assert main(list(argv)) == 0
    assert capsys.readouterr().out.startswith("{")
    assert built == []
