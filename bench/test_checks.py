"""Tests of the benchmark itself: every checker passes the program's real
output and rejects a corrupted copy of it.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks as C  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from workloads import OperationFailed  # noqa: E402


def cli(*argv: str) -> dict:
    return W.doc_of(W.cli_call(argv)())


def rejects(check, *args) -> None:
    with pytest.raises(C.WrongOutput):
        check(*args)


# -- reference computations -------------------------------------------------------


def test_closure_and_cycles():
    rel = C.close([3, 1, 2], [(3, 1), (1, 2)])
    assert rel.le(3, 2) and not rel.le(2, 3)
    assert rel.strict_pairs() == {(3, 1), (1, 2), (3, 2)}
    rejects(C.close, [1, 2], [(1, 2), (2, 1)])


def test_zigzag_decoding():
    assert [C.zigzag_value(x) for x in range(7)] == [0, -1, 1, -2, 2, -3, 3]


def test_spec_brute_force():
    spec = C.Spec((1, 0, 2), gap=5)
    assert spec.false_stages(10) == {0}
    assert spec.in_range(2) and not spec.in_range(4) and spec.in_range(8)


def test_fan_stage():
    # fan n holds n + 1 consecutive odd ids: 1 | 3 5 | 7 9 11 | ...
    assert [C.fan_stage(x) for x in (1, 3, 5, 7, 11, 13)] == [0, 1, 1, 2, 2, 3]


# -- each checker passes real output and rejects a corruption -----------------------


@pytest.fixture(scope="module")
def poset_file(tmp_path_factory):
    import random

    enum, gens = W.banded_poset(random.Random(7), 30, 30)
    path = tmp_path_factory.mktemp("bench") / "p.json"
    W.write_json(path, W.poset_doc(enum, gens))
    return str(path), C.close(enum, gens)


def test_swapped_pair_breaks_the_order(poset_file):
    path, rel = poset_file
    doc = cli("linearize", "--kind", "omega", "--input", path, "--elements", "60")
    assert C.check_finite_linearize(doc, rel, "omega", 60) == 60
    order = doc["order"]
    i = next(i for i in range(len(order) - 1) if rel.le(order[i], order[i + 1]))
    bad = copy.deepcopy(doc)
    bad["order"][i], bad["order"][i + 1] = order[i + 1], order[i]
    rejects(C.check_finite_linearize, bad, rel, "omega", 60)


def test_swapped_pair_breaks_a_family_order():
    doc = cli("linearize", "--kind", "omega-omega-star", "--family", "omega-omega-star", "--elements", "20")
    C.check_family_linearize(doc, "omega-omega-star", "omega-omega-star", 20)
    bad = copy.deepcopy(doc)
    bad["order"][0], bad["order"][1] = bad["order"][1], bad["order"][0]
    rejects(C.check_family_linearize, bad, "omega-omega-star", "omega-omega-star", 20)


def test_embedding_coordinate_off_by_one():
    doc = cli("embed", "--kind", "omega-omega-star", "--family", "omega-omega-star", "--elements", "20")
    C.check_family_embedding(doc, "omega-omega-star", 20)
    bad = copy.deepcopy(doc)
    bad["map"][4][1][1] += 1
    rejects(C.check_family_embedding, bad, "omega-omega-star", 20)


def test_split_parts_must_extend():
    small = cli("linearize", "--kind", "omega-omega-star", "--family", "omega-omega-star", "--elements", "10")
    big = cli("linearize", "--kind", "omega-omega-star", "--family", "omega-omega-star", "--elements", "20")
    C.check_split_prefix(small, big)
    rejects(C.check_split_prefix, big, small)


def test_chain_run_must_be_one_stretch(tmp_path):
    import random

    enum, gens, path = W.shuffled_path(random.Random(5), 30, zigzag=False)
    file = W.write_json(tmp_path / "chain.json", W.poset_doc(enum, gens))
    doc = cli("linearize", "--kind", "zeta", "--input", file, "--elements", "30")
    C.check_chain_zeta(doc, path, 30)
    bad = copy.deepcopy(doc)
    bad["order"].pop()
    bad["order"].insert(0, path[0] if path[0] not in bad["order"] else path[-1])
    rejects(C.check_chain_zeta, bad, path, 20)


def test_dropped_false_stage():
    spec = C.Spec((3, 1, 0, 2, 5, 4))
    doc = cli("decode", "false-stages", "--f", spec.text(), "--horizon", "40")
    C.check_false_stages(doc, spec)
    bad = dict(doc, stages=doc["stages"][1:])
    rejects(C.check_false_stages, bad, spec)


def test_flipped_range_membership():
    spec = C.Spec((1, 0, 2), gap=5)
    doc = cli("decode", "range", "--f", spec.text(), "--elements", "4", "--horizon", "100")
    C.check_range(doc, spec, 4)
    rejects(C.check_range, dict(doc, member=not doc["member"]), spec, 4)


def test_zeta_coordinate_off_by_one():
    doc = cli("embed", "--kind", "zeta", "--family", "zeta-2", "--elements", "30")
    C.check_zeta_embedding(doc, 30)
    bad = copy.deepcopy(doc)
    bad["map"][3][1] += 1
    rejects(C.check_zeta_embedding, bad, 30)


def test_zeta_run_with_a_hole():
    doc = cli("linearize", "--kind", "zeta", "--family", "zeta-1", "--elements", "30")
    C.check_family_linearize(doc, "zeta-1", "zeta", 30)
    bad = copy.deepcopy(doc)
    bad["order"].pop(1)
    rejects(C.check_zeta_order, bad["order"], None, 20, "zeta run")


def test_block_prefix():
    small = cli("linearize", "--kind", "zeta", "--family", "zeta", "--elements", "20")
    big = cli("linearize", "--kind", "zeta", "--family", "zeta", "--elements", "40")
    C.check_block_prefix(small, big, "zeta")
    bad = copy.deepcopy(small)
    bad["blocks"][1]["members"].reverse()
    bad["blocks"][1]["members"].append(999)
    rejects(C.check_block_prefix, bad, big, "zeta")


def test_covers_missing_a_pair():
    spec = C.Spec((2, 0, 1, 3))
    doc = cli("gadget", "range", "--f", spec.text(), "--elements", "24")
    C.check_gadget_prefix(doc, C.range_gadget_le(spec), 24)
    missing = copy.deepcopy(doc)
    missing["prefix"]["relation"].pop(0)
    rejects(C.check_gadget_prefix, missing, C.range_gadget_le(spec), 24)


def test_covers_with_an_implied_pair():
    doc = cli("gadget", "embed", "--f", "perm:1,0", "--elements", "12")
    le = C.embed_gadget_le(C.Spec((1, 0)))
    C.check_gadget_prefix(doc, le, 12)
    chain = cli("gadget", "range", "--f", "identity", "--elements", "12")
    extra = copy.deepcopy(chain)
    extra["prefix"]["relation"].append([11, 7])  # b_5 <= b_3 follows from b_5 <= b_4 <= b_3
    rejects(C.check_gadget_prefix, extra, C.range_gadget_le(C.Spec(())), 12)


def test_fuf_bound_below_the_union(tmp_path):
    out = tmp_path / "g.json"
    gadget = cli("gadget", "fuf", "--sets", "2;3;1", "--kind", "zeta", "--out", str(out))
    C.check_fuf_gadget(gadget, [2, 3, 1], "zeta")
    rejects(C.check_fuf_gadget, gadget, [2, 3, 2], "zeta")
    doc = cli("decode", "fuf", "--input", str(out))
    C.check_fuf_decode(doc, gadget, [2, 3, 1])
    rejects(C.check_fuf_decode, dict(doc, bound=5), gadget, [2, 3, 1])


def test_verify_counts():
    doc = cli("verify", "--family", "omega-omega-star", "--elements", "12")
    C.check_verify(doc, "omega-omega-star", 12)
    bad = copy.deepcopy(doc)
    bad["reports"][2]["counts"]["5"] += 1
    rejects(C.check_verify, bad, "omega-omega-star", 12)
    lenient = copy.deepcopy(doc)
    lenient["reports"][3]["ok"] = True
    rejects(C.check_verify, lenient, "omega-omega-star", 12)


def test_audit_that_says_ok_for_a_seeded_fault():
    from taulike import validate_oracles

    report = validate_oracles(W.seeded_fault("UNSOUND"), 25).to_json_dict()
    C.check_audit(report, owed="UNSOUND")
    rejects(C.check_audit, dict(report, ok=True, violations=[]), "UNSOUND")
    rejects(C.check_audit, report, "INCOMPLETE")
    honest = cli("oracle", "--family", "omega", "--elements", "30")
    C.check_oracle_report(honest, 30)
    rejects(C.check_oracle_report, dict(honest, ok=False, violations=[{}]), 30)


def test_lying_bundles_count_as_failed_until_flagged():
    with pytest.raises(OperationFailed):
        W.check_flagged({"ok": True}, 10)
    with pytest.raises(OperationFailed):
        W.check_flagged({"crash": "AttributeError"}, 10)
    with pytest.raises(OperationFailed):
        W.check_flagged({"ok": False, "violations": [{"oracle": "interval"}]}, 10, "side")
    assert W.check_flagged({"error": "OracleMissing"}, 10) == 10
    assert W.check_flagged({"ok": False, "violations": [{"oracle": "side"}]}, 10, "side") == 10


# -- the generator -----------------------------------------------------------------


def test_banded_poset_low_part_is_a_down_set():
    import random

    enum, gens = W.banded_poset(random.Random(3), 20, 20)
    rel = C.close(enum, gens)
    low = set(enum[:20])
    assert not any(a not in low and b in low for a, b in rel.strict_pairs())


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    def files(seed, sub):
        W.build("finite", seed, tmp_path / sub)
        return {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}

    assert files(4, "a") == files(4, "b")
    assert files(4, "a") != files(5, "c")


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_a_second_seed_passes_every_check(workload, tmp_path):
    runner = run.Runner(W.build(workload, 2, tmp_path))
    runner.warm_up()
    assert runner.errors == []
    failed = sorted({job.label.split()[0] for pair in runner.pairs for job in (pair.n, pair.n2)
                     if runner.failed[id(job)]})
    assert failed == (["F1", "F2", "F3", "F4"] if workload == "audit" else [])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 301)]) == (95.0, 285.0)
    assert run.tail_percentile([float(i) for i in range(1, 41)])[0] == 75.0
