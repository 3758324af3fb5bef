"""Command-line behavior: golden outputs, exit codes, JSON contracts."""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taulike.cli
import taulike.harness
import taulike.poset
import taulike.streams
from taulike import TooLarge, make_embed_gadget
from taulike.cli import main
from taulike.linearize import MAX_CROSS_CELLS
from taulike.poset import (
    MAX_DOCUMENT_ELEMENTS,
    MAX_DOCUMENT_PAIRS,
    build_poset,
    poset_from_json_dict,
    poset_to_json_dict,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"
# the entry point in a child process, importing this checkout's package
CLI = [sys.executable, "-m", "taulike.cli"]
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def run_cli(*argv: str, expect: int = 0):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
    assert code == expect, f"exit {code}, output: {buf.getvalue()!r}"
    text = buf.getvalue()
    return json.loads(text) if text.strip() else None


def run_cli_error(*argv: str) -> dict:
    """Run a command that must fail: exit 1, one JSON object on stdout, no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 1
    assert out.getvalue().count("\n") == 1
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return json.loads(out.getvalue())["error"]


def golden(name: str):
    return json.loads((GOLDEN / name).read_text())


# -- pinned golden outputs ---------------------------------------------------


def test_golden_linearize_omega():
    got = run_cli("linearize", "--kind", "omega", "--family", "omega", "--blocks", "4")
    assert got == golden("linearize_omega.json")
    assert got["order"] == [0, 1, 2, 3]


def test_golden_fuf_gadget_and_decode(tmp_path):
    gadget = run_cli("gadget", "fuf", "--sets", "1;2", "--kind", "omega")
    assert gadget == golden("gadget_fuf.json")
    path = tmp_path / "fuf.json"
    path.write_text(json.dumps(gadget))
    decoded = run_cli("decode", "fuf", "--input", str(path))
    assert decoded == golden("decode_fuf.json")
    assert decoded["bound"] >= 3


def test_golden_verify_cycle(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"elements":[0,1],"relation":[[0,1],[1,0]]}')
    got = run_cli("verify", "--input", str(path), expect=1)
    assert got == golden("verify_cycle.json")
    assert got["error"]["code"] == "CycleError"


def test_golden_linearize_zeta():
    got = run_cli("linearize", "--kind", "zeta", "--family", "zeta-2", "--elements", "40")
    assert got == golden("linearize_zeta.json")


def test_golden_linearize_zeta_fence():
    # a 14-element fence enumerated out of order: every interval is an edge
    fence = str(GOLDEN / "fence.json")
    got = run_cli("linearize", "--kind", "zeta", "--input", fence, "--elements", "14")
    assert got == golden("linearize_zeta_fence.json")


@pytest.mark.parametrize(
    "argv, name",
    [
        (("oracle", "--family", "range-gadget", "--f", "swap:2"), "oracle_range_gadget.json"),
        (("oracle", "--family", "embed-gadget", "--f", "swap:2"), "oracle_embed_gadget.json"),
        (("verify", "--family", "omega-omega-star"), "verify_omega_omega_star.json"),
        (("verify", "--family", "zeta"), "verify_zeta.json"),
    ],
)
def test_golden_audits(argv, name):
    # 150 elements: past the 120-element switch, so the sampled interval pairs are pinned too
    assert run_cli(*argv, "--elements", "150") == golden(name)


@pytest.mark.parametrize(
    "argv, name",
    [
        (("gadget", "embed", "--f", "swap:4", "--elements", "120"), "gadget_embed.json"),
        (("gadget", "range", "--f", "perm:2,5,1,7,0,4,3,6;gap:2", "--elements", "120"), "gadget_range.json"),
        (("decode", "false-stages", "--f", "perm:2,5,1,7,0,4,3,6;gap:2", "--horizon", "300"),
         "decode_false_stages.json"),
    ],
)
def test_golden_gadgets_answering_with_id_runs(argv, name):
    assert run_cli(*argv) == golden(name)


def test_entry_point_subprocess():
    proc = subprocess.run(
        [*CLI, "linearize", "--kind", "omega", "--family", "omega", "--blocks", "4"],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("\n") == 1  # one line, like the error envelope
    assert json.loads(proc.stdout) == golden("linearize_omega.json")


def test_closed_stdout_exits_one_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [*CLI, "embed", "--kind", "zeta", "--family", "omega", "--elements", "5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=CLI_ENV,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


# -- schema and round-trip contracts ----------------------------------------------


def test_every_result_carries_schema(tmp_path):
    results = [
        run_cli("linearize", "--kind", "zeta", "--family", "zeta", "--blocks", "3"),
        run_cli("embed", "--kind", "omega", "--family", "omega", "--blocks", "3"),
        run_cli("gadget", "stage", "--f", "perm:1,0,2", "--elements", "3"),
        run_cli("gadget", "range", "--f", "identity", "--elements", "6"),
        run_cli("gadget", "embed", "--f", "identity", "--elements", "6"),
        run_cli("decode", "false-stages", "--f", "perm:1,0,2", "--horizon", "30"),
        run_cli("decode", "range", "--f", "perm:1,0,2", "--elements", "0", "--horizon", "64"),
        run_cli("verify", "--family", "omega", "--kind", "omega"),
        run_cli("oracle", "--family", "omega", "--elements", "40"),
    ]
    for doc in results:
        assert isinstance(doc["schema"], str) and doc["schema"].startswith("taulike.")


def test_emitted_poset_json_reloads_identically():
    gadget = run_cli("gadget", "range", "--f", "perm:1,0,2", "--elements", "8")
    doc = gadget["prefix"]
    assert poset_to_json_dict(poset_from_json_dict(doc)) == doc


def test_out_flag_mirrors_stdout(tmp_path):
    path = tmp_path / "result.json"
    got = run_cli(
        "linearize", "--kind", "omega", "--family", "omega", "--blocks", "2", "--out", str(path)
    )
    assert json.loads(path.read_text()) == got


# -- command behavior ---------------------------------------------------------------


def test_linearize_split_pinned():
    got = run_cli(
        "linearize", "--kind", "omega-omega-star", "--family", "omega-omega-star", "--elements", "8"
    )
    assert got["order"] == [0, 2, 4, 6, 7, 5, 3, 1]
    assert got["blocks"] is None
    assert ["0", "FIN_PRED"] == [str(got["sides"][0][0]), got["sides"][0][1]]


def test_linearize_default_budget_is_eight_blocks():
    got = run_cli("linearize", "--kind", "omega", "--family", "omega")
    assert len(got["blocks"]) == 8


def test_linearize_from_poset_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"elements":[0,1,2],"relation":[[2,0]]}')
    got = run_cli("linearize", "--kind", "omega", "--input", str(path))
    order = got["order"]
    assert set(order) == {0, 1, 2}
    assert order.index(2) < order.index(0)


def test_embed_zeta_signed_coords():
    got = run_cli("embed", "--kind", "zeta", "--family", "zeta", "--blocks", "5")
    pairs = {x: c for x, c in got["map"]}
    from taulike.streams import zigzag_decode

    assert pairs == {x: zigzag_decode(x) for x in pairs}


def test_gadget_stage_payload():
    got = run_cli("gadget", "stage", "--f", "perm:1,0,2", "--elements", "3")
    assert got["values"] == [1, 0, 2]
    assert got["false_stages"] == [0]
    assert got["ascending"] == [0, 2, 1]


@pytest.mark.parametrize("what", ["stage", "range", "embed"])
def test_gadget_zero_elements_prints_the_empty_prefix(what):
    got = run_cli("gadget", what, "--f", "swap:2", "--elements", "0")
    if what == "stage":
        assert got["values"] == got["witness"] == got["ascending"] == []
    else:
        assert got["prefix"]["elements"] == got["prefix"]["relation"] == []


def test_decode_false_stages_end_to_end():
    got = run_cli("decode", "false-stages", "--f", "swap:2", "--horizon", "60")
    assert got["stages"] == got["ground_truth"] == [0, 2]
    assert got["requested"] == 50


def test_decode_range_end_to_end():
    hit = run_cli("decode", "range", "--f", "perm:1,0,2", "--elements", "0", "--horizon", "64")
    assert hit["member"] is True and hit["rank"] >= 2
    miss = run_cli(
        "decode", "range", "--f", "perm:1,0,2;gap:4", "--elements", "3", "--horizon", "128"
    )
    assert miss["member"] is False


def test_verify_all_kinds_on_omega_stream():
    got = run_cli("verify", "--family", "omega")
    by_kind = {r["kind"]: r["ok"] for r in got["reports"]}
    assert by_kind["omega"] is True
    assert by_kind["omega-star"] is False  # no successors oracle, honestly reported
    assert got["ok"] is False


def test_verify_single_kind_ok():
    got = run_cli("verify", "--family", "omega", "--kind", "omega")
    assert got["ok"] is True and len(got["reports"]) == 1


def test_verify_finite_file_all_kinds(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"elements":[0,1,2],"relation":[[0,1]]}')
    got = run_cli("verify", "--input", str(path))
    assert got["ok"] is True
    assert all(r["scope"] == "finite" for r in got["reports"])


def test_oracle_command_on_gadgets():
    got = run_cli("oracle", "--family", "range-gadget", "--f", "identity", "--elements", "60")
    assert got["ok"] is True
    got = run_cli("oracle", "--family", "fuf", "--sets", "2;1")
    assert got["ok"] is True and got["prefix_size"] == 5


def test_fuf_family_variant_flag():
    got = run_cli("linearize", "--kind", "omega-star", "--family", "fuf", "--sets", "1;2", "--kind", "omega-star")
    assert got["order"] == [4, 3, 2, 1, 0]


# -- failure modes ---------------------------------------------------------------------


def test_usage_errors_exit_two():
    run_cli(expect=2)
    run_cli("linearize", "--family", "omega", expect=2)  # --kind required
    run_cli("linearize", "--kind", "sideways", "--family", "omega", expect=2)
    run_cli("linearize", "--kind", "omega", expect=2)  # no source
    run_cli("linearize", "--kind", "omega", "--family", "nowhere", expect=2)
    run_cli("gadget", "fuf", expect=2)  # --sets required
    run_cli("gadget", "fuf", "--sets", "1;x", expect=2)
    run_cli("decode", "false-stages", expect=2)  # --f required
    # a subcommand takes only the flags it reads
    run_cli("gadget", "range", "--f", "perm:1,0", "--kind", "zeta", "--input", "nothere", "--sets", "x", expect=2)
    run_cli("gadget", "fuf", "--sets", "1;2", "--elements", "3", expect=2)
    run_cli("decode", "range", "--f", "identity", "--elements", "3", "--seed", "1", expect=2)
    # budgets, horizons and prefix sizes are natural numbers
    run_cli("linearize", "--kind", "omega", "--family", "omega", "--elements", "-3", expect=2)
    run_cli("linearize", "--kind", "omega", "--family", "omega", "--blocks", "-1", expect=2)
    run_cli("embed", "--kind", "omega", "--family", "omega", "--elements", "-1", expect=2)
    run_cli("verify", "--family", "omega", "--elements", "-1", expect=2)
    run_cli("oracle", "--family", "omega", "--elements", "-1", expect=2)
    run_cli("gadget", "range", "--f", "identity", "--elements", "-2", expect=2)
    run_cli("decode", "false-stages", "--f", "identity", "--horizon", "-1", expect=2)
    run_cli("decode", "range", "--f", "identity", "--elements", "-1", expect=2)
    # an audit of an empty prefix certifies nothing
    run_cli("verify", "--family", "omega", "--elements", "0", expect=2)
    run_cli("oracle", "--family", "omega", "--elements", "0", expect=2)


def test_input_and_family_conflict(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"elements":[0],"relation":[]}')
    run_cli("linearize", "--kind", "omega", "--input", str(path), "--family", "omega", expect=2)


def test_domain_errors_exit_one(tmp_path):
    got = run_cli(
        "linearize", "--kind", "omega", "--family", "omega", "--blocks", "2", "--elements", "2",
        expect=1,
    )
    assert got["error"]["code"] == "FormatError"
    # zeta stream offers no predecessors oracle
    got = run_cli("linearize", "--kind", "omega", "--family", "zeta", expect=1)
    assert got["error"]["code"] == "OracleMissing"
    # between the two chains every interval is infinite
    got = run_cli("linearize", "--kind", "zeta", "--family", "omega-omega-star", expect=1)
    assert got["error"]["code"] == "OracleMissing"
    got = run_cli("verify", "--input", str(tmp_path / "missing.json"), expect=1)
    assert got["error"]["code"] == "FileNotFound"
    bad = tmp_path / "garbled.json"
    bad.write_text("{not json")
    got = run_cli("verify", "--input", str(bad), expect=1)
    assert got["error"]["code"] == "FormatError"


def test_decode_false_stages_refuses_more_stages_than_the_horizon():
    assert run_cli_error("decode", "false-stages", "--f", "swap:2", "--elements", "60", "--horizon", "20") == {
        "code": "HorizonTooSmall",
        "detail": "contiguous chain run has length 20, need at least 60",
    }


@pytest.mark.parametrize("argv", [[], ["--elements", "10"]], ids=["default", "elements 10"])
def test_decode_false_stages_enumerates_only_the_stages_it_reads(monkeypatch, argv):
    # element_at checks the stages that a call adds to its stream's cache
    checked = collections.Counter()
    inner = taulike.streams.StreamPoset.element_at

    def counted(stream, stage):
        before = len(stream._cache)
        try:
            return inner(stream, stage)
        finally:
            checked.update(range(before, len(stream._cache)))

    monkeypatch.setattr(taulike.streams.StreamPoset, "element_at", counted)
    got = run_cli("decode", "false-stages", "--f", "perm:2,5,1,7,0,4,3,6;gap:2", "--horizon", "1600", *argv)
    s = got["requested"]
    assert got["horizon"] == s and got["stages"] == got["ground_truth"]
    assert checked == collections.Counter(range(2 * s))


def test_decode_range_refuses_a_horizon_short_of_the_top_element():
    # a_200 is id 400, which the default --horizon of 256 elements stops short of
    assert run_cli_error("decode", "range", "--f", "identity", "--elements", "200") == {
        "code": "UnknownIdError",
        "detail": "embedding does not cover the top element for 200",
    }


@pytest.mark.parametrize("spec", ["swap:2", "perm:1,0,2;gap:5"])
def test_decode_range_stops_once_the_top_element_is_placed(monkeypatch, spec):
    asked = []

    def counted_gadget(fspec):
        gadget = make_embed_gadget(fspec)
        predecessors = gadget.stream.oracles.predecessors
        gadget.stream.oracles = dataclasses.replace(
            gadget.stream.oracles, predecessors=lambda x: asked.append(x) or predecessors(x)
        )
        return gadget

    monkeypatch.setattr(taulike.cli, "make_embed_gadget", counted_gadget)
    payloads, counts = [], []
    for horizon in (64, 256, 1024, 4096):
        asked.clear()
        argv = ["decode", "range", "--f", spec, "--elements", "4", "--horizon", str(horizon)]
        payloads.append(run_cli(*argv))
        counts.append(len(asked))
    assert payloads == [payloads[0]] * 4
    assert counts == [counts[0]] * 4 and asked[-1] == 8  # the last pivot is a_4


def test_ids_outside_int64_are_refused(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"elements": [2**70, 3], "relation": [[3, 2**70]]}))
    for argv in (["oracle"], ["verify"], ["linearize", "--kind", "omega"]):
        assert run_cli_error(*argv, "--input", str(path))["code"] == "UnknownIdError"


def test_out_to_a_missing_directory_prints_only_the_error(tmp_path):
    target = tmp_path / "nodir" / "x.json"
    err = run_cli_error(
        "linearize", "--kind", "omega", "--family", "omega", "--blocks", "2", "--out", str(target)
    )
    assert err["code"] == "FileNotFound"
    assert not target.exists()


@pytest.mark.parametrize(
    "argv", [["linearize", "--kind", "omega"], ["verify"], ["decode", "fuf"]], ids=" ".join
)
def test_directory_input_is_a_file_error(tmp_path, argv):
    assert run_cli_error(*argv, "--input", str(tmp_path))["code"] == "FileError"


@pytest.mark.parametrize(
    "argv", [["linearize", "--kind", "omega"], ["verify"], ["decode", "fuf"]], ids=" ".join
)
def test_non_utf8_input_is_a_format_error(tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"elements": [0], "relation": []}')
    assert run_cli_error(*argv, "--input", str(bad))["code"] == "FormatError"


def test_file_error_subprocess_prints_one_envelope(tmp_path):
    proc = subprocess.run(
        [*CLI, "linearize", "--kind", "omega", "--family", "omega", "--blocks", "2",
         "--out", str(tmp_path / "nodir" / "x.json")],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    assert proc.returncode == 1
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout)["error"]["code"] == "FileNotFound"
    assert "Traceback" not in proc.stderr


def test_decode_fuf_rejects_non_gadget_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text('{"elements":[0],"relation":[]}')
    got = run_cli("decode", "fuf", "--input", str(path), expect=1)
    assert got["error"]["code"] == "FormatError"


def test_version_flag():
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
    assert exc.value.code == 0
    assert buf.getvalue().startswith("taulike ")


# -- size guard ------------------------------------------------------------------------


class _Closed(Exception):
    """Raised in place of closure: the document got past the size guard."""


def _refuse_closure(*args, **kwargs):
    raise _Closed


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": list(range(MAX_DOCUMENT_ELEMENTS + 1)), "relation": []},
        {"elements": [0, 1], "relation": [[0, 1]] * (MAX_DOCUMENT_PAIRS + 1)},
    ],
    ids=["elements", "pairs"],
)
def test_oversized_input_is_refused_before_closure(tmp_path, monkeypatch, doc):
    monkeypatch.setattr(taulike.poset, "build_poset", _refuse_closure)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run_cli_error("linearize", "--kind", "omega", "--input", str(path))["code"] == "TooLarge"
    # one element or pair fewer passes the guard and reaches closure
    doc[max(doc, key=lambda k: len(doc[k]))].pop()
    with pytest.raises(_Closed):
        poset_from_json_dict(doc)


def test_a_cycle_through_every_element_at_the_guard_is_one_envelope(tmp_path):
    n = MAX_DOCUMENT_ELEMENTS
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"elements": list(range(n)), "relation": [[i, (i + 1) % n] for i in range(n)]}))
    err = run_cli_error("linearize", "--kind", "omega", "--blocks", "4", "--input", str(path))
    assert err == {"code": "CycleError", "detail": "elements 0 and 1 are mutually below each other"}


@pytest.mark.parametrize("what", ["fuf", "range", "embed"])
def test_every_gadget_written_reads_back(tmp_path, monkeypatch, what):
    """Writing obeys the reading guard, shown at a small limit: a gadget of
    exactly the limit is written and reads back, one element more is refused."""
    limit = 12
    monkeypatch.setattr(taulike.poset, "MAX_DOCUMENT_ELEMENTS", limit)

    def gadget(n: int) -> list[str]:  # a gadget whose poset has n elements
        if what == "fuf":
            return ["gadget", "fuf", "--sets", str(n - 1)]  # one part and its marker
        return ["gadget", what, "--f", "identity", "--elements", str(n)]

    over = tmp_path / "over.json"
    assert run_cli_error(*gadget(limit + 1), "--out", str(over))["code"] == "TooLarge"
    assert not over.exists()
    out = tmp_path / "g.json"
    doc = run_cli(*gadget(limit), "--out", str(out))
    if what == "fuf":
        decoded = run_cli("decode", "fuf", "--input", str(out))
        assert sorted(decoded["order"]) == doc["poset"]["elements"]
    else:
        prefix = tmp_path / "prefix.json"
        prefix.write_text(json.dumps(doc["prefix"]))
        order = run_cli("linearize", "--kind", "omega", "--input", str(prefix), "--elements", str(limit))
        assert sorted(order["order"]) == sorted(doc["prefix"]["elements"])


class _Pulled(Exception):
    """Raised in place of take: the audit got past the work limit."""


def _refuse_pull(*args, **kwargs):
    raise _Pulled


@pytest.mark.parametrize("command", ["oracle", "verify"])
def test_an_audit_over_the_work_limit_is_refused_before_take(monkeypatch, command):
    for module in (taulike.streams, taulike.harness):  # the auditors' take
        monkeypatch.setattr(module, "take", _refuse_pull)
    monkeypatch.setattr(taulike.streams.StreamPoset, "element_at", _refuse_pull)
    limit = taulike.cli.MAX_AUDIT_ELEMENTS
    err = run_cli_error(command, "--family", "omega", "--elements", str(limit + 1))
    assert err["code"] == "TooLarge"
    assert f"an audit of {limit + 1} elements exceeds the limit of {limit}" in err["detail"]
    # at the limit the audit goes on to pull its prefix
    with pytest.raises(_Pulled):
        main([command, "--family", "omega", "--elements", str(limit)])


def test_the_random_family_is_refused_above_64_elements():
    for command in ("linearize", "embed", "verify", "oracle"):
        argv = [command, *(["--kind", "omega"] if command in ("linearize", "embed") else []), "--family", "random"]
        err = run_cli_error(*argv, "--elements", "65")
        assert err == {"code": "TooLarge", "detail": "65 elements exceeds the random-generation guard 64"}
        run_cli(*argv, "--elements", "64")


def test_a_split_over_the_cross_check_limit_is_refused_before_the_rectangle(monkeypatch):
    monkeypatch.setattr(taulike.streams.StreamPoset, "relation_matrix", _refuse_pull)
    side = math.isqrt(MAX_CROSS_CELLS)  # the omega-omega-star split halves its budget
    argv = ["linearize", "--kind", "omega-omega-star", "--family", "omega-omega-star", "--elements"]
    err = run_cli_error(*argv, str(2 * side + 2))
    assert err["code"] == "TooLarge"
    assert err["detail"] == (
        f"the split's cross check of {side + 1} x {side + 1} elements exceeds the limit of {MAX_CROSS_CELLS} pairs"
    )
    # at the limit the split goes on to build its cross rectangle
    with pytest.raises(_Pulled):
        main([*argv, str(2 * side)])


def test_a_poset_with_more_covers_than_the_guard_is_not_written(monkeypatch):
    monkeypatch.setattr(taulike.poset, "MAX_DOCUMENT_PAIRS", 3)
    assert len(poset_to_json_dict(build_poset(range(4), [(0, 1), (1, 2), (2, 3)]))["relation"]) == 3
    with pytest.raises(TooLarge):
        poset_to_json_dict(build_poset(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)]))


# -- the whole grammar ------------------------------------------------------------------

# Each command with the flags it needs (a "source" is --input or --family) and
# the flags it also takes.
_SOURCE = ["--input", "--family", "--f", "--sets", "--kind", "--seed", "--out"]
_GRAMMAR = {
    ("linearize",): (["--kind", "source"], _SOURCE + ["--blocks", "--elements"]),
    ("embed",): (["--kind", "source"], _SOURCE + ["--blocks", "--elements"]),
    ("gadget", "fuf"): (["--sets"], ["--kind", "--out"]),
    **{("gadget", what): (["--f"], ["--elements", "--out"]) for what in ("stage", "range", "embed")},
    ("decode", "fuf"): (["--input"], ["--out"]),
    ("decode", "false-stages"): (["--f"], ["--horizon", "--elements", "--out"]),
    ("decode", "range"): (["--f", "--elements"], ["--horizon", "--out"]),
    ("verify",): (["source"], _SOURCE + ["--elements"]),
    ("oracle",): (["source"], _SOURCE + ["--elements"]),
}
_FAMILIES = [
    "omega", "omega-star", "zeta", "zeta-1", "antichain", "omega-omega-star", "random",
    "range-gadget", "embed-gadget", "fuf", "nowhere",
]
_KINDS = ["omega", "omega-star", "zeta", "omega-omega-star", "sideways"]
_SPECS = ["identity", "swap:2", "perm:2,0,1", "perm:0,0", "perm:", "swap:-1", "junk"]
_SETS = ["1;2", "0", "2;1;3", "-1", "x;y", ""]


_MALFORMED = {
    "not-json": "{elements",
    "array": "[1, 2]",
    "string": '"poset"',
    "null": "null",
    "unknown-key": '{"nodes": [], "relation": []}',
    "no-relation": '{"elements": [0]}',
    "bool-ids": '{"elements": [true, false], "relation": []}',
    "negative-id": '{"elements": [-1], "relation": []}',
    "duplicate-id": '{"elements": [0, 0], "relation": []}',
    "huge-id": '{"elements": [9223372036854775808, 3], "relation": [[3, 9223372036854775808]]}',
    "short-pair": '{"elements": [0, 1], "relation": [[0]]}',
    "dangling": '{"elements": [0], "relation": [[0, 5]]}',
    "cycle": '{"elements": [0, 1], "relation": [[0, 1], [1, 0]]}',
    "gadget-shape": '{"poset": 3, "variant": "omega", "parts": 5, "top_markers": []}',
}
# malformed documents, files that load, and paths that are no JSON file at all
_INPUTS = sorted(_MALFORMED) + ["over-guard", "chain", "fence", "gadget", "bad-bytes", "a-directory", "missing"]


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    texts = {
        **_MALFORMED,
        "over-guard": json.dumps({"elements": list(range(MAX_DOCUMENT_ELEMENTS + 1)), "relation": []}),
        "chain": json.dumps({"elements": list(range(12)), "relation": [[i, i + 1] for i in range(11)]}),
        "fence": (GOLDEN / "fence.json").read_text(),
        "gadget": (GOLDEN / "gadget_fuf.json").read_text(),
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "bad-bytes").write_bytes(b'\xff\xfe{"elements": [0], "relation": []}')
    (root / "a-directory").mkdir()
    return root


@st.composite
def _argv(draw, root: Path) -> list[str]:
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    needed, optional = _GRAMMAR[command]
    flags = [f for f in needed if draw(st.integers(0, 5))]  # usually present
    flags = [draw(st.sampled_from(["--input", "--family"])) if f == "source" else f for f in flags]
    flags += draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))
    flags = list(dict.fromkeys(flags))
    values = {
        "--input": st.sampled_from(_INPUTS).map(lambda name: str(root / name)),
        "--family": st.sampled_from(_FAMILIES),
        "--f": st.sampled_from(_SPECS),
        "--sets": st.sampled_from(_SETS),
        "--kind": st.sampled_from(_KINDS),
        "--seed": st.integers(0, 3).map(str),
        "--out": st.sampled_from(["out.json", "nodir/out.json"]).map(lambda name: str(root / name)),
        "--blocks": st.integers(-1, 12).map(str),
        "--elements": st.integers(-1, 40).map(str),
        "--horizon": st.integers(-1, 60).map(str),
    }
    argv = list(command)
    for flag in flags:
        argv += [flag, draw(values[flag])]
    return argv


def _assert_one_envelope_or_usage(argv: list[str]) -> None:
    """Exit 0, 1 or 2; one JSON object on stdout, or a usage line on stderr; no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and "usage:" in err.getvalue(), argv
        return
    assert out.getvalue().count("\n") == 1, argv
    doc = json.loads(out.getvalue())
    assert isinstance(doc, dict)
    assert ("error" in doc) == (code == 1), argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_command_line_ends_in_one_envelope_or_a_usage_error(input_dir, data):
    _assert_one_envelope_or_usage(data.draw(_argv(input_dir)))


def test_every_input_file_ends_in_one_envelope(input_dir):
    for name in _INPUTS:
        for command in (["linearize", "--kind", "omega"], ["verify"], ["decode", "fuf"]):
            _assert_one_envelope_or_usage([*command, "--input", str(input_dir / name)])
