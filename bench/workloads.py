"""Seeded inputs and job lists for the four benchmark workloads.

``build(workload, seed, outdir)`` draws every input from ``seed``, writes the
poset JSON files the jobs load into ``outdir``, and returns the workload's
jobs in pairs: the same job at size n and at size 2n.  The program sees only
the generated argv and files (CLI jobs) or, where the CLI cannot express an
input, a stream built from the public library API (the audit workload's
seeded faults).  Each job carries a check that compares its output with a
computation made by :mod:`checks`, apart from the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import checks as C

WORKLOADS = ("audit", "two-ended", "one-sided", "finite")


class OperationFailed(Exception):
    """The program did not complete the operation (error exit, crash, or a
    known-faulty audit that let a lie through)."""


@dataclass
class Job:
    label: str
    size: str  # "n" or "2n"
    call: Callable[[], Any]
    check: Callable[[Any], int]


@dataclass
class Pair:
    n: Job
    n2: Job
    check: Callable[[Any, Any], None] | None = None


# -- calling the program ---------------------------------------------------------


def cli_call(argv: Sequence[str]) -> Callable[[], tuple[int, str]]:
    argv = list(argv)

    def call() -> tuple[int, str]:
        from taulike import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    return call


def doc_of(out: Any) -> dict:
    if isinstance(out, dict):
        if "crash" in out:
            raise OperationFailed(out["crash"])
        return out
    rc, text = out
    if rc != 0:
        raise OperationFailed(text.strip()[:300])
    return json.loads(text)


def cli_job(label: str, size: str, argv: Sequence[str], check: Callable[[dict], int]) -> Job:
    return Job(label, size, cli_call(argv), lambda out: check(doc_of(out)))


def cli_pair(label: str, argv_for: Callable[[int], list[str]], n: int,
             check: Callable[[dict, int], int],
             pair_check: Callable[[dict, dict], None] | None = None) -> Pair:
    def job(size: str, k: int) -> Job:
        return cli_job(label, size, argv_for(k), lambda doc: check(doc, k))

    both = None if pair_check is None else lambda a, b: pair_check(doc_of(a), doc_of(b))
    return Pair(job("n", n), job("2n", 2 * n), both)


# -- drawn inputs ------------------------------------------------------------------


def draw_spec(rng: random.Random, width: int, max_gap: int = 0) -> C.Spec:
    head = list(range(width))
    rng.shuffle(head)
    return C.Spec(tuple(head), rng.randrange(max_gap + 1))


def draw_sizes(rng: random.Random, parts: int, total: int) -> list[int]:
    """``parts`` positive part sizes summing to ``total``."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def poset_doc(elements: Sequence[int], relation: Sequence[tuple[int, int]]) -> dict:
    return {"schema": "taulike.poset/1", "elements": list(elements), "relation": [list(p) for p in relation]}


def banded_poset(rng: random.Random, n_low: int, n_high: int, reach: int = 8, degree: int = 2):
    """A random order whose first ``n_low`` enumerated elements are a down-set.

    Elements get hidden ranks; each rank sends ``degree`` generators to
    random ranks at most ``reach`` above it.  Low elements hold the lowest
    ranks, so no generator leads from a high element down to a low one, and
    the low part alone is the induced sub-order on the first n_low stages.
    Returns (enumerated ids, generators).
    """
    total = n_low + n_high
    ids = rng.sample(range(4 * total), total)  # ids[r] is the element of rank r
    gens = set()
    for r in range(total - 1):
        for _ in range(degree):
            s = rng.randint(r + 1, min(r + reach, total - 1))
            gens.add((ids[r], ids[s]))
    low, high = list(range(n_low)), list(range(n_low, total))
    rng.shuffle(low)
    rng.shuffle(high)
    return [ids[r] for r in low + high], sorted(gens)


def shuffled_path(rng: random.Random, size: int, zigzag: bool):
    """A chain (or a fence when ``zigzag``) on random ids, enumerated in random order.

    Returns (enumerated ids, generators, ids along the path).
    """
    path = rng.sample(range(4 * size), size)
    gens = []
    for r in range(size - 1):
        a, b = path[r], path[r + 1]
        gens.append((b, a) if zigzag and r % 2 == 1 else (a, b))
    enum = list(path)
    rng.shuffle(enum)
    return enum, gens, path


def write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


# -- audit ---------------------------------------------------------------------------
# Oracle answers and the auditor's scans do the work; nothing is linearized.

AUDIT_N = 150  # gadget and canonical prefixes; above the auditor's 120-element full interval scan
AUDIT_FUF_N = 20  # marker gadgets are finite and their cone queries scan the whole poset
AUDIT_FAMILIES = ("omega", "omega-star", "zeta", "omega-omega-star", "antichain")


def _lib_call(fn: Callable[[], Any]) -> Callable[[], dict]:
    """Run a library audit and summarise its outcome as a JSON-like dict."""

    def call() -> dict:
        from taulike import TaulikeError

        try:
            return fn().to_json_dict()
        except TaulikeError as exc:
            return {"error": exc.code, "detail": str(exc)}
        except Exception as exc:  # a crash is the outcome being measured
            return {"crash": f"{type(exc).__name__}: {exc}"}

    return call


def _naturals(bundle, name: str, bulk: bool = True):
    from taulike import StreamPoset
    import numpy as np

    block = (lambda ids: np.asarray(ids)[:, None] <= np.asarray(ids)[None, :]) if bulk else None
    return StreamPoset(lambda s: s, lambda x, y: x <= y, oracles=bundle, name=name, leq_block=block)


def seeded_fault(which: str):
    """Criterion 9's three faulty bundles over the naturals, without a bulk hook."""
    from taulike import FinSide, OracleBundle

    bundle = {
        "INCOMPLETE": OracleBundle(predecessors=lambda x: [y for y in range(x + 1) if y != 2]),
        "UNSOUND": OracleBundle(predecessors=lambda x: list(range(x + 2))),
        "SIDE_INCONSISTENT": OracleBundle(predecessors=lambda x: None, side=lambda x: FinSide.FIN_PRED),
    }[which]
    return _naturals(bundle, f"fault-{which}", bulk=False)


def lying_stream(which: str):
    """The four lying bundles F1-F4 (see README)."""
    from taulike import OracleBundle, StreamPoset, omega_plus_omega_star_stream

    if which == "F1":
        return _naturals(OracleBundle(interval=lambda x, y: [x, y]), "F1")
    base = omega_plus_omega_star_stream()
    honest = base.oracles
    if which == "F2":
        bundle = OracleBundle(predecessors=lambda x: [x], successors=honest.successors,
                              interval=honest.interval, side=honest.side)
    else:  # F3, F4: the side oracle answers a plain string, FIN_PRED for every element
        bundle = OracleBundle(predecessors=honest.predecessors, successors=honest.successors,
                              interval=honest.interval, side=lambda x: "FIN_PRED")
    return StreamPoset(lambda s: s, base.leq, oracles=bundle, name=which, leq_block=base.relation_matrix)


def check_flagged(out: dict, size: int, oracle: str | None = None) -> int:
    """A lying bundle must end in a report that flags it, or a domain error."""
    if "crash" in out:
        raise OperationFailed(out["crash"])
    if "error" in out:
        return size
    if out["ok"]:
        raise OperationFailed("the lie was reported ok")
    if oracle is not None and not any(v["oracle"] == oracle for v in out["violations"]):
        raise OperationFailed(f"no violation names the {oracle} oracle")
    return size


def audit_pairs(rng: random.Random, outdir: Path) -> list[Pair]:
    # Library calls go through the package attributes at call time, so that
    # the per-layer run sees them once tracing.py has rebound those names.
    import taulike
    from taulike import Kind

    n = AUDIT_N
    pairs = []
    for family, width in (("range-gadget", 16), ("embed-gadget", 8)):
        spec = draw_spec(rng, width, 3)
        pairs.append(cli_pair(
            f"oracle {family}",
            lambda k, family=family, spec=spec: ["oracle", "--family", family, "--f", spec.text(), "--elements", str(k)],
            n, lambda doc, k: C.check_oracle_report(doc, k)))
    for variant in ("omega", "omega-star", "zeta"):
        sizes = draw_sizes(rng, 4, 2 * AUDIT_FUF_N)
        sets = ";".join(map(str, sizes))
        pairs.append(cli_pair(
            f"oracle fuf {variant}",
            lambda k, sets=sets, variant=variant: ["oracle", "--family", "fuf", "--sets", sets, "--kind", variant,
                                                   "--elements", str(k)],
            AUDIT_FUF_N, lambda doc, k: C.check_oracle_report(doc, k)))

    def counts_agree(a: dict, b: dict) -> None:
        for ra, rb in zip(a["reports"], b["reports"]):
            C.expect(all(rb["counts"].get(x) == c for x, c in ra["counts"].items()),
                     "verify counts change with a longer prefix")

    for family in AUDIT_FAMILIES:
        pairs.append(cli_pair(
            f"verify {family}",
            lambda k, family=family: ["verify", "--family", family, "--elements", str(k)],
            n, lambda doc, k, family=family: C.check_verify(doc, family, k), counts_agree))

    def lib_pair(label, make, check):
        return Pair(*(Job(label, size, _lib_call(lambda k=k: make(k)), lambda out, k=k: check(out, k))
                      for size, k in (("n", n), ("2n", 2 * n))))

    for owed in ("INCOMPLETE", "UNSOUND", "SIDE_INCONSISTENT"):
        pairs.append(lib_pair(
            f"audit fault {owed}",
            lambda k, owed=owed: taulike.validate_oracles(seeded_fault(owed), k),
            lambda out, k, owed=owed: C.check_audit(doc_of(out), owed=owed)))
    pairs.append(lib_pair("F1 verify zeta, lying interval",
                          lambda k: taulike.check_tau_like(lying_stream("F1"), Kind.ZETA, prefix_size=k), check_flagged))
    pairs.append(lib_pair("F2 verify omega-omega-star, lying predecessors",
                          lambda k: taulike.check_tau_like(lying_stream("F2"), Kind.OMEGA_PLUS_OMEGA_STAR, prefix_size=k),
                          check_flagged))
    pairs.append(lib_pair("F3 verify omega-omega-star, string side",
                          lambda k: taulike.check_tau_like(lying_stream("F3"), Kind.OMEGA_PLUS_OMEGA_STAR, prefix_size=k),
                          check_flagged))
    pairs.append(lib_pair("F4 oracle omega-omega-star, string side",
                          lambda k: taulike.validate_oracles(lying_stream("F4"), k),
                          lambda out, k: check_flagged(out, k, "side")))
    return pairs


# -- two-ended -----------------------------------------------------------------------
# The interval oracle is asked pivots^2 times; no audit runs.

ZETA_N = 80
PATH_N = 40  # chains and fences hold 2 * PATH_N elements; their oracles scan the whole poset


def two_ended_pairs(rng: random.Random, outdir: Path) -> list[Pair]:
    pairs = []
    for family in ("zeta", "zeta-1", "zeta-2"):
        pairs.append(cli_pair(
            f"linearize zeta {family}",
            lambda k, family=family: ["linearize", "--kind", "zeta", "--family", family, "--elements", str(k)],
            ZETA_N, lambda doc, k, family=family: C.check_family_linearize(doc, family, "zeta", k),
            lambda a, b, family=family: C.check_block_prefix(a, b, f"zeta on {family}")))
        pairs.append(cli_pair(
            f"embed zeta {family}",
            lambda k, family=family: ["embed", "--kind", "zeta", "--family", family, "--elements", str(k)],
            ZETA_N, lambda doc, k: C.check_zeta_embedding(doc, k)))
    for shape in ("chain", "fence"):
        enum, gens, path = shuffled_path(rng, 2 * PATH_N, zigzag=shape == "fence")
        file = write_json(outdir / f"{shape}.json", poset_doc(enum, gens))

        def check(doc, k, enum=enum, gens=gens, path=path, shape=shape):
            elems = C.check_finite_linearize(doc, C.close(enum, gens), "zeta", k)
            if shape == "chain":
                C.check_chain_zeta(doc, path, k)
            return elems

        pairs.append(cli_pair(
            f"linearize zeta {shape}",
            lambda k, file=file: ["linearize", "--kind", "zeta", "--input", file, "--elements", str(k)],
            PATH_N, check, lambda a, b, shape=shape: C.check_block_prefix(a, b, f"zeta on a {shape}")))
    return pairs


# -- one-sided -----------------------------------------------------------------------
# Predecessor, successor and side oracles, block ordering, embedding and
# decoding; no interval oracle, no audit.

DECODE_H = 300  # ranks of the tops decoded below stay under it, so no decode runs short
FAMILY_N = 500


def one_sided_pairs(rng: random.Random, outdir: Path) -> list[Pair]:
    pairs = []
    for i in range(2):
        spec = draw_spec(rng, 24)
        pairs.append(cli_pair(
            f"decode false-stages f{i}",
            lambda k, spec=spec: ["decode", "false-stages", "--f", spec.text(), "--horizon", str(k)],
            DECODE_H, lambda doc, k, spec=spec: C.check_false_stages(doc, spec),
            lambda a, b: C.expect(a["stages"] == b["stages"], "false stages change with the horizon")))
    spec = draw_spec(rng, 8, 3)
    # Two values around the head and the gap, and two whose tops sit over large blocks of fans.
    for m in rng.sample(range(len(spec.head) + spec.gap + 2), 2) + rng.sample(range(14, 20), 2):
        pairs.append(cli_pair(
            f"decode range m={m}",
            lambda k, spec=spec, m=m: ["decode", "range", "--f", spec.text(), "--elements", str(m), "--horizon", str(k)],
            DECODE_H, lambda doc, k, spec=spec, m=m: C.check_range(doc, spec, m),
            lambda a, b: C.expect(a["rank"] == b["rank"], "rank changes with the horizon")))
    for family in ("omega", "omega-star", "omega-omega-star"):
        pairs.append(cli_pair(
            f"linearize {family}",
            lambda k, family=family: ["linearize", "--kind", family, "--family", family, "--elements", str(k)],
            FAMILY_N, lambda doc, k, family=family: C.check_family_linearize(doc, family, family, k),
            (lambda a, b: C.check_split_prefix(a, b)) if family == "omega-omega-star"
            else (lambda a, b, family=family: C.check_block_prefix(a, b, f"{family} run"))))
        pairs.append(cli_pair(
            f"embed {family}",
            lambda k, family=family: ["embed", "--kind", family, "--family", family, "--elements", str(k)],
            FAMILY_N, lambda doc, k, family=family: C.check_family_embedding(doc, family, k)))
    return pairs


# -- finite --------------------------------------------------------------------------
# Relations are built (closure, validation), serialized (covers) and read
# (cone queries over le).

FINITE_N = 100  # gadget prefixes; their covers() is cubic
# A zeta run's cost depends on the drawn poset, so each pass runs many small
# draws: then the spread of job times, not just their mean, is alike from seed to seed.
FINITE_POSETS = 8
POSET_N = 40
FUF_N = 40  # part members of each marker gadget at size n


def finite_pairs(rng: random.Random, outdir: Path) -> list[Pair]:
    n = FINITE_N
    pairs = []
    for i in range(FINITE_POSETS):
        enum, gens = banded_poset(rng, POSET_N, POSET_N)
        low = set(enum[:POSET_N])
        low_gens = [g for g in gens if g[0] in low and g[1] in low]
        files = {
            POSET_N: write_json(outdir / f"poset{i}-n.json", poset_doc(enum[:POSET_N], low_gens)),
            2 * POSET_N: write_json(outdir / f"poset{i}-2n.json", poset_doc(enum, gens)),
        }
        graphs = {POSET_N: (enum[:POSET_N], low_gens), 2 * POSET_N: (enum, gens)}
        for kind in ("omega", "zeta"):
            pairs.append(cli_pair(
                f"linearize {kind} poset file {i}",
                lambda k, kind=kind, files=files: ["linearize", "--kind", kind, "--input", files[k], "--elements", str(k)],
                POSET_N, lambda doc, k, kind=kind, graphs=graphs: C.check_finite_linearize(doc, C.close(*graphs[k]), kind, k),
                lambda a, b, kind=kind: C.check_block_prefix(a, b, f"{kind} on poset files")))
    for i in range(2):
        spec = draw_spec(rng, 16, 3)
        pairs.append(cli_pair(
            f"gadget range f{i}",
            lambda k, spec=spec: ["gadget", "range", "--f", spec.text(), "--elements", str(k)],
            n, lambda doc, k, spec=spec: C.check_gadget_prefix(doc, C.range_gadget_le(spec), k)))
    spec = draw_spec(rng, 16, 3)
    pairs.append(cli_pair(
        "gadget embed",
        lambda k: ["gadget", "embed", "--f", spec.text(), "--elements", str(k)],
        n, lambda doc, k: C.check_gadget_prefix(doc, C.embed_gadget_le(spec), k)))
    def gadget_prefix(a: dict, b: dict) -> None:
        ea, eb = a["poset"]["elements"], b["poset"]["elements"]
        C.expect(eb[: len(ea)] == ea, "the n gadget's ids do not open the 2n gadget")

    for variant in ("omega", "omega-star", "zeta"):
        sizes = {FUF_N: draw_sizes(rng, 4, FUF_N)}
        sizes[2 * FUF_N] = sizes[FUF_N] + draw_sizes(rng, 4, FUF_N)  # the 2n gadget extends the n gadget
        files = {k: outdir / f"fuf-{variant}-{k}.json" for k in sizes}
        pairs.append(cli_pair(
            f"gadget fuf {variant}",
            lambda k, sizes=sizes, variant=variant, files=files: [
                "gadget", "fuf", "--sets", ";".join(map(str, sizes[k])), "--kind", variant, "--out", str(files[k])],
            FUF_N, lambda doc, k, sizes=sizes, variant=variant: C.check_fuf_gadget(doc, sizes[k], variant),
            gadget_prefix))
        pairs.append(cli_pair(
            f"decode fuf {variant}",
            lambda k, files=files: ["decode", "fuf", "--input", str(files[k])],
            FUF_N, lambda doc, k, sizes=sizes, files=files: C.check_fuf_decode(
                doc, json.loads(files[k].read_text()), sizes[k])))
    return pairs


BUILDERS = {
    "audit": audit_pairs,
    "two-ended": two_ended_pairs,
    "one-sided": one_sided_pairs,
    "finite": finite_pairs,
}


def build(workload: str, seed: int, outdir: Path) -> list[Pair]:
    """Draw the workload's inputs from ``seed`` and return its job pairs."""
    outdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), outdir)
