"""Command-line front door.

One binary, subcommand style: results go to stdout as one line of
schema-versioned JSON, diagnostics to stderr.  Exit 0 on success, 1 on a
domain or file error (reported as ``{"error": {"code", "detail"}}`` on
stdout) or when stdout is closed before the result is written, 2 on usage
errors.  ``--out`` is written before anything is printed, so a failed write
prints only the error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .embed import embed_omega, embed_poset
from .errors import FormatError, TaulikeError, TooLarge
from .gadgets import (
    FufGadget,
    FunctionSpec,
    decode_false_stages,
    decode_range,
    fuf_decode,
    make_embed_gadget,
    make_fuf_gadget,
    make_range_gadget,
    make_stage_order,
)
from .harness import check_kinds, random_poset
from .kinds import BlockSide, FinSide, Kind
from .linearize import assemble, linearize, omega_blocks, split_linearize, szpilrajn_extend
from .poset import poset_from_json_dict, poset_to_json_dict
from .streams import (
    STREAM_FAMILIES,
    prefix,
    stream_from_finite,
    validate_oracles,
    zeta_stream,
)

_KIND_CHOICES = [k.value for k in Kind]
_DEFAULT_BLOCKS = 8
_DEFAULT_SPLIT_ELEMENTS = 32
# An audit of n elements holds two n x n bool relation matrices, and its
# axiom check multiplies float32 copies of them: at 4,096 elements, the
# poset document limit, that is two 16 MiB and two 64 MiB matrices.
MAX_AUDIT_ELEMENTS = 4096


def natural(text: str) -> int:
    """argparse type for budgets and sizes: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {value}")
    return value


_F_HELP = "function spec: identity | perm:v0,v1,... | swap:k"
_SETS_HELP = "semicolon-separated part sizes, e.g. '1;2'"


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="FILE", help="poset JSON file to load")
    p.add_argument(
        "--family",
        metavar="NAME",
        help=(
            "generated input: omega | omega-star | zeta | zeta-1 | zeta-2 | "
            "antichain | omega-omega-star | random | range-gadget | "
            "embed-gadget | fuf"
        ),
    )
    p.add_argument("--f", metavar="SPEC", help=_F_HELP)
    p.add_argument("--sets", metavar="SIZES", help=_SETS_HELP)
    p.add_argument("--seed", type=int, default=0, help="seed for the random family (default 0)")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", metavar="FILE", help="also write the result JSON to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taulike",
        description="Linearize, embed, and verify countable posets with finiteness oracles.",
    )
    parser.add_argument("--version", action="version", version=f"taulike {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lin = sub.add_parser("linearize", help="run a block linearization and print the order")
    _add_source_flags(p_lin)
    p_lin.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p_lin.add_argument("--blocks", type=natural, help=f"block budget (default {_DEFAULT_BLOCKS})")
    p_lin.add_argument(
        "--elements",
        type=natural,
        help=f"element budget (split default {_DEFAULT_SPLIT_ELEMENTS})",
    )
    _add_out_flag(p_lin)

    p_emb = sub.add_parser("embed", help="embed a prefix into a canonical order")
    _add_source_flags(p_emb)
    p_emb.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p_emb.add_argument("--blocks", type=natural)
    p_emb.add_argument("--elements", type=natural)
    _add_out_flag(p_emb)

    p_gad = sub.add_parser("gadget", help="build an encoder gadget and print it")
    gad_sub = p_gad.add_subparsers(dest="what", required=True)
    q = gad_sub.add_parser("fuf", help="marker gadget from part sizes")
    q.add_argument("--sets", metavar="SIZES", required=True, help=_SETS_HELP)
    q.add_argument("--kind", choices=_KIND_CHOICES, default="omega", help="gadget variant (default omega)")
    _add_out_flag(q)
    for name, helptext in (
        ("stage", "stage order of a function prefix"),
        ("range", "stage-order-plus-chain stream"),
        ("embed", "antichain-over-fans stream"),
    ):
        q = gad_sub.add_parser(name, help=helptext)
        q.add_argument("--f", metavar="SPEC", required=True, help=_F_HELP)
        q.add_argument("--elements", type=natural, default=16, help="prefix length to include (default 16)")
        _add_out_flag(q)

    p_dec = sub.add_parser("decode", help="run a decoder against a gadget")
    dec_sub = p_dec.add_subparsers(dest="what", required=True)
    q = dec_sub.add_parser("fuf", help="union bound from a marker gadget file")
    q.add_argument("--input", metavar="FILE", required=True, help="gadget JSON from `gadget fuf`")
    _add_out_flag(q)
    q = dec_sub.add_parser("false-stages", help="undercut stages read off a split run")
    q.add_argument("--f", metavar="SPEC", required=True, help=_F_HELP)
    q.add_argument("--horizon", type=natural, default=100, help="chain elements to emit (default 100)")
    q.add_argument("--elements", type=natural, help="report stages below this (default min(50, horizon))")
    _add_out_flag(q)
    q = dec_sub.add_parser("range", help="membership of m in the function's value set")
    q.add_argument("--f", metavar="SPEC", required=True, help=_F_HELP)
    q.add_argument("--elements", type=natural, required=True, metavar="M", help="the value m to test")
    q.add_argument("--horizon", type=natural, default=256, help="embedding element budget (default 256)")
    _add_out_flag(q)

    p_ver = sub.add_parser("verify", help="check finiteness promises of a poset or stream")
    _add_source_flags(p_ver)
    p_ver.add_argument("--kind", choices=_KIND_CHOICES, help="restrict to one kind (default: all)")
    p_ver.add_argument("--elements", type=natural, help="prefix size for streams (default 50)")
    _add_out_flag(p_ver)

    p_ora = sub.add_parser("oracle", help="validate a stream's oracle bundle on a prefix")
    _add_source_flags(p_ora)
    p_ora.add_argument("--kind", choices=_KIND_CHOICES, help="gadget variant (fuf family)")
    p_ora.add_argument("--elements", type=natural, help="prefix size (default 100)")
    _add_out_flag(p_ora)

    return parser


def _parse_sets(text: str, parser: argparse.ArgumentParser) -> list[int]:
    try:
        sizes = [int(part) for part in text.split(";")]
    except ValueError:
        parser.error(f"--sets wants semicolon-separated sizes, got {text!r}")
    if any(s < 0 for s in sizes):
        parser.error("--sets sizes must be non-negative")
    return sizes


def _read_json(path: str):
    """The JSON document in ``path``; bytes that are not UTF-8 JSON are a FormatError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from exc


def _make_stream(args, parser: argparse.ArgumentParser):
    if getattr(args, "input", None) and getattr(args, "family", None):
        parser.error("--input and --family are mutually exclusive")
    if getattr(args, "input", None):
        return stream_from_finite(poset_from_json_dict(_read_json(args.input)))
    family = getattr(args, "family", None)
    if not family:
        parser.error("one of --input or --family is required")
    if family in ("zeta", "zeta-1", "zeta-2"):
        variant = 0 if family == "zeta" else int(family[-1])
        return zeta_stream(variant)
    if family == "range-gadget":
        if not args.f:
            parser.error("--family range-gadget needs --f")
        return make_range_gadget(FunctionSpec.parse(args.f)).stream
    if family == "embed-gadget":
        if not args.f:
            parser.error("--family embed-gadget needs --f")
        return make_embed_gadget(FunctionSpec.parse(args.f)).stream
    if family == "fuf":
        if not args.sets:
            parser.error("--family fuf needs --sets")
        variant = Kind(args.kind) if getattr(args, "kind", None) else Kind.OMEGA
        return make_fuf_gadget(_parse_sets(args.sets, parser), variant).stream()
    if family == "random":
        n = 8 if getattr(args, "elements", None) is None else args.elements
        return stream_from_finite(random_poset(n, 0.3, args.seed))
    factory = STREAM_FAMILIES.get(family)
    if factory is None:
        parser.error(f"unknown family {family!r}")
    return factory()


def _budgets(args, kind: Kind) -> tuple[int | None, int | None]:
    blocks, elements = args.blocks, args.elements
    if blocks is not None and elements is not None:
        raise FormatError("give either a block budget or an element budget, not both")
    if blocks is None and elements is None:
        if kind is Kind.OMEGA_PLUS_OMEGA_STAR:
            elements = _DEFAULT_SPLIT_ELEMENTS
        else:
            blocks = _DEFAULT_BLOCKS
    return blocks, elements


def _cmd_linearize(args, parser) -> dict:
    kind = Kind(args.kind)
    stream = _make_stream(args, parser)
    blocks, elements = _budgets(args, kind)
    bseq, order = linearize(stream, kind, blocks=blocks, elements=elements)
    # Each enum member's value is read once, not once per block or element.
    block_side = {s: s.value for s in BlockSide}
    fin_side = {s: s.value for s in FinSide}
    sides = order.sides
    return {
        "schema": "taulike.linearize/1",
        "kind": kind.value,
        "stream": stream.name,
        "order": list(order),
        "anchor": order.anchor_index,
        "blocks": None
        if bseq is None
        else [
            {"pivot": pivot, "members": list(members), "side": block_side[side]}
            for pivot, members, side in bseq
        ],
        "sides": None if sides is None else [[x, fin_side[sides[x]]] for x in order],
    }


def _cmd_embed(args, parser) -> dict:
    kind = Kind(args.kind)
    stream = _make_stream(args, parser)
    blocks, elements = _budgets(args, kind)
    emb = embed_poset(stream, kind, blocks=blocks, elements=elements)
    doc = emb.to_json_dict()
    doc["stream"] = stream.name
    return doc


def _fuf_gadget_json(g: FufGadget) -> dict:
    return {
        "schema": "taulike.gadget.fuf/1",
        "variant": g.variant.value,
        "parts": [list(p) for p in g.parts],
        "top_markers": list(g.top_markers),
        "bottom_markers": list(g.bottom_markers),
        "union_size": g.union_size,
        "poset": poset_to_json_dict(g.base),
    }


def _fuf_gadget_from_json(doc: dict) -> FufGadget:
    try:
        return FufGadget(
            base=poset_from_json_dict(doc["poset"]),
            variant=Kind(doc["variant"]),
            parts=tuple(tuple(p) for p in doc["parts"]),
            top_markers=tuple(doc["top_markers"]),
            bottom_markers=tuple(doc.get("bottom_markers", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"not a marker gadget document: {exc}") from exc


def _cmd_gadget(args, parser) -> dict:
    if args.what == "fuf":
        return _fuf_gadget_json(make_fuf_gadget(_parse_sets(args.sets, parser), Kind(args.kind)))
    fspec = FunctionSpec.parse(args.f)
    if args.what == "stage":
        so = make_stage_order(fspec.values(args.elements))
        return {
            "schema": "taulike.gadget.stage/1",
            "f": fspec.describe(),
            "values": list(so.values),
            "witness": list(so.witness),
            "false_stages": sorted(so.ground_truth_false),
            "ascending": so.ascending(),
        }
    if args.what == "range":
        gadget = make_range_gadget(fspec)
        return {
            "schema": "taulike.gadget.range/1",
            "f": fspec.describe(),
            "window": fspec.window,
            "false_stages": sorted(fspec.false_stages()),
            "prefix": poset_to_json_dict(prefix(gadget.stream, args.elements)),
        }
    gadget = make_embed_gadget(fspec)
    return {
        "schema": "taulike.gadget.embed/1",
        "f": fspec.describe(),
        "window": fspec.window,
        "prefix": poset_to_json_dict(prefix(gadget.stream, args.elements)),
    }


def _cmd_decode(args, parser) -> dict:
    if args.what == "fuf":
        gadget = _fuf_gadget_from_json(_read_json(args.input))
        order = szpilrajn_extend(gadget.base)
        bound = fuf_decode(order, gadget)
        return {
            "schema": "taulike.decode.fuf/1",
            "variant": gadget.variant.value,
            "order": list(order),
            "bound": bound,
            "union_size": gadget.union_size,
        }
    fspec = FunctionSpec.parse(args.f)
    if args.what == "false-stages":
        horizon = args.horizon
        s = args.elements if args.elements is not None else min(50, horizon)
        gadget = make_range_gadget(fspec)
        order = split_linearize(gadget.stream, 2 * horizon)
        decoded = decode_false_stages(order, s)
        return {
            "schema": "taulike.decode.false-stages/1",
            "f": fspec.describe(),
            "requested": s,
            "horizon": decoded.horizon,
            "stages": sorted(decoded.stages),
            "ground_truth": sorted(n for n in fspec.false_stages() if n < s),
        }
    m = args.elements
    gadget = make_embed_gadget(fspec)
    top = gadget.top_id(m)
    # Every position is final, so the run can stop once a_m is placed.
    run = omega_blocks(gadget.stream)
    _, order = assemble(Kind.OMEGA, run, elements_wanted=args.horizon, until=lambda b: top in b.members)
    emb = embed_omega(order)
    member = decode_range(emb, fspec.values(args.horizon), m)
    return {
        "schema": "taulike.decode.range/1",
        "f": fspec.describe(),
        "m": m,
        "member": member,
        "rank": emb.coord(2 * m),
    }


def _audit_size(args, default: int, parser: argparse.ArgumentParser) -> int:
    """The audited prefix size; an audit of nothing certifies nothing, so 0 is refused.

    A size above :data:`MAX_AUDIT_ELEMENTS` is :class:`TooLarge`, raised
    before any element is enumerated.
    """
    if args.elements == 0:
        parser.error("--elements must be positive for an audit")
    if args.elements is not None and args.elements > MAX_AUDIT_ELEMENTS:
        raise TooLarge(
            f"an audit of {args.elements} elements exceeds the limit of {MAX_AUDIT_ELEMENTS}: "
            "it would hold two n x n relation matrices"
        )
    return default if args.elements is None else args.elements


def _cmd_verify(args, parser) -> dict:
    size = _audit_size(args, 50, parser)
    if getattr(args, "input", None) and getattr(args, "family", None):
        parser.error("--input and --family are mutually exclusive")
    if args.input:
        target = poset_from_json_dict(_read_json(args.input))
        name = args.input
    else:
        target = _make_stream(args, parser)
        name = target.name
    kinds = [Kind(args.kind)] if args.kind else list(Kind)
    reports = [r.to_json_dict() for r in check_kinds(target, kinds, prefix_size=size)]
    return {
        "schema": "taulike.verify/1",
        "target": name,
        "ok": all(r["ok"] for r in reports),
        "reports": reports,
    }


def _cmd_oracle(args, parser) -> dict:
    size = _audit_size(args, 100, parser)
    report = validate_oracles(_make_stream(args, parser), size)
    doc = report.to_json_dict()
    doc["schema"] = "taulike.oracle/1"
    return doc


_DISPATCH = {
    "linearize": _cmd_linearize,
    "embed": _cmd_embed,
    "gadget": _cmd_gadget,
    "decode": _cmd_decode,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def _error_code(exc: Exception) -> str:
    if isinstance(exc, TaulikeError):
        return exc.code
    return "FileNotFound" if isinstance(exc, FileNotFoundError) else "FileError"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Each payload is a fresh tree of dicts, lists, ints and strings.
        text = json.dumps(_DISPATCH[args.command](args, parser), check_circular=False)
        if getattr(args, "out", None):
            Path(args.out).write_text(text + "\n")
        code = 0
    except (TaulikeError, OSError) as exc:
        text = json.dumps({"error": {"code": _error_code(exc), "detail": str(exc)}})
        code = 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away; keep the interpreter's exit flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
