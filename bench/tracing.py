"""Per-layer tracing from outside the program.

:class:`Tracer` wraps taulike's public module functions and methods at run
time; no source file changes.  Every module attribute bound to a wrapped
function is rebound, so callers that imported the name directly reach the
wrapper too.  Streams built while the tracer is installed get wrapped oracle
callables; an oracle the bundle lacks stays ``None`` and the bulk
``leq_block`` hook is passed through untouched, so the traced run takes the
same code paths as the timed one.

Coarse calls are kept as spans (job, name, start, end, parent); hot leaf
calls (``leq``, oracle answers) only add to their totals, and ``le`` and
``element_at`` are only counted.  A span's self time is its duration minus
the time of the traced calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# metric prefix -> (module, function names); the span and self times of all
# names under one prefix add up.
TIMED_FUNCTIONS = {
    "cli.main": ("taulike.cli", ["main"]),
    "streams.validate_oracles": ("taulike.streams", ["validate_oracles"]),
    "linearize.runs": ("taulike.linearize",
                       ["omega_linearize", "omega_star_linearize", "zeta_linearize", "split_linearize"]),
    "linearize.szpilrajn_extend": ("taulike.linearize", ["szpilrajn_extend"]),
    "embed": ("taulike.embed", ["embed_omega", "embed_omega_star", "embed_omega_plus_omega_star", "embed_zeta"]),
    "gadgets.decode": ("taulike.gadgets", ["decode_false_stages", "decode_range", "fuf_decode"]),
    "gadgets.build": ("taulike.gadgets",
                      ["make_range_gadget", "make_embed_gadget", "make_fuf_gadget", "make_stage_order"]),
    "poset.build_poset": ("taulike.poset", ["build_poset"]),
    "harness.check_tau_like": ("taulike.harness", ["check_tau_like"]),
}

ORACLES = ("predecessors", "successors", "interval", "side")

PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("cli.payload_bytes", "bytes"),
    ("streams.element_at.calls", "count"),
    ("streams.leq.calls", "count"),
    ("streams.leq.s", "s"),
    ("streams.relation_matrix.calls", "count"),
    ("streams.relation_matrix.cells", "count"),
    ("streams.relation_matrix.s", "s"),
    ("streams.validate_oracles.calls", "count"),
    ("streams.validate_oracles.self_s", "s"),
    ("streams.validate_oracles.checked", "count"),
    *[(f"streams.oracle.{o}.{m}", u) for o in ORACLES[:3]
      for m, u in (("calls", "count"), ("answer_elems", "count"), ("s", "s"))],
    ("streams.oracle.side.calls", "count"),
    ("streams.oracle.side.s", "s"),
    ("linearize.runs.calls", "count"),
    ("linearize.runs.self_s", "s"),
    ("linearize.blocks", "count"),
    ("linearize.szpilrajn_extend.calls", "count"),
    ("linearize.szpilrajn_extend.elements", "count"),
    ("linearize.szpilrajn_extend.s", "s"),
    ("embed.calls", "count"),
    ("embed.self_s", "s"),
    ("gadgets.decode.calls", "count"),
    ("gadgets.decode.s", "s"),
    ("gadgets.build.s", "s"),
    ("poset.from_closed.calls", "count"),
    ("poset.from_closed.pairs", "count"),
    ("poset.from_closed.s", "s"),
    ("poset.build_poset.calls", "count"),
    ("poset.build_poset.s", "s"),
    ("poset.covers.calls", "count"),
    ("poset.covers.s", "s"),
    ("poset.le.calls", "count"),
    ("harness.check_tau_like.calls", "count"),
    ("harness.check_tau_like.s", "s"),
]


def _extra_counts(prefix: str, args: tuple, result) -> dict[str, int]:
    """Work counts read off a traced call's arguments or result."""
    if prefix == "linearize.runs" and isinstance(result, tuple):
        return {"linearize.blocks": len(result[0])}
    if prefix == "linearize.szpilrajn_extend":
        return {"linearize.szpilrajn_extend.elements": args[0].size}
    if prefix == "streams.validate_oracles":
        return {"streams.validate_oracles.checked": sum(result.checked.values())}
    if prefix == "streams.relation_matrix":
        return {"streams.relation_matrix.cells": len(args[1]) ** 2}
    if prefix == "poset.from_closed":
        return {"poset.from_closed.pairs": len(result.leq)}
    if prefix.startswith("streams.oracle.") and prefix != "streams.oracle.side" and result is not None:
        return {prefix + ".answer_elems": len(result)}
    return {}


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[list] = []  # per open call: [child time, nearest span index]
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------------

    def _timed(self, prefix: str, fn, *, span: bool):
        totals, stack, spans, clock = self.totals, self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            idx = None
            if span:
                idx = len(spans)
                spans.append(None)
            frame = [0.0, idx if span else parent]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                totals[prefix + ".calls"] += 1
                totals[prefix + ".s"] += dur
                totals[prefix + ".self_s"] += dur - frame[0]
                if span:
                    spans[idx] = (self.job, prefix, t0, t1, parent)
            for key, value in _extra_counts(prefix, args, result).items():
                totals[key] += value
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def _counted(self, key: str, fn):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_bundle(self, bundle):
        from taulike.streams import OracleBundle

        wrapped = {}
        for name in ORACLES:
            fn = getattr(bundle, name)
            if fn is not None and not getattr(fn, "__bench_traced__", False):
                fn = self._timed(f"streams.oracle.{name}", fn, span=False)
            wrapped[name] = fn
        return OracleBundle(**wrapped)

    # -- patching -------------------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "taulike" or mod_name.startswith("taulike.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        import importlib

        from taulike.poset import FinitePoset
        from taulike.streams import StreamPoset

        for prefix, (mod_name, names) in TIMED_FUNCTIONS.items():
            mod = importlib.import_module(mod_name)
            for name in names:
                original = getattr(mod, name)
                self._rebind_everywhere(original, self._timed(prefix, original, span=True))

        self._set(StreamPoset, "element_at", self._counted("streams.element_at.calls", StreamPoset.element_at))
        self._set(StreamPoset, "leq", self._timed("streams.leq", StreamPoset.leq, span=False))
        self._set(StreamPoset, "relation_matrix",
                  self._timed("streams.relation_matrix", StreamPoset.relation_matrix, span=True))
        self._set(FinitePoset, "le", self._counted("poset.le.calls", FinitePoset.le))
        self._set(FinitePoset, "covers", self._timed("poset.covers", FinitePoset.covers, span=True))
        from_closed = FinitePoset.__dict__["from_closed"].__func__
        self._set(FinitePoset, "from_closed", classmethod(self._timed("poset.from_closed", from_closed, span=True)))

        init = StreamPoset.__init__
        tracer = self

        @functools.wraps(init)
        def traced_init(stream, element_at, leq, *, oracles=None, **kwargs):
            if oracles is not None:
                oracles = tracer._wrap_bundle(oracles)
            init(stream, element_at, leq, oracles=oracles, **kwargs)

        self._set(StreamPoset, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        return dict(self.totals)
