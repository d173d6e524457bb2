"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions of ``gf``, ``linalg``,
``designs`` and ``ramp``, the array and field constructors and ``cli.main``,
replacing every module-level name bound to each function (``designs`` binds
``row_space`` from ``linalg``, ``ramp`` binds ``verify_aoa`` from ``designs``,
the package re-exports both), so calls through any of those names are
recorded.  Spans are kept in memory; self time is a span's duration minus its
direct children.  ``GFCounter`` counts field operations in a separate,
untimed pass, since a wrapper on every ``mul`` would swamp the timed spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time

LAYERS = ("gf", "linalg", "designs", "ramp")
# Constructors that do work worth a span: field tables, row canonicalization.
CLASS_SPANS = (("gf", "GF"), ("designs", "OrthogonalArray"), ("designs", "AugmentedOA"))
SKIP = {("linalg", "rank")}  # its cost stays inside columns_independent, its caller


def _cells(args, kwargs, result):
    m = args[0]
    return {"cells": m.field.q ** m.rows * m.cols}


def _comb_rank(cols: tuple[int, ...], k: int) -> int:
    """1-based position of ``cols`` among the t-subsets of range(k) in lexicographic order."""
    t = len(cols)
    pos, prev = 0, -1
    for i, c in enumerate(cols):
        pos += sum(math.comb(k - 1 - x, t - 1 - i) for x in range(prev + 1, c))
        prev = c
    return pos + 1


def _subsets(args, kwargs, result):
    a = args[0]
    if result.ok:
        return {"subsets": math.comb(a.k, a.t)}
    if result.witness.kind == "row_count":
        return {"subsets": 0}
    return {"subsets": _comb_rank(result.witness.columns, a.k)}


def _audit(args, kwargs, result):
    sch = args[0]
    n, s, t = sch.n, sch.s, sch.t
    subsets = sum(math.comb(n, i) for i in range(s + 1))
    if sch.is_ideal:
        subsets += math.comb(n, s) * math.comb(n - s, t - s)
    return {"rule_visits": len(sch.rules) * subsets, "groups": result.groups_checked}


COUNTS = {
    "linalg.row_space": _cells,
    "designs.verify_oa": _subsets,
    "designs.load_array": lambda a, kw, r: {"bytes": len(a[0])},
    "designs.dump_array": lambda a, kw, r: {"bytes": len(r)},
    "ramp.audit_security": _audit,
}


class Tracer:
    """Span recorder.  Each span is [id, parent id, name, start, end, op, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = None  # identifier shared by the spans of one operation

    def wrap(self, name, fn):
        counts = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, self.op, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if counts:
                rec[6] = counts(args, kwargs, result)
            return result

        return traced

    def install(self, prog):
        """Wrap every public function and the listed constructors of ``prog``."""
        for layer in LAYERS:
            mod = getattr(prog, layer)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or (layer, attr) in SKIP:
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    self._rebind(prog.modules, value, self.wrap(f"{layer}.{attr}", value))
        for layer, cls_name in CLASS_SPANS:
            cls = getattr(getattr(prog, layer), cls_name)
            self._patch(cls, "__init__", self.wrap(f"{layer}.{cls_name}", cls.__init__))
        self._rebind([prog.cli], prog.cli.main, self.wrap("cli.main", prog.cli.main))

    def _rebind(self, modules, original, wrapped):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class GFCounter:
    """Counts ``GF.mul``/``add``/``inv`` calls by patching the class methods."""

    METHODS = ("mul", "add", "inv")

    def __init__(self, gf_class):
        self.cls = gf_class
        self.counts = dict.fromkeys(self.METHODS, 0)
        self._originals = {}

    def __enter__(self):
        counts = self.counts
        for name in self.METHODS:
            original = getattr(self.cls, name)
            self._originals[name] = original

            def counted(*args, _fn=original, _name=name):
                counts[_name] += 1
                return _fn(*args)

            setattr(self.cls, name, counted)
        return self

    def __exit__(self, *exc):
        for name, original in self._originals.items():
            setattr(self.cls, name, original)


# ---------------------------------------------------------------------------
# aggregation


def _children(spans):
    kids: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            kids.setdefault(s[1], []).append(s)
    return kids


def summarize(spans, units: int) -> dict[str, float]:
    """Per-layer metrics, per unit of work (one pass, or one scheme build)."""
    by_id = {s[0]: s for s in spans}
    kids = _children(spans)

    def dur(s):
        return s[4] - s[3]

    def outer_ms(names):
        # Inclusive time of spans not nested in another span of the same group.
        total = 0.0
        for s in spans:
            if s[2] not in names:
                continue
            p = s[1]
            while p is not None and by_id[p][2] not in names:
                p = by_id[p][1]
            if p is None:
                total += dur(s)
        return total * 1e3 / units

    def self_ms(name, children=None):
        # Duration minus direct children (only those named in ``children``, if given).
        total = 0.0
        for s in spans:
            if s[2] == name:
                total += dur(s) - sum(dur(c) for c in kids.get(s[0], ())
                                      if children is None or c[2] in children)
        return total * 1e3 / units

    def calls(name):
        return sum(1 for s in spans if s[2] == name) / units

    def count(name, key):
        return sum((s[6] or {}).get(key, 0) for s in spans if s[2] == name) / units

    def p50(name, scale):
        ds = [dur(s) * scale for s in spans if s[2] == name]
        return statistics.median(ds) if ds else 0.0

    return {
        "gf.field_build_ms": outer_ms({"gf.GF", "gf.field_for_order"}),
        "linalg.row_space_ms": outer_ms({"linalg.row_space"}),
        "linalg.row_space_cells": count("linalg.row_space", "cells"),
        "linalg.columns_independent_ms": outer_ms({"linalg.columns_independent"}),
        "linalg.columns_independent_calls": calls("linalg.columns_independent"),
        "linalg.kernel_vector_ms": outer_ms({"linalg.kernel_vector"}),
        "designs.verify_oa_ms": outer_ms({"designs.verify_oa"}),
        "designs.verify_oa_subsets": count("designs.verify_oa", "subsets"),
        "designs.verify_aoa_ms": self_ms("designs.verify_aoa"),
        "designs.verify_mds_ms": outer_ms({"designs.verify_mds"}),
        "designs.aoa_split_ms": self_ms("designs.aoa_split"),
        "designs.canonicalize_ms": outer_ms({"designs.OrthogonalArray", "designs.AugmentedOA"}),
        "designs.load_array_ms": outer_ms({"designs.load_array"}),
        "designs.dump_array_ms": outer_ms({"designs.dump_array"}),
        "designs.text_bytes": count("designs.load_array", "bytes")
                              + count("designs.dump_array", "bytes"),
        "ramp.audit_ms": outer_ms({"ramp.audit_security"}),
        "ramp.audit_rule_visits": count("ramp.audit_security", "rule_visits"),
        "ramp.audit_groups": count("ramp.audit_security", "groups"),
        "ramp.scheme_build_ms": self_ms("ramp.scheme_from_aoa", {"designs.verify_aoa"}),
        "ramp.deal_us.p50": p50("ramp.deal", 1e6),
        "ramp.reconstruct_ms.p50": p50("ramp.reconstruct", 1e3),
        "cli.self_ms": self_ms("cli.main"),
    }


def records(spans):
    """Spans as JSON-ready dicts, times in ms from the first span's start."""
    t0 = spans[0][3] if spans else 0.0
    for sid, parent, name, start, end, op, counts in spans:
        rec = {"span": sid, "parent": parent, "name": name, "op": op,
               "start_ms": round((start - t0) * 1e3, 4), "ms": round((end - start) * 1e3, 4)}
        if counts:
            rec.update(counts)
        yield rec
