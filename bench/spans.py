"""Spans around the calls into the public functions of each mdg module.

A span records its name, start, end and the span that was open when it
began.  Spans are kept in memory and written out once, after the timed
region.  Each function is wrapped where its name is looked up: every
``mdg`` module that holds the function under that name gets the wrapper,
and a method is wrapped on its class.  The program itself is not changed.

A span's self time is its duration minus the durations of its direct
children; calls are sequential, so the children cover disjoint parts of
their parent.
"""

from __future__ import annotations

import json
import sys
import time


def _catalog(acc, args, res):
    acc["entries"] += len(res)


def _canonical_form(acc, args, res):
    acc["automorphisms"] += len(res.automorphisms)


def _normalize_raw(acc, args, res):
    acc["nonzero"] += res[1] is not None


def _diagrams_within(acc, args, res):
    acc["diagrams"] += sum(len(ds) for ds in res.values())


def _cohomology_block(acc, args, res):
    acc["healed"] += res.healed


def _rank(acc, args, res):
    m = args[0]
    acc["max_rows"] = max(acc["max_rows"], m.rows)
    acc["max_cols"] = max(acc["max_cols"], m.cols)
    acc["nnz"] += m.nnz


# (span name, module, attribute, class or None, recorder, recorder keys).
# A recorder folds one call's arguments (without ``self``) and result into
# the counters of its span name, after the span has ended.
TRACED = (
    ("extensions.catalog", "mdg.extensions", "catalog", None,
     _catalog, ("entries",)),
    ("canon.canonical_form", "mdg.canon", "canonical_form", None,
     _canonical_form, ("automorphisms",)),
    ("modularity.is_modular", "mdg.modularity", "is_modular", None,
     None, ()),
    ("modularity.is_supersolvable", "mdg.modularity", "is_supersolvable",
     None, None, ()),
    ("diagrams.normalize_raw", "mdg.diagrams", "normalize_raw",
     "DiagramAlgebra", _normalize_raw, ("nonzero",)),
    ("diagrams.coproduct", "mdg.diagrams", "coproduct", "DiagramAlgebra",
     None, ()),
    ("diagrams.product", "mdg.diagrams", "product", "DiagramAlgebra",
     None, ()),
    ("diagrams.differential_diagram", "mdg.diagrams", "differential_diagram",
     "DiagramAlgebra", None, ()),
    ("diagrams.diagrams_within", "mdg.diagrams", "diagrams_within",
     "DiagramAlgebra", _diagrams_within, ("diagrams",)),
    ("diagrams.cohomology_block", "mdg.diagrams", "cohomology_block",
     "DiagramAlgebra", _cohomology_block, ("healed",)),
    ("lattice.interval", "mdg.lattice", "interval", None, None, ()),
    ("lattice.restriction", "mdg.lattice", "restriction", None, None, ()),
    ("os_algebra.reduce_to_nbc", "mdg.os_algebra", "reduce_to_nbc", None,
     None, ()),
    ("os_algebra.multiply", "mdg.os_algebra", "multiply", None, None, ()),
    ("os_algebra.os_coproduct", "mdg.os_algebra", "os_coproduct", None,
     None, ()),
    ("linalg.rank", "mdg.linalg", "rank", None,
     _rank, ("max_rows", "max_cols", "nnz")),
)


class Tracer:
    """Installs the wrappers on ``start_tracing`` and removes them on
    ``stop_tracing``."""

    def __init__(self):
        self.names = [name for name, *_ in TRACED]
        self.name_of = []     # span -> index into self.names
        self.start = []
        self.end = []
        self.parent = []      # span -> enclosing span, -1 at top level
        self.counters = [dict.fromkeys(keys, 0) for *_, keys in TRACED]
        self._stack = [-1]
        self._undo = []
        self.t0 = self.t1 = None

    def _wrap(self, k, fn, record, skip):
        name_of, start, end, parent = (self.name_of, self.start, self.end,
                                       self.parent)
        stack, counters, clock = self._stack, self.counters[k], time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(k)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if record is not None:
                record(counters, args[skip:], res)
            return res
        return wrapper

    def start_tracing(self):
        """Wrap every traced function in every mdg module that names it."""
        mods = [m for n, m in list(sys.modules.items())
                if (n == "mdg" or n.startswith("mdg.")) and m is not None]
        for k, (_, modname, attr, cls, record, _keys) in enumerate(TRACED):
            module = sys.modules[modname]
            if cls is not None:
                owner = getattr(module, cls)
                fn = owner.__dict__[attr]
                self._patch(owner, attr, fn, self._wrap(k, fn, record, 1))
                continue
            fn = getattr(module, attr)
            wrapper = self._wrap(k, fn, record, 0)
            for mod in mods:
                if mod.__dict__.get(attr) is fn:
                    self._patch(mod, attr, fn, wrapper)
        self.t0 = time.perf_counter()

    def _patch(self, owner, attr, fn, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def stop_tracing(self):
        self.t1 = time.perf_counter()
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # ------------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus its direct children's durations."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def _count_under(self, name, ancestor):
        """Spans called ``name`` that have a span called ``ancestor``
        somewhere above them."""
        k, a = self.names.index(name), self.names.index(ancestor)
        n = 0
        for i, kind in enumerate(self.name_of):
            if kind != k:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != a:
                p = self.parent[p]
            n += p >= 0
        return n

    def metrics(self):
        """Per-layer metrics by name: calls, self time and counters of each
        span name, the ratios derived from them, and the traced wall time."""
        own = self.self_times()
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, k in enumerate(self.name_of):
            calls[k] += 1
            self_s[k] += own[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
            for key, v in self.counters[k].items():
                out[f"{name}.{key}"] = v

        canon = "canon.canonical_form"
        catalog_canon = self._count_under(canon, "extensions.catalog")
        out["extensions.catalog.canon_calls"] = catalog_canon
        out["extensions.catalog.kept_ratio"] = _ratio(
            out["extensions.catalog.entries"], catalog_canon)
        out["diagrams.normalize_raw.canon_calls"] = self._count_under(
            canon, "diagrams.normalize_raw")
        out["diagrams.normalize_raw.nonzero_ratio"] = _ratio(
            out.pop("diagrams.normalize_raw.nonzero"),
            out["diagrams.normalize_raw.calls"])

        wall = self.t1 - self.t0
        covered = sum(e - s for s, e, p in zip(self.start, self.end,
                                                self.parent) if p < 0)
        out["trace.wall_s"] = wall
        out["trace.outside_spans_s"] = wall - covered
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path, workload):
        """Write every span as [name, start_us, end_us, parent]."""
        t0 = self.t0
        spans = [[k, round((s - t0) * 1e6), round((e - t0) * 1e6), p]
                 for k, s, e, p in zip(self.name_of, self.start, self.end,
                                       self.parent)]
        with open(path, "w") as fh:
            json.dump({"workload": workload, "names": self.names,
                       "fields": ["name", "start_us", "end_us", "parent"],
                       "spans": spans}, fh, separators=(",", ":"))


def _ratio(num, den):
    """num / den, and 0.0 when nothing was attempted."""
    return num / den if den else 0.0
