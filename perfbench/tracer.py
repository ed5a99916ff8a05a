"""Outside-in tracing of the ``ypa`` layers, from the benchmark's own files.

The program is not edited.  :meth:`Tracer.install` replaces each traced
public function at every place it is bound -- the defining module, every
module that imported it by name, the class dict for methods (``__mul__`` and
its ``__rmul__`` alias alike), and the ``fn``/``value`` fields of the tangle
elements and harmonic functions that hold it -- with a wrapper that records a
span: name, start, end and parent span.  Spans stay in memory in flat arrays
and are written out once, at the end of the pass; :func:`summarize` turns
them into per-layer calls and self times.

Cache hit ratios are read from each cached function's own ``cache_info()``;
the wrapper around a cached function calls the original cache, so the counts
are unchanged by tracing.

Forked pool workers get the original functions back (``os.register_at_fork``),
so under ``jobs > 1`` only parent-side spans and the workers' rusage are
visible.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path

LAYERS = (
    "surd",
    "ratfun",
    "affine",
    "young",
    "plancherel",
    "tangle",
    "heisenberg",
    "sym_oracle",
    "frobenius",
)

# (module, attribute or Class.method, span name).  Span names start with
# their layer.  Private helpers are left out: their time is self time of the
# public function that called them.
TARGETS = (
    ("surd", "Surd.__mul__", "surd.mul"),
    ("surd", "Surd.__add__", "surd.add"),
    ("surd", "Surd.__sub__", "surd.sub"),
    ("surd", "Surd.__truediv__", "surd.div"),
    ("surd", "sqrt_fraction", "surd.sqrt_fraction"),
    ("ratfun", "FactoredRatFun.make", "ratfun.make"),
    ("ratfun", "FactoredRatFun.from_roots", "ratfun.from_roots"),
    ("ratfun", "FactoredRatFun.__mul__", "ratfun.mul"),
    ("ratfun", "FactoredRatFun.__add__", "ratfun.add"),
    ("ratfun", "FactoredRatFun.__call__", "ratfun.call"),
    ("ratfun", "FactoredRatFun.shift", "ratfun.shift"),
    ("ratfun", "FactoredRatFun.residue_at", "ratfun.residue_at"),
    ("ratfun", "FactoredRatFun.sum_of_residues", "ratfun.sum_of_residues"),
    ("ratfun", "FactoredRatFun.series_at_infinity", "ratfun.series_at_infinity"),
    ("affine", "evaluate", "affine.evaluate"),
    ("affine", "residue_in", "affine.residue_in"),
    ("affine", "constant_value", "affine.constant_value"),
    ("young", "enumerate_loops", "young.enumerate_loops"),
    ("young", "diagrams_up_to", "young.diagrams_up_to"),
    ("young", "up_covers", "young.up_covers"),
    ("young", "down_covers", "young.down_covers"),
    ("young", "dim", "young.dim"),
    ("young", "profile", "young.profile"),
    ("young", "box_content", "young.box_content"),
    ("plancherel", "f_pl", "plancherel.f_pl"),
    ("plancherel", "inv_h", "plancherel.inv_h"),
    ("plancherel", "cauchy_g", "plancherel.cauchy_g"),
    ("plancherel", "moment", "plancherel.moment"),
    ("plancherel", "boolean_cumulant", "plancherel.boolean_cumulant"),
    ("tangle", "evaluate", "tangle.evaluate"),
    ("tangle", "parse", "tangle.parse"),
    ("tangle", "parse_programs", "tangle.parse_programs"),
    ("heisenberg", "verify_relation", "heisenberg.verify_relation"),
    ("heisenberg", "cross", "heisenberg.cross"),
    ("heisenberg", "dot_value", "heisenberg.dot_value"),
    ("heisenberg", "character_diagram", "heisenberg.character_diagram"),
    ("heisenberg", "moment_diagram", "heisenberg.moment_diagram"),
    ("heisenberg", "cumulant_diagram", "heisenberg.cumulant_diagram"),
    ("heisenberg", "kerov_boolean_expansion", "heisenberg.kerov_boolean_expansion"),
    ("heisenberg", "kerov_p_polynomial", "heisenberg.kerov_p_polynomial"),
    ("sym_oracle", "normalized_character", "sym_oracle.normalized_character"),
    ("sym_oracle", "character", "sym_oracle.character"),
    ("sym_oracle", "sparse_mul", "sym_oracle.sparse_mul"),
    ("sym_oracle", "sparse_trace", "sym_oracle.sparse_trace"),
    ("sym_oracle", "matrix_dict", "sym_oracle.matrix_dict"),
    (
        "sym_oracle",
        "adjacent_transposition_matrix",
        "sym_oracle.adjacent_transposition_matrix",
    ),
    ("sym_oracle", "standard_tableaux", "sym_oracle.standard_tableaux"),
    ("frobenius", "frobenius_sigma", "frobenius.frobenius_sigma"),
    ("frobenius", "h_product", "frobenius.h_product"),
    ("frobenius", "h_shifted", "frobenius.h_shifted"),
    ("frobenius", "satellite_final_form", "frobenius.satellite_final_form"),
    ("frobenius", "satellite_I", "frobenius.satellite_I"),
    ("frobenius", "satellite_level_form", "frobenius.satellite_level_form"),
    ("frobenius", "satellite_step_check", "frobenius.satellite_step_check"),
    ("frobenius", "f_eval", "frobenius.f_eval"),
    ("frobenius", "radial_I", "frobenius.radial_I"),
    ("frobenius", "sample_points", "frobenius.sample_points"),
    ("frobenius", "lemma_checks", "frobenius.lemma_checks"),
)

# Cached functions whose hit ratio is reported, read from cache_info().
CACHED = (
    ("surd", "sqrt_fraction", "surd.sqrt_fraction"),
    ("young", "up_covers", "young.up_covers"),
    ("young", "down_covers", "young.down_covers"),
    ("young", "dim", "young.dim"),
    ("plancherel", "f_pl", "plancherel.f_pl"),
    (
        "sym_oracle",
        "adjacent_transposition_matrix",
        "sym_oracle.adjacent_transposition_matrix",
    ),
)

RELATIONS = ("left_turn", "ind_ind", "ind_res", "res_ind", "ybe", "left_circle")


def _module(name: str):
    return sys.modules[f"ypa.{name}"]


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Span recorder plus the patches that feed it; one per pass process."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self._undo: list = []
        self.h_product_keys: set = set()
        self.h_product_repeats = 0
        self.pool_cpu_s = 0.0
        self.pool_capacity_s = 0.0
        self._cached: dict = {}
        self._cache0: dict[str, tuple[int, int]] = {}

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, label=None):
        """A wrapper recording one span per call of fn.

        ``label(args)`` may refine the span name per call.
        """
        nid = self._name_id(name)
        names, starts, ends, parents = (
            self.span_name,
            self.span_start,
            self.span_end,
            self.span_parent,
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(self._name_id(label(args)) if label else nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- special wrappers -------------------------------------------------------

    def _special(self, name: str, fn):
        if name == "heisenberg.verify_relation":
            return self._wrap_verify_relation(fn)
        if name == "frobenius.h_product":
            return self._wrap_h_product(fn)
        return self.wrap(name, fn)

    def _wrap_verify_relation(self, fn):
        def label(args):
            return f"heisenberg.verify_relation.{args[0]}"

        inner = self.wrap("heisenberg.verify_relation", fn, label)

        @functools.wraps(fn)
        def pooled(name, max_weight, jobs=1):
            c0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
            t0 = time.perf_counter()
            try:
                return inner(name, max_weight, jobs)
            finally:
                wall = time.perf_counter() - t0
                if jobs > 1:
                    c1 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
                    self.pool_cpu_s += c1 - c0
                    self.pool_capacity_s += jobs * wall

        return pooled

    def _wrap_h_product(self, fn):
        inner = self.wrap("frobenius.h_product", fn)

        @functools.wraps(fn)
        def keyed(lam, shifts):
            shifts = tuple(shifts)
            key = (lam, shifts)
            if key in self.h_product_keys:
                self.h_product_repeats += 1
            else:
                self.h_product_keys.add(key)
            return inner(lam, shifts)

        return keyed

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Patch every binding site of every target; snapshot the caches."""
        import ypa.cli  # noqa: F401  (loads every module, so all sites exist)
        from ypa.plancherel import HarmonicFunction
        from ypa.tangle import Element

        self._cached = {name: getattr(_module(mod), attr) for mod, attr, name in CACHED}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            self._cache0[name] = (info.hits, info.misses)
        modules = [m for n, m in sys.modules.items() if n == "ypa" or n.startswith("ypa.")]
        for mod, attr, name in TARGETS:
            owner = _module(mod)
            if "." in attr:
                self._patch_method(owner, attr, name)
                continue
            original = getattr(owner, attr)
            wrapper = self._special(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
                    elif isinstance(value, (Element, HarmonicFunction)):
                        self._patch_holder(value, original, wrapper)
                    elif isinstance(value, dict):
                        for held in value.values():
                            if isinstance(held, (Element, HarmonicFunction)):
                                self._patch_holder(held, original, wrapper)
        os.register_at_fork(after_in_child=self.uninstall)

    def _patch_method(self, owner, attr: str, name: str) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, staticmethod):
            self._set(cls, meth, staticmethod(self.wrap(name, raw.__func__)))
            return
        wrapper = self.wrap(name, raw)
        for key, value in list(vars(cls).items()):
            if value is raw:  # __mul__ and its __rmul__ alias
                self._set(cls, key, wrapper)

    def _patch_holder(self, holder, original, wrapper) -> None:
        for field in ("fn", "value"):
            if getattr(holder, field, None) is original:
                object.__setattr__(holder, field, wrapper)
                self._undo.append(
                    lambda h=holder, f=field: object.__setattr__(h, f, original)
                )

    def _set(self, owner, key: str, value) -> None:
        old = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        setattr(owner, key, value)
        self._undo.append(lambda: setattr(owner, key, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output ---------------------------------------------------------------

    def cache_ratios(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each cached function since install."""
        out = {}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            h0, m0 = self._cache0[name]
            out[name] = (info.hits - h0, info.misses - m0)
        return out

    def write(self, prefix: Path) -> None:
        """Write the spans (binary columns) and the counters (JSON)."""
        n = len(self.span_start)
        with open(f"{prefix}.spans", "wb") as fh:
            self.span_name.tofile(fh)
            self.span_start.tofile(fh)
            self.span_end.tofile(fh)
            self.span_parent.tofile(fh)
            (array("I", [self.pass_id]) * n).tofile(fh)
        meta = {
            "pass_id": self.pass_id,
            "spans": n,
            "names": self.names,
            "caches": self.cache_ratios(),
            "h_product_calls": self.h_product_repeats + len(self.h_product_keys),
            "h_product_repeats": self.h_product_repeats,
            "pool_cpu_s": self.pool_cpu_s,
            "pool_capacity_s": self.pool_capacity_s,
        }
        Path(f"{prefix}.json").write_text(json.dumps(meta))


def read_spans(prefix: Path):
    """(meta, names, starts, ends, parents, pass_ids) as written by Tracer."""
    meta = json.loads(Path(f"{prefix}.json").read_text())
    n = meta["spans"]
    cols = (array("I"), array("d"), array("d"), array("q"), array("I"))
    with open(f"{prefix}.spans", "rb") as fh:
        for col in cols:
            col.fromfile(fh, n)
    return (meta, *cols)


def summarize(prefix: Path) -> dict[str, float]:
    """Per-layer and per-function figures from one traced pass.

    ``<layer>.self_s`` is the layer's span time minus the part covered by
    child spans, so Fraction arithmetic lands in the calling layer.
    ``<fn>.s`` is the time inside spans of that name that are not directly
    nested in a span of the same name (recursion is counted once).
    """
    meta, names, starts, ends, parents, _ = read_spans(prefix)
    table = meta["names"]
    layer_of = [t.split(".")[0] for t in table]
    n = len(starts)
    dur = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += dur[i]
    calls = [0] * len(table)
    incl = [0.0] * len(table)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
    for i in range(n):
        nid = names[i]
        calls[nid] += 1
        p = parents[i]
        if p < 0 or names[p] != nid:
            incl[nid] += dur[i]
        layer = layer_of[nid]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += dur[i] - covered[i]
    by_name = {t: (calls[k], incl[k]) for k, t in enumerate(table)}

    def count(name):
        return by_name.get(name, (0, 0.0))[0]

    def secs(name):
        return by_name.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    caches = meta["caches"]
    for name, (hits, misses) in caches.items():
        out[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
    for name in (
        "surd.mul",
        "surd.add",
        "tangle.evaluate",
        "heisenberg.cross",
        "sym_oracle.sparse_mul",
        "ratfun.make",
        "ratfun.mul",
        "ratfun.residue_at",
        "frobenius.satellite_level_form",
        "affine.evaluate",
        "plancherel.inv_h",
    ):
        out[f"{name}.calls"] = count(name)
    for name in (
        "surd.mul",
        "tangle.evaluate",
        "tangle.parse",
        "young.enumerate_loops",
        "heisenberg.character_diagram",
        "heisenberg.moment_diagram",
        "heisenberg.cumulant_diagram",
        "heisenberg.kerov_boolean_expansion",
        "sym_oracle.normalized_character",
        "sym_oracle.sparse_mul",
        "ratfun.make",
        "ratfun.residue_at",
        "ratfun.series_at_infinity",
        "frobenius.satellite_step_check",
        "frobenius.satellite_I",
        "frobenius.radial_I",
        "frobenius.lemma_checks",
        "frobenius.frobenius_sigma",
        "affine.evaluate",
        "affine.residue_in",
        "plancherel.boolean_cumulant",
    ):
        out[f"{name}.s"] = secs(name)
    for rel in RELATIONS:
        out[f"heisenberg.verify_relation.{rel}.s"] = secs(
            f"heisenberg.verify_relation.{rel}"
        )
    out["frobenius.h_product.calls"] = meta["h_product_calls"]
    out["frobenius.h_product.repeat_ratio"] = ratio(
        meta["h_product_repeats"], meta["h_product_calls"]
    )
    out["heisenberg.pool.cpu_s"] = meta["pool_cpu_s"]
    out["heisenberg.pool.utilization"] = ratio(
        meta["pool_cpu_s"], meta["pool_capacity_s"]
    )
    return out
