"""Spans around the library's public calls, recorded from outside it.

The tracer replaces a function or method with a wrapper and rebinds every
module attribute and class attribute that refers to it, because the package
imports functions by name across modules (``twisted_alexander`` is bound in
``torus``, ``covers``, ``ordering``, ``cli`` and the package itself).
``restore`` puts every original object back.

A span wrapper records the call's wall time and its self time: wall time
minus the wall time of the traced calls made inside it.  Times are integer
nanoseconds, so self time is exact and never negative.  A count wrapper
only counts calls, for functions hot enough that a span would distort them.
Spans are aggregated in memory per (layer, item) and written out when the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import types

SETUP = "setup"


def _lifted(tr, args, kwargs, cover):
    tr.maximum("words.lifted_letters", sum(len(w) for w in cover.lifted_monodromy.images))
    tr.maximum("covers.basis_rank", len(cover.subgroup_basis))


def _rep_dim(tr, args, kwargs, result):
    tr.maximum("fox.rep_dim", result.rows)


def _snf_rows(tr, args, kwargs, result):
    tr.maximum("linalg.snf_rows", args[0].rows)


def _coeff_bits(tr, args, kwargs, result):
    bits = 0
    for p in args[:2]:
        for _, c in p.items():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tr.maximum("laurent.coeff_bits", bits)


def _sturm_degree(tr, args, kwargs, result):
    p = args[0]
    tr.maximum("roots.degree", p.degree - p.order)


def _hom_yield(tr, args, kwargs, homs):
    monodromy, group = args[:2]
    tr.add("finite.hom_candidates", group.order ** (monodromy.rank + 1))
    tr.add("finite.hom_found", len(homs))


def _resolved(tr, args, kwargs, result):
    tr.add("ordering.magnus_resolved", result.name != "UNRESOLVED_AT_DEPTH")


# (layer name, module, attribute or Class.method, "span" or "count", observer)
TARGETS = (
    ("freegroup.power", "orderlex.freegroup", "FreeEndomorphism.power", "span", None),
    ("freegroup.apply", "orderlex.freegroup", "FreeEndomorphism.apply", "count", None),
    ("covers.build_cover", "orderlex.covers", "build_cover", "span", _lifted),
    ("covers.cover_alexander", "orderlex.covers", "cover_alexander", "span", None),
    ("fox.specialize", "orderlex.fox", "specialize", "span", _rep_dim),
    ("linalg.snf", "orderlex.linalg", "PolynomialMatrix.smith_normal_form", "span", _snf_rows),
    ("linalg.homology", "orderlex.linalg", "homology_invariant_factors", "span", None),
    ("linalg.det", "orderlex.linalg", "PolynomialMatrix.det", "span", None),
    ("linalg.char_poly", "orderlex.linalg", "RationalMatrix.char_poly", "span", None),
    ("linalg.rational_matmul", "orderlex.linalg", "RationalMatrix.__mul__", "count", None),
    ("torus.twisted", "orderlex.torus", "twisted_alexander", "span", None),
    ("torus.classical", "orderlex.torus", "classical_alexander", "span", None),
    ("laurent.divmod", "orderlex.laurent", "poly_divmod", "span", _coeff_bits),
    ("laurent.gcd", "orderlex.laurent", "poly_gcd", "count", None),
    ("roots.sturm", "orderlex.roots", "sturm_positive_root_count", "span", _sturm_degree),
    ("finite.enumerate", "orderlex.finite", "enumerate_homomorphisms", "span", _hom_yield),
    ("finite.regular_rep", "orderlex.finite", "regular_representation", "span", None),
    ("ordering.magnus_compare", "orderlex.ordering", "magnus_compare", "span", _resolved),
    ("ordering.magnus_expand", "orderlex.ordering", "magnus_expand", "span", None),
    ("ordering.theorem2", "orderlex.ordering", "theorem2_report", "span", None),
    ("manifest.load", "orderlex.manifest", "load_manifest", "span", None),
    ("cli.main", "orderlex.cli", "main", "span", None),
)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if (name == "orderlex" or name.startswith("orderlex.")) and m is not None]


def leftover_wrappers():
    """Every wrapper still bound in a module or class of the package."""
    found = set()
    for m in _package_modules():
        for name, value in vars(m).items():
            if hasattr(value, "__perfbench_original__"):
                found.add(f"{m.__name__}.{name}")
            if isinstance(value, type):
                found.update(f"{value.__module__}.{value.__qualname__}.{k}"
                             for k, v in vars(value).items()
                             if hasattr(v, "__perfbench_original__"))
    return sorted(found)


class Tracer:
    def __init__(self):
        self.item = SETUP
        self.spans = {}  # (layer, item) -> [calls, wall ns, self ns, min self ns]
        self.calls = {}  # (layer, item) -> calls, for count wrappers
        self.sums = {}  # (counter, item) -> total
        self.maxima = {}  # (counter, item) -> largest value seen
        self.patches = []  # (owner, attribute, original)
        self.missing = []
        self._stack = []

    # -- recording ----------------------------------------------------

    def add(self, counter, value):
        key = (counter, self.item)
        self.sums[key] = self.sums.get(key, 0) + value

    def maximum(self, counter, value):
        key = (counter, self.item)
        if value > self.maxima.get(key, -1):
            self.maxima[key] = value

    def _span(self, layer, fn, observer):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                self._record(layer, wall, wall - children[0])
            if observer is not None:
                # Observer time is tracing cost: keep it out of the caller's
                # self time as well as this span's.
                begin = clock()
                observer(self, args, kwargs, result)
                if stack:
                    stack[-1][0] += clock() - begin
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _count(self, layer, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (layer, self.item)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _record(self, layer, wall, own):
        key = (layer, self.item)
        agg = self.spans.get(key)
        if agg is None:
            self.spans[key] = [1, wall, own, own]
        else:
            agg[0] += 1
            agg[1] += wall
            agg[2] += own
            if own < agg[3]:
                agg[3] = own

    # -- patching -----------------------------------------------------

    def install(self):
        modules = _package_modules()
        for layer, modname, attr, kind, observer in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if not isinstance(original, types.FunctionType):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = (self._span(layer, original, observer) if kind == "span"
                       else self._count(layer, original))
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self.patches.append((owner, name, original))

    def restore(self):
        """Put back every original binding; return the bindings that are
        still not the original object (empty when restoration worked)."""
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        moved = [f"{getattr(owner, '__name__', owner)}.{name}"
                 for owner, name, original in self.patches
                 if vars(owner).get(name) is not original]
        return sorted(set(moved) | set(leftover_wrappers()))

    # -- summaries ----------------------------------------------------

    def min_self_ns(self):
        return min((agg[3] for agg in self.spans.values()), default=0)


def _self(layer):
    return "s/item", lambda t: t.item_self_ns(layer) * t.scale / 1e9 / t.n_items


def _calls(layer):
    return "calls/item", lambda t: t.item_calls(layer) / t.n_items


def _max(counter):
    return "count", lambda t: max((v for (c, item), v in t.tracer.maxima.items()
                                  if c == counter and item != SETUP), default=0)


def _ratio(num, den):
    return "ratio", lambda t: num(t) / den(t) if den(t) else 0


class _Totals:
    """Aggregates of one traced run, split into set-up and items."""

    def __init__(self, tracer, item_kinds, report_homs, scale):
        self.tracer = tracer
        self.scale = scale
        self.item_kinds = item_kinds
        self.n_items = max(len(item_kinds), 1)
        self.report_homs = report_homs

    def item_self_ns(self, layer):
        return sum(agg[2] for (name, item), agg in self.tracer.spans.items()
                   if name == layer and item != SETUP)

    def item_calls(self, layer, kind=None):
        counts = [(item, agg[0]) for (name, item), agg in self.tracer.spans.items()
                  if name == layer]
        counts += [(item, n) for (name, item), n in self.tracer.calls.items()
                   if name == layer]
        return sum(n for item, n in counts if item != SETUP
                   and (kind is None or self.item_kinds.get(item) == kind))

    def setup_self(self, layer):
        agg = self.tracer.spans.get((layer, SETUP))
        return agg[2] * self.scale / 1e9 if agg else 0

    def setup_sum(self, counter):
        return self.tracer.sums.get((counter, SETUP), 0)

    def item_sum(self, counter):
        return sum(v for (c, item), v in self.tracer.sums.items()
                   if c == counter and item != SETUP)


# Per-layer metrics of a traced run.  Times are self times; "per item"
# divides by the items run while tracing, "per setup" covers one traced
# set-up (enumeration happens only there).
PER_LAYER = {
    "freegroup.power_s": _self("freegroup.power"),
    "freegroup.apply_calls": _calls("freegroup.apply"),
    "words.lifted_letters_max": _max("words.lifted_letters"),
    "covers.build_cover_s": _self("covers.build_cover"),
    "covers.basis_rank_max": _max("covers.basis_rank"),
    "fox.specialize_s": _self("fox.specialize"),
    "fox.specialize_calls": _calls("fox.specialize"),
    "fox.rep_dim_max": _max("fox.rep_dim"),
    "linalg.snf_s": _self("linalg.snf"),
    "linalg.snf_calls": _calls("linalg.snf"),
    "linalg.snf_rows_max": _max("linalg.snf_rows"),
    "linalg.homology_s": _self("linalg.homology"),
    "linalg.det_s": _self("linalg.det"),
    "linalg.det_calls": _calls("linalg.det"),
    "linalg.char_poly_s": _self("linalg.char_poly"),
    "linalg.rational_matmul_calls": _calls("linalg.rational_matmul"),
    "torus.twisted_s": _self("torus.twisted"),
    "torus.twisted_calls": _calls("torus.twisted"),
    "torus.classical_s": _self("torus.classical"),
    "covers.cover_alexander_s": _self("covers.cover_alexander"),
    "laurent.divmod_s": _self("laurent.divmod"),
    "laurent.divmod_calls": _calls("laurent.divmod"),
    "laurent.gcd_calls": _calls("laurent.gcd"),
    "laurent.coeff_bits_max": _max("laurent.coeff_bits"),
    "roots.sturm_s": _self("roots.sturm"),
    "roots.sturm_calls": _calls("roots.sturm"),
    "roots.degree_max": _max("roots.degree"),
    "finite.enumerate_s": ("s/setup", lambda t: t.setup_self("finite.enumerate")),
    "finite.hom_yield_ratio": _ratio(lambda t: t.setup_sum("finite.hom_found"),
                                     lambda t: t.setup_sum("finite.hom_candidates")),
    "finite.regular_rep_s": _self("finite.regular_rep"),
    "ordering.magnus_compare_s": _self("ordering.magnus_compare"),
    "ordering.magnus_compare_calls": _calls("ordering.magnus_compare"),
    "ordering.resolved_ratio": _ratio(lambda t: t.item_sum("ordering.magnus_resolved"),
                                      lambda t: t.item_calls("ordering.magnus_compare")),
    "ordering.magnus_expand_s": _self("ordering.magnus_expand"),
    "ordering.theorem2_s": _self("ordering.theorem2"),
    "manifest.load_s": _self("manifest.load"),
    "manifest.load_calls": _calls("manifest.load"),
    "cli.main_s": _self("cli.main"),
    "cli.twisted_per_hom": ("calls/hom", lambda t: t.item_calls("torus.twisted", "report")
                            / t.report_homs if t.report_homs else 0),
}


def layer_metrics(tracer, item_kinds, report_homs, scale):
    """{name: {"value", "unit"}} for every per-layer metric; times are
    multiplied by scale, which rescales them to the reference host."""
    totals = _Totals(tracer, item_kinds, report_homs, scale)
    return {name: {"value": fn(totals), "unit": unit}
            for name, (unit, fn) in PER_LAYER.items()}
