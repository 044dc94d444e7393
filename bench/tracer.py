"""In-memory span tracer for the benchmark's traced run.

``Tracer.install()`` wraps every public module-level function of the six
library layers and rebinds the name in every ``classgraph`` module that
holds it, so the library's source stays untouched.  A call to a wrapped
function records a span (name, start, end, index of the enclosing span,
self time); spans stay in memory until ``metrics()`` folds them into the
per-layer numbers at the end of the pass.  Self time is a span's duration
minus the time covered by its child spans.

Functions called once per group element inside closure and orbit loops,
and the ``Permutation`` multiply/conjugate/commute methods, are counted
rather than spanned: a span per call would cost more than the work.

Check windows inside ``verify_pair`` come from the two ``perf_counter``
readings ``verify`` takes around each check; the tracer sees them through
a stand-in for the ``time`` module in ``verify``'s namespace.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = ("perm", "structure", "classify", "graph", "construct", "verify")
COUNT_ONLY = ("perm.bulk_conjugate", "perm.element_order", "perm.p_part_element")
METHODS = (("construct", "GroupSpec", "build"), ("verify", "RunSummary", "to_json"))
PERM_COUNTERS = (("mul", "__mul__"), ("conjugate", "conjugate"), ("commutes", "commutes_with"))

# functions whose .calls and .self_s the benchmark reports, per layer
REPORTED = {
    "perm": ("make_group", "mulclose", "generating_set", "subgroup_from_elements",
             "conjugacy_classes", "class_elements", "center", "element_order_map"),
    "structure": ("normal_closure", "normal_subgroups", "derived_subgroup", "is_soluble",
                  "sylow", "p_core", "pi_core", "p_prime_core", "quotient",
                  "is_p_separable", "hall_subgroup", "p_complement", "is_isomorphic"),
    "classify": ("is_frobenius", "is_quasi_frobenius", "complement_case",
                 "pi_class_size_criterion", "count_p_regular_classes",
                 "intersection_subgroup"),
    "graph": ("build_graph", "is_triangle_free", "diameter", "coprime_class_span",
              "central_p_prime_part", "to_dot"),
    "construct": ("builtin_atlas", "atlas_group", "parse_corpus", "GroupSpec.build"),
}


class TraceError(RuntimeError):
    """The library no longer has the shape the tracer expects."""


def metric_names(check_ids) -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer, fns in REPORTED.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_s"]
            if layer == "structure":
                names.append(f"{layer}.{fn}.first_calls")
    names += [f"perm.{short}.calls" for short, _ in PERM_COUNTERS]
    names.append("structure.hall_subgroup.exhausted")
    names += ["verify.pair_setup_s", "verify.report_s"]
    names += [f"verify.check.{cid}.self_s" for cid in check_ids]
    names.append("trace.overhead_frac")
    return names


class _MarkingClock:
    """Stands in for the ``time`` module inside ``classgraph.verify``."""

    def __init__(self, marks: list):
        self._marks = marks

    def perf_counter(self) -> float:
        t = time.perf_counter()
        self._marks.append(t)
        return t

    def __getattr__(self, name):
        return getattr(time, name)


class Tracer:
    def __init__(self):
        # span: (name, start, end, parent span index or -1, self seconds)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.wrapped: set[str] = set()    # every function or method replaced
        self._spanned: set[str] = set()   # those that record spans
        self._stack: list[list] = []      # [span index, seconds covered by children]
        self._marks: list[float] = []
        self._check_self: dict[str, float] = {}
        self._pair_setup = 0.0

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn, memo_arg: bool = False, after=None):
        self._spanned.add(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            if memo_arg:
                cache = args[0]._cache
                before = len(cache)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[idx] = (name, start, end, parent, end - start - frame[1])
                if memo_arg and len(cache) > before:
                    counts[name + ".first_calls"] += 1
            if after is not None:
                after(idx, out)
            return out
        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap the library in place; call once per process, before any use."""
        import classgraph  # noqa: F401  (loads every layer)
        from classgraph.perm import Permutation

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "classgraph" or n.startswith("classgraph."))]
        for layer in LAYERS:
            mod = sys.modules[f"classgraph.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self._counter(name + ".calls", obj)
                elif name == "verify.verify_pair":
                    wrapper = self._span(name, obj, after=self._after_verify_pair)
                else:
                    wrapper = self._span(name, obj, memo_arg=(layer == "structure"))
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is obj:
                            setattr(m, a, wrapper)
                self.wrapped.add(name)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"classgraph.{layer}"], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            setattr(cls, meth, self._span(name, getattr(cls, meth)))
            self.wrapped.add(name)
        for short, meth in PERM_COUNTERS:
            setattr(Permutation, meth,
                    self._counter(f"perm.{short}.calls", getattr(Permutation, meth)))
        verify = sys.modules["classgraph.verify"]
        if getattr(verify, "time", None) is not time:
            raise TraceError("classgraph.verify no longer times checks with time.perf_counter")
        verify.time = _MarkingClock(self._marks)
        for cid in verify.ALL_CHECK_IDS:
            self._check_self[cid] = 0.0

        missing = [f"{layer}.{fn}" for layer, fns in REPORTED.items() for fn in fns
                   if f"{layer}.{fn}" not in self.wrapped]
        missing += [n for n in COUNT_ONLY + ("verify.verify_pair",) if n not in self.wrapped]
        if missing:
            raise TraceError(f"functions named in the per-layer table are gone: {missing}")

    # -- verify_pair: split its time into set-up and per-check windows ---------

    def _after_verify_pair(self, idx: int, report) -> None:
        name, start, end, _, _ = self.spans[idx]
        marks = [t for t in self._marks if start <= t <= end]
        self._marks.clear()
        ran = [c for c in report.checks if c.status != "skipped"]
        if len(marks) != 2 * len(ran):
            raise TraceError(f"{len(marks)} timing marks for {len(ran)} checks that ran")
        children = [s for s in self.spans[idx + 1:] if s[3] == idx]
        for check, t0, t1 in zip(ran, marks[::2], marks[1::2]):
            covered = sum(s[2] - s[1] for s in children if t0 <= s[1] and s[2] <= t1)
            self._check_self[check.check_id] += check.millis / 1000.0 - covered
        self._pair_setup += (end - start) - sum(c.millis for c in report.checks) / 1000.0

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals for everything traced so far."""
        out: dict[str, float] = {}
        for name in self._spanned:
            out[name + ".calls"] = 0
            out[name + ".self_s"] = 0.0
        for name, _, _, _, self_s in self.spans:
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self_s
        for name in self._spanned:
            if name.startswith("structure."):
                out[name + ".first_calls"] = self.counts[name + ".first_calls"]
        counters = [f"perm.{short}.calls" for short, _ in PERM_COUNTERS]
        counters += [name + ".calls" for name in COUNT_ONLY]
        for name in counters + list(self.counts):
            out[name] = self.counts[name]
        out["structure.hall_subgroup.exhausted"] = self.counts[
            "structure.hall_subgroup.raised.HallSearchExhausted"]
        out["verify.pair_setup_s"] = self._pair_setup
        out["verify.report_s"] = sum(end - start for name, start, end, _, _ in self.spans
                                     if name == "verify.RunSummary.to_json")
        for cid, s in self._check_self.items():
            out[f"verify.check.{cid}.self_s"] = s
        return dict(out)
