"""Per-layer tracing of lambda_stirling through its public seams.

Nothing under ``src/`` is edited and no private cache is read.  The tracer
wraps, in the running process only:

* module attributes that the library and the benchmark call through a module
  object (``stirling.second_kind_series``, ``whitney.dobinski_eval``, the
  triangle functions, ...), and the entries of the public ``CHECKS``
  registry;
* ``TruncatedSeries`` and ``Poly`` methods at class level;
* the ``Providers`` bundle handed to ``run_suite`` (see ``providers``).

Every call through a wrapped seam opens a frame.  Calls of the hot leaf
seams (``Poly`` products, triangle and Bernoulli lookups) are only counted
and timed, because one suite makes millions of them; every other call is
also kept as a span (name, start, end, parent) in memory and written out by
``dump_spans`` when the run ends.  A seam's calls and time are summed over
its outermost calls only, so a lookup that re-enters a lookup, or a product
that multiplies nested polynomial coefficients, is counted once.

The triangle and Bernoulli seams read their arguments by position; every
caller in the library and in the benchmark passes them that way.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# triangle function -> (family, r, m, lambda) key, n, k of its arguments
_STIRLING_LOOKUPS = {
    "stirling2_lambda": lambda a: (("second", 0, 1, a[2]), a[0], a[1]),
    "rstirling2_lambda": lambda a: (("second", a[2], 1, a[3]), a[0], a[1]),
    "stirling1_lambda": lambda a: (("first-signed", 0, 1, a[2]), a[0], a[1]),
    "rstirling1_lambda": lambda a: (("first-signed", a[2], 1, a[3]), a[0], a[1]),
    "unsigned_rstirling1_lambda": lambda a: (
        ("first-unsigned", a[2], 1, a[3]), a[0], a[1]),
}
_WHITNEY_LOOKUPS = {
    "whitney": lambda a: (("whitney", 1, a[2], a[3]), a[0], a[1]),
    "whitney_r": lambda a: (("whitney", a[3], a[2], a[4]), a[0], a[1]),
}
# Providers field -> the library function it defaults to
_PROVIDER_FIELDS = {
    "stirling2": "stirling2_lambda",
    "rstirling2": "rstirling2_lambda",
    "stirling1": "stirling1_lambda",
    "unsigned_rstirling1": "unsigned_rstirling1_lambda",
    "whitney": "whitney",
    "whitney_r": "whitney_r",
    "bernoulli": "bernoulli_higher",
}
_LEAF_SEAMS = frozenset(
    {"poly.mul", "stirling.lookup", "whitney.lookup", "bernoulli.lookup"}
)


class Tracer:
    """Spans and counters for one process; ``install`` wraps the seams."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent span index or -1]
        self.seconds = defaultdict(float)  # seam -> time in outermost calls
        self.calls = defaultdict(int)  # seam -> outermost calls
        self.counts = defaultdict(int)  # counters observed at the seams
        self.self_seconds = 0.0  # identities checks minus their child frames
        self._stack: list = []  # open frames: [child seconds, span index]
        self._depth = defaultdict(int)
        self._max_row: dict = {}  # lookup key -> largest row asked for
        self._wrapped: dict = {}  # original function -> its wrapper

    # -- wrapping ----------------------------------------------------------

    def wrap(self, seam, fn, before=None, after=None):
        """Return ``fn`` traced as ``seam``; one wrapper per function.
        ``before(args)`` runs on an outermost call, ``after(result)`` on
        every call."""
        if fn not in self._wrapped:
            self._wrapped[fn] = self._make(seam, fn, before, after)
        return self._wrapped[fn]

    def _make(self, seam, fn, before, after):
        clock = time.perf_counter
        stack, depth, spans = self._stack, self._depth, self.spans
        seconds, calls = self.seconds, self.calls
        keep_span = seam not in _LEAF_SEAMS
        is_check = seam.startswith("identities.")

        def traced(*args, **kwargs):
            level = depth[seam]
            if before is not None and level == 0:
                before(args)
            parent = stack[-1][1] if stack else -1
            if keep_span:
                index = len(spans)
                spans.append([seam, 0.0, 0.0, parent])
            else:
                index = parent
            frame = [0.0, index]
            stack.append(frame)
            depth[seam] = level + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[seam] = level
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                if level == 0:
                    seconds[seam] += elapsed
                    calls[seam] += 1
                if keep_span:
                    spans[index][1] = start
                    spans[index][2] = end
                if is_check:
                    self.self_seconds += elapsed - frame[0]
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, name, fn, *args):
        """Run one benchmark operation as a root span named ``name``."""
        return self._make(name, fn, None, None)(*args)

    def _patch(self, owner, attr, seam, before=None, after=None):
        setattr(owner, attr, self.wrap(seam, getattr(owner, attr), before, after))

    def install(self):
        """Wrap every seam.  Call before ``lambda_stirling.cli`` is imported,
        so that the names the CLI binds at import time are the wrapped ones."""
        poly = importlib.import_module("lambda_stirling.poly")
        series = importlib.import_module("lambda_stirling.series")
        stirling = importlib.import_module("lambda_stirling.stirling")
        whitney = importlib.import_module("lambda_stirling.whitney")
        bernoulli = importlib.import_module("lambda_stirling.bernoulli")
        identities = importlib.import_module("lambda_stirling.identities")

        self._patch(poly.Poly, "__mul__", "poly.mul")
        self._patch(poly.Poly, "scale", "poly.mul")
        self._patch(series.TruncatedSeries, "__mul__", "series.mul",
                    before=self._count_products)
        self._patch(series.TruncatedSeries, "__pow__", "series.pow")
        self._patch(series.TruncatedSeries, "exp", "series.exp")
        self._patch(series.TruncatedSeries, "inverse", "series.inverse")

        # whitney.py binds stirling2_lambda by name for the Bell rows
        for name, key_of in _STIRLING_LOOKUPS.items():
            for module in (stirling, whitney):
                if hasattr(module, name):
                    self._patch(module, name, "stirling.lookup",
                                before=self._observe_lookup("stirling", key_of))
        for name, key_of in _WHITNEY_LOOKUPS.items():
            self._patch(whitney, name, "whitney.lookup",
                        before=self._observe_lookup("whitney", key_of))
        for name in ("rstirling2_by_expansion", "rstirling2_by_difference",
                     "classical_rstirling2"):
            self._patch(stirling, name, "stirling.oracle")
        self._patch(stirling, "second_kind_series", "series.column")
        self._patch(whitney, "whitney_series", "series.column")
        self._patch(whitney, "dowling_poly", "whitney.rowsum")
        self._patch(whitney, "bell_poly_lambda", "whitney.rowsum")
        self._patch(whitney, "dobinski_eval", "whitney.dobinski", after=self._count_terms)
        self._patch(bernoulli, "bernoulli_higher", "bernoulli.lookup")
        self._patch(bernoulli, "bernoulli_base_series", "bernoulli.base_series")
        for check_id, check in list(identities.CHECKS.items()):
            identities.CHECKS[check_id] = self.wrap(
                f"identities.{check_id}", check, after=self._count_instances)

    def providers(self):
        """A ``Providers`` bundle whose entries are the traced defaults."""
        identities = importlib.import_module("lambda_stirling.identities")
        default = identities.Providers()
        fields = {}
        for field, name in _PROVIDER_FIELDS.items():
            fn = getattr(default, field)
            if name in _STIRLING_LOOKUPS:
                observe = self._observe_lookup("stirling", _STIRLING_LOOKUPS[name])
                fields[field] = self.wrap("stirling.lookup", fn, before=observe)
            elif name in _WHITNEY_LOOKUPS:
                observe = self._observe_lookup("whitney", _WHITNEY_LOOKUPS[name])
                fields[field] = self.wrap("whitney.lookup", fn, before=observe)
            else:
                fields[field] = self.wrap("bernoulli.lookup", fn)
        return identities.Providers(**fields)

    # -- counters ----------------------------------------------------------

    def _observe_lookup(self, layer, key_of):
        """A lookup adds to ``new_rows`` the rows it asks for beyond the
        largest row asked for before under the same (family, r, m, lambda).
        Row 0 always exists, and entries outside 0 <= k <= n are answered
        without growing.  A lookup that adds no row is a hit."""
        max_row, counts = self._max_row, self.counts
        new_rows, hits = f"{layer}.new_rows", f"{layer}.hits"

        def observe(args):
            key, n, k = key_of(args)
            grown = n - max_row.get(key, 0) if 0 <= k <= n else 0
            if grown > 0:
                max_row[key] = n
                counts[new_rows] += grown
            else:
                counts[hits] += 1

        return observe

    def _count_products(self, args):
        a, b = args[0], args[1]
        if type(b) is type(a):
            n = min(a.order, b.order)
            self.counts["series.coeff_products"] += (n + 1) * (n + 2) // 2

    def _count_terms(self, value):
        self.counts["whitney.dobinski_terms"] += value.truncation_terms

    def _count_instances(self, report):
        self.counts["identities.instances"] += report.checked_instances

    # -- output ------------------------------------------------------------

    def raw(self) -> dict:
        """Additive figures of this process, keyed by metric name; the
        benchmark sums them over processes and derives the ratios."""
        out = {}
        for seam, name in _TIMED_SEAMS.items():
            out[name] = self.seconds[seam]
        for seam, name in _COUNTED_SEAMS.items():
            out[name] = self.calls[seam]
        for name in _COUNTERS:
            out[name] = self.counts[name]
        for seam, elapsed in self.seconds.items():
            if seam.startswith("identities."):
                out[f"{seam}_s"] = elapsed
        out["identities.self_s"] = self.self_seconds
        return out

    def dump_spans(self, handle) -> None:
        """Write the spans as JSON lines; ``request`` is the index of the
        root span (the benchmark operation) each span belongs to."""
        roots = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            roots.append(index if parent < 0 else roots[parent])
            handle.write(json.dumps({
                "id": index, "name": name, "start": start, "end": end,
                "parent": parent, "request": roots[index],
            }) + "\n")


# seam -> metric name of the time in its outermost calls
_TIMED_SEAMS = {
    "poly.mul": "poly.mul_s",
    "stirling.lookup": "stirling.lookup_s",
    "stirling.oracle": "stirling.oracle_s",
    "whitney.lookup": "whitney.lookup_s",
    "whitney.rowsum": "whitney.rowsum_s",
    "whitney.dobinski": "whitney.dobinski_s",
    "series.mul": "series.mul_s",
    "series.pow": "series.pow_s",
    "series.exp": "series.exp_s",
    "series.inverse": "series.inverse_s",
    "series.column": "series.column_s",
    "bernoulli.lookup": "bernoulli.s",
    "bernoulli.base_series": "bernoulli.base_series_s",
}
# seam -> metric name of its outermost call count
_COUNTED_SEAMS = {
    "poly.mul": "poly.mul_calls",
    "stirling.lookup": "stirling.lookups",
    "whitney.lookup": "whitney.lookups",
    "whitney.dobinski": "whitney.dobinski_calls",
    "series.mul": "series.mul_calls",
    "bernoulli.lookup": "bernoulli.calls",
}
_COUNTERS = (
    "stirling.new_rows", "stirling.hits", "whitney.new_rows",
    "whitney.dobinski_terms", "series.coeff_products", "identities.instances",
)
