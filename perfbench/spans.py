"""Per-layer spans for a traced batch.

While a `Tracer` is installed, every covertool module name bound to one
of the layer functions below is rebound to a wrapper that records a span
(name, parent, command, start, end) and a few size counts.  The
benchmark then runs the very same CLI commands as an untraced batch, so
the traced time minus the untraced time is the tracing overhead.  A
span's self time is its duration minus that of its child spans, which
gives each layer's own time even where one layer calls another, as
`ass_of_power` and `build_star_witness` do.  Graph methods such as
`neighbors` are not wrapped; their time stays with their caller.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from covertool import associated, cli, covers, graphs, hypercovers, monomials

MODULES = (graphs, monomials, covers, hypercovers, associated, cli)

# (defining module, function name, span name)
LAYER_FUNCTIONS = (
    (graphs, "parse_hypergraph", "graphs.parse"),
    (graphs, "enumerate_induced_stars", "graphs.stars"),
    (covers, "partial_cover_ideal", "covers.cover_ideal"),
    (covers, "star_generators", "covers.cover_ideal"),
    (monomials, "ideal_power", "monomials.power"),
    (monomials, "irreducible_decomposition", "monomials.decompose"),
    (monomials, "associated_primes", "monomials.ass"),
    (monomials, "alexander_dual", "monomials.dual"),
    (monomials, "colon", "monomials.colon"),
    (monomials, "contains", "monomials.contains"),
    (associated, "ass_of_power", "associated.ass_of_power"),
    (associated, "predict_ass_tree", "associated.predict"),
    (associated, "astab_tree", "associated.predict"),
    (associated, "build_star_witness", "associated.witness"),
    (associated, "verify_annihilator_divisibility", "associated.witness"),
    (cli, "main", "cli.main"),
)

# Per-layer metrics: self-time sums by span name, plus counts.
SELF_TIME_METRICS = {
    "monomials.decompose_s": "monomials.decompose",
    "monomials.power_s": "monomials.power",
    "monomials.colon_s": "monomials.colon",
    "monomials.contains_s": "monomials.contains",
    "monomials.ass_s": "monomials.ass",
    "monomials.dual_s": "monomials.dual",
    "covers.cover_ideal_s": "covers.cover_ideal",
    "graphs.parse_s": "graphs.parse",
    "graphs.stars_s": "graphs.stars",
    "associated.predict_s": "associated.predict",
    "associated.witness_s": "associated.witness",
    "cli.main_s": "cli.main",
}


def _count_power(tracer, args, result, missed):
    if not missed:
        return
    ideal, s = args
    tracer.counts["monomials.power_gens"] += len(result.gens)
    if s >= 2:
        # I^s is the minimalised product of I^(s-1) with I.
        previous = tracer.originals["monomials.power"](ideal, s - 1)
        tracer.counts["monomials.power_products"] += len(previous.gens) * len(ideal.gens)


def _count_decompose(tracer, args, result, missed):
    if missed:
        tracer.counts["monomials.components"] += len(result)


def _count(key, size):
    def count(tracer, args, result, missed):
        tracer.counts[key] += size(result)
    return count


COUNTERS = {
    "monomials.power": _count_power,
    "monomials.decompose": _count_decompose,
    "monomials.ass": _count("monomials.primes", len),
    "monomials.dual": _count("monomials.dual_gens", lambda r: len(r.gens)),
    "covers.cover_ideal": _count("covers.cover_gens", lambda r: len(r.gens)),
}


class Tracer:
    """Spans and counts of one traced batch, kept in memory."""

    def __init__(self):
        self.spans = []  # [id, parent id, name, command, start, end]
        self.counts = defaultdict(int)
        self.command = 0
        self.originals = {}
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, self.command, perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self._stack.pop()
            if counter:
                missed = cache_info is None or cache_info().misses > misses
                counter(self, args, result, missed)
            return result

        if cache_info:
            traced.cache_clear = fn.cache_clear
        return traced

    def add_span(self, name, start, end):
        """A span that interrupted the current one, such as a sample
        taken from a signal handler."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), parent, name, self.command, start, end])

    def install(self):
        for module, fname, name in LAYER_FUNCTIONS:
            fn = getattr(module, fname)
            self.originals.setdefault(name, fn)
            traced = self._wrap(name, fn)
            for mod in MODULES:
                if getattr(mod, fname, None) is fn:
                    self._patched.append((mod, fname, fn))
                    setattr(mod, fname, traced)
        # Graph.build is a classmethod; wrap the bound method.
        build = graphs.Graph.__dict__["build"]
        self._patched.append((graphs.Graph, "build", build))
        graphs.Graph.build = staticmethod(self._wrap("graphs.parse", graphs.Graph.build))

    def uninstall(self):
        for owner, fname, original in reversed(self._patched):
            setattr(owner, fname, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (*_, start, end) in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        by_name = defaultdict(float)
        decompose_max = 0.0
        for span, own in zip(self.spans, self.self_times()):
            by_name[span[2]] += own
            if span[2] == "monomials.decompose":
                decompose_max = max(decompose_max, own)
        values = {metric: by_name[name] for metric, name in SELF_TIME_METRICS.items()}
        values["monomials.decompose_max_s"] = decompose_max
        for key in ("monomials.components", "monomials.power_gens",
                    "monomials.power_products", "monomials.primes",
                    "monomials.dual_gens", "covers.cover_gens"):
            values[key] = self.counts[key]
        return values

    def layer_shares(self) -> dict[str, float]:
        """Each covertool layer's self time as a share of their sum."""
        totals = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            layer = span[2].split(".")[0]
            if layer != "perfbench":
                totals[layer] += own
        whole = sum(totals.values()) or 1.0
        return {layer: value / whole for layer, value in sorted(totals.items())}

    def write(self, fh, batch: int):
        """Append this batch's spans to `fh` as JSON lines; times are
        seconds from the batch's first span."""
        origin = self.spans[0][4] if self.spans else 0.0
        for span_id, parent, name, command, start, end in self.spans:
            fh.write(json.dumps({
                "batch": batch, "id": span_id, "parent": parent, "name": name,
                "command": command, "start": start - origin, "end": end - origin,
            }) + "\n")
