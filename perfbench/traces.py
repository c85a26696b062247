"""Per-layer numbers from a traced run's span tree.

The benchmark wraps a ``bench:*`` span around every call into a layer's
public function (``bench:request`` around the whole request); the
program's own spans (``optimize``, ``pass:*``, ``egraph:*``, ``search:*``,
``lower``, ``execute``, stage spans, ``simulate``) nest under them because
the same ``repro.obs.Tracer`` is passed through the ``tracer=`` parameters.

A span's self time is its duration minus the time its direct children
cover; a layer's self time is the sum of its spans' self times.  All
schedulers here are sequential, so sibling spans never overlap.
"""

from __future__ import annotations

from collections import defaultdict

#: Span kind -> layer.  ``bench`` spans belong to no layer.
LAYER_OF_KIND = {
    "optimize": "service",
    "pass": "core", "egraph": "core", "search": "core",
    "search-phase": "core",
    "lower": "engine", "execute": "engine", "stage": "engine",
    "attempt": "engine", "speculate": "engine", "simulate": "engine",
}
LAYERS = ("service", "core", "engine")


class SpanTree:
    """Finished spans indexed by parent, with self-time helpers."""

    def __init__(self, spans) -> None:
        self.spans = list(spans)
        self.children: dict[str | None, list] = defaultdict(list)
        for span in self.spans:
            self.children[span.parent].append(span)

    def self_time(self, span) -> float:
        return span.duration - sum(c.duration for c in
                                   self.children[span.sid])

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def outermost(self, predicate) -> list:
        """Spans matching ``predicate`` with no matching ancestor."""
        found = []
        stack = list(self.children[None])
        while stack:
            span = stack.pop()
            if predicate(span):
                found.append(span)
            else:
                stack.extend(self.children[span.sid])
        return found

    def program_children(self, span) -> list:
        """Program spans directly under ``span``'s bench spans."""
        out = []
        for child in self.children[span.sid]:
            if child.kind == "bench":
                out.extend(self.program_children(child))
            else:
                out.append(child)
        return out


def _sum(spans) -> float:
    return sum(s.duration for s in spans)


def layer_numbers(spans, requests: int, passes: int) -> dict:
    """Span-derived per-layer metrics of the traced passes.

    Times ending in ``_s`` are seconds per pass of the request list;
    times ending in ``_ms`` are milliseconds per request.
    """
    tree = SpanTree(spans)
    per_req = 1000.0 / max(requests, 1)
    per_pass = 1.0 / max(passes, 1)

    roots = tree.named("bench:request")
    covered = sum(_sum(tree.program_children(r)) for r in roots)
    runs = tree.named("bench:engine.execute_plan")
    run_wall = _sum(runs)
    run_covered = sum(_sum(tree.program_children(r)) for r in runs)
    optimize = [s for s in spans if s.name == "optimize"]

    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = LAYER_OF_KIND.get(span.kind)
        if layer is not None:
            self_by_layer[layer] += tree.self_time(span)

    rewrites = tree.outermost(lambda s: s.kind in ("pass", "egraph"))
    searches = [s for s in spans if s.kind == "search"]
    stages = [s for s in spans if s.kind == "stage"]
    e_nodes = sum(s.attrs.get("e_nodes", 0)
                  for s in tree.named("egraph:saturate"))
    return {
        "core.rewrite_s": _sum(rewrites) * per_pass,
        "core.egraph_e_nodes": e_nodes * per_pass,
        "core.search_calls": len(searches) / max(requests, 1),
        "core.search_s": _sum(searches) * per_pass,
        "core.self_ms": self_by_layer["core"] * per_req,
        "service.optimize_ms": _sum(optimize) * per_req,
        # The service layer's self time: fingerprinting and cache lookup.
        "service.fingerprint_ms": self_by_layer["service"] * per_req,
        "service.request_share": (_sum(optimize) / _sum(roots)
                                  if roots else 0.0),
        "engine.lower_ms": _sum(tree.named("lower")) * per_req,
        "engine.execute_ms": _sum(tree.named("execute")) * per_req,
        "engine.stage_ms": _sum(stages) * per_req,
        "engine.stages": len(stages) / max(requests, 1),
        "engine.unspanned_share": (1.0 - run_covered / run_wall
                                   if run_wall else 0.0),
        "engine.self_ms": self_by_layer["engine"] * per_req,
        "obs.span_coverage": covered / _sum(roots) if roots else 0.0,
    }
