"""Spans and counters recorded from outside the program.

Every span is opened by benchmark code around a call into a hybridbn layer,
or by one of the two wrappers below, which sit at public seams: a proxy that
implements the IndependenceSource protocol (handed to build_skeleton) and a
Scorer subclass (handed to hill_climb through its scorer argument). Nothing
inside src/ is patched.

Span names are "<layer>.<what>"; the layer is the hybridbn module the call
enters. Traced ops run single-threaded, so one span stack suffices.
"""

import contextlib
import time
from collections import Counter

from hybridbn.scoring import Scorer


class NullTracer:
    """Stand-in for untraced runs: spans cost one attribute lookup."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null


class Tracer:
    """Keeps spans as (name, start, end, parent index, op id) in memory."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def op_spans(self, op_id):
        return [s for s in self.spans if s[4] == op_id]

    def total(self, op_id, name):
        """Summed duration of the op's spans with this exact name."""
        return sum(s[2] - s[1] for s in self.op_spans(op_id) if s[0] == name)

    def self_time_by_layer(self, op_id):
        """Per layer: span durations minus the parts their child spans cover."""
        child = Counter()
        for name, start, end, parent, op in self.spans:
            if op == op_id and parent is not None:
                child[parent] += end - start
        out = Counter()
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if op == op_id:
                out[name.split(".", 1)[0]] += (end - start) - child[index]
        return dict(out)

    def to_json(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


class TracingSource:
    """IndependenceSource proxy: counts every query, spans each one, and
    remembers the distinct test keys so their verdicts can be read back."""

    def __init__(self, src, tracer):
        self.src = src
        self.tracer = tracer
        self.queries = 0
        self.keys = set()

    @property
    def n_vars(self):
        return self.src.n_vars

    def _span(self, x, y, z):
        self.queries += 1
        key = ((x, y) if x < y else (y, x)) + (tuple(sorted(z)),)
        if key in self.keys:
            return self.tracer.span("independence.cache_hit")
        self.keys.add(key)
        return self.tracer.span("independence.test")

    def independent(self, x, y, z=()):
        with self._span(x, y, z):
            return self.src.independent(x, y, z)

    def p_value(self, x, y, z=()):
        with self._span(x, y, z):
            return self.src.p_value(x, y, z)

    def counts(self):
        """Query and verdict counts, and distinct tests by |Z|."""
        by_z = Counter(len(k[2]) for k in self.keys)
        power = dof0 = 0
        for key in self.keys:
            res = self.src.result(*key)
            power += res.decided_by_power_rule
            dof0 += (not res.decided_by_power_rule) and res.dof <= 0
        return {
            "queries": self.queries,
            "distinct_tests": len(self.keys),
            "by_z": by_z,
            "power_rule_verdicts": power,
            "dof0_verdicts": dof0,
        }


class TracingScorer(Scorer):
    """Scorer that counts local-score calls and spans the uncached ones."""

    def __init__(self, data, cfg, tracer):
        super().__init__(data, cfg)
        self.tracer = tracer
        self.calls = 0
        self.families = set()

    def local(self, node, parents=()):
        self.calls += 1
        key = (node, tuple(sorted(parents)))
        if key in self.families:
            return super().local(node, parents)
        self.families.add(key)
        with self.tracer.span("scoring.local"):
            return super().local(node, parents)
