"""Span recording for the traced benchmark run.

The traced run wraps the public functions each finspace module calls
across a module boundary.  The wrappers live here, are installed on the
calling module's attribute (so only calls from that caller are timed) and
are removed again when the run ends.  Nothing under ``src/`` knows about
them.

A span is (name, op id, span id, parent id, start ns, end ns).  Times are
integer nanoseconds from ``time.perf_counter_ns``, so a parent's self time
(its duration minus its children's) is exact and never negative.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    op: int
    id: int
    parent: int | None
    start: int
    end: int = 0

    @property
    def ns(self) -> int:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans and result counts, kept in memory for one traced run."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    op: int = 0
    labels: dict[int, str] = field(default_factory=dict)
    # Order of each automorphisms() result, by the label of its op.
    orders: dict[str, list[int]] = field(default_factory=dict)
    # Hasse digraphs built during the current op, refined again after it.
    digraphs: list = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(name, self.op, len(self.spans), parent, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def begin_op(self, label: str) -> Span:
        """Open the ``cli.op`` span of the next op."""
        self.op += 1
        self.labels[self.op] = label
        return self.begin("cli.op")

    def end(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def self_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the durations of its direct children."""
    own = {s.id: s.ns for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.ns
    return own


def _count_group(t: Tracer, group) -> None:
    t.add("groups.elements", group.order)


def _count_space(t: Tracer, space) -> None:
    t.add("assembly.points", len(space.poset.points))
    t.add("assembly.covers", len(space.poset.covers))


def _keep_digraph(t: Tracer, digraph) -> None:
    t.digraphs.append(digraph)


def _count_aut(t: Tracer, aut) -> None:
    t.add("automorphisms.order", aut.order)
    t.orders.setdefault(t.labels[t.op], []).append(aut.order)
    t.add("automorphisms.generators", len(aut.generators))


# (span, calling module, attribute names, result hook).  The calling
# modules are found from the functions finspace exports, not by module
# name: ``finspace.automorphisms`` is the function, not the engine module.
LAYERS = [
    ("groups.tabulate", "cli",
     ("cyclic", "dihedral", "symmetric", "group_from_permutations"), _count_group),
    ("assembly.build", "cli", ("build_realization",), _count_space),
    ("assembly.build", "engine", ("build_realization",), _count_space),
    ("blocks.block", "assembly", ("asymmetric_block",), None),
    ("poset.make", "assembly", ("make_poset",), None),
    ("poset.make", "blocks", ("make_poset",), None),
    ("poset.to_json", "cli", ("poset_to_json",), None),
    ("poset.minimal", "engine", ("is_minimal",), None),
    ("assembly.induced", "engine", ("induced_translation",), None),
    ("digraph.hasse", "engine", ("hasse_digraph",), _keep_digraph),
    ("automorphisms.aut", "engine", ("automorphisms",), _count_aut),
    # poset.isomorphic imports this from the engine module at call time.
    ("automorphisms.iso", "engine", ("isomorphism_between",), None),
]

SPAN_NAMES = ["cli.op"] + list(dict.fromkeys(name for name, *_ in LAYERS)) + [
    "automorphisms.refine"
]


def caller_modules(finspace) -> dict:
    return {
        "cli": importlib.import_module("finspace.cli"),
        "engine": sys.modules[finspace.verify_realization.__module__],
        "assembly": sys.modules[finspace.build_realization.__module__],
        "blocks": sys.modules[finspace.asymmetric_block.__module__],
    }


def _wrapper(tracer: Tracer, name: str, fn, hook):
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if hook is not None:
            hook(tracer, result)
        return result

    return traced


def install(tracer: Tracer, finspace) -> list[tuple]:
    """Wrap every layer boundary; returns what ``uninstall`` restores.

    A missing attribute raises: a renamed function must update this map,
    not silently report a zero.
    """
    modules = caller_modules(finspace)
    saved = []
    try:
        for name, where, attrs, hook in LAYERS:
            module = modules[where]
            for attr in attrs:
                if not callable(getattr(module, attr, None)):
                    raise LookupError(
                        f"{module.__name__}.{attr} is missing: the layer map "
                        f"for span {name!r} in perfbench/spans.py is stale"
                    )
                original = getattr(module, attr)
                setattr(module, attr, _wrapper(tracer, name, original, hook))
                saved.append((module, attr, original))
    except LookupError:
        uninstall(saved)
        raise
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
