"""Directed graphs with integer edge colors.

The shared language for group Cayley graphs and Hasse diagrams: a vertex
list plus a set of (source index, target index, color) arcs.  Names are
labels, for I/O and for ``make_digraph``, which takes edges by name.
Values are immutable and hashable; adjacency structures are cached on
first use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

Edge = tuple[str, str, int]


@dataclass(frozen=True)
class ColoredDigraph:
    vertices: tuple[str, ...]
    arcs: frozenset[tuple[int, int, int]]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if not set(map(type, self.vertices)) <= {str}:
            raise ValueError("a vertex name is not a str")
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex identifiers")
        for s, t, c in self.arcs:
            if not (type(s) is type(t) is int and 0 <= s < n and 0 <= t < n):
                raise ValueError(f"arc ({s!r}, {t!r}, {c!r}) has no such vertex")
            if s == t:
                raise ValueError(f"self-loop on {self.vertices[s]!r}")
            if type(c) is not int or c < 1:
                raise ValueError(f"edge color must be a positive integer, got {c!r}")

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The arcs as (source, target, color) with vertex names."""
        v = self.vertices
        return frozenset((v[s], v[t], c) for s, t, c in self.arcs)

    @cached_property
    def _incidence(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """(nbrs, offsets): per vertex, its edges' other endpoints and, at the
        same positions, n times the rank of each edge's (direction, color)
        channel among this digraph's channels, outgoing before incoming.
        With class names below n, ``offset + class`` sorts as the
        (direction, color, class) triple does."""
        n = len(self.vertices)
        colors = sorted({c for _, _, c in self.arcs})
        out = {c: i * n for i, c in enumerate(colors)}
        into = {c: (len(colors) + i) * n for i, c in enumerate(colors)}
        nbrs: list[list[int]] = [[] for _ in self.vertices]
        offsets: list[list[int]] = [[] for _ in self.vertices]
        for s, t, c in self.arcs:
            nbrs[s].append(t)
            offsets[s].append(out[c])
            nbrs[t].append(s)
            offsets[t].append(into[c])
        return tuple(map(tuple, nbrs)), tuple(map(tuple, offsets))

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        colors = {c for _, _, c in self.arcs}
        return (
            f"ColoredDigraph({len(self.vertices)} vertices, "
            f"{len(self.arcs)} edges, {len(colors)} colors)"
        )


def make_digraph(vertices, edges) -> ColoredDigraph:
    """Build a validated ColoredDigraph from vertex names and edges (source
    name, target name, color)."""
    vertices = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    arcs = set()
    for s, t, c in edges:
        if s not in index or t not in index:
            raise ValueError(f"edge ({s!r}, {t!r}, {c}) uses an unknown vertex")
        arcs.add((index[s], index[t], c))
    return ColoredDigraph(vertices, frozenset(arcs))


def strip_colors(d: ColoredDigraph) -> ColoredDigraph:
    """Forget edge colors: every edge becomes color 1 (duplicates collapse)."""
    return ColoredDigraph(d.vertices, frozenset((s, t, 1) for s, t, _ in d.arcs))


def digraph_to_json_dict(d: ColoredDigraph) -> dict:
    return {
        "vertices": list(d.vertices),
        "edges": [[s, t, c] for s, t, c in sorted(d.edges)],
    }


def digraph_from_json_dict(data: dict) -> ColoredDigraph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError(
            'malformed digraph JSON: expected {"vertices": [...], "edges": [...]}'
        )
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("malformed digraph JSON: vertices must be a list of strings")
    ok = isinstance(edges, list) and all(
        isinstance(e, list)
        and len(e) == 3
        and isinstance(e[0], str)
        and isinstance(e[1], str)
        and type(e[2]) is int
        for e in edges
    )
    if not ok:
        raise ValueError(
            "malformed digraph JSON: edges must be [source, target, color] triples"
        )
    return make_digraph(vertices, ((e[0], e[1], e[2]) for e in edges))


def digraph_to_json(d: ColoredDigraph) -> str:
    return json.dumps(digraph_to_json_dict(d), indent=2)


def digraph_from_json(text: str) -> ColoredDigraph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed digraph JSON: {exc}") from exc
    return digraph_from_json_dict(data)


_PALETTE = ("red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta")


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def digraph_to_dot(d: ColoredDigraph, name: str = "digraph_") -> str:
    """DOT text; edge colors are mapped onto a fixed pen-color palette."""
    lines = [f"digraph {name} {{"]
    for v in d.vertices:
        lines.append(f"  {_quote(v)};")
    for s, t, c in sorted(d.edges):
        pen = _PALETTE[(c - 1) % len(_PALETTE)]
        lines.append(f"  {_quote(s)} -> {_quote(t)} [color={pen}, label=\"{c}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
