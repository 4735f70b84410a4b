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
from json.encoder import encode_basestring_ascii as _json_str

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


def _ranked(names) -> tuple[list[int], list[int]]:
    """(rank, order): ``order`` lists the indices of names in sorted name
    order and ``rank`` inverts it.  Names are distinct, so index tuples
    sorted by rank come in the order of the name tuples."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = [0] * len(names)
    for r, i in enumerate(order):
        rank[i] = r
    return rank, order


def _json_text(
    names_key: str, names: list[str], rows_key: str, cells: list[str], width: int
) -> str:
    """``json.dumps({names_key: names, rows_key: rows}, indent=2)`` for the
    encoded names and the encoded cells of the rows, row after row, each
    row ``width`` cells long.  Joins shared strings once: no row is a string
    of its own."""
    items = "[\n    " + ",\n    ".join(names) + "\n  ]" if names else "[]"
    head = f"{{\n  {_json_str(names_key)}: {items},\n  {_json_str(rows_key)}: "
    if not cells:
        return head + "[]\n}"
    # Each cell is followed by the text up to the next cell, the last one by
    # the end of the text.
    row_seps = [",\n      "] * (width - 1) + ["\n    ],\n    [\n      "]
    after = row_seps * (len(cells) // width)
    after[-1] = "\n    ]\n  ]\n}"
    text = [""] * (2 * len(cells) + 1)
    text[0] = head + "[\n    [\n      "
    text[1::2] = cells
    text[2::2] = after
    return "".join(text)


def _sorted_arcs(d: ColoredDigraph) -> list[tuple[int, int, int]]:
    """The arcs in the order of ``sorted(d.edges)``."""
    rank, _ = _ranked(d.vertices)
    return sorted(d.arcs, key=lambda a: (rank[a[0]], rank[a[1]], a[2]))


def digraph_to_json(d: ColoredDigraph) -> str:
    """``json.dumps(digraph_to_json_dict(d), indent=2)``, written from the arcs."""
    names = list(map(_json_str, d.vertices))
    cells = [x for s, t, c in _sorted_arcs(d) for x in (names[s], names[t], str(c))]
    return _json_text("vertices", names, "edges", cells, 3)


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
    quoted = list(map(_quote, d.vertices))
    lines.extend(f"  {v};" for v in quoted)
    for s, t, c in _sorted_arcs(d):
        pen = _PALETTE[(c - 1) % len(_PALETTE)]
        lines.append(f"  {quoted[s]} -> {quoted[t]} [color={pen}, label=\"{c}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
