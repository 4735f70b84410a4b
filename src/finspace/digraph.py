"""Directed graphs with integer edge colors.

The shared language for group Cayley graphs and Hasse diagrams: vertex
names plus, per edge color, each vertex's sorted targets, as ``Poset``
stores its upper covers.  Names are labels, for I/O and for
``make_digraph``, which takes edges by name.  Values are immutable and
hashable; arc sets and adjacency structures are built on first read.

``ColoredDigraph(...)`` validates every input.  Rows that have passed
``_check_rows`` already, as a ``Poset``'s ``up`` has, enter through the
private ``ColoredDigraph._from_checked``, which checks nothing; only
``engine.hasse_digraph`` and ``strip_colors`` call it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str
from operator import add

Rows = tuple[tuple[int, ...], ...]


def _check_rows(names, rows, what: str, loop: str) -> None:
    """The checks that ``Poset.up`` and each layer of ``ColoredDigraph.out``
    share: one row per name, each a sorted tuple of distinct int indices in
    range, none its own.  ``what`` names a row's entries in messages, and
    ``loop`` formats the one about an own index."""
    n = len(names)
    if len(rows) != n:
        raise ValueError(f"expected {n} tuples of {what}s, got {len(rows)}")
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        raise ValueError(f"an {what} is not an int index")
    for i, ys in enumerate(rows):
        x = names[i]
        if ys != tuple(sorted(set(ys))):
            raise ValueError(f"{what}s of {x!r} are not sorted and distinct")
        if ys and (ys[0] < 0 or ys[-1] >= n):
            raise ValueError(f"an {what} of {x!r} is out of range")
        if i in ys:
            raise ValueError(loop.format(x))


def _transpose(rows) -> Rows:
    """The rows of the reversed arcs: row t lists, in increasing order,
    each s whose row holds t."""
    into: list[list[int]] = [[] for _ in rows]
    for s, ts in enumerate(rows):
        for t in ts:
            into[t].append(s)
    return tuple(map(tuple, into))


def _offsets(degrees: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The incidence offsets of a vertex with these channel degrees: n
    times the channel's rank, once per edge of the channel."""
    return tuple(chain.from_iterable([r * n] * k for r, k in enumerate(degrees)))


class _Made(dict):
    """Entry v, for v below n, is ``make(v)``, made on first read and kept:
    a later read is a dict lookup, in C.  Read by index only: ``len`` and
    iteration see the entries made so far."""

    def __init__(self, make, n: int):
        super().__init__()
        self.make, self.n = make, n

    def __missing__(self, v: int):
        if not 0 <= v < self.n:
            raise IndexError(v)
        self[v] = entry = self.make(v)
        return entry


def _color(c):
    if type(c) is not int or c < 1:
        raise ValueError(f"edge color must be a positive integer, got {c!r}")
    return c


@dataclass(frozen=True)
class ColoredDigraph:
    """``out`` holds (c, rows) per edge color c, colors increasing, where
    ``rows[i]`` is the sorted tuple of the indices of i's c-colored
    targets.  A color with no arcs has no layer, so equal arc sets give
    equal values.  Violations raise ``ValueError`` at construction time.
    """

    vertices: tuple[str, ...]
    out: tuple[tuple[int, Rows], ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if not set(map(type, self.vertices)) <= {str}:
            raise ValueError("a vertex name is not a str")
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex identifiers")
        colors = [_color(c) for c, _ in self.out]
        if colors != sorted(set(colors)):
            raise ValueError(f"edge colors {colors!r} are not increasing")
        for c, rows in self.out:
            _check_rows(self.vertices, rows, "out-neighbour", "self-loop on {!r}")
            if not any(rows):
                raise ValueError(f"color {c} has no arcs")

    @classmethod
    def _from_checked(cls, vertices, out, into=None) -> ColoredDigraph:
        """A digraph from parts that already meet every check above, which
        this constructor does not repeat: ``vertices`` is a tuple of
        distinct str, colors in ``out`` are positive ints in increasing
        order, and each layer's rows have passed ``_check_rows`` and hold
        an arc.  ``into``, if given, is per layer the rows of its reversed
        arcs (``_transpose``), as a poset's ``_down`` is for its ``up``."""
        d = object.__new__(cls)
        object.__setattr__(d, "vertices", vertices)
        object.__setattr__(d, "out", out)
        if into is not None:
            d.__dict__["_into"] = into
        return d

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int, int]]:
        """The arcs as (source index, target index, color)."""
        return frozenset(
            (s, t, c) for c, rows in self.out for s, ts in enumerate(rows) for t in ts
        )

    @cached_property
    def edges(self) -> frozenset[tuple[str, str, int]]:
        """The arcs as (source, target, color) with vertex names."""
        v = self.vertices
        return frozenset((v[s], v[t], c) for s, t, c in self.arcs)

    @cached_property
    def _into(self) -> tuple[Rows, ...]:
        """Per layer of ``out``, each vertex's sorted sources in that color."""
        return tuple(_transpose(rows) for _, rows in self.out)

    def _channels(self) -> list[Rows]:
        """The rows of every (direction, color) channel in rank order: the
        layers of ``out``, then those of ``_into``."""
        return [rows for _, rows in self.out] + list(self._into)

    @cached_property
    def _incidence(self) -> tuple[Rows, Rows]:
        """(nbrs, offsets): per vertex, its edges' other endpoints and, at the
        same positions, n times the rank of each edge's (direction, color)
        channel among this digraph's channels, outgoing before incoming.
        With class names below n, ``offset + class`` sorts as the
        (direction, color, class) triple does.  A vertex's neighbours are
        its rows joined channel by channel; vertices with equal channel
        degrees share one offsets tuple."""
        n = len(self.vertices)
        channels = self._channels()
        if not channels:
            return ((),) * n, ((),) * n
        nbrs = channels[0]
        for rows in channels[1:]:
            nbrs = tuple(map(add, nbrs, rows))
        degrees = self._degrees
        shared = {deg: _offsets(deg, n) for deg in set(degrees)}
        return nbrs, tuple(map(shared.__getitem__, degrees))

    @cached_property
    def _degrees(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, its number of edges in each channel of ``_incidence``:
        out-degree per color, then in-degree per color."""
        channels = self._channels()
        return tuple(zip(*(map(len, rows) for rows in channels))) or ((),) * len(self.vertices)

    def _on_first_read(self) -> tuple[tuple[_Made, _Made], _Made]:
        """``(_incidence, _degrees)`` as rows each vertex makes on first
        read, so a search that reads few vertices makes few rows.  Builds
        neither."""
        n = len(self.vertices)
        channels = self._channels()
        shared = cache(lambda deg: _offsets(deg, n))  # one tuple per distinct degrees
        degrees = _Made(lambda v: tuple(len(rows[v]) for rows in channels), n)
        nbrs = _Made(lambda v: tuple(chain.from_iterable(rows[v] for rows in channels)), n)
        offsets = _Made(lambda v: shared(degrees[v]), n)
        return (nbrs, offsets), degrees

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        count = sum(len(ts) for _, rows in self.out for ts in rows)
        return (
            f"ColoredDigraph({len(self.vertices)} vertices, "
            f"{count} edges, {len(self.out)} colors)"
        )


def make_digraph(vertices, edges) -> ColoredDigraph:
    """Build a validated ColoredDigraph from vertex names and edges (source
    name, target name, color)."""
    vertices = tuple(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    layers: dict[int, list[set[int]]] = {}
    for s, t, c in edges:
        if s not in index or t not in index:
            raise ValueError(f"edge ({s!r}, {t!r}, {c}) uses an unknown vertex")
        if c not in layers:
            layers[_color(c)] = [set() for _ in vertices]
        layers[c][index[s]].add(index[t])
    return ColoredDigraph(vertices, tuple(
        (c, tuple(tuple(sorted(ts)) for ts in rows)) for c, rows in sorted(layers.items())
    ))


def strip_colors(d: ColoredDigraph) -> ColoredDigraph:
    """Forget edge colors: every edge becomes color 1 (duplicates collapse).
    A digraph with no layer, or with one layer of color 1, is returned as
    it is; a single layer of another color keeps its rows."""
    layers = [rows for _, rows in d.out]
    if not layers or len(layers) == 1 and d.out[0][0] == 1:
        return d
    rows = layers[0] if len(layers) == 1 else tuple(
        tuple(sorted(set(chain.from_iterable(ts)))) for ts in zip(*layers)
    )
    return ColoredDigraph._from_checked(d.vertices, ((1, rows),))


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
    """``{"vertices": [...], "edges": [[s, t, c], ...]}`` as ``json.dumps(...,
    indent=2)`` writes it, edges sorted; written from the arcs."""
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
