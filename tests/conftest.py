"""Shared generators and references for randomized and property-based tests.

Random posets are built independently of the library internals: draw a
strict order on indices 0..n-1 (edges only point upward, so acyclicity is
free), close it transitively by a search upward from each point, and keep
the pairs not implied by any two-step path.  ``reference_refine`` is plain
color refinement, kept as the reference the engine's refinement must match.
``check_all_translations`` is the all-|G| reference for part 2 of the
realization certificate, which checks the generators only.
``named_posets`` and ``named_digraphs`` draw names that exercise text
output: the empty name, quotes, backslashes, control characters and
non-ASCII, in an order unrelated to the index order.  ``reference_poset_dot``
and ``reference_digraph_dot`` are the DOT writers that sort name tuples,
kept as the reference for the index-order writers.  ``reference_group_check``
is the full-table group validator (every row, every column, then Light's
test), kept as the reference for the generating-set certificate of
``FiniteGroup``.  ``full_table`` and ``element_order`` read a group's
whole table, or an element's order, off its right translations, for the
tests that want them: groups keep only their generators' rows and columns.
``level_of`` and ``hasse_degree`` read a point's level and degree off the
named covers, independently of the poset's own level walk and cover rows.
``poset_to_json_dict`` and ``digraph_to_json_dict`` are the JSON objects
that the one-pass text writers must dump exactly.  ``reference_carries`` is
the edge test that sorts the image of every row, kept as the reference for
the engine's chunked gather.
"""

from __future__ import annotations

import random

from operator import itemgetter

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from finspace import (
    ColoredDigraph,
    Poset,
    induced_translation,
    make_digraph,
    make_poset,
    right_translation,
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def closure_from_pairs(n: int, pairs: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Transitive closure of pairs (i, j) on 0..n-1: a search upward from
    each point over the pairs."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
    closed = set()
    for a in range(n):
        seen: set[int] = set()
        stack = list(succ[a])
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ[b])
        closed.update((a, b) for b in seen)
    return closed


def covers_from_closure(closed: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """The pairs of an acyclic closure that no third point lies between."""
    above: dict[int, set[int]] = {}
    for a, b in closed:
        above.setdefault(a, set()).add(b)
    covers = set()
    for a, ups in above.items():
        implied = set().union(*(above.get(z, ()) for z in ups))
        covers.update((a, b) for b in ups - implied)
    return covers


def poset_from_index_pairs(n: int, pairs: set[tuple[int, int]]) -> Poset:
    closed = closure_from_pairs(n, pairs)
    covers = covers_from_closure(closed)
    return make_poset(
        [f"p{i}" for i in range(n)],
        ((f"p{a}", f"p{b}") for a, b in covers),
    )


def random_poset(rng: random.Random, max_points: int) -> Poset:
    n = rng.randint(0, max_points)
    density = rng.uniform(0.05, 0.5)
    pairs = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    }
    return poset_from_index_pairs(n, pairs)


def random_colored_digraph(rng: random.Random, max_vertices: int = 8) -> ColoredDigraph:
    n = rng.randint(2, max_vertices)
    density = rng.uniform(0.1, 0.5)
    n_colors = rng.randint(1, 3)
    edges = [
        (f"v{i}", f"v{j}", rng.randint(1, n_colors))
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    ]
    return make_digraph([f"v{i}" for i in range(n)], edges)


@st.composite
def posets(draw, max_points: int = 10) -> Poset:
    n = draw(st.integers(min_value=0, max_value=max_points))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if all_pairs:
        chosen = draw(
            st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        )
    else:
        chosen = []
    return poset_from_index_pairs(n, set(chosen))


# Characters that JSON and DOT escape, or that ASCII output must encode,
# mixed with plain letters so that names share prefixes.
NAME_TEXT = st.text(
    st.one_of(
        st.sampled_from('ab"\\\n\t\x00\x1f\x7fé€\U0001d53d '),
        st.characters(),
    ),
    max_size=4,
)


@st.composite
def named_posets(draw, max_points: int = 8) -> Poset:
    """A poset on arbitrary distinct names, covers drawn upward by index."""
    names = draw(st.lists(NAME_TEXT, unique=True, max_size=max_points))
    n = len(names)
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(all_pairs))) if all_pairs else set()
    covers = covers_from_closure(closure_from_pairs(n, chosen))
    return make_poset(names, ((names[a], names[b]) for a, b in covers))


@st.composite
def named_digraphs(draw, max_vertices: int = 6) -> ColoredDigraph:
    """A colored digraph on arbitrary distinct names; a pair of vertices may
    carry arcs of several colors, some above the DOT palette's size."""
    names = draw(st.lists(NAME_TEXT, unique=True, max_size=max_vertices))
    n = len(names)
    arcs = [(s, t) for s in range(n) for t in range(n) if s != t]
    edges = draw(
        st.lists(st.tuples(st.sampled_from(arcs), st.integers(1, 12)))
        if arcs
        else st.just([])
    )
    return make_digraph(names, ((names[s], names[t], c) for (s, t), c in edges))


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def level_of(p: Poset) -> dict[str, int]:
    """Each point's level, by name: the number of points on the longest
    chain of covers that ends at it, so minimal points have level 1.
    Found from ``p.covers`` alone, down the lower covers."""
    below: dict[str, list[str]] = {x: [] for x in p.points}
    for x, y in p.covers:
        below[y].append(x)
    levels: dict[str, int] = {}

    def level(x: str) -> int:
        if x not in levels:
            levels[x] = 1 + max(map(level, below[x]), default=0)
        return levels[x]

    for x in p.points:
        level(x)
    return levels


def hasse_degree(p: Poset, x: str) -> int:
    """Number of covering pairs with x at either end, counted by name."""
    return sum(x in pair for pair in p.covers)


def poset_to_json_dict(p: Poset) -> dict:
    return {
        "points": list(p.points),
        "covers": [list(c) for c in sorted(p.covers)],
    }


def digraph_to_json_dict(d: ColoredDigraph) -> dict:
    return {
        "vertices": list(d.vertices),
        "edges": [[s, t, c] for s, t, c in sorted(d.edges)],
    }


def reference_poset_dot(p: Poset, name: str = "poset") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=point];"]
    levels = level_of(p)
    by_level: dict[int, list[str]] = {}
    for x in p.points:
        by_level.setdefault(levels[x], []).append(x)
    for lvl in sorted(by_level):
        row = " ".join(f"{_dot_quote(x)};" for x in by_level[lvl])
        lines.append(f"  {{ rank=same; {row} }}")
    for x, y in sorted(p.covers):
        lines.append(f"  {_dot_quote(x)} -> {_dot_quote(y)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_digraph_dot(d: ColoredDigraph, name: str = "digraph_") -> str:
    palette = ("red", "blue", "green", "orange", "purple", "brown", "cyan", "magenta")
    lines = [f"digraph {name} {{"]
    for v in d.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for s, t, c in sorted(d.edges):
        pen = palette[(c - 1) % len(palette)]
        arc = f"{_dot_quote(s)} -> {_dot_quote(t)}"
        lines.append(f"  {arc} [color={pen}, label=\"{c}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def seeded_digraphs(draw, max_vertices: int = 8):
    """A colored digraph (edge colors 1..3) with a seed coloring (0..2)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    names = [f"v{i}" for i in range(n)]
    colors = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    edges = [
        (names[i], names[j], colors[i * n + j])
        for i in range(n)
        for j in range(n)
        if i != j and colors[i * n + j]
    ]
    seeds = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return make_digraph(names, edges), dict(zip(names, seeds))


def reference_refine(d: ColoredDigraph, seed: dict | None = None) -> dict[str, int]:
    """Plain color refinement: re-sign every vertex each round until stable.

    A vertex's signature is its class plus the sorted (direction, edge
    color, neighbor class) triples of its edges, direction 0 for out-edges
    and 1 for in-edges.  Class ids are ranks of the sorted signatures.
    """
    incident: dict[str, list] = {v: [] for v in d.vertices}
    for s, t, c in d.edges:
        incident[s].append((0, c, t))
        incident[t].append((1, c, s))
    keys = {v: 0 if seed is None else seed[v] for v in d.vertices}
    n_classes = -1
    while True:
        rank = {k: i for i, k in enumerate(sorted(set(keys.values())))}
        colors = {v: rank[k] for v, k in keys.items()}
        if len(rank) == n_classes:
            return colors
        n_classes = len(rank)
        keys = {
            v: (colors[v], tuple(sorted((dr, c, colors[w]) for dr, c, w in incident[v])))
            for v in d.vertices
        }


def reference_carries(sigma, out_a, out_b) -> bool:
    """The edge test row by row: the colors agree and, per color and vertex
    s, the sorted images of s's row are the row of sigma[s]."""
    image = sigma.__getitem__
    return [c for c, _ in out_a] == [c for c, _ in out_b] and all(
        tuple(sorted(map(image, row))) == moved
        for (_, rows_a), (_, rows_b) in zip(out_a, out_b)
        for row, moved in zip(rows_a, map(rows_b.__getitem__, sigma))
    )


def check_all_translations(space) -> None:
    """Every one of the |G| induced maps t_h is a bijection carrying covers
    onto covers, the maps are pairwise distinct, and h -> t_h composes like
    the table: t_{g*h} is t_g followed by t_h.  |G|^2 * n, small groups only."""
    group = space.group
    x = space.poset
    index = {a: i for i, a in enumerate(x.points)}
    covers = {(index[a], index[b]) for a, b in x.covers}
    maps = [induced_translation(space, h) for h in range(group.order)]
    for t in maps:
        assert sorted(t) == list(range(len(x.points)))
        assert all((t[a], t[b]) in covers for a, b in covers)
    assert len(set(maps)) == group.order
    table = full_table(group)
    for g, t_g in enumerate(maps):
        for h, t_h in enumerate(maps):
            assert maps[table[g][h]] == tuple(t_h[i] for i in t_g)


def full_table(group) -> tuple[tuple[int, ...], ...]:
    """The |G| x |G| table of a group: entry [x][h] is the index of x*h,
    and column h is ``right_translation(group, h)``.  Small groups only."""
    return tuple(zip(*(right_translation(group, h) for h in range(group.order))))


def element_order(group, i: int) -> int:
    """The least n >= 1 with i^n = e, walking x -> x*i from i."""
    times_i = right_translation(group, i)
    n, x = 1, i
    while x != group.identity:
        x = times_i[x]
        n += 1
    return n


def reference_group_check(elements, table, identity, generators) -> None:
    """Raise the ValueError that ``FiniteGroup`` must raise, or return None.

    The checks run in ``FiniteGroup``'s order, but the latin checks read
    every row and every column before Light's test runs on the same seed
    (the in-range non-identity generators, extended by the smallest
    unreached element until they generate)."""
    n = len(elements)
    t = table
    if n == 0:
        raise ValueError("a group needs at least one element")
    if len(set(elements)) != n:
        raise ValueError("duplicate element names")
    if len(t) != n or any(len(row) != n for row in t):
        raise ValueError("table must be |G| x |G|")
    e = identity
    if not (0 <= e < n):
        raise ValueError("identity index out of range")
    if any(t[e][j] != j or t[j][e] != j for j in range(n)):
        raise ValueError("identity law fails")
    every = set(range(n))
    if any(set(row) != every for row in t):
        raise ValueError("rows must be permutations of the element indices")
    if any(len(set(col)) != n for col in zip(*t)):
        raise ValueError("columns must be permutations (missing inverses)")

    def closure(seed):
        reached = {e}
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for g in seed:
                if t[g][x] not in reached:
                    reached.add(t[g][x])
                    frontier.append(t[g][x])
        return reached

    seed = tuple(g for g in generators if 0 <= g < n and g != e)
    reached = closure(seed)
    while len(reached) < n:
        seed += (min(every - reached),)
        reached = closure(seed)
    for s in seed:
        times_s = itemgetter(*t[s])
        if any(t[t[x][s]] != times_s(t[x]) for x in range(n)):
            raise ValueError("multiplication table is not associative")
    if not generators:
        raise ValueError("a generating set is required")
    if len(set(generators)) != len(generators):
        raise ValueError("generators must be pairwise distinct")
    if any(g == e for g in generators):
        raise ValueError("the identity is not allowed as a generator")
    if any(not (0 <= g < n) for g in generators):
        raise ValueError("generator index out of range")
    if len(closure(generators)) != n:
        raise ValueError("generators do not generate the group")
