"""Automorphism groups of colored digraphs by individualization-refinement.

All color refinement runs through one loop, ``_settle``, on one ordered
partition (McKay and Piperno, "Practical graph isomorphism, II", 2014):
``colors[v]`` names v's class by where it starts and ``cells`` maps each
name to its members.  A round splits classes by the multiset of
(direction, edge color, neighbor class) over incident edges, each encoded
as one integer, channel offset plus class name, so a signature is a
C-level sort of ints; a split's first part keeps the class name and each
later part is named by its own start, so no other class is renamed.  Only
the vertices next to a part split off are re-signed, each split class's
largest part excepted (the "smaller half" rule of Berkholz, Bonsma and
Grohe, ESA 2013).  ``_refine`` starts from seed keys and ``_split`` splits
one vertex off its class.  Unless the caller seeds it, the search seeds
its root with each vertex's channel degrees, out-degree per color then
in-degree per color (``ColoredDigraph._degrees``).  That is the partition
a first round from one class computes, so every later round has the same
classes and the trace has one entry fewer.  Every automorphism keeps
degrees, so this seed prunes nothing a search from one class would keep.
The public ``refine`` still starts from one class.  The incidence they read,
``ColoredDigraph._incidence``, joins each vertex's rows of every layer,
out-rows then in-rows; a Hasse digraph's in-rows are its poset's lower
covers, which minimality and ``isomorphic``'s seeds read too.

The search branches on the images of base points.  The left side
descends once from the root.  At each depth the pivot is the smallest
vertex of a non-singleton class, and the depth walks along unique
neighbours from the pivot and from every vertex alone in its class: u is
the unique neighbour of x if it is the only neighbour of x in its bucket,
keyed ``offset + colors[u]`` by class as a signature is (Traces, by McKay
and Piperno, likewise treats singleton cells as cheap splitters).  An
automorphism fixing the earlier base points keeps the depth's classes, so
it fixes the singletons; fixing the pivot too, it maps the bucket of each
x it fixes onto itself, so by induction it fixes all the walk reaches.
The descent stops at the first depth whose walk reaches every vertex (at
once on a discrete partition, which has no pivot); at any other depth it
individualizes the pivot and refines one level down.  The right digraph
is refined against the left path's trace, abandoning a branch at the
first round that differs.  At the last depth the stabilizer of the base
is trivial: with the pivot sent to a candidate w and each singleton to
the right class of its name, the walk run on the right side (a pair walk)
forces the only map that can extend the branch.  It is accepted only if
it is injective, carries every edge and keeps the seed keys.  Injectivity
is checked on its own because matching buckets do not imply it: a
directed C6 walks onto two disjoint directed C3s with every bucket
matched.

In automorphism mode the right digraph is the left one, so the left path
is also the right root and the identity branch: alternatives tried at
depth d, deepest first, yield generators fixing the first d base points;
one union-find forest of their orbits prunes redundant branches, and the
group order is the product of the base-point orbit sizes.  Automorphisms
known beforehand (verify passes the certified translations t_s) join the
forest before the root is refined, and prune depth 0's candidates; that no
further map exists, the upper bound, is still decided by the search alone.
They also end the root refinement early.  Let H be the group the known
maps generate and m the number of its orbits, the forest's trees.  Every
round's classes are unions of Aut-orbits (an automorphism keeps the seed
keys and, round by round, the signatures), and every Aut-orbit is a union
of H-orbits, so a round has at most m classes.  A round with exactly m has
the Aut-orbits as its classes, and an orbit partition is equitable: the
next round would split nothing, so the refinement stops there with the
same partition, one trace entry short.  Verify's root, the translation
orbits, takes two rounds from the degree seed (four from one class, run
to the end).  The root's rounds are also done per H-orbit, not per
vertex: H keeps the seed keys, so by induction every round's colors are
H-invariant and two vertices of an H-orbit get equal signatures; each
round signs one of them (``_settle``).  On a cyclic space that is 44
vertices, whatever |G|.  The walk needs an equitable partition (every
state it is handed is a stable refinement or that orbit partition), on
which the bucket keys that two neighbours share are the same for every
member of a class, so it finds them once per class.  Every map emitted
by the search, and every known map, is checked by one edge test,
``_carries``, on the digraphs' per-color rows (``ColoredDigraph.out``),
and against the seed coloring, so refinement and the walk are pruning
devices, never a source of truth.  The same edge test
serves a factorial-time oracle over all vertex bijections, for
cross-validation on small graphs.  In verify, the check of the known maps
is part 2's edge test: each t_s is edge-tested once.

On top of the search: poset isomorphism (``isomorphic``), the realization
certificate (``verify_realization``, exact on the generators' translations
alone) and the block family audit (``family_checks``).  No module but the
CLI imports this one.

Everything here is deterministic: pivots are the smallest eligible vertex
indices, candidates are tried in index order, and reported generators are
sorted by image tuple.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import filterfalse, permutations
from operator import add, eq, ne

from .assembly import (
    RealizationSpace,
    build_realization,
    induced_translation,
    predicted_point_count,
)
from .blocks import asymmetric_block
from .digraph import ColoredDigraph
from .groups import FiniteGroup
from .poset import Poset, is_minimal

VertexPerm = tuple[int, ...]

ENGINE_POINT_BUDGET = 20_000
ORACLE_VERTEX_LIMIT = 10


@dataclass(frozen=True)
class AutGroup:
    """Generators (as vertex-index permutations) and the group order."""

    generators: tuple[VertexPerm, ...]
    order: int


@dataclass(frozen=True)
class Refinement:
    """Stable vertex classes; equal class means equal refined signature."""

    vertex_class: dict[str, int]


def hasse_digraph(p: Poset) -> ColoredDigraph:
    """The covering relation as a digraph, low to high, all edges color 1:
    its one layer of rows is ``p.up`` itself, and the rows of its reversed
    arcs are ``p._down``.  ``Poset`` has checked its names and ``up`` as
    ``ColoredDigraph`` would, so they are not checked again."""
    if not any(p.up):
        return ColoredDigraph._from_checked(p.points, ())
    return ColoredDigraph._from_checked(p.points, ((1, p.up),), (p._down,))


# -- refinement --------------------------------------------------------


def _refine(
    inc, keys: list, target: list | None = None, stop: int | None = None, rep=None
):
    """Stable coloring of one digraph from seed keys, with its trace.

    Keys are hashable and comparable.  Round 0 names each seed class by
    its start (the number of smaller keys) and records the sorted (key,
    count) pairs, so two sides that pass round 0 have equal class sizes.
    Round 1 signs all: keys are not signatures.  ``stop`` (default n,
    discrete) is a class count that the caller knows to be stable once
    reached, as the orbit count of known automorphisms is.  ``rep`` maps
    each vertex to one vertex of its orbit under automorphisms that keep
    the keys (see ``_settle``); the result is the same with or without it.
    """
    counted = sorted(Counter(keys).items())
    start, at = {}, 0
    for key, count in counted:
        start[key] = at
        at += count
    colors = list(map(start.__getitem__, keys))
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    entry = ((), tuple(counted))
    stop = len(keys) if stop is None else stop
    return _settle(inc, colors, cells, range(len(keys)), entry, stop, target, rep)


def _split(inc, colors: list[int], cells: dict, v: int, target: list | None = None):
    """Individualize v in an equitable state (colors, cells), left as it is.

    v leaves its class last: the rest keeps the class name and {v} is named
    by its own start.  Only v's neighbours are re-signed in round 1.
    """
    c = colors[v]
    rest = [u for u in cells[c] if u != v]
    colors = colors[:]
    colors[v] = c + len(rest)
    cells = {**cells, c: rest, colors[v]: [v]}
    entry = (((c, (len(rest), 1)),), 0)
    return _settle(inc, colors, cells, set(inc[0][v]), entry, len(colors), target)


def _settle(
    inc, colors: list[int], cells: dict, dirty, entry, stop: int, target, rep=None
):
    """Refine the ordered partition (colors, cells) until it is equitable.

    Each round signs the ``dirty`` vertices and splits each class by rank
    of its members' signatures, as plain color refinement does.  With
    ``inc`` a digraph's ``_incidence`` (nbrs, offsets), v's signature is
    the sorted ``offset + colors[w]`` over its edges to w: class names are
    below n, so these ints sort as (direction, edge color, neighbor class)
    triples would.  A member not re-signed has every neighbor in a split
    class inside its largest part, so it shares its classmates' counts and
    the signature of any untouched one.  Part lists are never changed once
    built.  The round that reaches ``stop`` classes collects no dirty
    vertices, as no round follows it.

    ``rep``, if given, maps each vertex to one vertex of its orbit under a
    group H of automorphisms that keep the seed coloring (the root's known
    maps, edge-tested and, when seeded, seed-tested).  Then each round
    signs one vertex per H-orbit and files the rest of the orbit in that
    vertex's part, in the order the round meets them, so colors, part
    lists and trace are those of a round that signs all.  The orbit lemma
    makes this sound: colors[h(v)] = colors[v] for every h in H and every
    v, at every round.  It holds at round 0, as h keeps the seed keys; if
    it holds at a round, h maps v's edges onto h(v)'s channel by channel,
    so sign(h(v)) = sign(v), and each part is a union of H-orbits with an
    H-invariant name, its class's name or its start.  An individualized
    partition need not be H-invariant, so ``_split`` passes no ``rep``.
    Without ``rep`` every vertex is signed directly: an identity ``rep``
    gives the same result, but its memo made ``_settle`` about 11 % slower
    on the iso-pairs benchmark ops and on automorphisms() of the cyclic:24,
    dihedral:12 and symmetric:4 spaces (slower in 38 and 35 of 40
    interleaved passes, CPython 3.11 on a 2-vCPU host).

    Each round appends (the split classes with their part sizes, hash of
    the sorted signatures of each class with a re-signed member) to the
    trace, up to the round that reaches ``stop`` classes or splits
    nothing; isomorphic inputs give equal traces.  A class re-signed
    without splitting still counts, so equal traces mean equal
    class-to-class counts.  Returns
    ((colors, cells), trace), or None at the first round whose entry
    differs from ``target``'s.
    """
    trace: list = []
    nbrs, offsets = inc
    name = colors.__getitem__

    def sign(v: int) -> tuple:
        return tuple(sorted(map(add, offsets[v], map(name, nbrs[v]))))

    while True:
        if target is not None and target[len(trace)] != entry:
            return None
        trace.append(entry)
        if len(cells) == stop or (len(trace) > 1 and not entry[0]):
            return (colors, cells), trace
        touched: dict[int, list[int]] = {}
        for v in dirty:
            touched.setdefault(colors[v], []).append(v)
        signed, split = [], []
        filed: dict[int, list[int]] = {}  # this round: rep[v] -> the part of v's orbit
        for c in sorted(touched):
            parts: dict[tuple, list[int]] = {}
            if rep is None:
                for v in touched[c]:
                    parts.setdefault(sign(v), []).append(v)
            else:
                for v in touched[c]:
                    part = filed.get(rep[v])
                    if part is None:
                        part = filed[rep[v]] = parts.setdefault(sign(v), [])
                    part.append(v)
            if len(touched[c]) < len(cells[c]):
                marked = set(touched[c])
                rest = list(filterfalse(marked.__contains__, cells[c]))
                parts.setdefault(sign(rest[0]), []).extend(rest)
            order = sorted(parts)
            signed.append((c, tuple(order)))
            if len(order) > 1:
                split.append((c, [parts[sig] for sig in order]))
        last = len(cells) + sum(len(parts) - 1 for _, parts in split) == stop
        dirty = set()
        for c, parts in split:
            largest = max(parts, key=len)  # the first by rank: relabelling-invariant
            for i, part in enumerate(parts):
                cells[c] = part
                for v in part if i else ():  # the first part keeps the name
                    colors[v] = c
                if part is not largest and not last:
                    for v in part:
                        dirty.update(nbrs[v])
                c += len(part)
        sizes = tuple((c, tuple(map(len, parts))) for c, parts in split)
        entry = (sizes, hash(tuple(signed)))


def refine(d: ColoredDigraph, seed: dict | None = None) -> Refinement:
    """Coarsest equitable refinement of the seed coloring (default: all-same).

    Seed values must be hashable and comparable with each other.  Class
    indices are the ranks of the class names (starts), the order of
    the sorted class signatures, so equal inputs give byte-equal outputs.
    """
    if seed is None:
        keys = [0] * len(d.vertices)
    else:
        missing = [v for v in d.vertices if v not in seed]
        if missing:
            raise ValueError(f"seed coloring misses vertices: {missing[:3]!r}")
        keys = [seed[v] for v in d.vertices]
    (colors, cells), _ = _refine(d._incidence, keys)
    rank = {c: i for i, c in enumerate(sorted(cells))}
    return Refinement(vertex_class={v: rank[c] for v, c in zip(d.vertices, colors)})


# -- search ------------------------------------------------------------


def _carries(sigma: VertexPerm, out_a, out_b) -> bool:
    """Whether sigma, a bijection, carries one digraph's ``out`` layers onto
    another's: the colors agree and, per color and vertex s, the sorted
    images of s's row are the row of sigma[s]."""
    image = sigma.__getitem__
    return [c for c, _ in out_a] == [c for c, _ in out_b] and all(
        tuple(sorted(map(image, row))) == moved
        for (_, rows_a), (_, rows_b) in zip(out_a, out_b)
        for row, moved in zip(rows_a, map(rows_b.__getitem__, sigma))
    )


def _unique_neighbours(inc, colors: list[int], x: int) -> dict[int, int]:
    """x's neighbours by bucket, keyed ``offset + colors[u]`` as a signature
    is: the one neighbour in each bucket, or -1 where a bucket has more."""
    nbrs, offsets = inc
    keys = list(map(add, offsets[x], map(colors.__getitem__, nbrs[x])))
    unique = dict(zip(keys, nbrs[x]))
    if len(unique) < len(keys):
        for key, count in Counter(keys).items():
            if count > 1:
                unique[key] = -1
    return unique


def _unique_walk(inc, colors: list[int], cells: dict, v: int | None) -> list | None:
    """Walk along unique neighbours under a partition (colors, cells) that
    every automorphism in question keeps, from v (if any) and from every
    vertex alone in its class.

    Returns (u, x, key) for each vertex u reached from another, u being
    the one neighbour of x in bucket ``key``, in breadth-first order (so
    each x's entries are adjacent, in the order of x's row), or None
    unless every vertex is reached.  Then such an automorphism fixing v
    fixes every vertex, by induction along the walk: it fixes the
    singletons, and fixing x and keeping colors, it maps x's bucket onto
    itself.  A vertex with every neighbour reached adds nothing and is
    skipped.

    The partition must be equitable, as every stable refinement is and as
    the orbit partition at which a root with known maps stops is: then
    each member of a class has as many neighbours in each bucket, so the
    keys that two neighbours share are the same for the whole class, and
    they are found once per class, from the first member the walk expands.
    """
    nbrs, offsets = inc
    name = colors.__getitem__
    order = [members[0] for members in cells.values() if len(members) == 1]
    if v is not None:
        order.append(v)
    seen = bytearray(len(colors))
    for u in order:
        seen[u] = 1
    shared: dict[int, set[int]] = {}  # class name -> keys of its buckets of 2+
    tree = []
    for x in order:
        row = nbrs[x]
        if all(map(seen.__getitem__, row)):
            continue
        keys = list(map(add, offsets[x], map(name, row)))
        dup = shared.get(colors[x])
        if dup is None:
            dup = shared[colors[x]] = {k for k, m in Counter(keys).items() if m > 1}
        for u, key in zip(row, keys):
            if not seen[u] and key not in dup:
                seen[u] = 1
                order.append(u)
                tree.append((u, x, key))
    return tree if len(order) == len(colors) else None


def _find(parent: list[int], x: int) -> int:
    """The root of x's tree in a union-find forest, halving the path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _join(parent: list[int], sigma: VertexPerm) -> None:
    """Merge the trees of x and sigma[x] for every x."""
    for x, y in enumerate(sigma):
        parent[_find(parent, x)] = _find(parent, y)


class _PairSearch:
    """Isomorphism / automorphism search between two colored digraphs.

    A side without a seed is seeded by its channel degrees.  The
    constructor checks the ``known`` automorphisms (automorphism mode
    only), joins their orbits in a union-find forest, refines the left
    root, signing one vertex per tree and stopping once it has as many
    classes as the forest has trees, and descends from it.  ``path[d]``
    is the left side's ((colors, cells), trace) after individualizing
    ``base[:d]``, and ``base[d]`` is the pivot of ``path[d]``.  ``tree``
    is the walk of the last depth, the first one complete; ``base`` ends
    with that depth's pivot, or is one shorter than ``path`` when
    ``path[-1]`` is discrete.  The right side
    is refined against the root's trace when an isomorphism is sought; in
    automorphism mode it is the left side, so ``path[d]`` serves both.
    """

    def __init__(
        self, a: ColoredDigraph, b: ColoredDigraph, seed_a=None, seed_b=None, known=()
    ):
        self.n = len(a.vertices)
        self.inc_a = a._incidence
        self.inc_b = b._incidence
        self.out_a = a.out
        self.out_b = b.out
        self.keys_a = a._degrees if seed_a is None else [seed_a[v] for v in a.vertices]
        self.keys_b = b._degrees if seed_b is None else [seed_b[v] for v in b.vertices]
        # A bijection that carries the arcs keeps the channel degrees, so
        # only seeds the caller gave are checked on each map.
        self.seeded = seed_a is not None or seed_b is not None
        self.known = [tuple(sigma) for sigma in known]
        every = list(range(self.n))
        self.forest = every[:]
        for sigma in self.known:
            if sorted(sigma) != every or self._accept(sigma) is None:
                raise ValueError("a known map is not an automorphism of the digraph")
            _join(self.forest, sigma)
        trees = sum(map(eq, self.forest, every))
        rep = [_find(self.forest, v) for v in every] if self.known else None
        self.base, self.path = [], [_refine(self.inc_a, self.keys_a, None, trees, rep)]
        while True:
            colors, cells = self.path[-1][0]
            v = self._pivot(colors, cells)
            if v is not None:
                self.base.append(v)
            self.tree = _unique_walk(self.inc_a, colors, cells, v)
            if self.tree is not None:
                break
            self.path.append(_split(self.inc_a, colors, cells, v))

    @staticmethod
    def _pivot(colors: list[int], cells: dict) -> int | None:
        for v, c in enumerate(colors):
            if len(cells[c]) > 1:
                return v
        return None

    def _accept(self, sigma: VertexPerm) -> VertexPerm | None:
        """sigma, an injection, if it carries the left arcs onto the right
        arcs and keeps the seed keys: then it is an isomorphism."""
        if not _carries(sigma, self.out_a, self.out_b):
            return None
        if self.seeded and any(map(ne, self.keys_a, map(self.keys_b.__getitem__, sigma))):
            return None
        return sigma

    def _leaf(self, state_b: tuple, w: int | None) -> VertexPerm | None:
        """The only map that can extend a branch to the last depth: each
        left singleton class onto the right class of its name, the last
        pivot to w (None on a discrete last level), and the rest as the
        walk's tree forces on the right side.  None where an image is
        missing, shared or taken twice (buckets alone do not make it
        injective), or where the map is no isomorphism."""
        colors_b, cells_b = state_b
        image = [-1] * self.n
        used = bytearray(self.n)
        for c, members in self.path[-1][0][1].items():
            if len(members) == 1:
                right = cells_b.get(c, ())
                if len(right) != 1:
                    return None
                image[members[0]] = right[0]
                used[right[0]] = 1
        if w is not None:  # w's class is the pivot's, which no singleton has
            image[self.base[-1]] = w
            used[w] = 1
        last = unique = None
        for u, x, key in self.tree:
            if x != last:
                last, unique = x, _unique_neighbours(self.inc_b, colors_b, image[x])
            y = unique.get(key, -1)
            if y < 0 or used[y]:
                return None
            used[y] = 1
            image[u] = y
        return self._accept(tuple(image))

    def _branch(self, depth: int, state_b: tuple, w: int) -> VertexPerm | None:
        """Map base[depth] to w on the right side, then complete the map."""
        if depth + 1 == len(self.path):
            return self._leaf(state_b, w)
        nxt = _split(self.inc_b, *state_b, w, self.path[depth + 1][1])
        return None if nxt is None else self._find(depth + 1, nxt[0])

    def _find(self, depth: int, state_b: tuple) -> VertexPerm | None:
        if depth == len(self.base):  # a discrete last level: nothing to branch on
            return self._leaf(state_b, None)
        colors = self.path[depth][0][0]
        for w in sorted(state_b[1][colors[self.base[depth]]]):
            sigma = self._branch(depth, state_b, w)
            if sigma is not None:
                return sigma
        return None

    def find_isomorphism(self) -> VertexPerm | None:
        """Equal edge colors give both sides the same channel ranks in their
        incidence offsets, so signatures and bucket keys compare across
        sides; arc counts are left to the trace and the edge test.  An
        isomorphism that extends a branch keeps the last depth's classes,
        so by induction along the left walk it is the map the leaf forces:
        the search finds an isomorphism exactly when one exists, the first
        in the order candidates are tried.  Each forced map is checked to
        be injective, as matching buckets can merge vertices (directed C6
        onto two C3s)."""
        if self.n != len(self.keys_b):
            return None
        if [c for c, _ in self.out_a] != [c for c, _ in self.out_b]:
            return None
        root = _refine(self.inc_b, self.keys_b, self.path[0][1])
        return None if root is None else self._find(0, root[0])

    # automorphism mode (requires a and b to be the same digraph)

    def automorphism_group(self) -> AutGroup:
        """A generator found at depth d fixes base[:d].  Depths run deepest
        first, so the forest holds the orbits of generators that all fix
        base[:d], and once depth d is done, base[d]'s class in it is its
        orbit under the pointwise stabilizer of base[:d].  Known maps fix
        no base point, so only depth 0's candidates are tried against the
        forest that holds them; deeper depths use one without them, and
        their generators join it before depth 0.  The stabilizer of the
        whole base is trivial, so at the last depth the leaf yields the one
        automorphism sending the pivot to a candidate w, if there is any."""
        gens: list[VertexPerm] = list(self.known)
        parent = self.forest if len(self.base) == 1 else list(range(self.n))
        order = 1
        for depth in reversed(range(len(self.base))):
            v = self.base[depth]
            state = self.path[depth][0]
            colors, cells = state
            cell = sorted(cells[colors[v]])
            if depth == 0 and parent is not self.forest:
                for sigma in gens[len(self.known):]:
                    _join(self.forest, sigma)
                parent = self.forest
            for w in cell:
                if _find(parent, w) == _find(parent, v):
                    continue
                sigma = self._branch(depth, state, w)
                if sigma is not None:
                    gens.append(sigma)
                    _join(parent, sigma)
            order *= sum(_find(parent, w) == _find(parent, v) for w in cell)
        return AutGroup(generators=tuple(sorted(gens)), order=order)


def automorphisms(d: ColoredDigraph, known=()) -> AutGroup:
    """Automorphism group of the colored digraph.

    Generators come out of the search: refinement-pruned backtracking down
    to the first depth whose unique-neighbour walk is complete, where one
    pair walk per candidate image of the pivot forces the map.  The order
    is the product of base-point orbit sizes under the generators found at
    or below each branching depth (orbit-stabilizer).  ``known``
    automorphisms, each checked to be one (else ``ValueError``), are
    reported as generators, end the root refinement once it has as many
    classes as they have orbits, and prune the depth-0 candidates in
    their orbits; the search alone still decides that no other map exists.
    """
    return _PairSearch(d, d, known=known).automorphism_group()


def brute_force_automorphisms(d: ColoredDigraph) -> AutGroup:
    """Oracle: try every vertex bijection.  Exact but factorial."""
    n = len(d.vertices)
    if n > ORACLE_VERTEX_LIMIT:
        raise ValueError(
            f"oracle limit: {n} vertices exceeds the cap of {ORACLE_VERTEX_LIMIT}"
        )
    found = [p for p in permutations(range(n)) if _carries(p, d.out, d.out)]
    identity = tuple(range(n))
    gens = tuple(sorted(p for p in found if p != identity))
    return AutGroup(generators=gens, order=len(found))


def isomorphism_between(
    a: ColoredDigraph, b: ColoredDigraph, seed_a=None, seed_b=None
) -> dict[str, str] | None:
    """A color- and edge-preserving vertex bijection a -> b, or None.

    Optional seeds are vertex colorings (hashable, comparable values, shared
    between the two sides) that any bijection must respect.
    """
    sigma = _PairSearch(a, b, seed_a, seed_b).find_isomorphism()
    if sigma is None:
        return None
    return {a.vertices[v]: b.vertices[sigma[v]] for v in range(len(a.vertices))}


def isomorphic(p: Poset, q: Poset) -> dict[str, str] | None:
    """A level- and cover-preserving bijection p -> q, or None.

    Any cover-preserving digraph isomorphism preserves levels, so the
    search runs over the Hasse digraphs seeded by (level, in, out) degree
    triples.
    """
    if len(p.points) != len(q.points) or sum(map(len, p.up)) != sum(map(len, q.up)):
        return None
    if sorted(p._levels) != sorted(q._levels):
        return None
    seed_p, seed_q = (
        dict(zip(r.points, zip(r._levels, map(len, r._down), map(len, r.up))))
        for r in (p, q)
    )
    return isomorphism_between(hasse_digraph(p), hasse_digraph(q), seed_p, seed_q)


# -- end-to-end verification -------------------------------------------


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of the three-part check on a realization space."""

    group_order: int
    generator_count: int
    point_count: int
    cover_count: int
    inventory: tuple[tuple[int, int], ...]
    minimal: bool
    generators_valid: int
    engine_order: int

    @property
    def passed(self) -> bool:
        return (
            self.minimal
            and self.generators_valid == self.generator_count
            and self.engine_order == self.group_order
        )

    def render(self) -> str:
        blocks = ", ".join(f"{count} x F{fam}" for fam, count in self.inventory)
        lines = [
            f"realization space: |G| = {self.group_order}, "
            f"{self.generator_count} generator(s)",
            f"points: {self.point_count}, covers: {self.cover_count}",
            f"blocks: {blocks}",
            f"minimal (no beat points): {'PASS' if self.minimal else 'FAIL'}",
            f"generator translations t_s: {self.generators_valid}/"
            f"{self.generator_count} automorphisms taking vertex block g to g*s: "
            f"{'PASS' if self.generators_valid == self.generator_count else 'FAIL'}",
            f"order(Aut) = {self.engine_order} "
            f"{'=' if self.engine_order == self.group_order else '!='} |G| : "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def _refuse_over_budget(group: FiniteGroup, budget: int) -> None:
    """``ValueError`` for a budget below 1, or for a group whose realization
    space has more points than the budget, known from |G| and |S| alone."""
    if budget < 1:
        raise ValueError("budget must be a positive number of points")
    size = predicted_point_count(group)
    if size > budget:
        raise ValueError(
            f"realization space needs {size} points, over the engine budget "
            f"of {budget}"
        )


def verify_realization(
    group: FiniteGroup, *, budget: int = ENGINE_POINT_BUDGET
) -> RealizationReport:
    """Certify that the realization space's automorphism group is the group.

    Three parts: (1) the space is minimal, so self-equivalences up to
    homotopy are exactly Hasse-digraph automorphisms; (2) for each
    generator s, the induced right translation t_s is a bijection carrying
    every edge of the Hasse digraph onto an edge and the nonempty vertex
    block of each g into that of g*s; (3) the search engine counts exactly
    |G| automorphisms of that same digraph.  By (2), H = <t_s> <= Aut(X)
    acts on the vertex blocks as <rho_s> = rho(G), the right regular
    representation, of order |G| as the generators generate G.  That the
    rho_s, read from the generators' columns, are the right multiplications
    of a group of order |G| holds by construction for a group enumerated
    from permutations or written in closed form, and by Light's test for a
    group given as a table (``groups`` module docstring).  So
    |H| >= |G| = |Aut(X)| by (3): H = Aut(X), and its action on the vertex
    blocks is an isomorphism onto rho(G), a copy of G.  Nothing assumes
    that h -> t_h is a homomorphism.

    Part (2) is split between two places, so that each t_s is edge-tested
    once.  ``_check_generators`` keeps the t_s that are bijections moving
    the vertex blocks as above; the engine takes them as known maps and
    edge-tests each, raising ``ValueError`` if one fails, before they prune
    its depth-0 orbits.  Then the maps that fail the edge test are dropped
    and the engine runs again on the rest, so a t_s that is no
    automorphism only lowers the count of valid generators.  (3)'s upper
    bound is the search's.  A budget below 1 raises ``ValueError`` before
    any work.
    """
    _refuse_over_budget(group, budget)
    space = build_realization(group)
    x = space.poset
    d = hasse_digraph(x)
    valid = _check_generators(space)
    try:
        aut = automorphisms(d, valid)
    except ValueError:
        valid = [sigma for sigma in valid if _carries(sigma, d.out, d.out)]
        aut = automorphisms(d, valid)
    return RealizationReport(
        group_order=group.order,
        generator_count=len(group.generators),
        point_count=len(x.points),
        cover_count=sum(map(len, x.up)),
        inventory=tuple(space.block_inventory().items()),
        minimal=is_minimal(x),
        generators_valid=len(valid),
        engine_order=aut.order,
    )


def _check_generators(space: RealizationSpace) -> list[VertexPerm]:
    """The part of part 2 done before the engine: the translations t_s of
    the generators s that permute the point indices and map each point of
    the vertex block of g into that of g*s.  Vertex blocks come from the
    block records; with an element that has none, no generator passes.
    That each t_s carries every edge onto an edge is the engine's check of
    its known maps."""
    group = space.group
    vertex = [info for info in space.blocks if info.kind == "vertex"]
    if {info.element for info in vertex} != set(range(group.order)):
        return []
    every = list(range(len(space.poset.points)))
    owner = [-1] * len(every)
    for info in vertex:
        owner[info.start:info.start + info.size] = [info.element] * info.size
    valid = []
    for s, times_s in zip(group.generators, group.cols):
        image = induced_translation(space, s)
        if sorted(image) == every and all(
            owner[y] == times_s[info.element]
            for info in vertex
            for y in image[info.start:info.start + info.size]
        ):
            valid.append(image)
    return valid


# -- block family audit ----------------------------------------------


def _connected(p: Poset) -> bool:
    seen = {0} if p.points else set()
    stack = list(seen)
    while stack:
        i = stack.pop()
        for j in p.up[i] + p._down[i]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(p.points)


@dataclass(frozen=True)
class FamilyEntry:
    k: int
    point_count: int
    minimal: bool
    asymmetric: bool
    connected: bool

    @property
    def passed(self) -> bool:
        return (
            self.point_count == 2 * self.k + 8
            and self.minimal
            and self.asymmetric
            and self.connected
        )


@dataclass(frozen=True)
class FamilyReport:
    entries: tuple[FamilyEntry, ...]
    sizes_pairwise_distinct: bool

    @property
    def passed(self) -> bool:
        return self.sizes_pairwise_distinct and all(e.passed for e in self.entries)

    def render(self) -> str:
        lines = []
        for e in self.entries:
            verdict = "PASS" if e.passed else "FAIL"
            lines.append(
                f"block {e.k}: points={e.point_count} "
                f"minimal={'yes' if e.minimal else 'no'} "
                f"asymmetric={'yes' if e.asymmetric else 'no'} "
                f"connected={'yes' if e.connected else 'no'} : {verdict}"
            )
        lines.append(
            "pairwise distinct sizes: "
            + ("yes" if self.sizes_pairwise_distinct else "no")
        )
        lines.append("family check: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def family_checks(k_max: int) -> FamilyReport:
    """Check blocks 0..k_max: minimal, asymmetric, connected, sizes distinct.

    Distinct point counts make the blocks pairwise non-homeomorphic, and by
    minimality pairwise not homotopy equivalent.  That they are pairwise
    not weakly homotopy equivalent is not checked yet.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    entries = []
    sizes = []
    for k in range(k_max + 1):
        block = asymmetric_block(k)
        sizes.append(len(block.points))
        entries.append(
            FamilyEntry(
                k=k,
                point_count=len(block.points),
                minimal=is_minimal(block),
                asymmetric=automorphisms(hasse_digraph(block)).order == 1,
                connected=_connected(block),
            )
        )
    return FamilyReport(
        entries=tuple(entries),
        sizes_pairwise_distinct=len(set(sizes)) == len(sizes),
    )
