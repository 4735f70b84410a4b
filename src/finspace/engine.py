"""Automorphism groups of colored digraphs by individualization-refinement.

All color refinement runs through one loop, ``_settle``, on one ordered
partition (McKay and Piperno, "Practical graph isomorphism, II", 2014):
``colors[v]`` names v's class by where it starts and ``cells`` maps each
name to its members.  A round splits classes by the multiset of
(direction, edge color, neighbor class) over incident edges; a split's
first part keeps the class name and each later part is named by its own
start, so no other class is renamed.  Only the vertices next to a part
split off are re-signed, each split class's largest part excepted (the
"smaller half" rule of Berkholz, Bonsma and Grohe, ESA 2013).  ``_refine``
starts from seed keys and ``_split`` splits one vertex off its class.

The search individualizes a vertex and refines again.  The left digraph
always individualizes the smallest vertex of a non-singleton class, so its
refinements form a single path down to a discrete leaf, computed once.
The right digraph branches over the candidate images of each base point
and is refined against the left path's trace, abandoning a branch at the
first round that differs.  In automorphism mode the right digraph is the
left one, so the left path is also the right root and the identity
branch: alternatives tried at depth d, deepest first, yield generators
fixing the first d base points; one union-find forest of their orbits
prunes redundant branches, and the group order is the product of the
base-point orbit sizes.  Every map emitted by the search is checked by one
edge test, ``_carries``, and against the seed coloring, so refinement is a
pruning device, never a source of truth.  The same edge test serves a
factorial-time oracle over all vertex bijections, for cross-validation on
small graphs, and part 2 of the certificate.

On top of the search: poset isomorphism (``isomorphic``), the realization
certificate (``verify_realization``) and the block family audit
(``family_checks``).  No module but the CLI imports this one.

Everything here is deterministic: pivots are the smallest eligible vertex
indices, candidates are tried in index order, and reported generators are
sorted by image tuple.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations

from .assembly import (
    RealizationSpace,
    build_realization,
    induced_translation,
    predicted_point_count,
)
from .blocks import asymmetric_block
from .digraph import ColoredDigraph, make_digraph
from .groups import FiniteGroup
from .poset import Poset, is_minimal, level_of

VertexPerm = tuple[int, ...]

ENGINE_POINT_BUDGET = 2_000
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
    """The covering relation as a digraph, low to high, all edges color 1."""
    return make_digraph(p.points, ((x, y, 1) for x, y in p.covers))


# -- refinement --------------------------------------------------------


def _refine(inc, keys: list, target: list | None = None):
    """Stable coloring of one digraph from seed keys, with its trace.

    Round 0 names each seed class by its start (the number of smaller keys)
    and records the sorted keys themselves, so two sides that pass round 0
    have equal class sizes.  Round 1 signs all: keys are not signatures.
    """
    ordered = sorted(keys)
    colors = [bisect_left(ordered, k) for k in keys]
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    entry = ((), tuple(ordered))
    return _settle(inc, colors, cells, range(len(keys)), entry, target)


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
    return _settle(inc, colors, cells, {w for _, _, w in inc[v]}, entry, target)


def _settle(inc, colors: list[int], cells: dict, dirty, entry, target):
    """Refine the ordered partition (colors, cells) until it is equitable.

    Each round signs the ``dirty`` vertices (sorted (direction, edge
    color, neighbor class) triples) and splits each class by rank of its
    members' signatures, as plain color refinement does.  A member not
    re-signed has every neighbor in a split class inside its largest part,
    so it shares its classmates' counts and the signature of any untouched
    one.  Part lists are never changed once built.

    Each round appends (the split classes with their part sizes, hash of
    the sorted signatures of each class with a re-signed member) to the
    trace, up to the round that is discrete or splits nothing; isomorphic
    inputs give equal traces.  A class re-signed without splitting still
    counts, so equal traces mean equal class-to-class counts.  Returns
    ((colors, cells), trace), or None at the first round whose entry
    differs from ``target``'s.
    """
    trace: list = []

    def sign(v: int) -> tuple:
        return tuple(sorted((d, e, colors[w]) for d, e, w in inc[v]))

    while True:
        if target is not None and target[len(trace)] != entry:
            return None
        trace.append(entry)
        if len(cells) == len(colors) or (len(trace) > 1 and not entry[0]):
            return (colors, cells), trace
        touched: dict[int, list[int]] = {}
        for v in dirty:
            touched.setdefault(colors[v], []).append(v)
        signed, split = [], []
        for c in sorted(touched):
            parts: dict[tuple, list[int]] = {}
            for v in touched[c]:
                parts.setdefault(sign(v), []).append(v)
            if len(touched[c]) < len(cells[c]):
                marked = set(touched[c])
                rest = [u for u in cells[c] if u not in marked]
                parts.setdefault(sign(rest[0]), []).extend(rest)
            order = sorted(parts)
            signed.append((c, tuple(order)))
            if len(order) > 1:
                split.append((c, [parts[sig] for sig in order]))
        dirty = set()
        for c, parts in split:
            largest = max(parts, key=len)  # the first by rank: relabelling-invariant
            for i, part in enumerate(parts):
                cells[c] = part
                for v in part if i else ():  # the first part keeps the name
                    colors[v] = c
                if part is not largest:
                    for v in part:
                        dirty.update(w for _, _, w in inc[v])
                c += len(part)
        sizes = tuple((c, tuple(map(len, parts))) for c, parts in split)
        entry = (sizes, hash(tuple(signed)))


def refine(d: ColoredDigraph, seed: dict | None = None) -> Refinement:
    """Coarsest equitable refinement of the seed coloring (default: all-same).

    Class indices are the ranks of the class names (starts), the order of
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


def _carries(sigma: VertexPerm, edges_a, edges_b) -> bool:
    """Whether sigma sends every (source, target, color) of edges_a into edges_b."""
    return all((sigma[s], sigma[t], c) in edges_b for s, t, c in edges_a)


class _PairSearch:
    """Isomorphism / automorphism search between two colored digraphs.

    The constructor refines the left side only: ``path[d]`` is its
    ((colors, cells), trace) after individualizing ``base[:d]``, and
    ``path[-1]`` is discrete.  The right side is refined against
    ``path[0]``'s trace when an isomorphism is sought; in automorphism mode
    it is the left side, so ``path[d]`` serves both.
    """

    def __init__(self, a: ColoredDigraph, b: ColoredDigraph, seed_a=None, seed_b=None):
        self.n = len(a.vertices)
        self.inc_b = b._incidence
        self.edges_a = a._edge_indices
        self.edges_b = b._edge_indices
        self.keys_a = [0] * self.n if seed_a is None else [seed_a[v] for v in a.vertices]
        self.keys_b = [0] * len(b) if seed_b is None else [seed_b[v] for v in b.vertices]
        self.base: list[int] = []
        self.path = [_refine(a._incidence, self.keys_a)]
        while (v := self._pivot(*self.path[-1][0])) is not None:
            self.base.append(v)
            self.path.append(_split(a._incidence, *self.path[-1][0], v))

    @staticmethod
    def _pivot(colors: list[int], cells: dict) -> int | None:
        for v, c in enumerate(colors):
            if len(cells[c]) > 1:
                return v
        return None

    def _extract(self, state_b: tuple) -> VertexPerm | None:
        cells_b = state_b[1]
        if len(cells_b) != self.n:
            return None
        sigma = tuple(cells_b[c][0] for c in self.path[-1][0][0])
        if not _carries(sigma, self.edges_a, self.edges_b):
            return None
        if any(self.keys_a[v] != self.keys_b[w] for v, w in enumerate(sigma)):
            return None
        return sigma

    def _branch(self, depth: int, state_b: tuple, w: int) -> VertexPerm | None:
        """Map base[depth] to w on the right side, then complete the map."""
        nxt = _split(self.inc_b, *state_b, w, self.path[depth + 1][1])
        return None if nxt is None else self._find(depth + 1, nxt[0])

    def _find(self, depth: int, state_b: tuple) -> VertexPerm | None:
        if depth == len(self.base):
            return self._extract(state_b)
        colors, _ = self.path[depth][0]
        for w in sorted(state_b[1][colors[self.base[depth]]]):
            sigma = self._branch(depth, state_b, w)
            if sigma is not None:
                return sigma
        return None

    def find_isomorphism(self) -> VertexPerm | None:
        if self.n != len(self.inc_b) or len(self.edges_a) != len(self.edges_b):
            return None
        root = _refine(self.inc_b, self.keys_b, self.path[0][1])
        return None if root is None else self._find(0, root[0])

    # automorphism mode (requires a and b to be the same digraph)

    def automorphism_group(self) -> AutGroup:
        """A generator found at depth d fixes base[:d].  Depths run deepest
        first, so the forest holds the orbits of generators that all fix
        base[:d], and once depth d is done, base[d]'s class in it is its
        orbit under the pointwise stabilizer of base[:d]."""
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        gens: list[VertexPerm] = []
        order = 1
        for depth in reversed(range(len(self.base))):
            v = self.base[depth]
            colors, cells = state = self.path[depth][0]
            cell = sorted(cells[colors[v]])
            for w in cell:
                if find(w) == find(v):
                    continue
                sigma = self._branch(depth, state, w)
                if sigma is not None:
                    gens.append(sigma)
                    for x, y in enumerate(sigma):
                        parent[find(x)] = find(y)
            order *= sum(find(w) == find(v) for w in cell)
        return AutGroup(generators=tuple(sorted(gens)), order=order)


def automorphisms(d: ColoredDigraph) -> AutGroup:
    """Automorphism group of the colored digraph.

    Generators come out of the refinement-pruned backtracking search; the
    order is the product of base-point orbit sizes under the generators
    found at or below each branching depth (orbit-stabilizer).
    """
    return _PairSearch(d, d).automorphism_group()


def brute_force_automorphisms(d: ColoredDigraph) -> AutGroup:
    """Oracle: try every vertex bijection.  Exact but factorial."""
    n = len(d.vertices)
    if n > ORACLE_VERTEX_LIMIT:
        raise ValueError(
            f"oracle limit: {n} vertices exceeds the cap of {ORACLE_VERTEX_LIMIT}"
        )
    edges = d._edge_indices
    found = [p for p in permutations(range(n)) if _carries(p, edges, edges)]
    identity = tuple(range(n))
    gens = tuple(sorted(p for p in found if p != identity))
    return AutGroup(generators=gens, order=len(found))


def isomorphism_between(
    a: ColoredDigraph, b: ColoredDigraph, seed_a=None, seed_b=None
) -> dict[str, str] | None:
    """A color- and edge-preserving vertex bijection a -> b, or None.

    Optional seeds are vertex colorings (comparable values, shared between
    the two sides) that any bijection must respect.
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
    if len(p.points) != len(q.points) or len(p.covers) != len(q.covers):
        return None
    if sorted(p._levels) != sorted(q._levels):
        return None
    seed_p = {x: (level_of(p, x), len(p._down[i]), len(p._up[i]))
              for i, x in enumerate(p.points)}
    seed_q = {x: (level_of(q, x), len(q._down[i]), len(q._up[i]))
              for i, x in enumerate(q.points)}
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
    induced_valid: int
    induced_distinct: bool
    engine_order: int

    @property
    def passed(self) -> bool:
        return (
            self.minimal
            and self.induced_valid == self.group_order
            and self.induced_distinct
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
            f"induced right translations: {self.induced_valid}/{self.group_order} "
            f"valid automorphisms, pairwise distinct: "
            f"{'PASS' if self.induced_valid == self.group_order and self.induced_distinct else 'FAIL'}",
            f"order(Aut) = {self.engine_order} "
            f"{'=' if self.engine_order == self.group_order else '!='} |G| : "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]
        return "\n".join(lines)


def verify_realization(
    group: FiniteGroup, *, budget: int = ENGINE_POINT_BUDGET
) -> RealizationReport:
    """Certify that the realization space's automorphism group is the group.

    Three parts: (1) the space is minimal, so self-equivalences up to
    homotopy are exactly Hasse-digraph automorphisms; (2) each of the |G|
    induced right-translation maps is checked on its own to be a bijection
    carrying every edge of the Hasse digraph onto an edge, and the |G| maps
    are pairwise distinct, giving an injective homomorphism from the group;
    (3) the search engine counts exactly |G| automorphisms of that same
    digraph.  Together: an injection between finite groups of equal order,
    an isomorphism.
    """
    size = predicted_point_count(group)
    if size > budget:
        raise ValueError(
            f"realization space needs {size} points, over the engine budget "
            f"of {budget}"
        )
    space = build_realization(group)
    x = space.poset
    d = hasse_digraph(x)
    valid, distinct = _check_translations(space, d._edge_indices)
    return RealizationReport(
        group_order=group.order,
        generator_count=len(group.generators),
        point_count=len(x.points),
        cover_count=len(x.covers),
        inventory=tuple(space.block_inventory().items()),
        minimal=is_minimal(x),
        induced_valid=valid,
        induced_distinct=distinct,
        engine_order=automorphisms(d).order,
    )


def _check_translations(space: RealizationSpace, edges) -> tuple[int, bool]:
    """Part 2 on point-index tuples: how many of the |G| induced maps are
    bijections carrying every edge of the Hasse digraph (indexed as
    ``space.poset.points``) onto an edge, and whether the |G| maps are
    pairwise distinct.  Each map is checked on its own; nothing assumes
    they form a homomorphism."""
    n = len(space.poset.points)
    every = set(range(n))
    images = set()
    valid = 0
    for h in range(space.group.order):
        image = induced_translation(space, h)
        if len(image) == n and set(image) == every and _carries(image, edges, edges):
            valid += 1
        images.add(image)
    return valid, len(images) == space.group.order


# -- block family audit ----------------------------------------------


def _connected(p: Poset) -> bool:
    seen = {0} if p.points else set()
    stack = list(seen)
    while stack:
        i = stack.pop()
        for j in p._up[i] + p._down[i]:
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

    Distinct point counts make the blocks pairwise non-homeomorphic, and
    minimality upgrades that to pairwise inequivalence up to homotopy.
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
