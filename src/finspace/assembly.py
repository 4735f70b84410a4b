"""Splicing posets together out of blocks.

One primitive, ``assemble``: the disjoint union of named blocks along
block-level connections, where a connection draws a complete bipartite
set of covers from the last level of the lower block to the first level
of the upper block.

Whether the result is a poset depends only on the blocks and the
connections, so ``assemble`` checks the block quotient (one point per
block, one cover per connection) in place of the assembled covers.  If
the quotient is a poset and the assembled names are distinct, the
assembled pairs are exactly a covering relation: a point cycle or a
longer point chain between the ends of a connection projects onto a
block cycle or a longer block path, and a chain inside one block stays a
chain of that block.  Conversely, every last-level point of a block is
at or above one of its first-level points, so a block cycle is a point
cycle, and a connection (L, U) implied by a block path L -> M -> ... -> U
is implied by a point chain through M.  A point's level is its block's
offset, the longest path into the block weighted by block heights, plus
its level inside the block.

On top of it sits ``build_realization``: given a finite group with
generators, it lays one degree-0 block per group element and, per colored
Cayley edge, one edge block plus two flanking second-story blocks whose
family indices encode the edge color and its orientation.  The resulting
four-level poset is minimal and its Hasse-digraph automorphism group
reproduces the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .blocks import asymmetric_block
from .groups import FiniteGroup, right_translation
from .poset import Poset, make_poset  # noqa: F401 (the benchmark wraps assembly.make_poset)


def _shape(block: Poset) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """A block's first-level indices, last-level indices and height."""
    levels = block._levels
    height = max(levels)
    firsts = tuple(i for i, lvl in enumerate(levels) if lvl == 1)
    return firsts, tuple(i for i, lvl in enumerate(levels) if lvl == height), height


def assemble(blocks: dict[str, Poset], connections: set[tuple[str, str]]) -> Poset:
    """Disjoint union of the non-empty blocks, points prefixed "<block>/"
    and listed block by block in dict order, plus the complete bipartite
    covers demanded by each (lower, upper) connection.

    Rows come out sorted: a last-level point has no upper cover inside its
    block, and its covers in the upper blocks are taken in block order.
    The output is certified as the module docstring says: if the quotient
    ``Poset`` on the block names and the connections is valid and the
    point names are distinct, the points' levels are the block offsets
    plus the levels inside the blocks, and nothing is checked point by
    point.  Otherwise (a block connected to itself, a cycle, a
    connection implied through other blocks, a duplicate name, or a block
    name that is not a str) ``Poset`` checks the same rows and names the
    fault."""
    for lo, hi in connections:
        if lo not in blocks or hi not in blocks:
            raise ValueError(f"connection ({lo!r}, {hi!r}) names an unknown block")
    order = {bname: i for i, bname in enumerate(blocks)}
    above: list[list[int]] = [[] for _ in blocks]
    for lo, hi in connections:
        above[order[lo]].append(order[hi])
    quotient_up = tuple(tuple(sorted(ks)) for ks in above)
    points: list[str] = []
    shapes: dict[int, tuple] = {}  # by id: blocks are often one shared object
    starts, shape_of = [], []
    for bname, block in blocks.items():
        if not block.points:
            raise ValueError(f"empty block {bname!r}")
        starts.append(len(points))
        points.extend(map(f"{bname}/".__add__, block.points))
        if id(block) not in shapes:
            shapes[id(block)] = _shape(block)
        shape_of.append(shapes[id(block)])
    bottoms = [tuple(map(base.__add__, shape[0])) for base, shape in zip(starts, shape_of)]
    up: list[tuple[int, ...]] = []
    for base, block, (_, lasts, _), ks in zip(starts, blocks.values(), shape_of, quotient_up):
        rows = [tuple(map(base.__add__, ys)) for ys in block.up]
        cross = tuple(chain.from_iterable(map(bottoms.__getitem__, ks)))
        for j in lasts:
            rows[j] = cross
        up.extend(rows)
    try:
        quotient = Poset(tuple(blocks), quotient_up)
    except ValueError:
        quotient = None
    if quotient is None or len(set(points)) != len(points):
        return Poset(tuple(points), tuple(up))
    offsets = [0] * len(quotient_up)
    for i in sorted(range(len(offsets)), key=quotient._levels.__getitem__):
        top = offsets[i] + shape_of[i][2]
        for k in quotient_up[i]:
            offsets[k] = max(offsets[k], top)
    levels = chain.from_iterable(
        map(offset.__add__, block._levels) for offset, block in zip(offsets, blocks.values())
    )
    return Poset._from_checked(tuple(points), tuple(up), tuple(levels))


@dataclass(frozen=True)
class BlockInfo:
    """Provenance of one assembled point: which block it came from.

    kind is "vertex", "edge", "start" or "end"; element is the group
    element for vertex blocks and the edge's source element otherwise;
    target is the edge's endpoint (None for vertex blocks)."""

    kind: str
    family: int
    block: str
    element: str
    color: int | None
    target: str | None


@dataclass(frozen=True)
class RealizationSpace:
    poset: Poset
    provenance: dict[str, BlockInfo]
    group: FiniteGroup

    def __post_init__(self) -> None:
        if set(self.provenance) != set(self.poset.points):
            raise ValueError("provenance must cover exactly the assembled points")

    def block_inventory(self) -> dict[int, int]:
        """Count of blocks per family index."""
        blocks: dict[str, int] = {}
        for info in self.provenance.values():
            blocks[info.block] = info.family
        counts: dict[int, int] = {}
        for fam in blocks.values():
            counts[fam] = counts.get(fam, 0) + 1
        return dict(sorted(counts.items()))

    def block_point_sets(self) -> dict[str, frozenset[str]]:
        grouped: dict[str, set[str]] = {}
        for point, info in self.provenance.items():
            grouped.setdefault(info.block, set()).add(point)
        return {b: frozenset(s) for b, s in grouped.items()}


def predicted_point_count(group: FiniteGroup) -> int:
    """Closed-form size of the realization space before building it."""
    n = len(group.generators)
    per_edge_colors = sum(6 * k + 6 * n + 24 for k in range(1, n + 1))
    return 8 * group.order + group.order * per_edge_colors


def _block_names(group: FiniteGroup, k: int, g: int) -> tuple[str, str, str]:
    name = group.elements[g]
    return f"edge{k}[{name}]", f"src{k}[{name}]", f"dst{k}[{name}]"


def build_realization(group: FiniteGroup) -> RealizationSpace:
    """Assemble the four-level realization space for the given group.

    Per element g: a vertex block of family 0.  Per color-k Cayley edge
    (g, g_k*g): an edge block of family k on the first story, and on the
    second story a start block of family n+k above the vertex block of g
    and the edge block, plus an end block of family 2n+k above the vertex
    block of g_k*g and the edge block.
    """
    n = len(group.generators)
    family = [asymmetric_block(k) for k in range(3 * n + 1)]  # immutable, shared
    blocks: dict[str, Poset] = {}
    connections: set[tuple[str, str]] = set()
    info: list[BlockInfo] = []

    def vert_name(g: int) -> str:
        return f"vert[{group.elements[g]}]"

    for g in range(group.order):
        blocks[vert_name(g)] = family[0]
        info.append(BlockInfo("vertex", 0, vert_name(g), group.elements[g], None, None))
    for k, row in enumerate(group.rows, start=1):
        for g, target in enumerate(row):
            e_name, s_name, d_name = _block_names(group, k, g)
            blocks[e_name] = family[k]
            blocks[s_name] = family[n + k]
            blocks[d_name] = family[2 * n + k]
            src_el = group.elements[g]
            dst_el = group.elements[target]
            info.append(BlockInfo("edge", k, e_name, src_el, k, dst_el))
            info.append(BlockInfo("start", n + k, s_name, src_el, k, dst_el))
            info.append(BlockInfo("end", 2 * n + k, d_name, src_el, k, dst_el))
            connections.add((vert_name(g), s_name))
            connections.add((e_name, s_name))
            connections.add((vert_name(target), d_name))
            connections.add((e_name, d_name))

    poset = assemble(blocks, connections)
    # assemble lists points block by block, and info holds the blocks in order.
    per_point = (binfo for binfo in info for _ in blocks[binfo.block].points)
    provenance = dict(zip(poset.points, per_point))
    return RealizationSpace(poset=poset, provenance=provenance, group=group)


def induced_translation(space: RealizationSpace, h: int) -> tuple[int, ...]:
    """The point map on the realization space induced by x -> x*h.

    Each point of the block of slot (kind, colour) and element g goes to
    the point of the same local name in the block of that slot and g*h:
    the vertex block of g to that of g*h, the blocks of edge (g, g_k*g) to
    those of (g*h, g_k*g*h).  g*h is read from ``right_translation``, and
    blocks, slots and elements from ``provenance``.  Returned in index
    form: entry i is the index in ``space.poset.points`` of the image of
    point i.  Raises ``ValueError`` for an h out of range, when two blocks
    claim one slot and element, or when an image point is missing.
    Whether the map is an automorphism is the caller's check.
    """
    names = space.group.elements
    times_h = dict(zip(names, map(names.__getitem__, right_translation(space.group, h))))
    block_of: dict[tuple, str] = {}
    for info in space.provenance.values():
        key = (info.kind, info.color, info.element)
        if block_of.setdefault(key, info.block) != info.block:
            raise ValueError(f"{block_of[key]!r} and {info.block!r} claim one slot")
    index = space.poset._index
    image: list[int] = []
    try:
        for p in space.poset.points:
            info = space.provenance[p]
            target = block_of[info.kind, info.color, times_h[info.element]]
            image.append(index[target + p[len(info.block):]])
    except KeyError as exc:
        raise ValueError(f"no image under element {h} for {exc}") from None
    return tuple(image)
