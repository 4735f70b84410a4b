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
reproduces the group.  The space keeps one record per block
(``BlockInfo``): kind, family, element and target indices, colour, and
the range of point indices the block fills.  So ``induced_translation``
is one index range per block, the range of the block of the same slot
at g*h, and no point is looked up by name; names are for I/O.
"""

from __future__ import annotations

from collections import Counter
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
    """One block of a realization space, and where its points lie.

    kind is "vertex", "edge", "start" or "end"; element is the index of
    the group element for vertex blocks and of the edge's source
    otherwise; target is the index of the edge's endpoint (None for vertex
    blocks).  The block's points are ``points[start:start + size]`` of the
    space's poset, in the order of the block's own points."""

    kind: str
    family: int
    block: str
    element: int
    color: int | None
    target: int | None
    start: int
    size: int


@dataclass(frozen=True)
class RealizationSpace:
    """A poset assembled from blocks, with one record per block.  The
    records list the blocks in order and tile the points: each starts
    where the one before it ends, none is empty, and the last ends at the
    last point.  Their element and target indices are the group's."""

    poset: Poset
    blocks: tuple[BlockInfo, ...]
    group: FiniteGroup

    def __post_init__(self) -> None:
        at, order = 0, self.group.order
        for info in self.blocks:
            if info.size < 1:
                raise ValueError(f"empty block {info.block!r}")
            if info.start != at:
                raise ValueError(f"block {info.block!r} starts at {info.start}, not at {at}")
            if not all(0 <= g < order for g in (info.element, info.target) if g is not None):
                raise ValueError(f"block {info.block!r} names no element of the group")
            at += info.size
        if at != len(self.poset.points):
            raise ValueError("the blocks must cover exactly the assembled points")

    def block_inventory(self) -> dict[int, int]:
        """Count of blocks per family index."""
        return dict(sorted(Counter(info.family for info in self.blocks).items()))


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
    records: list[BlockInfo] = []
    connections: set[tuple[str, str]] = set()

    def add(kind: str, fam: int, name: str, g: int, color=None, target=None) -> None:
        # assemble lists the points block by block, in the order they are added
        start = records[-1].start + records[-1].size if records else 0
        blocks[name] = family[fam]
        records.append(
            BlockInfo(kind, fam, name, g, color, target, start, len(family[fam].points))
        )

    def vert_name(g: int) -> str:
        return f"vert[{group.elements[g]}]"

    for g in range(group.order):
        add("vertex", 0, vert_name(g), g)
    for k, row in enumerate(group.rows, start=1):
        for g, target in enumerate(row):
            e_name, s_name, d_name = _block_names(group, k, g)
            add("edge", k, e_name, g, k, target)
            add("start", n + k, s_name, g, k, target)
            add("end", 2 * n + k, d_name, g, k, target)
            connections.add((vert_name(g), s_name))
            connections.add((e_name, s_name))
            connections.add((vert_name(target), d_name))
            connections.add((e_name, d_name))

    poset = assemble(blocks, connections)
    return RealizationSpace(poset=poset, blocks=tuple(records), group=group)


def induced_translation(space: RealizationSpace, h: int) -> tuple[int, ...]:
    """The point map on the realization space induced by x -> x*h.

    The block of slot (kind, colour) and element g goes onto the block of
    that slot and g*h, point i of the one onto point i of the other: the
    vertex block of g onto that of g*h, the blocks of edge (g, g_k*g) onto
    those of (g*h, g_k*g*h).  g*h is read from ``right_translation``, and
    each block's slot, element and points from its record, so the map is
    one range of indices per block.  Returned in index form: entry i is
    the index in ``space.poset.points`` of the image of point i.  Raises
    ``ValueError`` for an h out of range, when two blocks claim one slot
    and element, or when a block has no image of its size.  Whether the
    map is an automorphism is the caller's check.
    """
    times_h = right_translation(space.group, h)
    block_at: dict[tuple, BlockInfo] = {}
    for info in space.blocks:
        key = (info.kind, info.color, info.element)
        if block_at.setdefault(key, info) is not info:
            raise ValueError(f"{block_at[key].block!r} and {info.block!r} claim one slot")
    ranges = []
    for info in space.blocks:
        image = block_at.get((info.kind, info.color, times_h[info.element]))
        if image is None or image.size != info.size:
            raise ValueError(f"no image under element {h} for block {info.block!r}")
        ranges.append(range(image.start, image.start + image.size))
    return tuple(chain.from_iterable(ranges))
