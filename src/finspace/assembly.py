"""Splicing posets together out of blocks.

One primitive, ``assemble``: the disjoint union of named blocks along
block-level connections, where a connection draws a complete bipartite
set of covers from the last level of the lower block to the first level
of the upper block.

``assemble`` numbers the blocks and hands them, with the rows of the
block quotient (one point per block, one cover per connection), to one
laying core, ``_lay``, which works by block index alone.  Whether the
result is a poset depends only on the blocks and the connections, so
``_lay`` checks the block quotient in place of the assembled covers.  If
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

The names need no set either.  The quotient ``Poset`` has checked that
the block names are distinct strings, and each block, a ``Poset``, that
its point names are distinct.  So if no block name contains "/", the
first "/" of an assembled name "<block>/<point>" ends the block's name,
the name gives back its block and its point, and the assembled names are
distinct.  A block name with "/" can collide (block "a" with point "q/p0"
and block "a/q" with point "p0" both lay "a/q/p0"), so then the
assembled names are checked as a set.

A construction lays many copies of few blocks, so ``_lay`` reads each
distinct block object once, into a template, and lays every copy
from it.  One list holds the point indices, and a copy filling
``index[start:start + size]`` takes its rows in one C-level gather of
that slice, cut back into rows at the template's row ends.  Entry i of
the slice is start + i, so the gather gives exactly the block's rows
shifted by start, in the same order, and every row shares the list's one
int object per point.

On top of it sits ``build_realization``: given a finite group with
generators, it lays one degree-0 block per group element and, per colored
Cayley edge, one edge block plus two flanking second-story blocks whose
family indices encode the edge color and its orientation.  That layout is
regular, so the block records and the block quotient are written in
closed form from the generators' rows and passed to ``_lay`` by index,
with no connection named.  The resulting four-level poset is minimal and
its Hasse-digraph automorphism group reproduces the group.  The space
keeps one record per block (``BlockInfo``): kind, family, element and
target indices, colour, and the range of point indices the block fills.
So ``induced_translation`` is one index range per block, the range of
the block of the same slot at g*h, and no point is looked up by name;
names are for I/O.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, itemgetter
from typing import NamedTuple

from .blocks import asymmetric_block
from .groups import FiniteGroup, right_translation
from .poset import Poset, make_poset  # noqa: F401 (the benchmark wraps assembly.make_poset)


class _Template(NamedTuple):
    """What every copy of one block shares.  ``firsts`` and ``rows`` take a
    copy's point indices, the list slice its points fill, and gather its
    first-level points and its rows joined; ``cuts`` cut the joined rows
    back into rows."""

    firsts: Callable[[list[int]], tuple[int, ...]]
    lasts: tuple[int, ...]
    height: int
    rows: Callable[[list[int]], tuple[int, ...]]
    cuts: tuple[slice, ...]
    levels: tuple[int, ...]


def _gather(picks: tuple[int, ...]) -> Callable[[list[int]], tuple[int, ...]]:
    """One C-level call that takes the entries at picks, as a tuple.  An
    ``itemgetter`` of one index returns the bare entry and of none raises,
    so those two gather in Python."""
    if len(picks) > 1:
        return itemgetter(*picks)
    return lambda seq: tuple(map(seq.__getitem__, picks))


def _template(block: Poset) -> _Template:
    """A non-empty block's template."""
    levels = block._levels
    height = max(levels)
    ends = list(accumulate(map(len, block.up)))
    return _Template(
        _gather(tuple(i for i, lvl in enumerate(levels) if lvl == 1)),
        tuple(i for i, lvl in enumerate(levels) if lvl == height),
        height,
        _gather(tuple(chain.from_iterable(block.up))),
        tuple(map(slice, [0, *ends], ends)),
        levels,
    )


def assemble(blocks: dict[str, Poset], connections: set[tuple[str, str]]) -> Poset:
    """Disjoint union of the non-empty blocks, points prefixed "<block>/"
    and listed block by block in dict order, plus the complete bipartite
    covers demanded by each (lower, upper) connection.

    The blocks are numbered in dict order and the connections become the
    rows of the block quotient, each the sorted numbers of the blocks above
    one block.  ``_lay`` lays the points from them and certifies them on
    the quotient, as the module docstring says.  Where that fails (a block
    connected to itself, a cycle, a connection implied through other
    blocks, a duplicate name, or a block name that is not a str) ``Poset``
    checks the assembled rows and names the fault."""
    for lo, hi in connections:
        if lo not in blocks or hi not in blocks:
            raise ValueError(f"connection ({lo!r}, {hi!r}) names an unknown block")
    order = {bname: i for i, bname in enumerate(blocks)}
    above: list[list[int]] = [[] for _ in blocks]
    for lo, hi in connections:
        above[order[lo]].append(order[hi])
    quotient_up = tuple(tuple(sorted(ks)) for ks in above)
    return _lay(tuple(blocks), list(blocks.values()), quotient_up)


def _lay(names: tuple, blocks: list[Poset], quotient_up: tuple[tuple[int, ...], ...]) -> Poset:
    """Block i, named ``names[i]``, laid as points ``"<names[i]>/<point>"``
    in block order, its last level covered by the first level of each block
    in ``quotient_up[i]``, which lists them in increasing order.

    Each distinct block object is read once, into a template kept for this
    call only, and every copy of it is laid from that template by one
    gather from the list of point indices.  A last-level row is empty in
    its block, as no point covers a top point; it becomes the copy's covers
    in the upper blocks, taken in block order.  So rows come out sorted.
    The output is certified as the module docstring says: if the quotient
    ``Poset`` on the names and ``quotient_up`` is valid and the point names
    are distinct, which no block name without "/" leaves in doubt, the
    points' levels are the block offsets plus the levels inside the
    blocks, and nothing is checked point by point.  Otherwise ``Poset``
    checks the rows and names the fault."""
    points: list[str] = []
    templates: dict[int, _Template] = {}  # by id: blocks are often one shared object
    starts, copies = [], []
    for bname, block in zip(names, blocks):
        if not block.points:
            raise ValueError(f"empty block {bname!r}")
        starts.append(len(points))
        points.extend(map(f"{bname}/".__add__, block.points))
        if id(block) not in templates:
            templates[id(block)] = _template(block)
        copies.append(templates[id(block)])
    index = list(range(len(points)))
    spans = list(map(index.__getitem__, map(slice, starts, [*starts[1:], len(points)])))
    bottoms = [t.firsts(span) for t, span in zip(copies, spans)]
    up: list[tuple[int, ...]] = []
    for t, span, ks in zip(copies, spans, quotient_up):
        rows = list(map(t.rows(span).__getitem__, t.cuts))
        cross = tuple(chain.from_iterable(map(bottoms.__getitem__, ks)))
        for j in t.lasts:
            rows[j] = cross
        up.extend(rows)
    try:
        quotient = Poset(names, quotient_up)
    except ValueError:
        quotient = None
    # a name's first "/" ends its block's name, unless a block name holds one
    if quotient is None or ("/" in "".join(names) and len(set(points)) != len(points)):
        return Poset(tuple(points), tuple(up))
    offsets = [0] * len(quotient_up)
    for i in sorted(range(len(offsets)), key=quotient._levels.__getitem__):
        top = offsets[i] + copies[i].height
        for k in quotient_up[i]:
            offsets[k] = max(offsets[k], top)
    levels = map(
        add,
        chain.from_iterable(t.levels for t in copies),
        chain.from_iterable(map(repeat, offsets, map(len, spans))),
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

    @cached_property
    def _indices(self) -> list[int]:
        """``list(range(n))`` over the points, made once per space: slices of
        it share one int object per point."""
        return list(range(len(self.poset.points)))

    def block_inventory(self) -> dict[int, int]:
        """Count of blocks per family index."""
        return dict(sorted(Counter(info.family for info in self.blocks).items()))


def predicted_point_count(group: FiniteGroup) -> int:
    """Closed-form size of the realization space before building it."""
    n = len(group.generators)
    per_edge_colors = sum(6 * k + 6 * n + 24 for k in range(1, n + 1))
    return 8 * group.order + group.order * per_edge_colors


def build_realization(group: FiniteGroup) -> RealizationSpace:
    """Assemble the four-level realization space for the given group.

    Per element g: a vertex block of family 0.  Per color-k Cayley edge
    (g, g_k*g): an edge block of family k on the first story, and on the
    second story a start block of family n+k above the vertex block of g
    and the edge block, plus an end block of family 2n+k above the vertex
    block of g_k*g and the edge block.

    Blocks are numbered in the order their points are laid: the vertex
    block of g is block g, and per color k the edge, start and end blocks
    of each element g in turn, so the edge block of (k, g) is block
    e = |G|(3k - 2) + 3g, its start block e + 1 and its end block e + 2.
    The records and the block quotient follow from that numbering, the
    block sizes and the generators' rows alone, and go to ``_lay`` by
    index: vertex block g lies below the start block of (k, g) and below
    the end block of (k, h) for each h with row_k[h] = g, each edge block
    below its own start and end blocks, and the second story below
    nothing.  No block is looked up by name.
    """
    order, n = group.order, len(group.generators)
    family = [asymmetric_block(k) for k in range(3 * n + 1)]  # immutable, shared
    thrice = [g for g in range(order) for _ in range(3)]  # an edge's three blocks
    kinds, fams, elements = ["vertex"] * order, [0] * order, list(range(order))
    colors, targets = [None] * order, [None] * order
    names = [f"vert[{x}]" for x in group.elements]
    above: list[list[int]] = [[] for _ in range(order)]
    edge_rows: list[tuple[int, ...]] = []  # the quotient rows of each edge's three blocks
    for k, row in enumerate(group.rows, start=1):
        edge = len(names)  # block e of (k, 0)
        kinds += ("edge", "start", "end") * order
        fams += (k, n + k, 2 * n + k) * order
        elements += thrice
        colors += [k] * (3 * order)
        targets += map(row.__getitem__, thrice)
        names += chain.from_iterable(
            (f"edge{k}[{x}]", f"src{k}[{x}]", f"dst{k}[{x}]") for x in group.elements
        )
        for g in range(order):
            above[g].append(edge + 3 * g + 1)
        for h, g in enumerate(row):
            above[g].append(edge + 3 * h + 2)
        edge_rows += chain.from_iterable(
            ((e + 1, e + 2), (), ()) for e in range(edge, edge + 3 * order, 3)
        )
    blocks = list(map(family.__getitem__, fams))
    sizes = [len(block.points) for block in blocks]
    starts = accumulate(sizes, initial=0)
    records = map(BlockInfo, kinds, fams, names, elements, colors, targets, starts, sizes)
    quotient_up = (*(tuple(sorted(ks)) for ks in above), *edge_rows)
    poset = _lay(tuple(names), blocks, quotient_up)
    return RealizationSpace(poset=poset, blocks=tuple(records), group=group)


def induced_translation(space: RealizationSpace, h: int) -> tuple[int, ...]:
    """The point map on the realization space induced by x -> x*h.

    The block of slot (kind, colour) and element g goes onto the block of
    that slot and g*h, point i of the one onto point i of the other: the
    vertex block of g onto that of g*h, the blocks of edge (g, g_k*g) onto
    those of (g*h, g_k*g*h).  g*h is read from ``right_translation``, and
    each block's slot, element and points from its record, so the map is
    one range of indices per block, sliced from the space's one list of
    point indices: every image shares its int objects.  Returned in index
    form: entry i is the index in ``space.poset.points`` of the image of
    point i.  Raises ``ValueError`` for an h out of range, when two blocks
    claim one slot and element, or when a block has no image of its size.
    Whether the map is an automorphism is the caller's check.
    """
    times_h = right_translation(space.group, h)
    block_at: dict[tuple, BlockInfo] = {}
    for info in space.blocks:
        key = (info.kind, info.color, info.element)
        if block_at.setdefault(key, info) is not info:
            raise ValueError(f"{block_at[key].block!r} and {info.block!r} claim one slot")
    index, ranges = space._indices, []
    for info in space.blocks:
        image = block_at.get((info.kind, info.color, times_h[info.element]))
        if image is None or image.size != info.size:
            raise ValueError(f"no image under element {h} for block {info.block!r}")
        ranges.append(index[image.start:image.start + image.size])
    return tuple(chain.from_iterable(ranges))
