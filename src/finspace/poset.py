"""Finite partial orders represented by their covering relation.

A finite T0 topological space is the same data as a finite poset, and a
finite poset is stored here as its Hasse diagram: the point names plus,
per point, the indices of its upper covers.  Names are labels, for I/O and
for ``make_poset``, which takes covers by name.  The one order structure
kept is each point's level, from one topological walk; the covering check
walks upward from a few points, no higher than a level bound, and on a
graded poset it walks nowhere.  ``Poset(...)`` validates every input;
``assembly.assemble``, which certifies its output on the block quotient,
enters through the private ``Poset._from_checked``.
All values are immutable; every operation below is a pure function, so
posets can be shared freely across threads.  Poset isomorphism is a
digraph search and lives with the search, in ``engine``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import mul

from .digraph import _check_rows, _json_str, _json_text, _quote, _ranked, _transpose

Cover = tuple[str, str]


@dataclass(frozen=True)
class Poset:
    """A finite poset given by points and upper covers.

    ``up[i]`` is the sorted tuple of the indices of the points that cover
    ``points[i]``.  The pairs must be exactly the covering relation of the
    order they generate: irreflexive, acyclic, and with no pair that is
    implied by a longer chain.  Violations raise ``ValueError`` at
    construction time.
    """

    points: tuple[str, ...]
    up: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.points)
        if not set(map(type, self.points)) <= {str}:
            raise ValueError("a point name is not a str")
        if len(set(self.points)) != n:
            raise ValueError("duplicate point identifiers")
        _check_rows(self.points, self.up, "upper cover", "reflexive cover ({0!r}, {0!r})")
        # _levels raises on cycles.  A longer chain from i to its upper cover
        # j leaves i through another upper cover k, and level(k) < level(j).
        # So only the upper covers below i's highest one start a walk, which
        # stops at that level.  Each cover climbs at least one level, so when
        # the climbs add up to exactly one per cover the poset is graded and
        # no row needs a look.
        levels = self._levels
        degrees = list(map(len, self.up))
        tops = sum(map(levels.__getitem__, chain.from_iterable(self.up)))
        if tops - sum(map(mul, levels, degrees)) == sum(degrees):
            return
        for i, ys in enumerate(self.up):
            top = max(map(levels.__getitem__, ys), default=0)
            if top > levels[i] + 1:
                above = self._above([k for k in ys if levels[k] < top], top)
                for j in ys:
                    if j in above:
                        x, y = self.points[i], self.points[j]
                        raise ValueError(
                            f"({x!r}, {y!r}) is not a covering pair: "
                            "a longer chain joins them"
                        )

    @classmethod
    def _from_checked(cls, points, up, levels) -> Poset:
        """A poset from parts already known to pass every check above, which
        this constructor does not repeat: ``points`` is a tuple of distinct
        str, ``up`` has passed ``_check_rows`` and is exactly the covering
        relation of an order, and ``levels`` is the tuple ``_levels`` would
        compute from it.  Only ``assembly.assemble`` calls it, after its
        block-quotient certificate."""
        p = object.__new__(cls)
        object.__setattr__(p, "points", points)
        object.__setattr__(p, "up", up)
        p.__dict__["_levels"] = levels
        return p

    # -- cached structure ------------------------------------------------

    @cached_property
    def covers(self) -> frozenset[Cover]:
        """Covering pairs (x, y), x covered by y, by name."""
        pts = self.points
        return frozenset((pts[i], pts[j]) for i, ys in enumerate(self.up) for j in ys)

    @cached_property
    def _down(self) -> tuple[tuple[int, ...], ...]:
        """Lower covers of each point, as sorted index tuples."""
        return _transpose(self.up)

    @cached_property
    def _levels(self) -> tuple[int, ...]:
        """Length of the longest chain ending at each point (minimal points
        have level 1); ``ValueError`` if the cover digraph has a cycle."""
        n, up = len(self.points), self.up
        levels, indeg = [0] * n, [0] * n
        for j in chain.from_iterable(up):
            indeg[j] += 1
        # A point is ready one round after its last lower cover, so the
        # round it is taken in is its level.
        ready, level = [i for i in range(n) if not indeg[i]], 1
        while ready:
            taken, ready = ready, []
            for i in taken:
                levels[i] = level
                for j in up[i]:
                    indeg[j] -= 1
                    if not indeg[j]:
                        ready.append(j)
            level += 1
        if any(indeg):
            raise ValueError("cover relation contains a cycle")
        return tuple(levels)

    def _above(self, starts, top: int) -> set[int]:
        """Points strictly above some point of starts, up to level top."""
        levels, up = self._levels, self.up
        seen: set[int] = set()
        stack = list(starts)
        while stack:
            for j in up[stack.pop()]:
                if j not in seen and levels[j] <= top:
                    seen.add(j)
                    stack.append(j)
        return seen

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"Poset({len(self.points)} points, {sum(map(len, self.up))} covers)"


def make_poset(points, covers) -> Poset:
    """Build a validated Poset from point names and name pairs (x, y), x
    covered by y."""
    points = tuple(points)
    index = {x: i for i, x in enumerate(points)}
    up: list[set[int]] = [set() for _ in points]
    for x, y in covers:
        if x not in index or y not in index:
            raise ValueError(f"cover ({x!r}, {y!r}) uses an unknown point")
        up[index[x]].add(index[y])
    return Poset(points, tuple(tuple(sorted(ys)) for ys in up))


def is_minimal(p: Poset) -> bool:
    """True iff the poset has no beat points of either kind: no point has
    exactly one upper or exactly one lower cover.  Reads the row lengths
    alone, naming no point."""
    return 1 not in map(len, p.up) and 1 not in map(len, p._down)


# -- serialization -----------------------------------------------------


def poset_from_json_dict(data: dict) -> Poset:
    if not isinstance(data, dict) or "points" not in data or "covers" not in data:
        raise ValueError('malformed poset JSON: expected {"points": [...], "covers": [...]}')
    points = data["points"]
    covers = data["covers"]
    if not isinstance(points, list) or not all(isinstance(x, str) for x in points):
        raise ValueError("malformed poset JSON: points must be a list of strings")
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(isinstance(e, str) for e in c)
        for c in covers
    ):
        raise ValueError("malformed poset JSON: covers must be a list of [x, y] pairs")
    return make_poset(points, ((c[0], c[1]) for c in covers))


def _sorted_covers(p: Poset) -> tuple[list[int], list[list[int]]]:
    """The covers in the order of ``sorted(p.covers)``, row by row: the
    point indices in name order, and per point, in that order, the indices
    of its upper covers in name order.  No pair is built per cover."""
    rank, order = _ranked(p.points)
    by_rank = rank.__getitem__
    return order, [sorted(row, key=by_rank) for row in map(p.up.__getitem__, order)]


def poset_to_json(p: Poset) -> str:
    """``{"points": [...], "covers": [[x, y], ...]}`` as ``json.dumps(...,
    indent=2)`` writes it, covers sorted; written from the upper covers."""
    names = list(map(_json_str, p.points))
    order, rows = _sorted_covers(p)
    cells = [""] * (2 * sum(map(len, rows)))
    cells[0::2] = chain.from_iterable(map(repeat, map(names.__getitem__, order), map(len, rows)))
    cells[1::2] = map(names.__getitem__, chain.from_iterable(rows))
    del order, rows  # freed before the text is joined, at the peak
    return _json_text("points", names, "covers", cells, 2)


def poset_from_json(text: str) -> Poset:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed poset JSON: {exc}") from exc
    return poset_from_json_dict(data)


def poset_to_dot(p: Poset, name: str = "poset") -> str:
    """DOT text with one rank per level, covers drawn bottom-to-top."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=point];"]
    quoted = list(map(_quote, p.points))
    by_level: dict[int, list[str]] = {}
    for i, x in enumerate(quoted):
        by_level.setdefault(p._levels[i], []).append(x)
    for lvl in sorted(by_level):
        row = " ".join(f"{x};" for x in by_level[lvl])
        lines.append(f"  {{ rank=same; {row} }}")
    order, rows = _sorted_covers(p)
    lines.extend(f"  {quoted[i]} -> {quoted[j]};" for i, row in zip(order, rows) for j in row)
    del order, rows  # freed before the text is joined, at the peak
    lines.append("}")
    return "\n".join(lines) + "\n"
