"""Finite partial orders represented by their covering relation.

A finite T0 topological space is the same data as a finite poset, and a
finite poset is stored here as its Hasse diagram: the set of points plus
the covering pairs (x, y) with x < y and nothing strictly between.  All
values are immutable; every operation below is a pure function, so posets
can be shared freely across threads.  Poset isomorphism is a digraph
search and lives with the search, in ``engine``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .digraph import _quote

Cover = tuple[str, str]


@dataclass(frozen=True)
class Poset:
    """A finite poset given by points and covering pairs.

    ``covers`` holds pairs ``(x, y)`` meaning x is covered by y.  The pair
    set must be exactly the covering relation of the order it generates:
    irreflexive, acyclic, and with no pair that is implied by a longer
    chain.  Violations raise ``ValueError`` at construction time.
    """

    points: tuple[str, ...]
    covers: frozenset[Cover]

    def __post_init__(self) -> None:
        seen = set(self.points)
        if len(seen) != len(self.points):
            raise ValueError("duplicate point identifiers")
        for x, y in self.covers:
            if x == y:
                raise ValueError(f"reflexive cover ({x!r}, {x!r})")
            if x not in seen or y not in seen:
                raise ValueError(f"cover ({x!r}, {y!r}) uses an unknown point")
        # _strict_up raises on cycles; then reject any transitively implied pair.
        up = self._strict_up
        for i in range(len(self.points)):
            beyond = 0
            for j in self._up[i]:
                beyond |= up[j]
            for j in self._up[i]:
                if beyond >> j & 1:
                    x, y = self.points[i], self.points[j]
                    raise ValueError(
                        f"({x!r}, {y!r}) is not a covering pair: "
                        "a longer chain joins them"
                    )

    # -- cached structure ------------------------------------------------

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def _up(self) -> tuple[tuple[int, ...], ...]:
        """Upper covers of each point, as sorted index tuples."""
        idx = self._index
        out: list[list[int]] = [[] for _ in self.points]
        for x, y in self.covers:
            out[idx[x]].append(idx[y])
        return tuple(tuple(sorted(s)) for s in out)

    @cached_property
    def _down(self) -> tuple[tuple[int, ...], ...]:
        """Lower covers of each point, as sorted index tuples."""
        idx = self._index
        out: list[list[int]] = [[] for _ in self.points]
        for x, y in self.covers:
            out[idx[y]].append(idx[x])
        return tuple(tuple(sorted(s)) for s in out)

    @cached_property
    def _topo(self) -> tuple[int, ...]:
        """Indices in a topological order (lower covers first).

        Raises ``ValueError`` if the cover digraph has a cycle.
        """
        indeg = [len(d) for d in self._down]
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order: list[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            for j in self._up[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        if len(order) != len(self.points):
            raise ValueError("cover relation contains a cycle")
        return tuple(order)

    @cached_property
    def _strict_up(self) -> tuple[int, ...]:
        """Bitmask per point of all strictly greater points."""
        masks = [0] * len(self.points)
        for i in reversed(self._topo):
            m = 0
            for j in self._up[i]:
                m |= 1 << j
                m |= masks[j]
            masks[i] = m
        return tuple(masks)

    @cached_property
    def _levels(self) -> tuple[int, ...]:
        levels = [1] * len(self.points)
        for i in self._topo:
            below = self._down[i]
            if below:
                levels[i] = 1 + max(levels[j] for j in below)
        return tuple(levels)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"Poset({len(self.points)} points, {len(self.covers)} covers)"


@dataclass(frozen=True)
class BeatReport:
    """Points with a unique upper cover (up beats) or lower cover (down beats)."""

    up_beats: frozenset[str]
    down_beats: frozenset[str]


def make_poset(points, covers) -> Poset:
    """Build a validated Poset from any iterables of points and pairs."""
    return Poset(tuple(points), frozenset((x, y) for x, y in covers))


def _require(p: Poset, x: str) -> int:
    idx = p._index.get(x)
    if idx is None:
        raise KeyError(f"no such point: {x!r}")
    return idx


def level_of(p: Poset, x: str) -> int:
    """Length of the longest chain ending at x; minimal points have level 1."""
    return p._levels[_require(p, x)]


def hasse_degree(p: Poset, x: str) -> int:
    """Number of covering pairs incident to x, counting both directions."""
    i = _require(p, x)
    return len(p._up[i]) + len(p._down[i])


def beat_points(p: Poset) -> BeatReport:
    """Classify points by cover counts.

    A point with exactly one upper cover is an up beat; one lower cover, a
    down beat.  For a poset this coincides with the order-theoretic
    condition that the strict up-set (down-set) has a minimum (maximum).
    """
    up = frozenset(x for i, x in enumerate(p.points) if len(p._up[i]) == 1)
    down = frozenset(x for i, x in enumerate(p.points) if len(p._down[i]) == 1)
    return BeatReport(up_beats=up, down_beats=down)


def is_minimal(p: Poset) -> bool:
    """True iff the poset has no beat points of either kind."""
    report = beat_points(p)
    return not report.up_beats and not report.down_beats


def _covers_from_strict_up(points: tuple[str, ...], masks: list[int]) -> frozenset[Cover]:
    """Covering pairs of the strict order given as up-set bitmasks."""
    covers = set()
    for i, p in enumerate(points):
        above = masks[i]
        # y covers i iff y is above i but not above any other point above i.
        implied = 0
        m = above
        while m:
            j = (m & -m).bit_length() - 1
            implied |= masks[j]
            m &= m - 1
        direct = above & ~implied
        while direct:
            j = (direct & -direct).bit_length() - 1
            covers.add((p, points[j]))
            direct &= direct - 1
    return frozenset(covers)


def _delete_point(p: Poset, x: str) -> Poset:
    """Remove x, keeping the order induced on the remaining points."""
    gone = _require(p, x)
    masks = [m & ~(1 << gone) for m in p._strict_up]
    masks[gone] = 0
    covers = _covers_from_strict_up(p.points, masks)
    return Poset(tuple(y for y in p.points if y != x), covers)


def core(p: Poset) -> Poset:
    """Strip beat points one at a time until none remain.

    Removing a beat point keeps the induced order on the remaining points
    (relations through the removed point are preserved), so the result is
    homotopy equivalent to the input and satisfies ``is_minimal``.  The
    beat point earliest in ``points`` order is removed at each step, which
    makes the output deterministic.
    """
    current = p
    while True:
        report = beat_points(current)
        beats = report.up_beats | report.down_beats
        if not beats:
            return current
        victim = next(x for x in current.points if x in beats)
        current = _delete_point(current, victim)


# -- serialization -----------------------------------------------------


def poset_to_json_dict(p: Poset) -> dict:
    return {
        "points": list(p.points),
        "covers": [list(c) for c in sorted(p.covers)],
    }


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


def poset_to_json(p: Poset) -> str:
    return json.dumps(poset_to_json_dict(p), indent=2)


def poset_from_json(text: str) -> Poset:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed poset JSON: {exc}") from exc
    return poset_from_json_dict(data)


def poset_to_dot(p: Poset, name: str = "poset") -> str:
    """DOT text with one rank per level, covers drawn bottom-to-top."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=point];"]
    by_level: dict[int, list[str]] = {}
    for i, x in enumerate(p.points):
        by_level.setdefault(p._levels[i], []).append(x)
    for lvl in sorted(by_level):
        row = " ".join(f"{_quote(x)};" for x in by_level[lvl])
        lines.append(f"  {{ rank=same; {row} }}")
    for x, y in sorted(p.covers):
        lines.append(f"  {_quote(x)} -> {_quote(y)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
