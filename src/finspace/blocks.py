"""An infinite family of rigid two-level posets used as building blocks.

Block k lives on 2k+8 points split into two levels of n = k+4 points each.
Per level there are two points of degree 2 (named "a" and "b") and one
point of degree i for each i in 3..n (named "t3".."tn").  The wiring:

  * a is joined to the other level's a and to its tn;
  * b is joined to the other level's tn and t(n-1);
  * ti on one level is joined to tj on the other iff i + j >= n + 1.

These degree constraints leave no nontrivial self-map: points of degree
above 2 are pinned by (level, degree), and a and b differ in the degrees
of their neighbors, so the Hasse digraph of every block is asymmetric.
No point has a unique cover in either direction, so each block is minimal.
``engine.family_checks`` audits both claims with the search engine.
"""

from __future__ import annotations

from .poset import Poset, make_poset


def _names(n: int, side: str) -> list[str]:
    return [f"a/{side}", f"b/{side}"] + [f"t{i}/{side}" for i in range(3, n + 1)]


def asymmetric_block(k: int) -> Poset:
    """Build block k: the two-level poset described in the module docstring.

    The bottom level is level 1.  Point names are "a", "b", "t3".."tn"
    suffixed with "/bot" or "/top" so they compose with assembly prefixes.
    """
    if k < 0:
        raise ValueError("block index k must be >= 0")
    n = k + 4
    points = _names(n, "bot") + _names(n, "top")
    covers: set[tuple[str, str]] = set()

    covers.add(("a/bot", "a/top"))
    covers.add(("a/bot", f"t{n}/top"))
    covers.add((f"t{n}/bot", "a/top"))

    covers.add(("b/bot", f"t{n}/top"))
    covers.add(("b/bot", f"t{n - 1}/top"))
    covers.add((f"t{n}/bot", "b/top"))
    covers.add((f"t{n - 1}/bot", "b/top"))

    for i in range(3, n + 1):
        for j in range(3, n + 1):
            if i + j >= n + 1:
                covers.add((f"t{i}/bot", f"t{j}/top"))

    return make_poset(points, covers)


def block_edge_count(k: int) -> int:
    """Closed form for the number of covering pairs in block k."""
    n = k + 4
    return n * (n + 1) // 2 + 1
