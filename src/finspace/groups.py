"""Finite groups kept as their generators' rows and columns; Cayley graphs.

A group is an ordered element list, an identity, a distinguished generator
list and, per generator g_k, its left row (x -> g_k * x) and its right
column (x -> x * g_k), as tuples of element indices.  No |G| x |G| table
is kept: that is all the realization reads.  The Cayley graph uses left
multiplication, one directed edge (x, g_k * x) of color k per element x
and generator g_k, so right translations x -> x * h act as
color-preserving graph automorphisms; ``right_translation`` gives the one
by any h, walking a word for h in the generators over their columns.
One breadth-first walk over columns x -> x * g_k, ``_column_walk``, is
the only way this module reaches elements from the identity: it finds
those words, checks that a table's generators generate it, and grows the
seed of Light's test.

The constructors differ in why the rows and columns are a group's:

- ``group_from_permutations`` and ``symmetric`` enumerate a closure of
  permutations breadth-first.  Composition is associative and the closure
  is exact, so the result is a group by construction.  The pass composes
  x * g_k for every x, which gives the columns; the rows g_k * x cost
  |S|*n more compositions.
- ``cyclic``, ``dihedral`` and ``direct_product`` write them in closed
  form, a product from its factors' rows and columns.
- ``FiniteGroup(elements, table, identity, generators)`` takes a full table
  and certifies it on a generating set alone: each generator's row must
  permute the element indices, its column must hold element indices, and
  Light's associativity test must pass for it.  That work is |S|*n for the
  latin checks plus |S|*n^2 for Light's test, and it implies latin rows and
  columns and full associativity (proof in
  ``FiniteGroup._passes_light_test``).  Then the table is dropped.

The first two enter through the private ``FiniteGroup._from_checked``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .digraph import ColoredDigraph

DEFAULT_ORDER_CAP = 10_000

Perm = tuple[int, ...]


def _compose(p: Perm, q: Perm) -> Perm:
    """Product p*q: apply q first, then p."""
    return tuple(map(p.__getitem__, q))


def _is_perm(p) -> bool:
    return (
        isinstance(p, (list, tuple))
        and all(isinstance(v, int) for v in p)
        and sorted(p) == list(range(len(p)))
    )


def cycle_name(p: Perm, names=None) -> str:
    """Canonical cycle-notation name; the identity is named "e".

    Points print as their indices, or as ``names[i]`` when names are given.
    """
    if names is None:
        names = range(len(p))
    seen: set[int] = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(str(names[v]) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group with a chosen generating set.

    ``rows[k][x]`` is the index of g_k * x and ``cols[k][x]`` that of
    x * g_k, for g_k = ``generators[k]``.  ``FiniteGroup(elements, table,
    identity, generators)`` checks that the table is a group operation
    (identity law, latin rows and columns, associativity), the generators
    are distinct non-identity elements, and they generate the whole group;
    then it keeps only the generators' rows and columns.  All but the
    identity law are certified by ``_passes_light_test`` on a generating
    set alone, exactly at every order; only a failing table pays for the
    full row and column checks that name its fault.
    """

    elements: tuple[str, ...]
    table: InitVar[tuple[tuple[int, ...], ...]]
    identity: int
    generators: tuple[int, ...]
    rows: tuple[Perm, ...] = field(init=False)
    cols: tuple[Perm, ...] = field(init=False)

    def __post_init__(self, table) -> None:
        n = len(self.elements)
        if n == 0:
            raise ValueError("a group needs at least one element")
        if len(set(self.elements)) != n:
            raise ValueError("duplicate element names")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table must be |G| x |G|")
        e = self.identity
        if not (0 <= e < n):
            raise ValueError("identity index out of range")
        if any(table[e][j] != j or table[j][e] != j for j in range(n)):
            raise ValueError("identity law fails")
        if not self._passes_light_test(table):
            every = set(range(n))
            if any(set(row) != every for row in table):
                raise ValueError("rows must be permutations of the element indices")
            if any(len(set(col)) != n for col in zip(*table)):
                raise ValueError("columns must be permutations (missing inverses)")
            raise ValueError("multiplication table is not associative")
        if not self.generators:
            raise ValueError("a generating set is required")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generators must be pairwise distinct")
        if any(g == e for g in self.generators):
            raise ValueError("the identity is not allowed as a generator")
        if any(not (0 <= g < n) for g in self.generators):
            raise ValueError("generator index out of range")
        rows = tuple(tuple(table[g]) for g in self.generators)
        cols = tuple(tuple(map(itemgetter(g), table)) for g in self.generators)
        if None in _column_walk(cols, e, n):
            raise ValueError("generators do not generate the group")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def _from_checked(cls, elements, identity, generators, rows, cols) -> FiniteGroup:
        """A group from parts known to be right, which this constructor does
        not check: ``rows`` and ``cols`` were computed from permutations or
        in closed form as the generators' left rows and right columns in a
        group on ``elements``, and the generators are distinct non-identity
        elements that generate it.  Only the constructors below call it."""
        g = object.__new__(cls)
        object.__setattr__(g, "elements", elements)
        object.__setattr__(g, "identity", identity)
        object.__setattr__(g, "generators", generators)
        object.__setattr__(g, "rows", rows)
        object.__setattr__(g, "cols", cols)
        return g

    def _passes_light_test(self, t) -> bool:
        """True iff the table t (identity law already checked) is a group.

        The seed S is the given generators that are in range and not e,
        extended by the smallest unreached element until ``_column_walk``
        over the seeds' columns covers the table.  Each s in S, before the
        walk uses it, must have a row that permutes range(n) and a column
        of in-range indices; then Light's test (Clifford and Preston 1961,
        section 1.2) checks (x*s)*y = x*(s*y) for all x, y, that is
        row(x*s) = row(x) o row(s).

        Why that is exact: call a product ((s1*s2)*...)*sk of seeds
        left-associated, and e the empty one.  By induction on k, each such
        a = b*s has row(a) = row(b) o row(s), a permutation; its column
        holds x*a = (x*b)*s, in range; and (x*a)*y = ((x*b)*s)*y =
        (x*b)*(s*y) = x*(b*(s*y)) = x*((b*s)*y) = x*(a*y), every step by
        Light's test for s or the claim for b, on in-range indices only.
        The walk reaches each element as x*s with x reached before it, so
        as a left-associated product, and it reaches them all: every row
        is a permutation and the table is associative.  A monoid whose
        rows are permutations has right inverses, so it is a group, and
        its columns are latin too.  Conversely a group passes every check.
        """
        n = len(self.elements)
        every = set(range(n))

        def valid(s: int) -> bool:
            return set(t[s]) == every and every.issuperset(map(itemgetter(s), t))

        e = self.identity
        seed = [g for g in self.generators if 0 <= g < n and g != e]
        if not all(map(valid, seed)):
            return False
        while None in (tree := _column_walk([[row[s] for row in t] for s in seed], e, n)):
            s = tree.index(None)
            if not valid(s):
                return False
            seed.append(s)
        for s in seed:
            # row x -> (x*(s*y) for y); s is not e, so n >= 2 and rows are tuples
            times_s = itemgetter(*t[s])
            for x in range(n):
                if t[t[x][s]] != times_s(t[x]):
                    return False
        return True

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _tree(self) -> list:
        """``_column_walk`` over the generators' columns."""
        return _column_walk(self.cols, self.identity, self.order)

    def __repr__(self) -> str:
        gens = ", ".join(self.elements[g] for g in self.generators)
        return f"FiniteGroup(order={self.order}, generators=[{gens}])"


def _column_walk(cols, identity: int, n: int) -> list:
    """The breadth-first walk from the identity over columns x -> x * g_k,
    one per ``cols[k]``: per element y, (x, k) with y = x * g_k and x
    reached before y, () for the identity and None where y is not reached."""
    tree: list = [None] * n
    tree[identity] = ()
    reached = [identity]
    for x in reached:  # reached grows while read: a FIFO queue
        for k, col in enumerate(cols):
            y = col[x]
            if tree[y] is None:
                tree[y] = (x, k)
                reached.append(y)
    return tree


def _check_order(order: int) -> None:
    if order > DEFAULT_ORDER_CAP:
        raise ValueError(f"group too large: order exceeds the cap of {DEFAULT_ORDER_CAP}")


def _enumerate(gens: list[Perm]) -> tuple[list[Perm], list[str], tuple, tuple]:
    """Permutations, word names, and the generators' rows and columns of
    the group generated by ``gens``, in breadth-first order from the
    identity.

    Closure runs over right multiplication, so element k is the generator
    g_k for k >= 1, and the pass finds x*g_k for every x and k: those are
    the generators' columns.  Their rows, g_k*x, cost |G|*|gens| more
    compositions.
    """
    if not gens:
        raise ValueError("at least one permutation generator is required")
    m = len(gens[0])
    for p in gens:
        if not _is_perm(p) or len(p) != m:
            raise ValueError(f"not a permutation of 0..{m - 1}: {list(p)!r}")
    ident = tuple(range(m))
    if ident in gens:
        raise ValueError("the identity is not allowed as a generator")
    if len(set(gens)) != len(gens):
        raise ValueError("generators must be pairwise distinct")

    index: dict[Perm, int] = {ident: 0}
    perms: list[Perm] = [ident]
    names: list[str] = ["e"]
    cols: list[list[int]] = [[] for _ in gens]
    for i, x in enumerate(perms):  # perms grows while read: a FIFO queue
        for k, g in enumerate(gens):
            y = _compose(x, g)
            j = index.setdefault(y, len(perms))
            if j == len(perms):
                _check_order(j + 1)
                perms.append(y)
                names.append(f"g{k + 1}" if i == 0 else f"{names[i]}*g{k + 1}")
            cols[k].append(j)
    rows = tuple(tuple(index[_compose(g, p)] for p in perms) for g in gens)
    return perms, names, rows, tuple(map(tuple, cols))


def group_from_permutations(perm_generators) -> FiniteGroup:
    """Enumerate the group generated by permutations of {0..m-1}.

    Breadth-first closure over right multiplication; element names are the
    shortest words in the generators, lexicographically least among the
    shortest ("e", "g1", "g1*g2", ...).
    """
    gens = [tuple(p) for p in perm_generators]
    _, names, rows, cols = _enumerate(gens)
    return FiniteGroup._from_checked(
        tuple(names), 0, tuple(range(1, len(gens) + 1)), rows, cols
    )


def cyclic(m: int) -> FiniteGroup:
    """Cyclic group of order 2 <= m <= DEFAULT_ORDER_CAP, generator "x"."""
    if m < 2:
        raise ValueError("cyclic group needs order >= 2 (no identity generators)")
    _check_order(m)
    names = ["e", "x"] + [f"x{i}" for i in range(2, m)]
    shift = tuple(range(1, m)) + (0,)
    return FiniteGroup._from_checked(tuple(names), 0, (1,), (shift,), (shift,))


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given even order 2m, m >= 3, at most the cap.

    Elements are t^i * s^j with t the rotation of order m and s a
    reflection; generators are (t, s).
    """
    if order % 2 != 0 or order < 6:
        raise ValueError("dihedral group needs even order >= 6")
    _check_order(order)
    m = order // 2

    def name(i: int, j: int) -> str:
        if i == 0 and j == 0:
            return "e"
        t = "" if i == 0 else ("t" if i == 1 else f"t{i}")
        s = "s" if j == 1 else ""
        return f"{t}*{s}" if t and s else t + s

    # t^i * s^j is element i + m*j, and (t^a * s^b) * (t^c * s^d) is
    # t^(a + c) * s^(b+d) for b = 0 and t^(a - c) * s^(b+d) for b = 1.  So
    # t * t^c * s^d is t^(c+1) * s^d and s * t^c * s^d is t^(-c) * s^(1-d);
    # t^a * s^b * t is t^(a+1) or, for b = 1, t^(a-1) * s; and t^a * s^b * s
    # is t^a * s^(1-b).
    r, s = tuple(range(m)), tuple(range(m, order))
    rows = (r[1:] + r[:1] + s[1:] + s[:1], s[:1] + s[:0:-1] + r[:1] + r[:0:-1])
    cols = (r[1:] + r[:1] + s[-1:] + s[:-1], s + r)
    names = tuple(name(i, j) for j in (0, 1) for i in range(m))
    return FiniteGroup._from_checked(names, 0, (1, m), rows, cols)


def symmetric(m: int) -> FiniteGroup:
    """Symmetric group on {0..m-1}, m >= 2, elements named in cycle notation.

    Generators: the transposition (0 1), plus the m-cycle (0 1 .. m-1)
    when m >= 3.  Elements are in the breadth-first order of
    ``group_from_permutations``, under the same order cap (so m <= 7).
    """
    if m < 2:
        raise ValueError("symmetric group needs degree >= 2")
    swap = tuple([1, 0] + list(range(2, m)))
    gens: list[Perm] = [swap]
    if m >= 3:
        gens.append(tuple(list(range(1, m)) + [0]))
    perms, _, rows, cols = _enumerate(gens)
    return FiniteGroup._from_checked(
        tuple(map(cycle_name, perms)), 0, tuple(range(1, len(gens) + 1)), rows, cols
    )


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; generators embed each factor's generators."""
    _check_order(g.order * h.order)
    nh = h.order
    names = tuple(f"({a},{b})" for a in g.elements for b in h.elements)
    # (a, b) is element a*nh + b.  A generator of g moves a alone, one of h
    # moves b alone, each by its row or its column in its factor.
    blocks = [range(a * nh, a * nh + nh) for a in range(g.order)]

    def on_g(perm: Perm) -> Perm:
        return tuple(chain.from_iterable(map(blocks.__getitem__, perm)))

    def on_h(perm: Perm) -> Perm:
        return tuple(base + y for base in range(0, g.order * nh, nh) for y in perm)

    return FiniteGroup._from_checked(
        names,
        g.identity * nh + h.identity,
        tuple(k * nh + h.identity for k in g.generators)
        + tuple(g.identity * nh + k for k in h.generators),
        tuple(map(on_g, g.rows)) + tuple(map(on_h, h.rows)),
        tuple(map(on_g, g.cols)) + tuple(map(on_h, h.cols)),
    )


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


def cayley_graph(g: FiniteGroup) -> ColoredDigraph:
    """Colored directed Cayley graph of g on its chosen generators.

    One edge (x, g_k * x) of color k per element x and generator g_k; a
    generator of order 2 yields antiparallel edge pairs of its color.
    """
    layers = ((k, tuple((y,) for y in row)) for k, row in enumerate(g.rows, 1))
    return ColoredDigraph(g.elements, tuple(layers))


def right_translation(g: FiniteGroup, h: int) -> Perm:
    """The vertex permutation x -> x * h of cayley_graph(g), as an index map.

    Walks a word g_k1 * ... * g_kr for h, read off the breadth-first tree
    ``g._tree``, and composes the generators' columns in word order:
    x * h = ((x * g_k1) * ...) * g_kr.
    """
    if not (0 <= h < g.order):
        raise ValueError(f"no element with index {h}")
    word = []
    while h != g.identity:
        h, k = g._tree[h]
        word.append(k)
    col = tuple(range(g.order))
    for k in reversed(word):
        col = tuple(map(g.cols[k].__getitem__, col))
    return col
