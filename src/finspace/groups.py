"""Finite groups as multiplication tables, plus colored Cayley graphs.

A group is an ordered element list, a multiplication table over element
indices, and a distinguished generator list.  The Cayley graph uses left
multiplication: for each element g and each generator g_k there is one
directed edge (g, g_k * g) carrying color k, so right translations
g -> g * h act as color-preserving graph automorphisms.  Groups given
by permutations, the symmetric groups among them, are enumerated by one
breadth-first closure that also derives their table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import itemgetter

from .digraph import ColoredDigraph, make_digraph

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

    Invariants checked at construction: the table is a group operation
    (identity law, inverses via the latin-square property, associativity
    by Light's test on a generating set, exact at every order), the
    generators are distinct non-identity elements, and they generate the
    whole group.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.elements)
        if n == 0:
            raise ValueError("a group needs at least one element")
        if len(set(self.elements)) != n:
            raise ValueError("duplicate element names")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("table must be |G| x |G|")
        e = self.identity
        if not (0 <= e < n):
            raise ValueError("identity index out of range")
        if any(self.table[e][j] != j or self.table[j][e] != j for j in range(n)):
            raise ValueError("identity law fails")
        every = set(range(n))
        if any(set(row) != every for row in self.table):
            raise ValueError("rows must be permutations of the element indices")
        if any(len(set(col)) != n for col in zip(*self.table)):
            raise ValueError("columns must be permutations (missing inverses)")
        self._check_associativity()
        if not self.generators:
            raise ValueError("a generating set is required")
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generators must be pairwise distinct")
        if any(g == e for g in self.generators):
            raise ValueError("the identity is not allowed as a generator")
        if any(not (0 <= g < n) for g in self.generators):
            raise ValueError("generator index out of range")
        if len(self._closure(self.generators)) != n:
            raise ValueError("generators do not generate the group")

    def _check_associativity(self) -> None:
        """Light's test: (x*s)*y = x*(s*y) for all x, y and each s of a
        generating set.  The elements s passing it include e and are closed
        under products, so it is exact once the set generates the table.
        The set is the given generators that are in range and not e,
        extended by the smallest unreached element until ``_closure``
        covers the table."""
        n = len(self.elements)
        t = self.table
        seed = tuple(g for g in self.generators if 0 <= g < n and g != self.identity)
        reached = self._closure(seed)
        while len(reached) < n:
            seed += (min(set(range(n)) - reached),)
            reached = self._closure(seed)
        for s in seed:
            # row x -> (x*(s*y) for y); s is not e, so n >= 2 and rows are tuples
            times_s = itemgetter(*t[s])
            for x in range(n):
                if t[t[x][s]] != times_s(t[x]):
                    raise ValueError("multiplication table is not associative")

    def _closure(self, seed: tuple[int, ...]) -> set[int]:
        reached = {self.identity}
        frontier = [self.identity]
        while frontier:
            x = frontier.pop()
            for g in seed:
                y = self.table[g][x]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        return reached

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(self.identity)

    def element_order(self, i: int) -> int:
        n = 1
        x = i
        while x != self.identity:
            x = self.table[x][i]
            n += 1
        return n

    def __repr__(self) -> str:
        gens = ", ".join(self.elements[g] for g in self.generators)
        return f"FiniteGroup(order={self.order}, generators=[{gens}])"


def _enumerate(gens: list[Perm], max_order: int) -> tuple[list[Perm], list[str], tuple]:
    """Permutations, word names and multiplication table of the group
    generated by ``gens``, in breadth-first order from the identity.

    Closure runs over right multiplication, so element k is the generator
    g_k for k >= 1.  Each element y = x*g_k is found from an earlier x, so
    its row is a permutation of x's row, y*z = x*(g_k*z): the table costs
    |G|*|gens| compositions, not |G|^2.
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
    tree: list[tuple[int, int]] = []  # (index of x, k) per y = x*gens[k] after e
    for i, x in enumerate(perms):  # perms grows while read: a FIFO queue
        for k, g in enumerate(gens):
            y = _compose(x, g)
            if y not in index:
                if len(perms) >= max_order:
                    raise ValueError(
                        f"group too large: order exceeds the cap of {max_order}"
                    )
                index[y] = len(perms)
                perms.append(y)
                names.append(f"g{k + 1}" if i == 0 else f"{names[i]}*g{k + 1}")
                tree.append((i, k))
    # left[k][z] is the index of gens[k]*z
    left = [[index[_compose(g, p)] for p in perms] for g in gens]
    rows = [tuple(range(len(perms)))]
    for parent, k in tree:
        rows.append(tuple(map(rows[parent].__getitem__, left[k])))
    return perms, names, tuple(rows)


def group_from_permutations(
    perm_generators, *, max_order: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Enumerate the group generated by permutations of {0..m-1}.

    Breadth-first closure over right multiplication; element names are the
    shortest words in the generators, lexicographically least among the
    shortest ("e", "g1", "g1*g2", ...).
    """
    gens = [tuple(p) for p in perm_generators]
    _, names, table = _enumerate(gens, max_order)
    return FiniteGroup(
        elements=tuple(names),
        table=table,
        identity=0,
        generators=tuple(range(1, len(gens) + 1)),
    )


def cyclic(m: int) -> FiniteGroup:
    """Cyclic group of order m >= 2 with the single generator "x"."""
    if m < 2:
        raise ValueError("cyclic group needs order >= 2 (no identity generators)")
    names = ["e", "x"] + [f"x{i}" for i in range(2, m)]
    table = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
    return FiniteGroup(tuple(names), table, identity=0, generators=(1,))


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given even order 2m, m >= 3.

    Elements are t^i * s^j with t the rotation of order m and s a
    reflection; generators are (t, s).
    """
    if order % 2 != 0 or order < 6:
        raise ValueError("dihedral group needs even order >= 6")
    m = order // 2

    def name(i: int, j: int) -> str:
        if i == 0 and j == 0:
            return "e"
        t = "" if i == 0 else ("t" if i == 1 else f"t{i}")
        s = "s" if j == 1 else ""
        return f"{t}*{s}" if t and s else t + s

    def idx(i: int, j: int) -> int:
        return i + m * j

    names = [name(i, j) for j in (0, 1) for i in range(m)]
    table = [[0] * order for _ in range(order)]
    for a, b in product(range(m), (0, 1)):
        for c, d in product(range(m), (0, 1)):
            i = (a + (c if b == 0 else -c)) % m
            table[idx(a, b)][idx(c, d)] = idx(i, (b + d) % 2)
    return FiniteGroup(
        tuple(names),
        tuple(tuple(row) for row in table),
        identity=0,
        generators=(idx(1, 0), idx(0, 1)),
    )


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
    perms, _, table = _enumerate(gens, DEFAULT_ORDER_CAP)
    return FiniteGroup(
        elements=tuple(cycle_name(p) for p in perms),
        table=table,
        identity=0,
        generators=tuple(range(1, len(gens) + 1)),
    )


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; generators embed each factor's generators."""
    nh = h.order

    def idx(i: int, j: int) -> int:
        return i * nh + j

    names = tuple(
        f"({a},{b})" for a in g.elements for b in h.elements
    )
    table = tuple(
        tuple(idx(g.table[a][c], h.table[b][d]) for c in range(g.order) for d in range(nh))
        for a in range(g.order)
        for b in range(nh)
    )
    gens = tuple(idx(k, h.identity) for k in g.generators) + tuple(
        idx(g.identity, k) for k in h.generators
    )
    return FiniteGroup(
        elements=names,
        table=table,
        identity=idx(g.identity, h.identity),
        generators=gens,
    )


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


def cayley_graph(g: FiniteGroup) -> ColoredDigraph:
    """Colored directed Cayley graph of g on its chosen generators.

    One edge (x, g_k * x) of color k per element x and generator g_k; a
    generator of order 2 yields antiparallel edge pairs of its color.
    """
    edges = []
    for k, gen in enumerate(g.generators, start=1):
        for x in range(g.order):
            edges.append((g.elements[x], g.elements[g.table[gen][x]], k))
    return make_digraph(g.elements, edges)


def right_translation(g: FiniteGroup, h: int) -> Perm:
    """The vertex permutation x -> x * h of cayley_graph(g), as an index map."""
    if not (0 <= h < g.order):
        raise ValueError(f"no element with index {h}")
    return tuple(g.table[x][h] for x in range(g.order))
