import pytest

from finspace import (
    cayley_graph,
    cyclic,
    dihedral,
    direct_product,
    group_from_permutations,
    klein_four,
    right_translation,
    symmetric,
)
from finspace.groups import _compose, cycle_name


# -- enumeration from permutations -----------------------------------------


def test_three_cycle_generates_order_three():
    g = group_from_permutations([(1, 2, 0)])
    assert g.order == 3
    assert g.elements[0] == "e"


def test_s3_from_cycle_and_transposition():
    g = group_from_permutations([(1, 2, 0), (1, 0, 2)])
    assert g.order == 6  # 3! elements


def test_word_names_are_shortest_lexicographic():
    g = group_from_permutations([(1, 2, 0), (1, 0, 2)])
    assert g.elements[:3] == ("e", "g1", "g2")
    assert all("*" in name for name in g.elements[3:])


def test_identity_generator_rejected():
    with pytest.raises(ValueError, match="identity"):
        group_from_permutations([(0, 1, 2)])


def test_non_bijection_rejected():
    with pytest.raises(ValueError, match="not a permutation"):
        group_from_permutations([(0, 0, 1)])


def test_duplicate_generators_rejected():
    with pytest.raises(ValueError, match="distinct"):
        group_from_permutations([(1, 0, 2), (1, 0, 2)])


def test_order_cap():
    with pytest.raises(ValueError, match="group too large"):
        group_from_permutations([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], max_order=100)


def test_symmetric_shares_the_order_cap():
    # S8 has 40320 elements; the cap stops enumeration before any table
    with pytest.raises(ValueError, match="group too large"):
        symmetric(8)


def _assert_composition_table(g, perms):
    """table[i][j] is the index of perms[i] * perms[j] (apply j first)."""
    index = {p: i for i, p in enumerate(perms)}
    assert len(index) == g.order
    for i, p in enumerate(perms):
        assert g.table[i] == tuple(index[_compose(p, q)] for q in perms)


def _from_cycle_name(name, m):
    image = list(range(m))
    for cycle in name.strip("()").split(")(") if name != "e" else []:
        points = [int(v) for v in cycle.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            image[a] = b
    return tuple(image)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_symmetric_table_composes_its_named_permutations(m):
    g = symmetric(m)
    perms = [_from_cycle_name(name, m) for name in g.elements]
    assert [cycle_name(p) for p in perms] == list(g.elements)
    _assert_composition_table(g, perms)


def test_word_table_composes_its_named_words():
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    g = group_from_permutations(gens)
    perms = []
    for name in g.elements:
        p = (0, 1, 2, 3)
        for word in name.split("*") if name != "e" else []:
            p = _compose(p, gens[int(word[1:]) - 1])
        perms.append(p)
    assert g.order == 24
    _assert_composition_table(g, perms)


# -- named families ---------------------------------------------------------


def test_cyclic_basics():
    g = cyclic(3)
    assert g.order == 3
    assert len(g.generators) == 1
    assert g.element_order(g.generators[0]) == 3


def test_cyclic_rejects_trivial():
    with pytest.raises(ValueError):
        cyclic(1)


def test_dihedral_basics():
    g = dihedral(6)
    assert g.order == 6
    assert len(g.generators) == 2
    assert g.element_order(g.generators[0]) == 3
    assert g.element_order(g.generators[1]) == 2


def test_dihedral_relation():
    # t*s*t*s = e, i.e. s*t*s^-1 = t^-1
    g = dihedral(8)
    t, s = g.generators
    x = g.mul(g.mul(g.mul(t, s), t), s)
    assert x == g.identity


def test_dihedral_rejects_odd_or_small_order():
    with pytest.raises(ValueError):
        dihedral(7)
    with pytest.raises(ValueError):
        dihedral(4)


def test_symmetric_orders():
    assert symmetric(2).order == 2
    assert symmetric(3).order == 6
    assert symmetric(4).order == 24
    with pytest.raises(ValueError):
        symmetric(1)


def test_symmetric_cycle_names():
    g = symmetric(3)
    assert "e" in g.elements
    assert "(0 1)" in g.elements
    assert "(0 1 2)" in g.elements


def test_cycle_name_with_point_names():
    assert cycle_name((1, 2, 0, 3)) == "(0 1 2)"
    assert cycle_name((1, 0, 3, 2), ("a", "b", "c", "d")) == "(a b)(c d)"
    assert cycle_name((0, 1), ("a", "b")) == "e"


def test_klein_four_element_orders():
    g = klein_four()
    orders = sorted(g.element_order(i) for i in range(g.order))
    assert orders == [1, 2, 2, 2]
    assert len(g.generators) == 2


def test_direct_product_of_cyclics():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    orders = sorted(g.element_order(i) for i in range(6))
    assert orders == [1, 2, 3, 3, 6, 6]


# -- Cayley graphs ---------------------------------------------------------


def test_cayley_of_cyclic3_is_directed_triangle():
    g = cyclic(3)
    graph = cayley_graph(g)
    assert len(graph.vertices) == 3
    assert graph.edges == {("e", "x", 1), ("x", "x2", 1), ("x2", "e", 1)}


def test_cayley_of_cyclic2_has_antiparallel_pair():
    graph = cayley_graph(cyclic(2))
    assert graph.edges == {("e", "x", 1), ("x", "e", 1)}


def test_cayley_of_dihedral6_edge_profile():
    graph = cayley_graph(dihedral(6))
    by_color = {}
    for s, t, c in graph.edges:
        by_color.setdefault(c, set()).add((s, t))
    assert len(by_color[1]) == 6
    assert len(by_color[2]) == 6
    # color 2 comes from an involution: edges pair up antiparallel
    assert all((t, s) in by_color[2] for s, t in by_color[2])
    # color 1 has no antiparallel pairs (rotation of order 3)
    assert all((t, s) not in by_color[1] for s, t in by_color[1])


def test_cayley_edge_count_and_degrees():
    for g in (cyclic(4), dihedral(6), symmetric(3)):
        graph = cayley_graph(g)
        n = len(g.generators)
        assert len(graph.edges) == n * g.order
        outdeg = {v: 0 for v in graph.vertices}
        indeg = {v: 0 for v in graph.vertices}
        for s, t, _ in graph.edges:
            outdeg[s] += 1
            indeg[t] += 1
        assert set(outdeg.values()) == {n}
        assert set(indeg.values()) == {n}


def test_cayley_strongly_connected():
    for g in (cyclic(5), dihedral(8), symmetric(3)):
        graph = cayley_graph(g)
        succ = {v: [] for v in graph.vertices}
        pred = {v: [] for v in graph.vertices}
        for s, t, _ in graph.edges:
            succ[s].append(t)
            pred[t].append(s)
        for adj in (succ, pred):
            seen = {graph.vertices[0]}
            stack = [graph.vertices[0]]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            assert len(seen) == len(graph.vertices)


# -- right translations ------------------------------------------------------


def test_right_translation_by_identity():
    g = dihedral(6)
    assert right_translation(g, g.identity) == tuple(range(6))


def test_right_translations_preserve_colored_edges_exhaustively():
    for g in (cyclic(4), klein_four(), dihedral(6), symmetric(3), symmetric(4)):
        graph = cayley_graph(g)
        index = {v: i for i, v in enumerate(graph.vertices)}
        edges = {(index[s], index[t], c) for s, t, c in graph.edges}
        for h in range(g.order):
            perm = right_translation(g, h)
            assert {(perm[s], perm[t], c) for s, t, c in edges} == edges


def test_right_translation_injective_in_h():
    g = dihedral(8)
    images = {right_translation(g, h)[g.identity] for h in range(g.order)}
    assert len(images) == g.order


def test_reflection_translation_is_fixed_point_free_involution():
    g = dihedral(6)
    sigma = g.generators[1]
    perm = right_translation(g, sigma)
    assert all(perm[x] != x for x in range(6))
    assert all(perm[perm[x]] == x for x in range(6))


def test_right_translation_out_of_range():
    with pytest.raises(ValueError):
        right_translation(cyclic(3), 5)


# -- table validation --------------------------------------------------------


def test_table_validation_catches_broken_identity():
    from finspace import FiniteGroup

    with pytest.raises(ValueError, match="identity law"):
        FiniteGroup(
            elements=("e", "x"),
            table=((1, 1), (1, 1)),
            identity=0,
            generators=(1,),
        )


def test_table_validation_catches_non_generating_set():
    from finspace import FiniteGroup

    # Z/4 with "generator" x^2
    table = tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))
    with pytest.raises(ValueError, match="generate"):
        FiniteGroup(
            elements=("e", "x", "x2", "x3"),
            table=table,
            identity=0,
            generators=(2,),
        )


def test_table_validation_catches_non_associative():
    from finspace import FiniteGroup

    # a latin square with identity row/column that is not a group table
    table = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(
            elements=("e", "a", "b", "c", "d"),
            table=table,
            identity=0,
            generators=(1,),
        )


def test_table_validation_is_exact_above_order_64():
    """An intercalate swap in Z66 keeps a latin square with identity but
    breaks associativity at 1008 of the 287496 triples."""
    from finspace import FiniteGroup

    base = cyclic(66)
    table = [list(row) for row in base.table]
    # rows 1 and 34, columns 2 and 35 hold the 2x2 square [[3, 36], [36, 3]]
    for r in (1, 34):
        table[r][2], table[r][35] = table[r][35], table[r][2]
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(
            elements=base.elements,
            table=tuple(tuple(row) for row in table),
            identity=0,
            generators=(1,),
        )


def test_table_validation_catches_repeated_row_entry():
    from finspace import FiniteGroup

    # identity law holds; row 1 repeats 0
    table = ((0, 1, 2, 3), (1, 0, 0, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    with pytest.raises(ValueError, match="rows must be permutations"):
        FiniteGroup(
            elements=("e", "a", "b", "c"), table=table, identity=0, generators=(1,)
        )


def test_table_validation_catches_out_of_range_entry():
    from finspace import FiniteGroup

    # identity law holds; row 1 holds 4, which names no element
    table = ((0, 1, 2, 3), (1, 4, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    with pytest.raises(ValueError, match="rows must be permutations"):
        FiniteGroup(
            elements=("e", "a", "b", "c"), table=table, identity=0, generators=(1,)
        )


def test_table_validation_catches_repeated_column_entry():
    from finspace import FiniteGroup

    # identity law holds and every row is a permutation; column 1 repeats 0
    table = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 0, 1, 2))
    with pytest.raises(ValueError, match="columns must be permutations"):
        FiniteGroup(
            elements=("e", "a", "b", "c"), table=table, identity=0, generators=(1,)
        )


def test_associativity_check_extends_non_generating_generators():
    """In Z2 x M, with M the loop of test_table_validation_catches_non_associative,
    (1, e) passes Light's test but does not generate; the check must go on
    to elements outside its closure."""
    from finspace import FiniteGroup

    loop = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    # element (a, m) has index 5 * a + m
    table = tuple(
        tuple(5 * ((a + b) % 2) + loop[m][k] for b in (0, 1) for k in range(5))
        for a in (0, 1)
        for m in range(5)
    )
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(
            elements=tuple(f"{a}{m}" for a in (0, 1) for m in range(5)),
            table=table,
            identity=0,
            generators=(5,),
        )


def test_trivial_table_rejects_the_identity_as_generator():
    from finspace import FiniteGroup

    with pytest.raises(ValueError, match="identity is not allowed"):
        FiniteGroup(elements=("e",), table=((0,),), identity=0, generators=(0,))
