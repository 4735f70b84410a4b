import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import element_order, full_table, reference_group_check
from test_acceptance import CORPUS
from finspace import (
    FiniteGroup,
    build_realization,
    cayley_graph,
    cyclic,
    dihedral,
    direct_product,
    group_from_permutations,
    klein_four,
    right_translation,
    symmetric,
)
from finspace.groups import DEFAULT_ORDER_CAP, _compose, _is_perm, cycle_name


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
        # S8's two generators: 40320 elements
        group_from_permutations([(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)])


def test_symmetric_shares_the_order_cap():
    # S8 has 40320 elements; the cap stops enumeration before any table
    with pytest.raises(ValueError, match="group too large"):
        symmetric(8)


def test_cyclic_and_dihedral_refuse_orders_over_the_cap():
    # checked before the |G| x |G| table is built
    with pytest.raises(ValueError, match="group too large"):
        cyclic(DEFAULT_ORDER_CAP + 1)
    with pytest.raises(ValueError, match="group too large"):
        dihedral(2 * DEFAULT_ORDER_CAP + 2)
    assert cyclic(2).order == 2 and dihedral(6).order == 6


def _assert_composition_table(g, perms):
    """table[i][j] is the index of perms[i] * perms[j] (apply j first)."""
    index = {p: i for i, p in enumerate(perms)}
    assert len(index) == g.order
    table = full_table(g)
    for i, p in enumerate(perms):
        assert table[i] == tuple(index[_compose(p, q)] for q in perms)


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
    assert element_order(g, g.generators[0]) == 3


def test_cyclic_rejects_trivial():
    with pytest.raises(ValueError):
        cyclic(1)


def test_dihedral_basics():
    g = dihedral(6)
    assert g.order == 6
    assert len(g.generators) == 2
    assert element_order(g, g.generators[0]) == 3
    assert element_order(g, g.generators[1]) == 2


def test_dihedral_relation():
    # t*s*t*s = e, i.e. s*t*s^-1 = t^-1
    g = dihedral(8)
    t, s = g.generators
    table = full_table(g)
    x = table[table[table[t][s]][t]][s]
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
    orders = sorted(element_order(g, i) for i in range(g.order))
    assert orders == [1, 2, 2, 2]
    assert len(g.generators) == 2


def test_cyclic_table_is_addition_mod_m():
    for m in range(2, 41):
        table = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
        assert full_table(cyclic(m)) == table


def _tuple_table(table) -> bool:
    return type(table) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in table
    )


def _tuple_group(g) -> bool:
    """The generators' rows and columns are tuples of ints, as a table's
    rows were."""
    return _tuple_table(g.rows) and _tuple_table(g.cols)


def test_dihedral_table_is_the_rotation_reflection_formula():
    """t^a * s^b times t^c * s^d is t^(a +- c) * s^(b+d), element i + m*j."""
    for order in range(6, 97, 2):
        m = order // 2
        table = tuple(
            tuple(
                (a + (c if b == 0 else -c)) % m + m * ((b + d) % 2)
                for d in (0, 1)
                for c in range(m)
            )
            for b in (0, 1)
            for a in range(m)
        )
        g = dihedral(order)
        assert full_table(g) == table and _tuple_group(g)
        assert g.generators == (1, m)


@pytest.mark.parametrize(
    "g, h",
    [(cyclic(2), cyclic(3)), (cyclic(3), cyclic(2)), (cyclic(4), cyclic(6)),
     (klein_four(), cyclic(3)), (cyclic(5), klein_four()), (klein_four(), klein_four()),
     (dihedral(6), cyclic(2)), (cyclic(3), dihedral(8)), (dihedral(6), dihedral(10))],
    ids=["C2xC3", "C3xC2", "C4xC6", "V4xC3", "C5xV4", "V4xV4", "D6xC2", "C3xD8",
         "D6xD10"],
)
def test_direct_product_table_is_the_componentwise_formula(g, h):
    nh = h.order
    tg, th = full_table(g), full_table(h)
    table = tuple(
        tuple(tg[a][c] * nh + th[b][d] for c in range(g.order) for d in range(nh))
        for a in range(g.order)
        for b in range(nh)
    )
    p = direct_product(g, h)
    assert full_table(p) == table and _tuple_group(p)
    assert p.identity == g.identity * nh + h.identity


def test_direct_product_refuses_orders_over_the_cap():
    # checked before the 101*100 x 101*100 table is built
    with pytest.raises(ValueError, match="group too large"):
        direct_product(cyclic(101), cyclic(100))


def test_direct_product_of_cyclics():
    g = direct_product(cyclic(2), cyclic(3))
    assert g.order == 6
    orders = sorted(element_order(g, i) for i in range(6))
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
    table = [list(row) for row in full_table(base)]
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


_Z4 = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))


@pytest.mark.parametrize(
    "table, generators",
    [
        # the identity law holds; row 2, of no generator, repeats 0
        pytest.param(_Z4[:2] + ((2, 3, 0, 0), _Z4[3]), (1,), id="repeat"),
        # Z5: row 3 holds -1 for x3*x = x4, and Python would read t[-1] as x4's row
        pytest.param(
            ((0, 1, 2, 3, 4), (1, 2, 3, 4, 0), (2, 3, 4, 0, 1), (3, -1, 0, 1, 2), (4, 0, 1, 2, 3)),
            (1,),
            id="negative",
        ),
        # row 1 holds 4, no row, in generator x3's column; Light's test for
        # x3 reads row x*x3 = 4 before it compares row x
        pytest.param((_Z4[0], (1, 2, 3, 4)) + _Z4[2:], (3,), id="generator-column"),
        # associative, with identity 0 and generated by 1, but 1*1 = 1*0
        pytest.param(((0, 1), (1, 1)), (1,), id="monoid"),
    ],
)
def test_table_validation_refuses_non_permutation_rows(table, generators):
    elements = ("e", "x", "x2", "x3", "x4")[: len(table)]
    with pytest.raises(ValueError, match="rows must be permutations"):
        FiniteGroup(elements, table, identity=0, generators=generators)


_SMALL_GROUPS = (
    *(cyclic(m) for m in range(4, 13)),
    symmetric(3),
    symmetric(4),
    dihedral(8),
    dihedral(12),
    klein_four(),
)


@st.composite
def perturbed_tables(draw):
    """A small group table (identity 0) with up to three perturbations,
    and either its own generators or a drawn list of indices that may hold
    e, duplicates and out-of-range values.

    A perturbation sets one entry (out of range, negative or repeated),
    swaps two entries of a row or of a column, or swaps an intercalate (a
    2 x 2 sub-square [[a, b], [b, a]]), which keeps a latin square.  Cells
    mostly avoid the identity's row and column, so that the identity law
    holds and the later checks are reached."""
    group = draw(st.sampled_from(_SMALL_GROUPS))
    n = group.order
    table = [list(row) for row in full_table(group)]
    for _ in range(draw(st.integers(0, 3))):
        low = 0 if draw(st.integers(0, 7)) == 0 else 1
        cell = st.integers(low, n - 1)
        r, c, r2, c2 = (draw(cell) for _ in range(4))
        kind = draw(st.sampled_from(["set", "row swap", "column swap", "intercalate"]))
        if kind == "set":
            table[r][c] = draw(
                st.integers(n, n + 2) | st.integers(-n - 1, -1) | st.integers(0, n - 1)
            )
        elif kind == "row swap":
            table[r][c], table[r][c2] = table[r][c2], table[r][c]
        elif kind == "column swap":
            table[r][c], table[r2][c] = table[r2][c], table[r][c]
        else:
            a, b = table[r][c], table[r2][c]
            if r != r2 and b in table[r]:
                c2 = table[r].index(b)
                if c2 != c and table[r2][c2] == a:
                    table[r][c], table[r][c2] = b, a
                    table[r2][c], table[r2][c2] = a, b
    generators = draw(
        st.just(group.generators) | st.lists(st.integers(-1, n), max_size=3).map(tuple)
    )
    return group.elements, tuple(map(tuple, table)), generators


def _refusal(check, *args):
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=500)
@given(perturbed_tables())
def test_table_validation_matches_the_full_table_reference(case):
    """Same acceptance and the same message as every-row, every-column
    validation followed by Light's test."""
    elements, table, generators = case
    expected = _refusal(reference_group_check, elements, table, 0, generators)
    assert _refusal(FiniteGroup, elements, table, 0, generators) == expected


# -- the generators' rows and columns against full reference tables ---------


def _reference_enumerate(gens):
    """The enumeration that tabulated permutation groups in full:
    permutations, word names and the |G| x |G| table, in breadth-first
    order over right multiplication.  Each y = x*g_k found from an earlier
    x gets the row of x permuted, y*z = x*(g_k*z)."""
    m = len(gens[0])
    assert all(_is_perm(p) and len(p) == m for p in gens)
    ident = tuple(range(m))
    index, perms, names, tree = {ident: 0}, [ident], ["e"], []
    for i, x in enumerate(perms):
        for k, g in enumerate(gens):
            y = _compose(x, g)
            if y not in index:
                index[y] = len(perms)
                perms.append(y)
                names.append(f"g{k + 1}" if i == 0 else f"{names[i]}*g{k + 1}")
                tree.append((i, k))
    left = [[index[_compose(g, p)] for p in perms] for g in gens]
    rows = [tuple(range(len(perms)))]
    for parent, k in tree:
        rows.append(tuple(rows[parent][z] for z in left[k]))
    return perms, names, tuple(rows)


def _reference_perm_group(gens):
    """(elements, table, identity, generators) of group_from_permutations."""
    _, names, table = _reference_enumerate([tuple(p) for p in gens])
    return tuple(names), table, 0, tuple(range(1, len(gens) + 1))


def _reference_symmetric(m):
    gens = [tuple([1, 0] + list(range(2, m)))]
    if m >= 3:
        gens.append(tuple(list(range(1, m)) + [0]))
    perms, _, table = _reference_enumerate(gens)
    return tuple(map(cycle_name, perms)), table, 0, tuple(range(1, len(gens) + 1))


def _reference_cyclic(m):
    names = ("e", "x") + tuple(f"x{i}" for i in range(2, m))
    return names, tuple(tuple((i + j) % m for j in range(m)) for i in range(m)), 0, (1,)


def _reference_dihedral(order):
    """t^a * s^b times t^c * s^d is t^(a +- c) * s^(b+d), element a + m*b."""
    m = order // 2
    table = tuple(
        tuple(
            (a + (c if b == 0 else -c)) % m + m * ((b + d) % 2) for d in (0, 1) for c in range(m)
        )
        for b in (0, 1)
        for a in range(m)
    )

    def name(i, j):
        t = "" if i == 0 else ("t" if i == 1 else f"t{i}")
        return "*".join(filter(None, (t, "s" * j))) or "e"

    return tuple(name(i, j) for j in (0, 1) for i in range(m)), table, 0, (1, m)


def _reference_product(g, h):
    """Componentwise, (a, b) at a*|H| + b, generators of g then of h."""
    (eg, tg, ig, sg), (eh, th, ih, sh) = g, h
    nh = len(eh)
    table = tuple(
        tuple(tg[a][c] * nh + th[b][d] for c in range(len(eg)) for d in range(nh))
        for a in range(len(eg))
        for b in range(nh)
    )
    names = tuple(f"({a},{b})" for a in eg for b in eh)
    gens = tuple(k * nh + ih for k in sg) + tuple(ig * nh + k for k in sh)
    return names, table, ig * nh + ih, gens


_CORPUS = {name: json.loads(gens) for name, (gens, _) in CORPUS.items()}
_Q8 = _CORPUS["Q8"]
# (name, group, reference), the corpus of the acceptance suite included.
_DIFFERENTIAL = (
    [(f"S{m}", lambda m=m: symmetric(m), lambda m=m: _reference_symmetric(m))
     for m in range(2, 7)]
    + [(f"C{m}", lambda m=m: cyclic(m), lambda m=m: _reference_cyclic(m)) for m in (2, 3, 7, 12)]
    + [(f"D{o}", lambda o=o: dihedral(o), lambda o=o: _reference_dihedral(o)) for o in (6, 8, 14)]
    + [
        ("C2xC3", lambda: direct_product(cyclic(2), cyclic(3)),
         lambda: _reference_product(_reference_cyclic(2), _reference_cyclic(3))),
        ("V4", klein_four,
         lambda: _reference_product(_reference_cyclic(2), _reference_cyclic(2))),
        ("S3xC2", lambda: direct_product(symmetric(3), cyclic(2)),
         lambda: _reference_product(_reference_symmetric(3), _reference_cyclic(2))),
        ("C3xD8", lambda: direct_product(cyclic(3), dihedral(8)),
         lambda: _reference_product(_reference_cyclic(3), _reference_dihedral(8))),
        ("S3xQ8", lambda: direct_product(symmetric(3), group_from_permutations(_Q8)),
         lambda: _reference_product(_reference_symmetric(3), _reference_perm_group(_Q8))),
    ]
    + [(name, lambda g=g: group_from_permutations(g), lambda g=g: _reference_perm_group(g))
       for name, g in _CORPUS.items()]
)


@pytest.mark.parametrize(
    "build, reference",
    [case[1:] for case in _DIFFERENTIAL],
    ids=[case[0] for case in _DIFFERENTIAL],
)
def test_rows_and_columns_match_the_full_reference_table(build, reference):
    """Same names, identity and generators as the full table; the
    generators' rows and columns are its rows and columns; every element's
    right translation is its column; and the realization spaces agree, each
    end block above the vertex block the reference row names."""
    group = build()
    elements, table, identity, generators = reference()
    assert (group.elements, group.identity, group.generators) == (elements, identity, generators)
    columns = list(zip(*table))
    assert group.rows == tuple(table[s] for s in generators)
    assert group.cols == tuple(columns[s] for s in generators)
    assert [right_translation(group, h) for h in range(group.order)] == columns

    space = build_realization(group)
    expected = build_realization(FiniteGroup(elements, table, identity, generators))
    assert space.poset.points == expected.poset.points
    assert space.poset.up == expected.poset.up
    points, up = space.poset.points, space.poset.up
    below: dict[str, set[str]] = {}
    for i, name in enumerate(points):
        lower = name.split("/", 1)[0]
        if lower.startswith("vert["):
            for j in up[i]:
                upper = points[j].split("/", 1)[0]
                if upper.startswith("dst"):
                    below.setdefault(upper, set()).add(lower)
    assert below == {
        f"dst{k}[{elements[x]}]": {f"vert[{elements[table[s][x]]}]"}
        for k, s in enumerate(generators, 1)
        for x in range(len(elements))
    }


def test_no_light_test_for_permutations_or_closed_forms(monkeypatch):
    """Permutation closures and closed forms are groups by construction;
    only a group given as a table is certified."""

    def refuse(self, table):
        raise AssertionError("Light's test ran")

    monkeypatch.setattr(FiniteGroup, "_passes_light_test", refuse)
    symmetric(6)
    group_from_permutations(_CORPUS["A5"])
    cyclic(DEFAULT_ORDER_CAP)
    dihedral(DEFAULT_ORDER_CAP)
    direct_product(dihedral(8), klein_four())
    with pytest.raises(AssertionError, match="Light's test ran"):
        FiniteGroup(*_reference_cyclic(3))
