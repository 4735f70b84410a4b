import hashlib
import importlib
import random
from collections import Counter
from dataclasses import replace
from itertools import permutations
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import full_table, level_of, random_colored_digraph, reference_refine
from conftest import reference_carries, seeded_digraphs
from test_acceptance import CORPUS
from finspace import (
    ColoredDigraph,
    FiniteGroup,
    RealizationSpace,
    asymmetric_block,
    automorphisms,
    brute_force_automorphisms,
    build_realization,
    cayley_graph,
    cyclic,
    dihedral,
    direct_product,
    group_from_permutations,
    hasse_digraph,
    induced_translation,
    isomorphic,
    isomorphism_between,
    klein_four,
    make_digraph,
    make_poset,
    refine,
    strip_colors,
    symmetric,
    verify_realization,
)
from finspace.cli import parse_group_spec

# the engine submodule, for its private routines
engine = importlib.import_module("finspace.engine")

TRIANGLE = make_digraph(
    ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)]
)


def _closure_order(generators, n):
    """Independent order check: BFS closure of the generators."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple(g[v] for v in x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def _two_copies(d):
    """Two disjoint copies of d, names prefixed a and b."""
    return make_digraph(
        [c + v for c in "ab" for v in d.vertices],
        [(c + s, c + t, e) for c in "ab" for s, t, e in d.edges],
    )


# -- hasse_digraph -------------------------------------------------------


def test_hasse_digraph_shapes():
    single = hasse_digraph(make_poset(["p"], []))
    assert (len(single.vertices), len(single.edges)) == (1, 0)

    chain = hasse_digraph(make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")]))
    assert chain.edges == {("a", "b", 1), ("b", "c", 1)}

    block = hasse_digraph(asymmetric_block(0))
    assert (len(block.vertices), len(block.edges)) == (8, 11)
    assert all(c == 1 for _, _, c in block.edges)


# -- refine ----------------------------------------------------------------


def test_refine_transitive_cycle_is_one_class():
    classes = refine(TRIANGLE).vertex_class
    assert len(set(classes.values())) == 1


def test_refine_two_cycles_cannot_split_isomorphic_components():
    d = make_digraph(
        list("abcdef"),
        [("a", "b", 1), ("b", "c", 1), ("c", "a", 1),
         ("d", "e", 1), ("e", "f", 1), ("f", "d", 1)],
    )
    classes = refine(d).vertex_class
    assert len(set(classes.values())) == 1


def test_refine_block_goes_discrete():
    d = hasse_digraph(asymmetric_block(3))
    classes = refine(d).vertex_class
    assert len(set(classes.values())) == len(d.vertices)


def test_refine_respects_seed():
    seeded = refine(TRIANGLE, seed={"a": 1, "b": 0, "c": 0})
    assert len(set(seeded.vertex_class.values())) == 3  # pinning one splits all


def test_refine_rejects_partial_seed():
    with pytest.raises(ValueError, match="seed"):
        refine(TRIANGLE, seed={"a": 1})


def test_refine_classes_are_equitable():
    rng = random.Random(424_242)
    for _ in range(30):
        d = random_colored_digraph(rng)
        classes = refine(d).vertex_class
        idx = {v: i for i, v in enumerate(d.vertices)}
        signature = {}
        for v in d.vertices:
            incident = []
            for s, t, c in d.edges:
                if s == v:
                    incident.append((0, c, classes[t]))
                if t == v:
                    incident.append((1, c, classes[s]))
            signature[idx[v]] = (classes[v], tuple(sorted(incident)))
        for v in d.vertices:
            for w in d.vertices:
                if classes[v] == classes[w]:
                    assert signature[idx[v]] == signature[idx[w]]


@given(seeded_digraphs())
def test_refine_matches_reference(case):
    d, seed = case
    assert refine(d, seed).vertex_class == reference_refine(d, seed)
    assert refine(d).vertex_class == reference_refine(d)


def _refine_relabelled(a, keys_a, pi):
    """Refine a, then its copy relabelled by pi against a's trace; check classes.

    Returns the check, to repeat it on splits of matching vertices, and both
    root states.
    """
    n = len(a.vertices)
    names = [f"w{i}" for i in range(n)]
    rename = {v: names[pi[i]] for i, v in enumerate(a.vertices)}
    b = make_digraph(names, [(rename[s], rename[t], c) for s, t, c in a.edges])

    def check(args_a, args_b, refiner=engine._refine):
        state_a, trace = refiner(a._incidence, *args_a)
        refined = refiner(b._incidence, *args_b, trace)
        assert refined is not None
        assert all(refined[0][0][pi[v]] == state_a[0][v] for v in range(n))
        return state_a, refined[0]

    keys_b = [None] * n
    for v, k in enumerate(keys_a):
        keys_b[pi[v]] = k
    return check, check((keys_a,), (keys_b,))


@pytest.mark.parametrize(
    "group, classes",
    [(cyclic(12), 44), (cyclic(48), 44), (symmetric(4), 98), (dihedral(24), 98)],
    ids=["cyclic:12", "cyclic:48", "symmetric:4", "dihedral:24"],
)
def test_refinement_sequence_on_the_ladder(group, classes):
    """On the verify ladder the walk is complete at the root, so the left
    path is the root alone: seeded by channel degrees, 3 rounds to the slot
    classes (the all-equal seed of ``refine`` takes one more to reach the
    degrees), pinned so that a faster refinement cannot change them."""
    d = hasse_digraph(build_realization(group).poset)
    [((_, cells), trace)] = engine._PairSearch(d, d).path
    assert (len(trace), len(cells)) == (3, classes)
    assert len(set(refine(d).vertex_class.values())) == classes


def _class_sets(cells: dict) -> set[frozenset[int]]:
    return {frozenset(members) for members in cells.values()}


@given(seeded_digraphs())
def test_degree_seed_saves_the_first_round(case):
    """Round 1 from one class splits by channel degrees, so the root seeded
    by degrees reaches the same classes one trace entry sooner, unless that
    round splits nothing (a digraph of equal degrees, one class either way)."""
    d, _ = case
    (_, cells), trace = engine._refine(d._incidence, [0] * len(d))
    (_, seeded_cells), seeded_trace = engine._refine(d._incidence, d._degrees)
    assert _class_sets(seeded_cells) == _class_sets(cells)
    splits = len(trace) > 1 and bool(trace[1][0])
    assert len(seeded_trace) == len(trace) - splits
    (_, search_cells), _ = engine._PairSearch(d, d).path[0]
    assert _class_sets(search_cells) == _class_sets(cells)


def test_refine_matches_reference_over_many_rounds():
    """Deep enough for skipping each split class's largest part to matter;
    a shuffled copy follows the same trace to the same classes."""
    d = hasse_digraph(build_realization(cyclic(12)).poset)
    seed = {v: v == d.vertices[0] for v in d.vertices}
    keys = [seed[v] for v in d.vertices]
    _, trace = engine._refine(d._incidence, keys)
    assert (len(d.vertices), len(trace)) == (528, 25)
    assert refine(d, seed).vertex_class == reference_refine(d, seed)

    pi = list(range(len(keys)))
    random.Random(1_729).shuffle(pi)
    _refine_relabelled(d, keys, pi)


@given(seeded_digraphs(), st.data())
def test_refine_trace_is_relabelling_invariant(case, data):
    """A relabelled copy refines against the original's trace to the same classes,
    at the root and after individualizing matching vertices."""
    a, seed = case
    pi = data.draw(st.permutations(range(len(a.vertices))))
    keys = [seed[v] for v in a.vertices]
    check, (root_a, root_b) = _refine_relabelled(a, keys, pi)
    colors, cells = root_a
    for v, w in enumerate(pi):
        if len(cells[colors[v]]) > 1:
            check((*root_a, v), (*root_b, w), engine._split)


@given(seeded_digraphs())
def test_split_matches_reference(case):
    """Splitting v off the root state refines as the reference does from the
    root classes with v flagged; class ids are the ranks of class names.
    Two disjoint copies of the drawn digraph leave no root class a singleton."""
    one, seed_one = case
    d = _two_copies(one)
    seed = {c + v: k for c in "ab" for v, k in seed_one.items()}
    root, _ = engine._refine(d._incidence, [seed[u] for u in d.vertices])
    root_class = refine(d, seed).vertex_class
    colors, cells = root
    for i, v in enumerate(d.vertices):
        if len(cells[colors[i]]) > 1:
            (split, names), _ = engine._split(d._incidence, *root, i)
            rank = {c: r for r, c in enumerate(sorted(names))}
            flagged = {u: (root_class[u], u == v) for u in d.vertices}
            classes = {u: rank[split[j]] for j, u in enumerate(d.vertices)}
            assert classes == reference_refine(d, flagged)


# -- automorphisms vs oracle ---------------------------------------------


def test_triangle_rotations():
    group = automorphisms(TRIANGLE)
    assert group.order == 3
    assert _closure_order(group.generators, 3) == 3


def test_blocks_are_rigid():
    for k in range(7):
        assert automorphisms(hasse_digraph(asymmetric_block(k))).order == 1


def test_colored_cayley_of_dihedral6():
    group = automorphisms(cayley_graph(dihedral(6)))
    assert group.order == 6
    assert _closure_order(group.generators, 6) == 6


def test_brute_force_examples():
    edge = make_digraph(["u", "v"], [("u", "v", 1)])
    assert brute_force_automorphisms(edge).order == 1

    pair = make_digraph(["u", "v"], [])
    assert brute_force_automorphisms(pair).order == 2

    block = hasse_digraph(asymmetric_block(0))
    assert brute_force_automorphisms(block).order == 1
    assert automorphisms(block).order == 1


def test_brute_force_vertex_limit():
    too_big = make_digraph([f"v{i}" for i in range(11)], [])
    with pytest.raises(ValueError, match="oracle limit"):
        brute_force_automorphisms(too_big)


def test_generators_preserve_edges_and_outputs_deterministic():
    rng = random.Random(11_222)
    for _ in range(40):
        d = random_colored_digraph(rng)
        group = automorphisms(d)
        idx_edges = d.arcs
        for g in group.generators:
            assert {(g[s], g[t], c) for s, t, c in idx_edges} == idx_edges
        assert automorphisms(d) == group


def test_engine_matches_oracle_on_random_digraphs():
    rng = random.Random(987_654)
    for _ in range(40):
        d = random_colored_digraph(rng, max_vertices=6)
        engine = automorphisms(d)
        oracle = brute_force_automorphisms(d)
        assert engine.order == oracle.order
        assert engine.order == _closure_order(engine.generators, len(d.vertices))


def test_empty_and_tiny_digraphs():
    assert automorphisms(make_digraph([], [])).order == 1
    assert automorphisms(make_digraph(["v"], [])).order == 1
    two = make_digraph(["u", "v"], [])
    assert automorphisms(two).order == 2


def test_automorphisms_refine_the_root_once(monkeypatch):
    """In automorphism mode the right side is the left side's path."""
    calls = []
    refine_root = engine._refine
    monkeypatch.setattr(
        engine, "_refine", lambda *args: calls.append(1) or refine_root(*args)
    )
    assert automorphisms(hasse_digraph(build_realization(cyclic(3)).poset)).order == 3
    assert calls == [1]


def _count_branches(monkeypatch) -> list:
    branches = []
    branch = engine._PairSearch._branch
    monkeypatch.setattr(
        engine._PairSearch,
        "_branch",
        lambda self, *args: branches.append(args[-1]) or branch(self, *args),
    )
    return branches


def test_orbit_pruning_skips_images_of_found_generators(monkeypatch):
    """On a directed 7-cycle the first rotation found carries the base point
    to every other candidate, so one branch is tried, not six."""
    branches = _count_branches(monkeypatch)
    names = [f"v{i}" for i in range(7)]
    cycle = make_digraph(names, [(names[i], names[(i + 1) % 7], 1) for i in range(7)])
    group = automorphisms(cycle)
    assert (group.order, len(group.generators)) == (7, 1)
    assert len(branches) == 1


@given(seeded_digraphs(max_vertices=6), st.data())
def test_known_automorphisms_keep_the_order(drawn, data):
    """Seeding the search with any of the oracle's automorphisms changes
    what it prunes, never the order it reports."""
    d, _ = drawn
    assert len(d.vertices) <= engine.ORACLE_VERTEX_LIMIT
    oracle = brute_force_automorphisms(d)
    mask = data.draw(st.lists(st.booleans(), min_size=len(oracle.generators),
                              max_size=len(oracle.generators)))
    known = [g for g, keep in zip(oracle.generators, mask) if keep]
    seeded = automorphisms(d, known)
    assert seeded.order == oracle.order
    assert set(known) <= set(seeded.generators)
    assert automorphisms(d, ()) == automorphisms(d)


def _shrikhande():
    """The Shrikhande graph (Cayley graph of Z4 x Z4), with a non-neighbour
    of the first vertex second."""
    cells = [(a, b) for a in range(4) for b in range(4)]
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    first = [(0, 0), (2, 2)]
    name = "p{}{}".format
    return make_digraph(
        [name(a, b) for a, b in first + [c for c in cells if c not in first]],
        [(name(a, b), name((a + x) % 4, (b + y) % 4), 1) for a, b in cells for x, y in steps],
    )


def test_known_automorphisms_prune_depth_zero_only():
    """On the Shrikhande graph, once the first vertex is individualized,
    its nine non-neighbours stay one class, on which its stabilizer (order
    12) is not transitive.  Known maps that move the first vertex must not
    prune there, or the order comes out 576."""
    d = _shrikhande()
    group = automorphisms(d)
    assert group.order == 192
    assert automorphisms(d, group.generators).order == 192


def _carries_by_triples(sigma, a, b) -> bool:
    """The edge test by its first definition: sigma sends every arc
    (source, target, color) of a to an arc of b."""
    return all((sigma[s], sigma[t], c) in b.arcs for s, t, c in a.arcs)


@given(st.data())
def test_carries_agrees_with_the_triple_definition(data):
    """On bijections between digraphs with equal arc counts, the row test
    is the triple test and the test that sorts every row: b is a moved by
    a vertex and a color permutation (colors 1..4, some unused, maybe no
    arc at all), sigma is the vertex permutation or any other."""
    n = data.draw(st.integers(0, 6))
    names = [f"v{i}" for i in range(n)]
    cells = data.draw(st.lists(st.integers(0, 4), min_size=n * n, max_size=n * n))
    a = make_digraph(names, [
        (names[s], names[t], cells[s * n + t])
        for s in range(n) for t in range(n) if s != t and cells[s * n + t]
    ])
    pi = data.draw(st.permutations(range(n)))
    recolor = dict(zip(range(1, 5), data.draw(st.permutations(range(1, 5)))))
    b = make_digraph(names, [(names[pi[s]], names[pi[t]], recolor[c]) for s, t, c in a.arcs])
    same = make_digraph(names, [(names[pi[s]], names[pi[t]], c) for s, t, c in a.arcs])
    sigma = tuple(data.draw(st.sampled_from([pi, data.draw(st.permutations(range(n)))])))
    assert engine._carries(sigma, a.out, b.out) == _carries_by_triples(sigma, a, b)
    assert engine._carries(sigma, a.out, same.out) == _carries_by_triples(sigma, a, same)
    assert engine._carries(tuple(pi), a.out, same.out)
    for other in (a, b, same):
        assert engine._carries(sigma, a.out, other.out) == reference_carries(
            sigma, a.out, other.out
        )


def test_carries_gathers_a_layer_of_one_arc():
    """A layer whose one arc lies past the first gather: the first chunk
    gathers no image and the second one image."""
    n = engine._CARRY_CHUNK + 2
    rows = ((),) * (n - 2) + ((n - 1,), ())
    d = ColoredDigraph(tuple(f"v{i}" for i in range(n)), ((1, rows),))
    identity = list(range(n))
    swap_arc = identity[:-2] + [n - 1, n - 2]
    move_source = [n - 2] + identity[1:-2] + [0, n - 1]
    fix_arc = [1, 0] + identity[2:]
    verdicts = []
    for sigma in map(tuple, (identity, swap_arc, move_source, fix_arc)):
        verdicts.append(engine._carries(sigma, d.out, d.out))
        assert verdicts[-1] == reference_carries(sigma, d.out, d.out)
    assert verdicts == [True, False, False, True]


# -- isomorphism search -----------------------------------------------------


def test_isomorphism_between_relabeled_cayley_graphs():
    a = cayley_graph(cyclic(4))
    renamed = make_digraph(
        [v.upper() for v in a.vertices],
        [(s.upper(), t.upper(), c) for s, t, c in a.edges],
    )
    mapping = isomorphism_between(a, renamed)
    assert mapping is not None
    assert {(mapping[s], mapping[t], c) for s, t, c in a.edges} == renamed.edges


def test_isomorphism_between_respects_colors():
    one = make_digraph(["a", "b"], [("a", "b", 1)])
    other = make_digraph(["a", "b"], [("a", "b", 2)])
    assert isomorphism_between(one, other) is None


def _count_leaves(monkeypatch) -> list:
    """What each leaf the search reaches returns, in order."""
    leaves = []
    leaf = engine._PairSearch._leaf
    monkeypatch.setattr(
        engine._PairSearch,
        "_leaf",
        lambda self, *args: leaves.append(leaf(self, *args)) or leaves[-1],
    )
    return leaves


def test_edge_colors_prune_before_any_leaf(monkeypatch):
    """Signatures use per-digraph channel ranks, so a renamed color would
    refine alike on both sides; the color check refuses it before refining."""
    leaves = _count_leaves(monkeypatch)
    a = cayley_graph(dihedral(6))
    assert {c for _, _, c in a.edges} == {1, 2}
    b = make_digraph(a.vertices, [(s, t, 7 if c == 2 else c) for s, t, c in a.edges])
    assert isomorphism_between(a, b) is None
    assert leaves == []


def test_isomorphism_between_needs_equal_vertex_counts():
    small = make_digraph(["a", "b"], [("a", "b", 1)])
    large = make_digraph(["a", "b", "c"], [("a", "b", 1)])
    assert isomorphism_between(small, large) is None
    assert isomorphism_between(large, small) is None
    assert isomorphism_between(large, large) is not None


def test_isomorphism_between_seeds_with_equal_hashes():
    """Seed multisets that hash alike (in CPython hash(-1) == hash(-2))."""
    a = make_digraph(["x", "y"], [])
    b = make_digraph(["x", "y"], [])
    assert isomorphism_between(a, b, {"x": -1, "y": -2}, {"x": -1, "y": -1}) is None
    assert isomorphism_between(b, a, {"x": -1, "y": -1}, {"x": -1, "y": -2}) is None


def _directed_cycles(*lengths: int):
    names, edges = [], []
    for k, n in enumerate(lengths):
        ring = [f"c{k}_{i}" for i in range(n)]
        names += ring
        edges += [(ring[i], ring[(i + 1) % n], 1) for i in range(n)]
    return make_digraph(names, edges)


def test_isomorphism_between_needs_a_bijection():
    """From a directed C6 the walk is complete, and every bucket of the pair
    walk onto two directed C3s matches: only the injectivity check stops
    a0 and a3 landing on one vertex."""
    c6, c3c3 = _directed_cycles(6), _directed_cycles(3, 3)
    assert len(engine._PairSearch(c6, c3c3).path) == 1
    assert isomorphism_between(c6, c3c3) is None
    assert len(engine._PairSearch(c3c3, c6).path) == 2
    assert isomorphism_between(c3c3, c6) is None
    assert isomorphism_between(c6, _directed_cycles(6)) is not None


def _undirected(names, pairs):
    return make_digraph(names, [(s, t, 1) for a, b in pairs for s, t in ((a, b), (b, a))])


def _root_walk_is_incomplete(d) -> bool:
    search = engine._PairSearch(d, d)
    return engine._unique_walk(d._incidence, *search.path[0][0], search.base[0]) is None


@pytest.mark.parametrize(
    "d, order, levels",
    [
        (_undirected("abcde", ["ab", "bc", "cd", "de", "ea"]), 10, 2),
        (_undirected("abcdef", ["ab", "bc", "ca", "de", "ef", "fd"]), 72, 4),
        (_directed_cycles(3, 3), 18, 2),
    ],
    ids=["undirected-C5", "two-triangles", "two-directed-C3"],
)
def test_incomplete_walks_fall_back_to_the_search(d, order, levels):
    """Each vertex's neighbours share a bucket, or the walk stays in one
    component, so the root walk proves nothing and the search descends
    until the walk from the pivot and the singletons is complete."""
    assert _root_walk_is_incomplete(d)
    assert len(engine._PairSearch(d, d).path) == levels
    group = automorphisms(d)
    assert group.order == order == brute_force_automorphisms(d).order
    assert _closure_order(group.generators, len(d.vertices)) == order


_CUBE = "abcdefgh"


@pytest.mark.parametrize(
    "d, order, digest",
    [
        (_undirected("abcde", ["ab", "bc", "cd", "de", "ea"]), 10,
         "c82a773df55a0112b271222748ac811c3f392e5913927ba6a33b397e59441745"),
        (_undirected("abcdef", ["ab", "bc", "ca", "de", "ef", "fd"]), 72,
         "7b732b74ca3f4e6cfb909d592fa04920ccb2e2ba419c52990e937aea2c15db88"),
        (_directed_cycles(3, 3), 18,
         "89285b4b55b50e3b06467d9b024a5227d859cb268c53de40efc758408fc2d85a"),
        (_undirected("0123456789", "01 12 23 34 40 57 79 96 68 85 05 16 27 38 49".split()),
         120, "c5c5080be1bc9b48600e1143aa6d3f9feeba30caffceda74d1c697995321e611"),
        (_shrikhande(), 192,
         "be50ded746af26bcfeec80d04eebd7ce566bd5c3986335f85e6ca6123177f46c"),
        (_undirected(_CUBE, [_CUBE[v] + _CUBE[v ^ b] for v in range(8) for b in (1, 2, 4)
                             if v < v ^ b]), 48,
         "c40c4a13a0c8740e3a3b0e14a9111f07ce124d8019299f09afdc9c64128fe347"),
        (strip_colors(cayley_graph(klein_four())), 8,
         "6f5b7bdccbc4eb02a9cccca8a41c313807c13c5a67d8dfe40a7f6451e157d81f"),
        (_two_copies(hasse_digraph(build_realization(cyclic(12)).poset)), 288,
         "ffef83b9b154ce63ad4d198e2fc60e419215ae5d7106504180f75f6503f4a8c5"),
    ],
    ids=["undirected-C5", "two-triangles", "two-directed-C3", "petersen",
         "shrikhande", "3-cube", "klein-plain", "two-cyclic:12"],
)
def test_descent_keeps_the_generators(d, order, digest):
    """Where the root walk is incomplete, the order and the sha256 of the
    sorted generators, as the search that individualized every branch down
    to a discrete partition reported them: below the first complete walk it
    found no generator, and its leaves were the maps the walk forces."""
    assert _root_walk_is_incomplete(d)
    group = automorphisms(d)
    assert group.order == order
    assert hashlib.sha256(repr(sorted(group.generators)).encode()).hexdigest() == digest


def test_singletons_seed_the_walk():
    """On two copies of the cyclic:12 space, individualizing a vertex of one
    copy makes the walk complete: it reaches that copy from the singleton
    and the other from the new pivot, so the descent stops a level early."""
    d = _two_copies(hasse_digraph(build_realization(cyclic(12)).poset))
    search = engine._PairSearch(d, d)
    assert (len(search.base), len(search.path)) == (2, 2)


@st.composite
def circulant_unions(draw, max_vertices: int = 10):
    """k copies of a circulant digraph on Z_m (arcs i -> i + j of color
    c_j, for up to three steps j), up to two stray arcs, and a seed that is
    constant, constant on each copy or drawn per vertex.  Random digraphs
    mostly refine to a discrete root; these keep their symmetry, so walks
    run, complete or not."""
    m = draw(st.integers(2, max_vertices))
    k = draw(st.integers(1, max_vertices // m))
    n = k * m
    steps = draw(st.dictionaries(st.integers(1, m - 1), st.integers(1, 2), max_size=3))
    arcs = {(b * m + i, b * m + (i + j) % m, c)
            for b in range(k) for i in range(m) for j, c in steps.items()}
    stray = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2))
    arcs |= {(s, t, c) for s, t, c in draw(st.lists(stray, max_size=2)) if s != t}
    names = [f"v{i}" for i in range(n)]
    keys = draw(st.sampled_from(["constant", "copy", "vertex"]))
    if keys == "vertex":
        seed = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        seed = [v // m if keys == "copy" else 0 for v in range(n)]
    d = make_digraph(names, [(names[s], names[t], c) for s, t, c in arcs])
    return d, dict(zip(names, seed))


@given(circulant_unions(), st.data())
def test_walk_agrees_with_the_refinement_search(drawn, data):
    """The search gives the oracle's orders and generators, with seeds or
    without, and finds an isomorphism exactly when a brute-force search
    over all bijections does; a relabelled copy is always found."""
    d, seed = drawn
    n = len(d.vertices)
    small = n <= 8  # the oracle takes seconds on 10 vertices
    if small:
        oracle = brute_force_automorphisms(d)
        group = automorphisms(d)
        assert group.order == oracle.order
        assert set(group.generators) <= set(oracle.generators)
        keys = [seed[v] for v in d.vertices]
        kept = [g for g in oracle.generators if all(keys[v] == keys[w] for v, w in enumerate(g))]
        seeded = engine._PairSearch(d, d, seed, seed).automorphism_group()
        assert seeded.order == 1 + len(kept)
        assert set(seeded.generators) <= set(kept)

    image = data.draw(st.permutations(range(n)))
    names = [f"w{i}" for i in range(n)]
    rename = {v: names[image[i]] for i, v in enumerate(d.vertices)}
    b = make_digraph(names, [(rename[s], rename[t], c) for s, t, c in d.edges])
    seed_b = {rename[v]: k for v, k in seed.items()}
    other, seed_o = data.draw(circulant_unions())
    for right, right_seed in [(b, seed_b), (other, seed_o)]:
        mapping = isomorphism_between(d, right, seed, right_seed)
        if mapping is not None:
            assert _carries(mapping, d, right, seed, right_seed)
        if right is b:
            assert mapping is not None
        elif small and len(other.vertices) == n:
            assert (mapping is not None) == _brute_isomorphic(d, other, seed, seed_o)


def test_verify_runs_no_refinement_wave(monkeypatch):
    """On realization spaces the walk from base[0] is complete: verify
    refines the root once and individualizes no vertex, at every size."""
    calls = []
    for name in ("_refine", "_split"):
        real = getattr(engine, name)
        monkeypatch.setattr(
            engine, name, lambda *args, _n=name, _f=real: calls.append(_n) or _f(*args)
        )
    for m in (96, 192, 384):
        calls.clear()
        assert verify_realization(cyclic(m)).passed
        assert calls == ["_refine"], m


def _carries(mapping, a, b, seed_a, seed_b) -> bool:
    """The map sends a's edges onto b's and keeps every seed value."""
    return {(mapping[s], mapping[t], c) for s, t, c in a.edges} == b.edges and all(
        seed_a[v] == seed_b[mapping[v]] for v in a.vertices
    )


def _brute_isomorphic(a, b, seed_a, seed_b) -> bool:
    return any(
        _carries(dict(zip(a.vertices, (b.vertices[i] for i in sigma))), a, b, seed_a, seed_b)
        for sigma in permutations(range(len(a.vertices)))
    )


def test_refinement_only_prunes(monkeypatch):
    """With the right side's trace compared by round 0 and the split sizes
    alone, never by signatures, answers come from leaf checks.  The sizes
    keep the left side's class names on the right, which the search reads;
    with no trace check at all it can lack the pivot's class."""
    monkeypatch.setattr(engine, "_settle", _by_split_sizes(engine._settle))
    rng = random.Random(271_828)
    for _ in range(40):
        a = random_colored_digraph(rng, max_vertices=6)
        assert automorphisms(a).order == brute_force_automorphisms(a).order

        n = len(a.vertices)
        image = list(range(n))
        rng.shuffle(image)
        names = [f"w{i}" for i in range(n)]
        rename = {v: names[image[i]] for i, v in enumerate(a.vertices)}
        b = make_digraph(names, [(rename[s], rename[t], c) for s, t, c in a.edges])
        seed_a = {v: rng.randint(0, 2) for v in a.vertices}
        seed_b = {rename[v]: k for v, k in seed_a.items()}
        mapping = isomorphism_between(a, b, seed_a, seed_b)
        assert mapping is not None and _carries(mapping, a, b, seed_a, seed_b)

        # disjoint seed values forbid every bijection
        shifted = {w: k + 3 for w, k in seed_b.items()}
        assert isomorphism_between(a, b, seed_a, shifted) is None

        # same seed values on shuffled vertices: often no bijection fits
        shuffled = list(seed_b.values())
        rng.shuffle(shuffled)
        seed_b = dict(zip(seed_b, shuffled))
        mapping = isomorphism_between(a, b, seed_a, seed_b)
        if _brute_isomorphic(a, b, seed_a, seed_b):
            assert mapping is not None and _carries(mapping, a, b, seed_a, seed_b)
        else:
            assert mapping is None


def test_non_isomorphic_spaces_are_refused_at_every_leaf(monkeypatch):
    """Non-isomorphic realization spaces of equal size pass the root trace,
    so the pair walks refute them: one leaf per candidate image of the
    pivot, each refused, and no vertex individualized."""
    leaves = _count_leaves(monkeypatch)
    splits = []
    split = engine._split
    monkeypatch.setattr(engine, "_split", lambda *args: splits.append(1) or split(*args))
    c4 = group_from_permutations([[1, 2, 3, 0], [3, 0, 1, 2]])
    c2c4 = direct_product(cyclic(2), cyclic(4))
    for (g, h), count in [((klein_four(), c4), 4), ((c2c4, dihedral(8)), 8)]:
        leaves.clear()
        a, b = build_realization(g).poset, build_realization(h).poset
        assert len(a.points) == len(b.points)
        assert isomorphic(a, b) is None
        assert leaves == [None] * count
    assert splits == []

    # same shape, different edge colors: the root refinement alone refutes
    names = [f"v{i}" for i in range(6)]
    steps = [(names[i], names[(i + 1) % 6], 1) for i in range(6)]
    jumps = [(names[i], names[(i + 2) % 6]) for i in range(6)]
    a = make_digraph(names, steps + [(s, t, 2) for s, t in jumps])
    b = make_digraph(names, steps + [(s, t, 1) for s, t in jumps])
    root_trace = engine._refine(a._incidence, [0] * 6)[1]
    assert engine._refine(b._incidence, [0] * 6, root_trace) is None


# -- realization verification -------------------------------------------


def test_found_automorphisms_preserve_levels():
    space = build_realization(cyclic(3))
    d = hasse_digraph(space.poset)
    group = automorphisms(d)
    assert group.order == 3
    levels = level_of(space.poset)
    for g in group.generators:
        for i, v in enumerate(d.vertices):
            assert levels[v] == levels[d.vertices[g[i]]]


def test_found_automorphisms_preserve_block_families():
    space = build_realization(cyclic(3))
    d = hasse_digraph(space.poset)
    idx = {v: i for i, v in enumerate(d.vertices)}
    family_of_set = {
        frozenset(space.poset.points[info.start:info.start + info.size]): info.family
        for info in space.blocks
    }
    for g in automorphisms(d).generators:
        for pts, fam in family_of_set.items():
            image = frozenset(d.vertices[g[idx[p]]] for p in pts)
            assert family_of_set.get(image) == fam


def test_verify_realization_cyclic3():
    report = verify_realization(cyclic(3))
    assert report.passed
    assert report.point_count == 132
    assert report.generators_valid == 1
    assert report.engine_order == 3
    assert report.render().splitlines()[-1] == "order(Aut) = 3 = |G| : PASS"
    assert report.render() == verify_realization(cyclic(3)).render()


def _swap_two(image, space, s, lo=0):
    image[lo], image[lo + 1] = image[lo + 1], image[lo]


def _collapse_one(image, space, s, lo=0):
    """Send point p to q's image, where q is above and below all that p is:
    every cover still lands on a cover, but the map is not injective.  p
    and q are sought from point lo on."""
    x = space.poset
    p, q = next(
        (p, q)
        for p in range(lo, len(image))
        for q in range(lo, len(image))
        if p != q
        and set(x.up[p]) <= set(x.up[q])
        and set(x._down[p]) <= set(x._down[q])
    )
    image[p] = image[q]
    index = {a: i for i, a in enumerate(x.points)}
    covers = {(index[a], index[b]) for a, b in x.covers}
    assert all((image[a], image[b]) in covers for a, b in covers)


def _copy_other(image, space, s):
    """t_{s*s}: an automorphism, but it moves vertex block g to g*s*s."""
    image[:] = induced_translation(space, full_table(space.group)[s][s])


@pytest.mark.parametrize(
    "mutate",
    [_swap_two, _collapse_one, _copy_other],
    ids=["swapped-pair", "repeated-entry", "image-of-other-h"],
)
def test_certificate_checks_every_translation(monkeypatch, mutate):
    """A broken generator translation fails part 2: a swapped pair breaks
    an edge, a repeated entry only bijectivity, and t_{s*s} in place of
    t_s only the vertex blocks' moves."""
    honest = engine.induced_translation

    def mutant(space, s):
        image = list(honest(space, s))
        mutate(image, space, s)
        return tuple(image)

    monkeypatch.setattr(engine, "induced_translation", mutant)
    report = verify_realization(cyclic(4))
    assert report.generators_valid == 0
    assert report.minimal and report.engine_order == 4 and not report.passed


def test_verify_edge_tests_each_translation_once(monkeypatch):
    """A passing verify runs the edge test once per t_s, in the engine's
    check of its known maps, and tries no other map."""
    calls = []
    carries = engine._carries
    monkeypatch.setattr(
        engine, "_carries", lambda sigma, *rows: calls.append(sigma) or carries(sigma, *rows)
    )
    space = build_realization(cyclic(12))
    assert verify_realization(space.group).passed
    assert calls == [induced_translation(space, s) for s in space.group.generators]


@pytest.mark.parametrize(
    "mutate", [_swap_two, _collapse_one], ids=["swapped-pair", "repeated-entry"]
)
def test_known_maps_are_checked(mutate):
    """The engine takes no known map on trust: a swapped pair breaks an
    edge, and a repeated entry carries every edge but is no bijection."""
    space = build_realization(cyclic(4))
    d = hasse_digraph(space.poset)
    t_s = induced_translation(space, space.group.generators[0])
    image = list(t_s)
    mutate(image, space, space.group.generators[0])
    assert automorphisms(d, [t_s]).order == 4
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphisms(d, [t_s, tuple(image)])


@pytest.mark.parametrize(
    "mutate", [_swap_two, _collapse_one], ids=["swapped-pair", "repeated-entry"]
)
def test_carries_refuses_a_row_past_the_first_gather(mutate):
    """cyclic:96's 4224 rows take several gathers of the edge test, the
    last one short.  A t_s broken among the top points of the last block
    breaks rows of that block only, all in the last gather, and is refused
    there, as by sorting every row."""
    space = build_realization(cyclic(96))
    out = hasse_digraph(space.poset).out
    ((_, rows),) = out
    t_s = induced_translation(space, space.group.generators[0])
    block = space.blocks[-1]
    image = list(t_s)
    mutate(image, space, space.group.generators[0], lo=block.start + block.size // 2)
    broken = tuple(image)
    bad = [
        v for v, row in enumerate(rows) if tuple(sorted(broken[u] for u in row)) != rows[broken[v]]
    ]
    last = len(rows) - len(rows) % engine._CARRY_CHUNK
    assert 0 < last < len(rows) and bad and min(bad) >= last
    assert engine._carries(t_s, out, out) and reference_carries(t_s, out, out)
    assert not engine._carries(broken, out, out)
    assert not reference_carries(broken, out, out)


@pytest.mark.parametrize("group", [cyclic(12), dihedral(8), klein_four()],
                         ids=["cyclic:12", "dihedral:8", "klein"])
def test_certified_translations_prune_every_branch(monkeypatch, group):
    """The root classes are the translation orbits, so with the t_s known
    verify tries no candidate image; alone, the search must branch."""
    branches = _count_branches(monkeypatch)
    assert verify_realization(group).passed
    assert branches == []
    automorphisms(hasse_digraph(build_realization(group).poset))
    assert branches


@pytest.mark.parametrize(
    "group",
    [cyclic(2), cyclic(3), cyclic(4), klein_four(), dihedral(6), dihedral(8),
     symmetric(3), cyclic(12), cyclic(24), cyclic(48), symmetric(4)],
    ids=["cyclic:2", "cyclic:3", "cyclic:4", "klein", "dihedral:6", "dihedral:8",
         "symmetric:3", "cyclic:12", "cyclic:24", "cyclic:48", "symmetric:4"],
)
def test_engine_generators_are_the_certified_translations(monkeypatch, group):
    """Every automorphism the engine reports is a checked translation t_s;
    only the search's completeness, the upper bound, is taken from it."""
    found = []
    search = engine.automorphisms
    monkeypatch.setattr(
        engine, "automorphisms", lambda *args: found.append(search(*args)) or found[-1]
    )
    report = verify_realization(group, budget=2400)
    assert report.passed
    space = build_realization(group)
    t_s = [induced_translation(space, s) for s in group.generators]
    assert [aut.generators for aut in found] == [tuple(sorted(t_s))]


def test_certificate_rejects_translations_of_another_group(monkeypatch):
    """C4's space and true translations, labelled with V4's table under
    C4's element names.  Each map is an automorphism and |Aut| = 4 = |V4|,
    but t_x moves the vertex block of x to x2, not to x*x = e in V4."""
    c4 = build_realization(cyclic(4))
    v4 = klein_four()
    v4 = FiniteGroup(c4.group.elements, full_table(v4), v4.identity, generators=(1, 2))
    monkeypatch.setattr(
        engine, "build_realization",
        lambda group: RealizationSpace(c4.poset, c4.blocks, group),
    )
    monkeypatch.setattr(
        engine, "induced_translation", lambda space, h: induced_translation(c4, h)
    )
    report = verify_realization(v4)
    assert report.minimal and report.engine_order == 4
    assert not report.passed
    assert report.generators_valid == 1  # x2 moves blocks alike in C4 and V4


def test_certificate_needs_the_vertex_blocks(monkeypatch):
    """With the vertex blocks relabelled, each t_s is still an automorphism,
    but no vertex block ties it to G, so part 2 passes no generator."""
    space = build_realization(cyclic(4))
    hidden = tuple(
        replace(info, kind="hidden") if info.kind == "vertex" else info
        for info in space.blocks
    )
    monkeypatch.setattr(
        engine, "build_realization",
        lambda group: RealizationSpace(space.poset, hidden, group),
    )
    report = verify_realization(space.group)
    assert report.generators_valid == 0
    assert report.minimal and report.engine_order == 4 and not report.passed


def test_verify_realization_budget(monkeypatch):
    from finspace import symmetric

    report = verify_realization(symmetric(4))
    assert report.point_count == 2352
    assert report.passed
    with pytest.raises(ValueError, match="2352"):
        verify_realization(symmetric(4), budget=2000)

    def fail(group):
        raise AssertionError("built the space before checking the budget")

    monkeypatch.setattr(engine, "build_realization", fail)
    with pytest.raises(ValueError, match="needs 22000 points, over the engine budget of 20000"):
        verify_realization(cyclic(500))


@pytest.mark.parametrize("budget", [0, -3, 0.5])
def test_verify_realization_rejects_a_budget_below_one(monkeypatch, budget):
    def fail(group):
        raise AssertionError("sized the space before checking the budget")

    monkeypatch.setattr(engine, "predicted_point_count", fail)
    with pytest.raises(ValueError, match="^budget must be a positive number of points$"):
        verify_realization(cyclic(3), budget=budget)


def test_inventory_counts_are_block_counts():
    report = verify_realization(cyclic(2))
    assert report.inventory == ((0, 2), (1, 2), (2, 2), (3, 2))
    assert sum(count for _, count in report.inventory) == 8


def test_verify_and_isomorphic_stay_on_the_index_form(monkeypatch):
    """The certificate and the isomorphism search read covers and arcs by
    index only; the name sets are built for I/O and for callers that ask."""
    spaces, digraphs = [], []

    def keep_space(group):
        spaces.append(build_realization(group))
        return spaces[-1]

    def keep_digraph(p):
        digraphs.append(hasse_digraph(p))
        return digraphs[-1]

    monkeypatch.setattr(engine, "build_realization", keep_space)
    monkeypatch.setattr(engine, "hasse_digraph", keep_digraph)
    assert verify_realization(cyclic(6)).passed
    assert "covers" not in spaces[0].poset.__dict__
    p, q = build_realization(cyclic(3)).poset, build_realization(cyclic(3)).poset
    assert isomorphic(p, q) is not None
    assert "covers" not in p.__dict__ and "covers" not in q.__dict__
    assert len(digraphs) == 3
    assert all("edges" not in d.__dict__ for d in digraphs)


def test_verify_builds_no_name_or_triple_view(monkeypatch):
    """The certificate reads the rows only: after verify, neither the
    Hasse digraph nor its poset holds ``arcs``, ``edges`` or ``covers``."""
    built = []

    def keep_digraph(p):
        built.append((p, hasse_digraph(p)))
        return built[-1][1]

    monkeypatch.setattr(engine, "hasse_digraph", keep_digraph)
    assert verify_realization(cyclic(12)).passed
    [(poset, digraph)] = built
    assert digraph.out[0][1] is poset.up
    for value in (poset, digraph):
        assert not {"arcs", "edges", "covers"} & set(vars(value))


# -- root refinement on the known maps' orbits --------------------------------


def _orbit_reps(maps, n: int) -> list[int]:
    """Each vertex's smallest orbit-mate under the group the maps generate,
    by closure."""
    rep = [-1] * n
    for v in range(n):
        if rep[v] < 0:
            rep[v] = v
            stack = [v]
            while stack:
                x = stack.pop()
                for sigma in maps:
                    if rep[sigma[x]] < 0:
                        rep[sigma[x]] = v
                        stack.append(sigma[x])
    return rep


def _orbit_count(maps, n: int) -> int:
    """Orbits of the group the maps generate."""
    return len(set(_orbit_reps(maps, n)))


def test_verify_root_stops_at_the_translation_orbits(monkeypatch):
    """Verify's root refinement, seeded by channel degrees, runs on the
    certified translations' orbits and ends once they are its classes: two
    trace entries, not the three of a degree-seeded refinement of every
    vertex run until a round splits nothing, nor the four from one class,
    with equal colors and classes."""
    roots, known = [], []
    refine_root, refine_orbits = engine._refine, engine._refine_orbits
    search = engine.automorphisms
    monkeypatch.setattr(
        engine, "_refine_orbits", lambda *a: roots.append(refine_orbits(*a)) or roots[-1]
    )
    monkeypatch.setattr(
        engine, "automorphisms", lambda d, maps: known.append((d, maps)) or search(d, maps)
    )
    for m in (96, 192, 384):
        roots.clear()
        known.clear()
        assert verify_realization(cyclic(m)).passed
        [((colors, cells), trace)] = roots
        [(d, maps)] = known
        assert len(trace) == 2, m
        assert len(cells) == _orbit_count(maps, len(d)) == 44
        (full_colors, _), full_trace = refine_root(d._incidence, d._degrees)
        assert (full_colors, len(full_trace)) == (colors, 3)
        (_, plain_cells), plain_trace = refine_root(d._incidence, [0] * len(d))
        assert (_class_sets(plain_cells), len(plain_trace)) == (_class_sets(cells), 4)


def _per_vertex_root(call):
    """Run call with the root refined on every vertex, not on the known
    maps' orbits, until a round splits nothing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            engine,
            "_refine_orbits",
            lambda inc, keys, label: engine._refine(inc, [keys[v] for v in range(len(label))]),
        )
        return call()


def _check_known_subsets(d, seed, mask):
    """Known maps drawn from the generators that a search without them
    reports give the result of the search that refines every vertex at the
    root, and the order and generated group of the search without known
    maps."""
    def search(known=()):
        return engine._PairSearch(d, d, seed, seed, known).automorphism_group()

    alone = search()
    known = [g for g, keep in zip(alone.generators, mask) if keep]
    group = search(known)
    assert group == _per_vertex_root(lambda: search(known))
    assert group.order == alone.order
    assert set(known) <= set(group.generators)
    n = len(d.vertices)
    if alone.order <= 5040:
        assert _closure_order(group.generators, n) == alone.order
    assert _orbit_count(group.generators, n) == _orbit_count(alone.generators, n)


@given(circulant_unions(), st.data())
def test_known_subsets_give_the_group_of_the_plain_search(drawn, data):
    d, seed = drawn
    for keys in (None, seed):
        count = len(engine._PairSearch(d, d, keys, keys).automorphism_group().generators)
        mask = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
        _check_known_subsets(d, keys, mask)
        _check_known_subsets(d, keys, [False] * count)


@given(seeded_digraphs(max_vertices=7), st.data())
def test_known_subsets_on_random_digraphs(drawn, data):
    d, seed = drawn
    for keys in (None, seed):
        count = len(engine._PairSearch(d, d, keys, keys).automorphism_group().generators)
        _check_known_subsets(d, keys, data.draw(st.lists(st.booleans(), min_size=count,
                                                         max_size=count)))


def test_known_subsets_on_the_shrikhande_graph():
    """Known maps that move the first vertex, with the walk incomplete and
    a non-neighbour of the first vertex second, as in
    ``test_known_automorphisms_prune_depth_zero_only``: every subset of the
    plain search's generators gives order 192."""
    d = _shrikhande()
    count = len(automorphisms(d).generators)
    for bits in range(2 ** count):
        _check_known_subsets(d, None, [bits >> i & 1 for i in range(count)])


def test_known_maps_must_keep_the_seed():
    """With seeds, a known map must keep them too: the root's quotient
    counts on every round's colors being constant on the known maps'
    orbits."""
    seed = {"a": 0, "b": 0, "c": 1}
    rotation = (1, 2, 0)
    assert automorphisms(TRIANGLE, [rotation]).order == 3
    with pytest.raises(ValueError, match="not an automorphism"):
        engine._PairSearch(TRIANGLE, TRIANGLE, seed, seed, [rotation])
    assert engine._PairSearch(TRIANGLE, TRIANGLE, seed, seed).automorphism_group().order == 1


# -- work per orbit at the root, per class in the walk -------------------------


def _check_root_per_orbit(d, seed, known):
    """The root refined on the quotient by the known maps' orbits is the
    root refined by signing every vertex, run to the end: the same colors,
    and the same classes in the same key order, each listed in index order.
    Its classes are the reference's, and it takes no more rounds."""
    keys = d._degrees if seed is None else [seed[v] for v in d.vertices]
    label = _orbit_reps(known, len(d.vertices))
    (colors, cells), trace = engine._refine_orbits(d._incidence, keys, label)
    (full_colors, full_cells), full_trace = engine._refine(d._incidence, keys)
    assert colors == full_colors
    assert list(cells.items()) == [(c, sorted(m)) for c, m in full_cells.items()]
    assert len(trace) <= len(full_trace)
    reference = reference_refine(d, seed)
    classes = {frozenset(i for i, v in enumerate(d.vertices) if reference[v] == k)
               for k in set(reference.values())}
    assert _class_sets(cells) == classes


@given(st.one_of(seeded_digraphs(), circulant_unions()), st.data())
def test_root_signs_one_vertex_per_orbit(drawn, data):
    """Known maps drawn from the generators that a search without them
    reports, as ``_check_known_subsets`` draws them, seeded or not."""
    d, seed = drawn
    for keys in (None, seed):
        group = engine._PairSearch(d, d, keys, keys).automorphism_group()
        known = [g for g in group.generators if data.draw(st.booleans())]
        _check_root_per_orbit(d, keys, known)


def test_root_signs_one_vertex_per_orbit_on_the_shrikhande_graph():
    d = _shrikhande()
    gens = automorphisms(d).generators
    for bits in range(2 ** len(gens)):
        _check_root_per_orbit(d, None, [g for i, g in enumerate(gens) if bits >> i & 1])


def test_root_per_orbit_names_classes_by_their_start_in_vertices():
    """A rotation of a directed triangle that fixes the hub h, with an arc to
    each corner, and h's one out-neighbour t off the triangle: orbits of 3,
    1 and 1 vertices, so a class that follows the triangle's starts at 4,
    not at 2 as counted in orbits.  Seeded by degrees, t ranks first and h
    last; seeded by one value, which takes a round to split, h ranks first
    and t last.  Either way the root is the per-vertex one, and the search
    finds order 3."""
    names = ["a0", "a1", "a2", "h", "t"]
    arcs = [("a0", "a1"), ("a1", "a2"), ("a2", "a0"), ("h", "t")]
    d = make_digraph(names, [(s, u, 1) for s, u in arcs + [("h", a) for a in names[:3]]])
    rotation = (1, 2, 0, 3, 4)
    one = dict.fromkeys(names, 0)
    for seed, expected in ((None, [1, 1, 1, 4, 0]), (one, [1, 1, 1, 0, 4])):
        _check_root_per_orbit(d, seed, [rotation])
        search = engine._PairSearch(d, d, seed, seed, [rotation])
        assert search.path[0][0][0] == expected
        assert search.automorphism_group() == engine.AutGroup((rotation,), 3)


def test_root_signing_does_not_grow_with_the_group(monkeypatch):
    """Verify's root signs one vertex per translation orbit, 44 orbits on
    every cyclic space: the signature entries it computes, counted as calls
    of ``add``, are as many on cyclic:384 (16,896 points) as on cyclic:96."""
    entries, add, refine_root = [0], engine.add, engine._refine

    def counting_add(a, b):
        entries[0] += 1
        return a + b

    def root(*args):
        monkeypatch.setattr(engine, "add", counting_add)
        try:
            return refine_root(*args)
        finally:
            monkeypatch.setattr(engine, "add", add)

    monkeypatch.setattr(engine, "_refine", root)
    counts = []
    for m in (96, 192, 384):
        entries[0] = 0
        assert verify_realization(cyclic(m)).passed
        counts.append(entries[0])
    assert counts == [390] * 3


def test_verify_makes_few_rows_and_builds_no_incidence(monkeypatch):
    """With the t_s as known maps, the search reads its rows through rows
    made on first read: it builds neither ``_incidence`` nor ``_degrees``,
    and makes as many rows on cyclic:384 (16,896 points) as on cyclic:96:
    75 neighbour rows, and offsets and degrees for 60 of those vertices."""
    made, on_first_read = [], ColoredDigraph._on_first_read

    def recording(d):
        made.append(on_first_read(d))
        return made[-1]

    monkeypatch.setattr(ColoredDigraph, "_on_first_read", recording)
    counts = []
    for m in (96, 192, 384):
        space = build_realization(cyclic(m))
        d = hasse_digraph(space.poset)
        assert automorphisms(d, engine._check_generators(space)).order == m
        assert "_incidence" not in d.__dict__ and "_degrees" not in d.__dict__
        [((nbrs, offsets), degrees)] = made
        made.clear()
        counts.append((len(nbrs), len(offsets), len(degrees)))
    assert counts == [(75, 60, 60)] * 3


# -- the root walk stopped at the goal ----------------------------------------


def test_orbit_forest_is_flat():
    """The known maps' orbits in one labelling pass: each vertex labelled by
    the smallest vertex of its orbit, so every root is its own parent and
    ``_find`` reads any label in one step; the second value counts them."""
    for maps, n in [([], 4), ([(1, 2, 0, 3, 4)], 5), ([(1, 0, 2, 3), (0, 2, 3, 1)], 4),
                    ([(3, 4, 5, 0, 1, 2)], 6)]:
        forest, trees = engine._orbit_forest(maps, n)
        assert forest == _orbit_reps(maps, n)
        assert trees == _orbit_count(maps, n)
        assert all(forest[r] == r for r in forest)


def _named_digraph(n: int, arcs):
    names = [f"v{i}" for i in range(n)]
    return make_digraph(names, [(names[s], names[t], 1) for s, t in arcs])


def test_the_walk_stops_only_once_the_known_images_of_the_pivot_are_reached():
    """Three directed paths x_i -> y_i -> z_i, the known map cycling them:
    the root's classes are the known orbits {x}, {y}, {z}, and the walk from
    x0 meets all three but never reaches x1, so it must not stop."""
    d = _named_digraph(9, [(3 * i, 3 * i + 1) for i in range(3)]
                       + [(3 * i + 1, 3 * i + 2) for i in range(3)])
    cycle = tuple((v + 3) % 9 for v in range(9))
    assert automorphisms(d, [cycle]).order == brute_force_automorphisms(d).order == 6


def test_the_walk_stops_only_once_every_class_is_met():
    """A directed 3-cycle a0 -> a1 -> a2 -> a0 and isolated b0, b1, b2, the
    known map (a0 a1 a2)(b0 b1 b2): the walk from a0 reaches a1 = t(a0) but
    no b, so it must not stop."""
    d = _named_digraph(6, [(0, 1), (1, 2), (2, 0)])
    assert automorphisms(d, [(1, 2, 0, 4, 5, 3)]).order == 18


def test_the_walk_gets_no_goal_at_a_root_coarser_than_the_known_orbits():
    """Two directed 3-cycles, the known map turning one of them: the root
    has one class, fewer than the four known orbits, so a walk from c0_0
    that reaches c0_1 meets every class and still proves nothing."""
    d = _directed_cycles(3, 3)
    search = engine._PairSearch(d, d, known=[(1, 2, 0, 3, 4, 5)])
    assert len(search.path[0][0][1]) == 1
    assert search.automorphism_group().order == 18


def test_the_walk_gets_no_goal_below_the_root():
    """Four isolated vertices, the known map swapping v0 and v1: two levels
    down, {v0}, {v1}, {v2, v3} has as many classes as the known orbits but
    is not their partition, so the walk from v2 there gets no goal."""
    d = _named_digraph(4, [])
    group = automorphisms(d, [(1, 0, 2, 3)])
    assert group.order == 24
    assert set(group.generators) <= set(brute_force_automorphisms(d).generators)


def _walks_cut_short(monkeypatch) -> list:
    """Each walk given a goal, as (cut tree, full tree), checking the lemma:
    where the cut walk stops, the full walk is complete and begins alike."""
    walks, walk = [], engine._unique_walk

    def checked(inc, colors, cells, v, goal=None):
        tree = walk(inc, colors, cells, v, goal)
        if goal is not None:
            full = walk(inc, colors, cells, v)
            if tree is not None:
                assert full is not None and full[:len(tree)] == tree
            walks.append((tree, full))
        return tree

    monkeypatch.setattr(engine, "_unique_walk", checked)
    return walks


def test_the_cut_walk_gives_the_oracle_order(monkeypatch):
    """Digraphs from ``circulant_unions``, with one to three of the oracle's
    generators as known maps: the order is the oracle's, and in some draws
    the walk is indeed cut short (15 of 200 with this fixed sequence of
    draws; about 3 in 100 random ones).  The draws are derandomized so
    that the count is the same in every run."""
    walks = _walks_cut_short(monkeypatch)

    @settings(max_examples=200, derandomize=True)
    @given(circulant_unions(max_vertices=8), st.data())
    def check(drawn, data):
        d, _ = drawn
        oracle = brute_force_automorphisms(d)
        known = data.draw(st.lists(st.sampled_from(oracle.generators), min_size=1, max_size=3)
                          if oracle.generators else st.just([]))
        assert automorphisms(d, known).order == oracle.order

    check()
    assert sum(tree is not None and tree != full for tree, full in walks) > 0


@pytest.mark.parametrize(
    "spec",
    ["cyclic:12", "cyclic:24", "cyclic:48", "cyclic:96", "symmetric:4", "dihedral:24",
     *(f"perm:{gens}" for gens, _ in CORPUS.values())],
    ids=["cyclic:12", "cyclic:24", "cyclic:48", "cyclic:96", "symmetric:4", "dihedral:24",
         *CORPUS],
)
def test_the_cut_walk_gives_the_group_of_the_full_walk(spec):
    """Verify's engine, with the walk cut at the goal, gives the group that
    the walk run to the end gives."""
    space = build_realization(parse_group_spec(spec))
    d = hasse_digraph(space.poset)
    known = engine._check_generators(space)
    walk = engine._unique_walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_unique_walk",
                   lambda inc, colors, cells, v, goal=None: walk(inc, colors, cells, v))
        full = automorphisms(d, known)
    assert automorphisms(d, known) == full
    assert full.order == space.group.order


def test_the_root_walk_does_not_grow_with_the_group(monkeypatch):
    """Verify's root walk stops once it has reached the pivot's image under
    the one translation and a member of each of the 44 orbits: its tree has
    95 entries on cyclic:96 (4,224 points), cyclic:192 and cyclic:384."""
    walks = _walks_cut_short(monkeypatch)
    for m in (96, 192, 384):
        walks.clear()
        assert verify_realization(cyclic(m)).passed
        [(tree, full)] = walks
        assert (len(tree), full is not None) == (95, True), m


def _unique_neighbours(inc, colors: list[int], x: int) -> dict[int, int]:
    """x's neighbours by bucket, keyed ``offset + colors[u]`` as a signature
    is: the one neighbour in each bucket, or -1 where a bucket has more.
    The engine's first bucket routine, kept for the references below."""
    nbrs, offsets = inc
    keys = list(map(add, offsets[x], map(colors.__getitem__, nbrs[x])))
    unique = dict(zip(keys, nbrs[x]))
    if len(unique) < len(keys):
        for key, count in Counter(keys).items():
            if count > 1:
                unique[key] = -1
    return unique


def _reference_walk(inc, colors: list[int], cells: dict, v: int | None) -> list | None:
    """The unique-neighbour walk as first written: one bucket dict, checked
    for shared keys, per vertex expanded.  Kept as the reference for
    ``engine._unique_walk``, which finds the shared keys once per class."""
    order = [members[0] for members in cells.values() if len(members) == 1]
    if v is not None:
        order.append(v)
    seen = bytearray(len(colors))
    for u in order:
        seen[u] = 1
    tree = []
    for x in order:
        if all(map(seen.__getitem__, inc[0][x])):
            continue
        for key, u in _unique_neighbours(inc, colors, x).items():
            if u >= 0 and not seen[u]:
                seen[u] = 1
                order.append(u)
                tree.append((u, x, key))
    return tree if len(order) == len(colors) else None


def _check_walks(d, search, starts=None):
    """On each state of the search's path the walk's tree is the reference's,
    from the pivot, from no vertex and from each of ``starts`` (default:
    every vertex), and it counts the keys of at most one member per class."""
    inc = d._incidence
    for depth, ((colors, cells), _) in enumerate(search.path):
        pivot = search.base[depth] if depth < len(search.base) else None
        for v in {pivot, None, *(range(len(colors)) if starts is None else starts)}:
            counted = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "Counter",
                           lambda keys: counted.append(1) or Counter(keys))
                tree = engine._unique_walk(inc, colors, cells, v)
            assert tree == _reference_walk(inc, colors, cells, v)
            assert len(counted) <= len(cells)


@given(st.one_of(seeded_digraphs(), circulant_unions()), st.data())
def test_walk_matches_the_reference(drawn, data):
    d, seed = drawn
    for keys in (None, seed):
        group = engine._PairSearch(d, d, keys, keys).automorphism_group()
        known = [g for g in group.generators if data.draw(st.booleans())]
        _check_walks(d, engine._PairSearch(d, d, keys, keys, known))


@pytest.mark.parametrize(
    "spec",
    ["cyclic:12", "cyclic:24", "cyclic:48", "symmetric:4", "dihedral:24",
     *(f"perm:{gens}" for gens, _ in CORPUS.values())],
    ids=["cyclic:12", "cyclic:24", "cyclic:48", "symmetric:4", "dihedral:24", *CORPUS],
)
def test_walk_matches_the_reference_on_realization_spaces(spec):
    """At verify's root, the translation orbits.  The walk expands more
    vertices than there are classes, so shared keys sought per vertex
    would be counted more often than the check allows."""
    space = build_realization(parse_group_spec(spec))
    d = hasse_digraph(space.poset)
    search = engine._PairSearch(d, d, known=engine._check_generators(space))
    _check_walks(d, search, range(0, len(d.vertices), 97))


# -- the pair walk against the leaf as first written ---------------------------


def _reference_leaf(search, state_b: tuple, w: int | None):
    """``_PairSearch._leaf`` as first written: each right bucket it reads
    is checked for a second member, which refuses the branch."""
    colors_b, cells_b = state_b
    image = [-1] * search.n
    used = bytearray(search.n)
    for c, members in search.path[-1][0][1].items():
        if len(members) == 1:
            right = cells_b.get(c, ())
            if len(right) != 1:
                return None
            image[members[0]] = right[0]
            used[right[0]] = 1
    if w is not None:
        image[search.base[-1]] = w
        used[w] = 1
    last = unique = None
    for u, x, key in search.tree:
        if x != last:
            last, unique = x, _unique_neighbours(search.inc_b, colors_b, image[x])
        y = unique.get(key, -1)
        if y < 0 or used[y]:
            return None
        used[y] = 1
        image[u] = y
    return search._accept(tuple(image))


class _SplitSizes(tuple):
    """A trace entry that matches any entry with the same split sizes."""

    def __ne__(self, entry):
        return self[0] != entry[0]


def _by_split_sizes(settle):
    """``_settle`` with a target trace compared by round 0 and the split
    sizes of each later round."""
    def by_sizes(inc, colors, cells, dirty, entry, target):
        if target is not None:
            target = [target[0], *map(_SplitSizes, target[1:])]
        return settle(inc, colors, cells, dirty, entry, target)

    return by_sizes


def _with_checked_leaves(call, sizes_only: bool):
    """Run call with every leaf checked against ``_reference_leaf``.  With
    ``sizes_only`` the right side's trace is compared by round 0 and the
    split sizes alone, not the signature hashes: class names and sizes
    still agree on both sides, but class-to-class counts need not, so a
    right bucket can hold more vertices than the left one.  (With no trace
    check at all, a right side can lack the pivot's class.)"""
    leaf = engine._PairSearch._leaf
    leaves = []

    def checked(self, state_b, w):
        sigma = leaf(self, state_b, w)
        assert sigma == _reference_leaf(self, state_b, w)
        leaves.append(sigma)
        return sigma

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._PairSearch, "_leaf", checked)
        if sizes_only:
            mp.setattr(engine, "_settle", _by_split_sizes(engine._settle))
        return call(), leaves


def _circulant_union(m: int, k: int, steps: dict, names: list):
    """k copies of Z_m with arcs i -> i + j of color c for each j: c in steps."""
    arcs = {(b * m + i, b * m + (i + j) % m, c)
            for b in range(k) for i in range(m) for j, c in steps.items()}
    return make_digraph(names, [(names[s], names[t], c) for s, t, c in arcs])


@st.composite
def digraph_pairs(draw):
    """(a, b, seed_a, seed_b) on equal vertex counts: a drawn digraph and a
    relabelled copy, its seed relabelled or shuffled; or two unions of
    circulants, k copies of Z_m and k' of Z_m' with km = k'm' and steps
    drawn per side, each seeded by one value, which are often not
    isomorphic."""
    if draw(st.booleans()):
        a, seed = draw(st.one_of(seeded_digraphs(max_vertices=7), circulant_unions()))
        n = len(a.vertices)
        pi = draw(st.permutations(range(n)))
        names = [f"w{i}" for i in range(n)]
        rename = {v: names[pi[i]] for i, v in enumerate(a.vertices)}
        b = make_digraph(names, [(rename[s], rename[t], c) for s, t, c in a.edges])
        values = [seed[v] for v in a.vertices]
        if draw(st.booleans()):
            values = draw(st.permutations(values))
        return a, b, seed, {rename[v]: k for v, k in zip(a.vertices, values)}
    n = draw(st.integers(2, 10))
    names = [f"v{i}" for i in range(n)]
    sides = []
    for _ in range(2):
        m = draw(st.sampled_from([m for m in range(2, n + 1) if n % m == 0]))
        steps = draw(st.dictionaries(st.integers(1, m - 1), st.integers(1, 2), max_size=3))
        sides.append(_circulant_union(m, n // m, steps, names))
    seed = dict.fromkeys(names, 0)
    return (*sides, seed, seed)


_SIX = [f"v{i}" for i in range(6)]


@given(digraph_pairs(), st.booleans())
@example((_circulant_union(6, 1, {1: 1}, _SIX), _circulant_union(3, 2, {1: 1}, _SIX),
          dict.fromkeys(_SIX, 0), dict.fromkeys(_SIX, 0)), False)
def test_leaf_matches_the_reference(pair, sizes_only):
    """Every leaf the search reaches, on both sides of an isomorphism
    search, seeded and unseeded, and in automorphism mode, gives what the
    leaf as first written gives.  The explicit example is the directed C6
    against two directed C3s, whose walk matches every bucket but is not
    injective."""
    a, b, seed_a, seed_b = pair
    for seeds in ((None, None), (seed_a, seed_b)):
        _with_checked_leaves(lambda: isomorphism_between(a, b, *seeds), sizes_only)
    _with_checked_leaves(lambda: automorphisms(a), sizes_only)


def test_leaf_matches_the_reference_on_a_shared_right_bucket():
    """A directed 4-cycle against the circulant with steps 1 and 2, both
    seeded by one value: one class on each side, and with only the split
    sizes compared the root passes.  The left walk from the pivot is
    complete, and at every candidate w the right bucket of its out-arcs
    holds two vertices where the left holds one."""
    names = list("abcd")
    a, b = (_circulant_union(4, 1, steps, names) for steps in ({1: 1}, {1: 1, 2: 1}))
    seed = dict.fromkeys(names, 0)
    mapping, leaves = _with_checked_leaves(lambda: isomorphism_between(a, b, seed, seed), True)
    assert (mapping, leaves) == (None, [None] * 4)
    search = engine._PairSearch(a, b, seed, seed)
    (colors, _), _ = search.path[0]  # one class, named 0, on either side
    _, x, key = search.tree[0]
    assert x == search.base[0]
    assert all(_unique_neighbours(b._incidence, colors, w)[key] == -1 for w in range(4))
