import importlib
import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_colored_digraph, reference_refine, seeded_digraphs
from finspace import (
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
    level_of,
    make_digraph,
    make_poset,
    refine,
    verify_realization,
)

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
    d = make_digraph(
        [c + v for c in "ab" for v in one.vertices],
        [(c + s, c + t, e) for c in "ab" for s, t, e in one.edges],
    )
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
        idx_edges = d._edge_indices
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


def test_orbit_pruning_skips_images_of_found_generators(monkeypatch):
    """On a directed 7-cycle the first rotation found carries the base point
    to every other candidate, so one branch is tried, not six."""
    branches = []
    branch = engine._PairSearch._branch
    monkeypatch.setattr(
        engine._PairSearch,
        "_branch",
        lambda self, *args: branches.append(args[-1]) or branch(self, *args),
    )
    names = [f"v{i}" for i in range(7)]
    cycle = make_digraph(names, [(names[i], names[(i + 1) % 7], 1) for i in range(7)])
    group = automorphisms(cycle)
    assert (group.order, len(group.generators)) == (7, 1)
    assert len(branches) == 1


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


def test_isomorphism_between_seeds_with_equal_hashes():
    """Seed multisets that hash alike (in CPython hash(-1) == hash(-2))."""
    a = make_digraph(["x", "y"], [])
    b = make_digraph(["x", "y"], [])
    assert isomorphism_between(a, b, {"x": -1, "y": -2}, {"x": -1, "y": -1}) is None
    assert isomorphism_between(b, a, {"x": -1, "y": -1}, {"x": -1, "y": -2}) is None


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
    """With every trace comparison passing, answers come from leaf checks."""
    engine = importlib.import_module("finspace.engine")
    unchecked = engine._settle
    monkeypatch.setattr(engine, "_settle", lambda *args: unchecked(*args[:-1], None))
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


def test_trace_pruning_reaches_no_leaf(monkeypatch):
    """Non-isomorphic realization spaces are refuted by traces, not leaves."""
    leaves = []
    extract = engine._PairSearch._extract
    monkeypatch.setattr(
        engine._PairSearch,
        "_extract",
        lambda self, col_b: leaves.append(1) or extract(self, col_b),
    )
    c4 = group_from_permutations([[1, 2, 3, 0], [3, 0, 1, 2]])
    c2c4 = direct_product(cyclic(2), cyclic(4))
    for g, h in [(klein_four(), c4), (c2c4, dihedral(8))]:
        a, b = build_realization(g).poset, build_realization(h).poset
        assert len(a.points) == len(b.points)
        assert isomorphic(a, b) is None
    assert leaves == []

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
    for g in group.generators:
        for i, v in enumerate(d.vertices):
            assert level_of(space.poset, v) == level_of(space.poset, d.vertices[g[i]])


def test_found_automorphisms_preserve_block_families():
    space = build_realization(cyclic(3))
    d = hasse_digraph(space.poset)
    idx = {v: i for i, v in enumerate(d.vertices)}
    block_sets = space.block_point_sets()
    family_of_set = {
        frozenset(pts): space.provenance[next(iter(pts))].family
        for pts in block_sets.values()
    }
    for g in automorphisms(d).generators:
        for pts, fam in family_of_set.items():
            image = frozenset(d.vertices[g[idx[p]]] for p in pts)
            assert family_of_set.get(image) == fam


def test_verify_realization_cyclic3():
    report = verify_realization(cyclic(3))
    assert report.passed
    assert report.point_count == 132
    assert report.induced_valid == 3
    assert report.engine_order == 3
    assert report.render().splitlines()[-1] == "order(Aut) = 3 = |G| : PASS"
    assert report.render() == verify_realization(cyclic(3)).render()


def _swap_two(image, space):
    image[0], image[1] = image[1], image[0]


def _collapse_one(image, space):
    """Send point p to q's image, where q is above and below all that p is:
    every cover still lands on a cover, but the map is not injective."""
    x = space.poset
    p, q = next(
        (p, q)
        for p in range(len(image))
        for q in range(len(image))
        if p != q
        and set(x._up[p]) <= set(x._up[q])
        and set(x._down[p]) <= set(x._down[q])
    )
    image[p] = image[q]
    covers = {(x._index[a], x._index[b]) for a, b in x.covers}
    assert all((image[a], image[b]) in covers for a, b in covers)


def _copy_other(image, space):
    image[:] = induced_translation(space, 2)


@pytest.mark.parametrize(
    "mutate, valid, distinct",
    [(_swap_two, 3, True), (_collapse_one, 3, True), (_copy_other, 4, False)],
    ids=["swapped-pair", "repeated-entry", "image-of-other-h"],
)
def test_certificate_checks_every_translation(monkeypatch, mutate, valid, distinct):
    """One broken map among the |G| induced translations fails part 2."""
    honest = engine.induced_translation

    def mutant(space, h):
        image = list(honest(space, h))
        if h == 1:
            mutate(image, space)
        return tuple(image)

    monkeypatch.setattr(engine, "induced_translation", mutant)
    report = verify_realization(cyclic(4))
    assert report.induced_valid == valid
    assert report.induced_distinct is distinct
    assert report.engine_order == 4 and not report.passed


def test_verify_realization_budget():
    from finspace import symmetric

    with pytest.raises(ValueError, match="2352"):
        verify_realization(symmetric(4))
    report = verify_realization(symmetric(4), budget=3000)
    assert report.point_count == 2352
    assert report.passed


def test_inventory_counts_are_block_counts():
    report = verify_realization(cyclic(2))
    assert report.inventory == ((0, 2), (1, 2), (2, 2), (3, 2))
    assert sum(count for _, count in report.inventory) == 8
