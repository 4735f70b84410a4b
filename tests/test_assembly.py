import importlib
from dataclasses import replace

import pytest

from finspace import (
    RealizationSpace,
    asymmetric_block,
    assemble,
    build_realization,
    cyclic,
    dihedral,
    induced_translation,
    isomorphic,
    is_minimal,
    level_of,
    make_poset,
    predicted_point_count,
    symmetric,
    verify_realization,
)

engine = importlib.import_module("finspace.engine")


# -- assemble -----------------------------------------------------------------


def test_assemble_single_block_is_prefixed_copy():
    block = asymmetric_block(1)
    out = assemble({"only": block}, set())
    assert len(out.points) == len(block.points)
    assert all(p.startswith("only/") for p in out.points)
    assert isomorphic(out, block) is not None


def test_assemble_two_blocks_complete_bipartite():
    out = assemble({"lo": asymmetric_block(0), "hi": asymmetric_block(0)}, {("lo", "hi")})
    assert len(out.points) == 16
    crossings = {
        (x, y) for x, y in out.covers if x.startswith("lo/") and y.startswith("hi/")
    }
    assert len(crossings) == 16  # 4 top points x 4 bottom points
    block = asymmetric_block(0)
    at = {lvl: {p for p in block.points if level_of(block, p) == lvl} for lvl in (1, 2)}
    assert {x for x, _ in crossings} == {f"lo/{p}" for p in at[2]}
    assert {y for _, y in crossings} == {f"hi/{p}" for p in at[1]}


def test_plan_rejects_cycles_and_unknown_names():
    b = asymmetric_block(0)
    with pytest.raises(ValueError, match="cycle"):
        assemble({"a": b, "b": b}, {("a", "b"), ("b", "a")})
    with pytest.raises(ValueError, match="unknown block"):
        assemble({"a": b}, {("a", "ghost")})


def test_assemble_rejects_an_empty_block():
    with pytest.raises(ValueError, match="^empty block 'void'$"):
        assemble({"a": asymmetric_block(0), "void": make_poset([], [])}, set())


def test_assemble_rejects_a_block_connected_to_itself():
    with pytest.raises(ValueError, match="cycle"):
        assemble({"a": asymmetric_block(0)}, {("a", "a")})
    # one level: the last level is the first, so each point covers itself
    with pytest.raises(ValueError, match="reflexive cover"):
        assemble({"a": make_poset(["x", "y"], [])}, {("a", "a")})


def test_assemble_connects_levels_not_maximal_points():
    # d is maximal but sits at level 1, below the last level, so it gets no
    # cover into hi; hi's first level is its minimal points x and z.
    lower = make_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c")])
    upper = make_poset(["x", "y", "z"], [("x", "y")])
    out = assemble({"lo": lower, "hi": upper}, {("lo", "hi")})
    crossings = {(x, y) for x, y in out.covers if y.startswith("hi/") and x.startswith("lo/")}
    assert crossings == {("lo/c", "hi/x"), ("lo/c", "hi/z")}


# -- realization space --------------------------------------------------------


def test_sizes_for_cyclic3_and_dihedral6():
    space3 = build_realization(cyclic(3))
    assert len(space3.poset.points) == 132
    assert space3.block_inventory() == {0: 3, 1: 3, 2: 3, 3: 3}

    space6 = build_realization(dihedral(6))
    assert len(space6.poset.points) == 588
    assert space6.block_inventory() == {0: 6, 1: 6, 2: 6, 3: 6, 4: 6, 5: 6, 6: 6}


def test_size_formula_matches_assembled_count():
    for g in (cyclic(2), cyclic(3), dihedral(6), symmetric(3)):
        space = build_realization(g)
        assert len(space.poset.points) == predicted_point_count(g)


def test_realization_is_minimal():
    for g in (cyclic(2), cyclic(3), dihedral(6)):
        assert is_minimal(build_realization(g).poset)


def test_exactly_four_levels_split_by_story():
    space = build_realization(cyclic(3))
    levels = {x: level_of(space.poset, x) for x in space.poset.points}
    assert set(levels.values()) == {1, 2, 3, 4}
    for point, lvl in levels.items():
        kind = space.provenance[point].kind
        if kind in ("vertex", "edge"):
            assert lvl in (1, 2)
        else:
            assert lvl in (3, 4)


def test_provenance_total_and_consistent():
    space = build_realization(cyclic(2))
    assert set(space.provenance) == set(space.poset.points)
    for point, info in space.provenance.items():
        assert point.startswith(info.block + "/")


def _components(points, covers):
    neighbors = {p: set() for p in points}
    for x, y in covers:
        if x in neighbors and y in neighbors:
            neighbors[x].add(y)
            neighbors[y].add(x)
    seen = set()
    comps = []
    for start in points:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for u in neighbors[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def test_story_components_are_exactly_the_blocks():
    space = build_realization(dihedral(6))
    levels = {x: level_of(space.poset, x) for x in space.poset.points}
    lower = {x for x, l in levels.items() if l <= 2}
    upper = {x for x, l in levels.items() if l >= 3}
    block_sets = space.block_point_sets()
    lower_blocks = {
        frozenset(pts)
        for b, pts in block_sets.items()
        if space.provenance[next(iter(pts))].kind in ("vertex", "edge")
    }
    upper_blocks = {
        frozenset(pts)
        for b, pts in block_sets.items()
        if space.provenance[next(iter(pts))].kind in ("start", "end")
    }
    assert _components(lower, space.poset.covers) == lower_blocks
    assert _components(upper, space.poset.covers) == upper_blocks


def test_second_story_blocks_attach_to_one_vertex_and_one_edge_block():
    space = build_realization(dihedral(6))
    block_sets = space.block_point_sets()
    for bname, pts in block_sets.items():
        info = space.provenance[next(iter(pts))]
        if info.kind not in ("start", "end"):
            continue
        feeders = {
            space.provenance[x].block
            for x, y in space.poset.covers
            if y in pts and x not in pts
        }
        kinds = {space.provenance[next(iter(block_sets[b]))].kind for b in feeders}
        assert kinds == {"vertex", "edge"}
        assert len(feeders) == 2
        vertex_block = next(
            b for b in feeders
            if space.provenance[next(iter(block_sets[b]))].kind == "vertex"
        )
        owner = info.element if info.kind == "start" else info.target
        assert vertex_block == f"vert[{owner}]"


def test_induced_translation_identity_and_shape():
    space = build_realization(cyclic(3))
    points = space.poset.points
    pos = {p: i for i, p in enumerate(points)}
    n = len(points)
    assert induced_translation(space, space.group.identity) == tuple(range(n))
    shifted = induced_translation(space, 1)
    assert sorted(shifted) == list(range(n))
    assert points[shifted[pos["vert[e]/a/bot"]]] == "vert[x]/a/bot"
    with pytest.raises(ValueError):
        induced_translation(space, 99)


def _named_translation(space, h):
    """x -> x*h by block names: block g of each slot to block g*h, same local."""
    group = space.group
    prefix = {"vertex": "vert", "edge": "edge", "start": "src", "end": "dst"}
    out = {}
    for point, info in space.provenance.items():
        g = group.elements.index(info.element)
        image = group.elements[group.table[g][h]]
        colour = "" if info.color is None else info.color
        out[point] = f"{prefix[info.kind]}{colour}[{image}]{point[len(info.block):]}"
    return out


@pytest.mark.parametrize("group", [cyclic(4), dihedral(6)], ids=["C4", "D6"])
def test_induced_translation_matches_block_names(group):
    space = build_realization(group)
    points = space.poset.points
    for h in range(group.order):
        named = _named_translation(space, h)
        image = induced_translation(space, h)
        assert [points[i] for i in image] == [named[p] for p in points]


def test_translation_follows_names_not_layout(monkeypatch):
    space = build_realization(cyclic(3))
    points = space.poset.points
    # a block whose points are not contiguous, and a block listing its
    # local names in another order than its slot: the map follows names
    split = make_poset(points[1:] + points[:1], space.poset.covers)
    swapped = make_poset(points[1::-1] + points[2:], space.poset.covers)
    for poset in (split, swapped):
        moved = RealizationSpace(poset, space.provenance, space.group)
        named = _named_translation(moved, 1)
        image = induced_translation(moved, 1)
        assert [poset.points[i] for i in image] == [named[p] for p in poset.points]
    # two vertex blocks claiming the same element
    bad = {
        p: replace(info, element="e") if info.block == "vert[x]" else info
        for p, info in space.provenance.items()
    }
    bad_space = RealizationSpace(space.poset, bad, space.group)
    for h in range(3):
        with pytest.raises(ValueError, match="claim one slot"):
            induced_translation(bad_space, h)
    # ... is never certified: x has no vertex block, so no generator passes
    monkeypatch.setattr(engine, "build_realization", lambda group: bad_space)
    report = verify_realization(space.group)
    assert report.generators_valid == 0 and not report.passed