import importlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import closure_from_pairs, covers_from_closure, full_table, level_of, random_poset
from test_acceptance import CORPUS
from finspace import (
    FiniteGroup,
    Poset,
    RealizationSpace,
    asymmetric_block,
    assemble,
    build_realization,
    cyclic,
    dihedral,
    group_from_permutations,
    induced_translation,
    isomorphic,
    is_minimal,
    klein_four,
    make_poset,
    predicted_point_count,
    right_translation,
    symmetric,
    verify_realization,
)

assembly = importlib.import_module("finspace.assembly")
engine = importlib.import_module("finspace.engine")
poset_module = importlib.import_module("finspace.poset")


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
    levels = level_of(block)
    at = {lvl: {p for p in block.points if levels[p] == lvl} for lvl in (1, 2)}
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


def _reference_assemble(blocks, connections):
    """The point-level builder: every connection's covers appended to the
    rows, each row sorted, and the whole relation checked by ``Poset``."""
    for lo, hi in connections:
        if lo not in blocks or hi not in blocks:
            raise ValueError(f"connection ({lo!r}, {hi!r}) names an unknown block")
    points, up, start = [], [], {}
    for bname, block in blocks.items():
        if not block.points:
            raise ValueError(f"empty block {bname!r}")
        base = start[bname] = len(points)
        points.extend(f"{bname}/{p}" for p in block.points)
        up.extend([base + j for j in ys] for ys in block.up)

    def at_level(p, level):
        return [i for i, lvl in enumerate(p._levels) if lvl == level]

    for lo, hi in connections:
        bottoms = [start[hi] + j for j in at_level(blocks[hi], 1)]
        lower = blocks[lo]
        for i in at_level(lower, max(lower._levels)):
            up[start[lo] + i].extend(bottoms)
    return Poset(tuple(points), tuple(tuple(sorted(ys)) for ys in up))


def _outcome(build, blocks, connections):
    try:
        p = build(blocks, connections)
    except ValueError as exc:
        return str(exc)
    return p.points, p.up, p._levels


# Names with "/" make point names collide: block "a" point "q/p0" and
# block "a/q" point "p0" are both "a/q/p0"; so do block 7's and block "7"'s.
BLOCK_NAMES = ["a", "a/q", "b", "c", "d", "e", 7, "7"]
FLAT_POINTS = ["p0", "p1", "q/p0", "x"]


@st.composite
def _assemblies(draw):
    """Blocks (random posets of mixed heights and one-level blocks, some
    objects shared) and connections: covers or any pairs of a random
    order of the blocks, plus perhaps one arbitrary pair, which may run
    backward, join a block to itself or be implied through a third."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            pool.append(random_poset(random.Random(draw(st.integers(0, 2**32))), 6))
        else:
            flat = draw(st.lists(st.sampled_from(FLAT_POINTS), unique=True, min_size=1))
            pool.append(make_poset(flat, []))
    names = draw(st.lists(st.sampled_from(BLOCK_NAMES), unique=True, min_size=1, max_size=6))
    blocks = {name: draw(st.sampled_from(pool)) for name in names}
    m = len(names)
    rank = draw(st.permutations(range(m)))
    forward = [(rank[i], rank[j]) for i in range(m) for j in range(i + 1, m)]
    pairs = draw(st.sets(st.sampled_from(forward))) if forward else set()
    if draw(st.booleans()):
        pairs = covers_from_closure(closure_from_pairs(m, pairs))
    pairs |= draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=1))
    return blocks, {(names[i], names[j]) for i, j in pairs}


@given(_assemblies())
def test_assemble_matches_the_point_level_builder(case):
    """Same points, rows and levels, or the same error, as the builder that
    checks every assembled cover."""
    blocks, connections = case
    assert _outcome(assemble, blocks, connections) == _outcome(
        _reference_assemble, blocks, connections
    )


def test_assemble_checks_names_when_a_block_name_holds_a_slash():
    """Block "a" with point "q/p0" and block "a/q" with point "p0" both lay
    the name "a/q/p0": with a "/" in a block name, distinct block names and
    distinct point names no longer make the laid names distinct, so the
    names are checked, and the collision is refused as the point-level
    builder refuses it."""
    blocks = {"a": make_poset(["q/p0"], []), "a/q": make_poset(["p0"], [])}
    message = _outcome(_reference_assemble, blocks, set())
    assert message == "duplicate point identifiers"
    assert _outcome(assemble, blocks, set()) == message


def test_assembled_levels_add_block_heights():
    """A block's offset is the longest path into it weighted by block
    heights, not its quotient level times one height."""
    point, chain3 = make_poset(["p"], []), make_poset("xyz", [("x", "y"), ("y", "z")])
    blocks = {"top": point, "tall": chain3, "flat": point, "side": point}
    connections = {("flat", "tall"), ("tall", "top"), ("side", "top")}
    out = assemble(blocks, connections)
    assert out.points == ("top/p", "tall/x", "tall/y", "tall/z", "flat/p", "side/p")
    assert out.up == ((), (2,), (3,), (0,), (1,), (0,))
    assert out._levels == (5, 2, 3, 4, 1, 1)
    assert _outcome(assemble, blocks, connections) == _outcome(
        _reference_assemble, blocks, connections
    )


_ANTICHAIN = make_poset(["x", "y", "z"], [])
_TWO_CHAIN = make_poset(["x", "y"], [("x", "y")])
_POINT = make_poset(["p"], [])
_SHARED = asymmetric_block(0)
_TWIN = Poset(_SHARED.points, _SHARED.up)  # equal to _SHARED, another object


@pytest.mark.parametrize(
    "blocks, connections",
    [
        # rows that join to no index, below and above a 2-chain
        ({"lo": _ANTICHAIN, "mid": _TWO_CHAIN, "hi": _ANTICHAIN},
         {("lo", "mid"), ("mid", "hi")}),
        # rows that join to one index, and one first-level point per copy
        ({"a": _TWO_CHAIN, "b": _TWO_CHAIN, "c": _TWO_CHAIN}, {("a", "c"), ("b", "c")}),
        # one-point blocks: one index per copy, no rows
        ({"p": _POINT, "q": _POINT, "r": _TWO_CHAIN}, {("p", "r"), ("r", "q")}),
        ({"only": _POINT}, set()),
        # one object under three names beside an equal but distinct one
        ({"s1": _SHARED, "t": _TWIN, "s2": _SHARED, "s3": _SHARED},
         {("s1", "t"), ("s2", "t"), ("t", "s3")}),
    ],
    ids=["antichain", "two-chain", "one-point", "lone-point", "shared-and-twin"],
)
def test_assemble_gathers_edge_case_blocks_as_the_point_level_builder(blocks, connections):
    """A block's rows joined may hold no index or one, where an
    ``itemgetter`` raises or returns a bare int; templates are per object,
    so equal blocks that are distinct objects assemble alike."""
    got = _outcome(assemble, blocks, connections)
    assert not isinstance(got, str)
    assert got == _outcome(_reference_assemble, blocks, connections)


def test_realization_rows_share_one_int_object_per_point():
    """Every copy's rows are gathered from one list of the point indices, so
    an index is one int object wherever it appears."""
    p = build_realization(cyclic(48)).poset
    assert len({id(j) for row in p.up for j in row}) <= len(p.points)


def _count_row_checks(monkeypatch) -> list[int]:
    """The number of rows of each ``_check_rows`` call a ``Poset`` makes."""
    sizes = []
    check = poset_module._check_rows
    monkeypatch.setattr(
        poset_module,
        "_check_rows",
        lambda names, rows, *args: sizes.append(len(rows)) or check(names, rows, *args),
    )
    return sizes


def test_realization_checks_the_quotient_not_the_points(monkeypatch):
    """cyclic:12 has 48 blocks and 528 points: one row check, on the
    quotient, and a ``Poset`` equal to the fully checked one."""
    family = {k: asymmetric_block(k) for k in range(4)}
    monkeypatch.setattr(assembly, "asymmetric_block", family.__getitem__)
    sizes = _count_row_checks(monkeypatch)
    p = build_realization(cyclic(12)).poset
    assert sizes == [48]
    checked = Poset(p.points, p.up)
    assert sizes == [48, 528]
    assert checked == p and checked._levels == p._levels


def test_block_names_need_not_be_str(monkeypatch):
    """The quotient of non-str names is no ``Poset``, so the points are
    checked in full, as before."""
    block = asymmetric_block(0)
    blocks, connections = {1: block, (2, 3): block}, {(1, (2, 3))}
    sizes = _count_row_checks(monkeypatch)
    out = assemble(blocks, connections)
    assert sizes == [16]
    assert out.points[0] == "1/a/bot" and out.points[8] == "(2, 3)/a/bot"
    assert _outcome(assemble, blocks, connections) == _outcome(
        _reference_assemble, blocks, connections
    )


# -- realization space --------------------------------------------------------


def _reference_build_realization(group):
    """The realization space laid by name: its blocks added one by one, per
    element and then per Cayley edge, with four named connections per
    edge, through the public ``assemble``, and each record starting where
    the one before it ends."""
    n = len(group.generators)
    family = [asymmetric_block(k) for k in range(3 * n + 1)]
    blocks, records, connections = {}, [], set()

    def add(kind, fam, name, g, color=None, target=None):
        start = records[-1].start + records[-1].size if records else 0
        blocks[name] = family[fam]
        size = len(family[fam].points)
        records.append(assembly.BlockInfo(kind, fam, name, g, color, target, start, size))

    vert = [f"vert[{x}]" for x in group.elements]
    for g in range(group.order):
        add("vertex", 0, vert[g], g)
    for k, row in enumerate(group.rows, start=1):
        for g, target in enumerate(row):
            x = group.elements[g]
            edge, src, dst = f"edge{k}[{x}]", f"src{k}[{x}]", f"dst{k}[{x}]"
            add("edge", k, edge, g, k, target)
            add("start", n + k, src, g, k, target)
            add("end", 2 * n + k, dst, g, k, target)
            connections |= {(vert[g], src), (edge, src), (vert[target], dst), (edge, dst)}
    return RealizationSpace(assemble(blocks, connections), tuple(records), group)


def _slashed_cyclic3():
    """Z/3 whose element names hold "/", so every block name does too."""
    names = ("e", "a/1", "a/2")
    table = tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
    return FiniteGroup(names, table, 0, (1,))


_LAID = {
    "cyclic:2": lambda: cyclic(2),
    "cyclic:12": lambda: cyclic(12),
    "klein_four": klein_four,
    "dihedral:8": lambda: dihedral(8),
    "symmetric:3": lambda: symmetric(3),
    "symmetric:4": lambda: symmetric(4),
    "perm:three-transpositions": lambda: group_from_permutations(
        [[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]]
    ),
    "slashed-cyclic:3": _slashed_cyclic3,
}


@pytest.mark.parametrize("name", _LAID)
def test_build_realization_lays_the_blocks_as_assemble_does(name):
    """The records and block quotient laid by index in closed form give the
    points, rows, levels and records that laying the same blocks and named
    connections through ``assemble`` gives; with "/" in the block names
    the point names are checked as a set, and come out the same."""
    group = _LAID[name]()
    got, expected = build_realization(group), _reference_build_realization(group)
    assert got.poset.points == expected.poset.points
    assert got.poset.up == expected.poset.up
    assert got.poset._levels == expected.poset._levels
    assert got.blocks == expected.blocks


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
    levels = level_of(space.poset)
    assert space.poset._levels == tuple(map(levels.__getitem__, space.poset.points))
    assert set(levels.values()) == {1, 2, 3, 4}
    for info in space.blocks:
        story = {1, 2} if info.kind in ("vertex", "edge") else {3, 4}
        assert {levels[x] for x in _block_points(space, info)} <= story


def test_provenance_total_and_consistent():
    space = build_realization(cyclic(2))
    named = [x for info in space.blocks for x in _block_points(space, info)]
    assert sorted(named) == sorted(space.poset.points)
    for info in space.blocks:
        assert all(x.startswith(info.block + "/") for x in _block_points(space, info))


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


def _block_points(space, info) -> frozenset[str]:
    return frozenset(space.poset.points[info.start:info.start + info.size])


def test_story_components_are_exactly_the_blocks():
    space = build_realization(dihedral(6))
    levels = level_of(space.poset)
    lower = {x for x, l in levels.items() if l <= 2}
    upper = {x for x, l in levels.items() if l >= 3}
    lower_blocks = {
        _block_points(space, info)
        for info in space.blocks
        if info.kind in ("vertex", "edge")
    }
    upper_blocks = {
        _block_points(space, info)
        for info in space.blocks
        if info.kind in ("start", "end")
    }
    assert _components(lower, space.poset.covers) == lower_blocks
    assert _components(upper, space.poset.covers) == upper_blocks


def test_second_story_blocks_attach_to_one_vertex_and_one_edge_block():
    space = build_realization(dihedral(6))
    by_name = {info.block: info for info in space.blocks}
    block_of = {x: info.block for info in space.blocks for x in _block_points(space, info)}
    for info in space.blocks:
        if info.kind not in ("start", "end"):
            continue
        pts = _block_points(space, info)
        feeders = {
            block_of[x]
            for x, y in space.poset.covers
            if y in pts and x not in pts
        }
        kinds = {by_name[b].kind for b in feeders}
        assert kinds == {"vertex", "edge"}
        assert len(feeders) == 2
        vertex_block = next(b for b in feeders if by_name[b].kind == "vertex")
        owner = info.element if info.kind == "start" else info.target
        assert vertex_block == f"vert[{space.group.elements[owner]}]"


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


def test_translations_share_one_int_object_per_point():
    """Every t_s image is sliced from the space's one list of the point
    indices, so an index is one int object in all of them."""
    space = build_realization(symmetric(4))
    images = [induced_translation(space, h) for h in space.group.generators]
    assert len({id(j) for image in images for j in image}) == len(space.poset.points)


def _named_translation(space, h):
    """x -> x*h by block names: block g of each slot to block g*h, same local."""
    group = space.group
    table = full_table(group)
    prefix = {"vertex": "vert", "edge": "edge", "start": "src", "end": "dst"}
    out = {}
    for info in space.blocks:
        image = group.elements[table[info.element][h]]
        colour = "" if info.color is None else info.color
        for point in _block_points(space, info):
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


def _reference_translation(space, h):
    """The point-by-point translation: each point's image looked up by name,
    the target block's name plus the point's local name, in the poset's
    name index.  The records tile the points in order, so the points are
    read block by block."""
    times_h = right_translation(space.group, h)
    block_of: dict[tuple, str] = {}
    for info in space.blocks:
        key = (info.kind, info.color, info.element)
        if block_of.setdefault(key, info.block) != info.block:
            raise ValueError(f"{block_of[key]!r} and {info.block!r} claim one slot")
    points = space.poset.points
    index = {p: i for i, p in enumerate(points)}
    image: list[int] = []
    try:
        for info in space.blocks:
            target = block_of[info.kind, info.color, times_h[info.element]]
            for p in points[info.start:info.start + info.size]:
                image.append(index[target + p[len(info.block):]])
    except KeyError as exc:
        raise ValueError(f"no image under element {h} for {exc}") from None
    return tuple(image)


_TRANSLATED = {
    "cyclic:12": cyclic(12),
    "cyclic:24": cyclic(24),
    "cyclic:48": cyclic(48),
    "symmetric:4": symmetric(4),
    "dihedral:24": dihedral(24),
    **{name: group_from_permutations(json.loads(gens)) for name, (gens, _) in CORPUS.items()},
}


@pytest.mark.parametrize("name", _TRANSLATED)
def test_block_translation_matches_the_point_by_point_one(name):
    """On the verify ladder, dihedral:24 and the acceptance corpus, the
    translation by block ranges is the name-by-name one, for every h."""
    space = build_realization(_TRANSLATED[name])
    for h in range(space.group.order):
        assert induced_translation(space, h) == _reference_translation(space, h), h


def test_translation_reads_the_block_records(monkeypatch):
    space = build_realization(cyclic(3))
    points = space.poset.points
    # names are labels: with two points of a block swapped in the poset and
    # the same records, the map still goes by position within the blocks
    swapped = make_poset(points[1::-1] + points[2:], space.poset.covers)
    moved = RealizationSpace(swapped, space.blocks, space.group)
    assert induced_translation(moved, 1) == induced_translation(space, 1)
    vert_e, vert_x = space.blocks[:2]
    # a vertex block that does not fit the one it is carried onto
    wider = (replace(vert_e, size=9), replace(vert_x, start=9, size=7)) + space.blocks[2:]
    with pytest.raises(ValueError, match="no image under element 1 for block 'vert\\[e\\]'"):
        induced_translation(RealizationSpace(space.poset, wider, space.group), 1)
    # two vertex blocks claiming the same element
    bad = (vert_e, replace(vert_x, element=0)) + space.blocks[2:]
    bad_space = RealizationSpace(space.poset, bad, space.group)
    for h in range(3):
        with pytest.raises(ValueError, match="claim one slot"):
            induced_translation(bad_space, h)
    # ... is never certified: x has no vertex block, so no generator passes
    monkeypatch.setattr(engine, "build_realization", lambda group: bad_space)
    report = verify_realization(space.group)
    assert report.generators_valid == 0 and not report.passed


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda b: (replace(b[0], size=0),) + b[1:], "empty block 'vert\\[e\\]'"),
        (lambda b: b[:1] + (replace(b[1], start=9),) + b[2:],
         "block 'vert\\[x\\]' starts at 9, not at 8"),
        (lambda b: b[:-1], "cover exactly the assembled points"),
        (lambda b: (replace(b[0], element=3),) + b[1:], "names no element"),
        (lambda b: b[:3] + (replace(b[3], target=-1),) + b[4:], "names no element"),
    ],
    ids=["empty", "gap", "short", "element", "target"],
)
def test_block_records_must_tile_the_points(edit, message):
    space = build_realization(cyclic(3))
    with pytest.raises(ValueError, match=message):
        RealizationSpace(space.poset, edit(space.blocks), space.group)


def test_block_records_follow_the_assembled_points():
    """One record per block, in the order ``assemble`` lists the points."""
    space = build_realization(dihedral(6))
    group = space.group
    assert len(space.blocks) == group.order * (1 + 3 * len(group.generators))
    for info in space.blocks:
        block_points = space.poset.points[info.start:info.start + info.size]
        assert all(p.startswith(info.block + "/") for p in block_points)
