import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import closure_from_pairs, covers_from_closure
from conftest import named_posets, posets, random_poset, reference_poset_dot
from finspace import (
    Poset,
    asymmetric_block,
    beat_points,
    build_realization,
    core,
    cyclic,
    hasse_degree,
    is_minimal,
    isomorphic,
    level_of,
    make_poset,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)
from finspace.poset import _delete_point, poset_to_json_dict

CHAIN3 = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
VEE = make_poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
SINGLETON = make_poset(["p"], [])
EMPTY = make_poset([], [])


# -- construction and validation ----------------------------------------


def test_rejects_reflexive_cover():
    with pytest.raises(ValueError, match="reflexive"):
        make_poset(["a"], [("a", "a")])


def test_rejects_cycle():
    with pytest.raises(ValueError, match="cycle"):
        make_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_rejects_transitively_implied_pair():
    with pytest.raises(ValueError, match="not a covering pair"):
        make_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_rejects_unknown_endpoint():
    with pytest.raises(ValueError, match="unknown point"):
        make_poset(["a"], [("a", "b")])


def test_rejects_duplicate_points():
    with pytest.raises(ValueError, match="duplicate"):
        make_poset(["a", "a"], [])


def test_rejects_point_names_that_are_not_strings():
    with pytest.raises(ValueError, match="^a point name is not a str$"):
        make_poset([1, 2], [(1, 2)])


def test_upper_covers_index_the_named_covers():
    assert CHAIN3.up == ((1,), (2,), ())
    assert VEE.up == ((2,), (2,), ())
    assert Poset(("a", "b", "c"), ((1,), (2,), ())) == CHAIN3
    assert VEE.covers == {("a", "c"), ("b", "c")}


@pytest.mark.parametrize(
    "up, match",
    [
        (((1,), ()), "expected 3 tuples of upper covers, got 2"),
        (((1,), (), (), ()), "expected 3 tuples of upper covers, got 4"),
        (((3,), (), ()), "upper cover of 'a' is out of range"),
        (((), (-1,), ()), "upper cover of 'b' is out of range"),
        (((), (1,), ()), "reflexive cover"),
        (((2, 1), (), ()), "not sorted and distinct"),
        (((1, 1), (), ()), "not sorted and distinct"),
        (([1], [], []), "not sorted and distinct"),
        (((True,), (), ()), "not an int index"),
        (((1.0,), (), ()), "not an int index"),
        ((("b",), (), ()), "not an int index"),
    ],
)
def test_rejects_malformed_upper_covers(up, match):
    with pytest.raises(ValueError, match=match):
        Poset(("a", "b", "c"), up)


def test_rejects_pair_implied_through_three_levels():
    chain = [("a", "b"), ("b", "c"), ("c", "d")]
    with pytest.raises(ValueError, match=r"\('a', 'd'\) is not a covering pair"):
        make_poset(["a", "b", "c", "d"], chain + [("a", "d")])


def test_accepts_poset_that_is_not_graded():
    # e covers a and is covered by d, beside the chain a < b < c < d
    covers = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("e", "d")]
    p = make_poset(["a", "b", "c", "d", "e"], covers)
    assert p.covers == set(covers)
    assert [level_of(p, x) for x in p.points] == [1, 2, 3, 4, 2]


@st.composite
def shuffled_pair_sets(draw, max_points: int = 9):
    """Upward index pairs (i < j) and a shuffled naming of the points."""
    n = draw(st.integers(min_value=2, max_value=max_points))
    upward = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = set(draw(st.lists(st.sampled_from(upward), unique=True)))
    order = draw(st.permutations(range(n)))
    return n, pairs, order


@given(shuffled_pair_sets())
def test_make_poset_accepts_exactly_the_covering_pairs(case):
    n, pairs, order = case
    points = [f"p{i}" for i in order]
    named = [(f"p{a}", f"p{b}") for a, b in pairs]
    if pairs == covers_from_closure(closure_from_pairs(n, pairs)):
        assert make_poset(points, named).covers == set(named)
    else:
        with pytest.raises(ValueError, match="not a covering pair"):
            make_poset(points, named)
    for x, y in named:
        with pytest.raises(ValueError, match="cycle"):
            make_poset(points, named + [(y, x)])


def test_make_poset_checks_the_covering_pairs_at_300_points():
    rng = random.Random(300)
    n = 300
    drawn = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.03}
    covers = covers_from_closure(closure_from_pairs(n, drawn))
    # pairs implied by a chain of two covers, the shortest implications
    two_steps = sorted({(a, d) for a, b in covers for c, d in covers if b == c})
    points = [f"p{i}" for i in rng.sample(range(n), n)]
    for pairs in [drawn, covers] + [covers | {e} for e in rng.sample(two_steps, 50)]:
        named = [(f"p{a}", f"p{b}") for a, b in pairs]
        if pairs == covers_from_closure(closure_from_pairs(n, pairs)):
            p = make_poset(points, named)
            assert p.covers == set(named)
            # some cover skips a level, so the check walks
            assert any(level_of(p, y) > level_of(p, x) + 1 for x, y in named)
        else:
            with pytest.raises(ValueError, match="not a covering pair"):
                make_poset(points, named)
    assert drawn != covers


def test_construction_memory_grows_linearly():
    # The set that finds duplicate names is a power-of-two table, so one
    # doubling of the points can cost 1x and the next 4x; bound the mean
    # growth per doubling over two doublings.  Quadratic memory grows 4x.
    peaks = []
    for k in (48, 96, 192):
        p = build_realization(cyclic(k)).poset
        tracemalloc.start()
        try:
            Poset(p.points, p.up)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 2.2**2 * peaks[0], peaks


def test_empty_poset_is_valid_minimal_and_its_own_core():
    assert is_minimal(EMPTY)
    assert core(EMPTY) == EMPTY


# -- level_of ------------------------------------------------------------


def test_level_of_singleton():
    assert level_of(SINGLETON, "p") == 1


def test_level_of_chain_top():
    assert level_of(CHAIN3, "c") == 3
    assert level_of(CHAIN3, "b") == 2
    assert level_of(CHAIN3, "a") == 1


def test_level_of_block_has_two_levels():
    block = asymmetric_block(3)
    for x in block.points:
        assert level_of(block, x) == (2 if x.endswith("/top") else 1)


def test_level_of_unknown_point():
    with pytest.raises(KeyError, match="no such point"):
        level_of(CHAIN3, "zz")


# -- beat points and minimality -------------------------------------------


def test_beats_of_two_chain():
    report = beat_points(make_poset(["a", "b"], [("a", "b")]))
    assert report.up_beats == {"a"}
    assert report.down_beats == {"b"}


def test_block_has_no_beats():
    report = beat_points(asymmetric_block(0))
    assert report.up_beats == frozenset()
    assert report.down_beats == frozenset()


def test_vee_beats():
    report = beat_points(VEE)
    assert report.up_beats == {"a", "b"}
    assert report.down_beats == frozenset()


def test_is_minimal_basics():
    assert is_minimal(SINGLETON)
    assert not is_minimal(make_poset(["a", "b"], [("a", "b")]))
    for k in range(6):
        assert is_minimal(asymmetric_block(k))


def _strict_sets(p: Poset):
    """Independent closure oracle: strict up- and down-sets by DFS on covers."""
    above = {x: set() for x in p.points}
    adj = {x: set() for x in p.points}
    for a, b in p.covers:
        adj[a].add(b)

    def visit(x):
        if above[x]:
            return above[x]
        acc = set()
        for y in adj[x]:
            acc.add(y)
            acc |= visit(y)
        above[x] = acc
        return acc

    for x in p.points:
        visit(x)
    below = {x: set() for x in p.points}
    for x, ups in above.items():
        for y in ups:
            below[y].add(x)
    return above, below


def _order_theoretic_beats(p: Poset):
    above, below = _strict_sets(p)
    up = {
        x
        for x in p.points
        if above[x] and any(above[x] - {y} <= above[y] for y in above[x])
    }
    down = {
        x
        for x in p.points
        if below[x] and any(below[x] - {y} <= below[y] for y in below[x])
    }
    return up, down


@given(posets(max_points=12))
def test_beats_match_order_theoretic_definition(p):
    report = beat_points(p)
    up, down = _order_theoretic_beats(p)
    assert report.up_beats == up
    assert report.down_beats == down


# -- core -----------------------------------------------------------------


def test_core_of_chains_is_singleton():
    for n in range(1, 7):
        chain = make_poset(
            [f"c{i}" for i in range(n)],
            [(f"c{i}", f"c{i + 1}") for i in range(n - 1)],
        )
        assert len(core(chain).points) == 1


def test_core_of_minimal_block_is_itself():
    block = asymmetric_block(3)
    assert core(block) == block


def test_core_strips_dangling_point_back_to_block():
    block = asymmetric_block(0)
    augmented = make_poset(
        list(block.points) + ["w"], list(block.covers) + [("t4/top", "w")]
    )
    reduced = core(augmented)
    assert isomorphic(reduced, block) is not None


@given(posets(max_points=10))
def test_core_is_minimal_and_idempotent(p):
    reduced = core(p)
    assert is_minimal(reduced)
    assert isomorphic(core(reduced), reduced) is not None


@given(posets(max_points=8))
def test_core_absorbs_fresh_point_over_a_maximal_point(p):
    if not p.points:
        return
    above, _ = _strict_sets(p)
    maximal = next(x for x in p.points if not above[x])
    grown = make_poset(list(p.points) + ["fresh!"], list(p.covers) + [(maximal, "fresh!")])
    assert isomorphic(core(grown), core(p)) is not None


@settings(max_examples=50)
@given(posets(max_points=10))
def test_cover_levels_increase(p):
    for x, y in p.covers:
        assert level_of(p, y) >= level_of(p, x) + 1


@given(posets(max_points=10))
def test_delete_point_keeps_the_induced_order(p):
    above, _ = _strict_sets(p)
    for x in p.points:
        rest = _delete_point(p, x)
        assert rest.points == tuple(y for y in p.points if y != x)
        assert _strict_sets(rest)[0] == {y: above[y] - {x} for y in rest.points}


def test_core_deterministic_seeded_sweep():
    rng = random.Random(20_250_101)
    for _ in range(40):
        p = random_poset(rng, 18)
        first = core(p)
        assert core(p) == first


# -- hasse_degree -----------------------------------------------------------


def test_hasse_degree_examples():
    assert hasse_degree(SINGLETON, "p") == 0
    block = asymmetric_block(3)
    assert hasse_degree(block, "a/bot") == 2
    assert hasse_degree(block, "a/top") == 2
    assert hasse_degree(block, "t7/bot") == 7
    assert hasse_degree(block, "t7/top") == 7
    with pytest.raises(KeyError, match="no such point"):
        hasse_degree(block, "t9/bot")


# -- isomorphic ---------------------------------------------------------


def _is_cover_bijection(p: Poset, q: Poset, mapping: dict) -> bool:
    if sorted(mapping) != sorted(p.points):
        return False
    if sorted(mapping.values()) != sorted(q.points):
        return False
    return {(mapping[a], mapping[b]) for a, b in p.covers} == set(q.covers)


def test_isomorphic_to_itself():
    block = asymmetric_block(2)
    mapping = isomorphic(block, block)
    assert mapping is not None
    assert _is_cover_bijection(block, block, mapping)


def test_isomorphic_distinguishes_block_sizes():
    assert isomorphic(asymmetric_block(2), asymmetric_block(3)) is None


def test_isomorphic_finds_relabeling():
    relabeled = make_poset(["z", "y", "x"], [("x", "y"), ("y", "z")])
    mapping = isomorphic(CHAIN3, relabeled)
    assert mapping == {"a": "x", "b": "y", "c": "z"}


@given(posets(max_points=12), st.randoms(use_true_random=False))
def test_isomorphic_finds_random_relabellings(p, rng):
    order = list(range(len(p.points)))
    rng.shuffle(order)
    name = {x: f"q{order[i]}" for i, x in enumerate(p.points)}
    q = make_poset(sorted(name.values()), [(name[x], name[y]) for x, y in p.covers])
    mapping = isomorphic(p, q)
    assert mapping is not None and _is_cover_bijection(p, q, mapping)


def test_isomorphic_rejects_chain_vs_vee():
    assert isomorphic(CHAIN3, VEE) is None


# -- serialization ---------------------------------------------------------


def test_json_round_trip():
    block = asymmetric_block(1)
    assert poset_from_json(poset_to_json(block)) == block


@given(posets(max_points=10))
def test_json_round_trip_random(p):
    assert poset_from_json(poset_to_json(p)) == p


def test_json_round_trip_empty():
    assert poset_from_json(poset_to_json(EMPTY)) == EMPTY


@given(named_posets())
@example(make_poset([], []))
@example(make_poset([""], []))
@example(make_poset(['b"', "a\\", "\x00é"], [("b\"", "a\\"), ("\x00é", "a\\")]))
def test_json_text_is_the_indented_dump_of_the_dict(p):
    assert poset_to_json(p) == json.dumps(poset_to_json_dict(p), indent=2)


@given(named_posets())
@example(make_poset([], []))
@example(make_poset([""], []))
def test_dot_text_matches_the_name_sorted_reference(p):
    assert poset_to_dot(p) == reference_poset_dot(p)
    assert poset_to_dot(p, name="space") == reference_poset_dot(p, name="space")


def test_malformed_json_rejected():
    with pytest.raises(ValueError, match="malformed poset JSON"):
        poset_from_json("[1, 2]")
    with pytest.raises(ValueError, match="malformed poset JSON"):
        poset_from_json('{"points": [3], "covers": []}')
    with pytest.raises(ValueError, match="malformed poset JSON"):
        poset_from_json("{not json")


def test_dot_output_ranks_by_level():
    text = poset_to_dot(CHAIN3)
    assert text.count("rank=same") == 3
    assert '"a" -> "b";' in text
    assert '"b" -> "c";' in text


def test_dot_groups_equal_levels():
    text = poset_to_dot(VEE)
    assert text.count("rank=same") == 2
    assert '{ rank=same; "a"; "b"; }' in text
