import pytest

from conftest import hasse_degree
from finspace import (
    asymmetric_block,
    automorphisms,
    block_edge_count,
    family_checks,
    hasse_digraph,
    is_minimal,
    isomorphic,
    make_poset,
)

# Independently tabulated wiring of the 14-point block (k = 3), written out
# edge by edge as a literal cross-check against the generator.  u* is the
# bottom row, w* the top row; columns are ordered as drawn, so u1/w1 and
# u7/w7 are the degree-2 points and u2/w2 the degree-7 points.
FOURTEEN_POINT_FIXTURE = make_poset(
    [f"u{i}" for i in range(1, 8)] + [f"w{i}" for i in range(1, 8)],
    [
        ("u1", "w1"), ("u2", "w1"), ("u1", "w2"),
        ("u2", "w7"), ("u3", "w7"), ("u7", "w2"), ("u7", "w3"),
        ("u2", "w2"), ("u3", "w2"), ("u2", "w3"),
        ("u4", "w2"), ("u2", "w4"), ("u5", "w2"), ("u2", "w5"),
        ("u6", "w2"), ("u2", "w6"),
        ("u3", "w3"), ("u4", "w3"), ("u3", "w4"),
        ("u5", "w3"), ("u3", "w5"), ("u6", "w3"), ("u3", "w6"),
        ("u4", "w4"), ("u5", "w4"), ("u4", "w5"),
        ("u6", "w4"), ("u4", "w6"),
        ("u5", "w5"),
    ],
)


def _level_points(block, side):
    return [x for x in block.points if x.endswith(f"/{side}")]


def test_point_counts():
    for k in range(8):
        assert len(asymmetric_block(k).points) == 2 * k + 8


def test_block_spec_invariants():
    with pytest.raises(ValueError):
        asymmetric_block(-1)


def test_degree_multiset_per_level():
    block = asymmetric_block(0)
    for side in ("bot", "top"):
        degrees = sorted(hasse_degree(block, x) for x in _level_points(block, side))
        assert degrees == [2, 2, 3, 4]
    block = asymmetric_block(5)
    for side in ("bot", "top"):
        degrees = sorted(hasse_degree(block, x) for x in _level_points(block, side))
        assert degrees == [2, 2, 3, 4, 5, 6, 7, 8, 9]


def test_wiring_rule_spot_checks():
    block = asymmetric_block(3)  # n = 7, threshold i + j >= 8
    assert ("t5/bot", "t3/top") in block.covers
    assert ("t4/bot", "t3/top") not in block.covers
    assert ("t3/bot", "t5/top") in block.covers
    assert ("a/bot", "a/top") in block.covers
    assert ("a/bot", "t7/top") in block.covers
    assert ("b/bot", "t7/top") in block.covers
    assert ("b/bot", "t6/top") in block.covers
    assert ("a/bot", "b/top") not in block.covers


def test_edge_counts():
    # fixture transcription has 29 edges; the closed form must agree with
    # both the fixture and the per-rule count 3 + 4 + |{i+j >= n+1}|
    assert len(FOURTEEN_POINT_FIXTURE.covers) == 29
    for k in range(9):
        n = k + 4
        rule = 3 + 4 + sum(
            1 for i in range(3, n + 1) for j in range(3, n + 1) if i + j >= n + 1
        )
        block = asymmetric_block(k)
        assert len(block.covers) == rule == block_edge_count(k)


def test_matches_fourteen_point_fixture():
    mapping = isomorphic(asymmetric_block(3), FOURTEEN_POINT_FIXTURE)
    assert mapping is not None
    assert mapping["a/bot"] == "u1"
    assert mapping["b/bot"] == "u7"
    assert mapping["t7/bot"] == "u2"


def test_every_point_has_degree_at_least_two():
    for k in range(8):
        block = asymmetric_block(k)
        assert all(hasse_degree(block, x) >= 2 for x in block.points)


def test_degree_two_points_have_distinct_neighborhood_degrees():
    # a touches degrees {2, n}, b touches {n-1, n}: no automorphism can
    # exchange them, which is the heart of the family's rigidity
    for k in range(8):
        n = k + 4
        block = asymmetric_block(k)
        neighbor_degrees = {}
        for point in ("a/bot", "b/bot"):
            nbrs = [y for x, y in block.covers if x == point]
            nbrs += [x for x, y in block.covers if y == point]
            neighbor_degrees[point] = sorted(hasse_degree(block, y) for y in nbrs)
        assert neighbor_degrees["a/bot"] == [2, n]
        assert neighbor_degrees["b/bot"] == [n - 1, n]


def test_blocks_are_minimal_and_asymmetric():
    for k in range(6):
        block = asymmetric_block(k)
        assert is_minimal(block)
        assert automorphisms(hasse_digraph(block)).order == 1


def test_rigidity_cross_checked_by_oracle_for_smallest_blocks():
    from finspace import brute_force_automorphisms

    for k in (0, 1):
        digraph = hasse_digraph(asymmetric_block(k))
        assert brute_force_automorphisms(digraph).order == 1


def test_family_checks_pass():
    report = family_checks(5)
    assert report.passed
    assert len(report.entries) == 6
    assert report.sizes_pairwise_distinct
    assert [e.point_count for e in report.entries] == [8, 10, 12, 14, 16, 18]
    assert "PASS" in report.render()


def test_family_checks_k0():
    report = family_checks(0)
    assert report.passed
    entry = report.entries[0]
    assert entry.k == 0 and entry.minimal and entry.asymmetric


def test_family_checks_rejects_negative():
    with pytest.raises(ValueError):
        family_checks(-1)
