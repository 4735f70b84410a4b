import importlib
import json
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import example, given

from conftest import digraph_to_json_dict, named_digraphs, posets, reference_digraph_dot
from conftest import seeded_digraphs
from finspace import (
    ColoredDigraph,
    build_realization,
    cyclic,
    digraph_from_json,
    digraph_to_dot,
    digraph_to_json,
    dihedral,
    hasse_digraph,
    make_digraph,
    strip_colors,
    symmetric,
)

digraph_module = importlib.import_module("finspace.digraph")

# -- construction and validation ------------------------------------------


def test_arcs_index_the_named_edges():
    d = make_digraph(["a", "b", "c"], [("b", "a", 2), ("a", "c", 1)])
    assert d.out == ((1, ((2,), (), ())), (2, ((), (0,), ())))
    assert d.arcs == {(1, 0, 2), (0, 2, 1)}
    assert d.edges == {("b", "a", 2), ("a", "c", 1)}
    assert d == ColoredDigraph(("a", "b", "c"), ((1, ((2,), (), ())), (2, ((), (0,), ()))))


def test_rows_are_the_only_stored_form():
    d = make_digraph(["a", "b"], [("a", "b", 3)])
    assert [f.name for f in fields(d)] == ["vertices", "out"]
    assert "arcs" not in vars(d) and "edges" not in vars(d)
    assert make_digraph(["a", "b"], []).out == ()


@pytest.mark.parametrize(
    "out, message",
    [
        (((2, ((1,), ())), (1, ((1,), ()))), "not increasing"),
        (((1, ((1,), ())), (1, ((1,), ()))), "not increasing"),
        (((1, ((), ())),), "color 1 has no arcs"),
        (((1, ((1,),)),), "expected 2 tuples of out-neighbours, got 1"),
        (((1, ((), (0, 0))),), "out-neighbours of 'b' are not sorted and distinct"),
    ],
)
def test_rejects_malformed_layers(out, message):
    with pytest.raises(ValueError, match=message):
        ColoredDigraph(("a", "b"), out)


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop on 'b'"):
        make_digraph(["a", "b"], [("b", "b", 1)])
    with pytest.raises(ValueError, match="self-loop on 'a'"):
        ColoredDigraph(("a", "b"), ((1, ((0,), ())),))


def test_rejects_unknown_vertex_name():
    with pytest.raises(ValueError, match=r"edge \('a', 'z', 1\) uses an unknown vertex"):
        make_digraph(["a", "b"], [("a", "z", 1)])
    with pytest.raises(ValueError, match="unknown vertex"):
        make_digraph(["a", "b"], [("z", "a", 1)])


@pytest.mark.parametrize("arc", [(0, 2), (1, 5), (1, -1), (0, "b"), (0, 1.0)])
def test_rejects_arc_index_out_of_range(arc):
    s, t = arc
    rows = tuple((t,) if i == s else () for i in range(2))
    if type(t) is int:
        message = f"^an out-neighbour of '{'ab'[s]}' is out of range$"
    else:
        message = "^an out-neighbour is not an int index$"
    with pytest.raises(ValueError, match=message):
        ColoredDigraph(("a", "b"), ((1, rows),))


@pytest.mark.parametrize("color", [0, -2, 1.5, "1", None, True])
def test_rejects_color_that_is_not_a_positive_int(color):
    with pytest.raises(ValueError, match="positive integer"):
        make_digraph(["a", "b"], [("a", "b", color)])
    with pytest.raises(ValueError, match="positive integer"):
        ColoredDigraph(("a", "b"), ((color, ((1,), ())),))


def test_json_rejects_boolean_color():
    with pytest.raises(ValueError, match="malformed digraph JSON"):
        digraph_from_json('{"vertices": ["a", "b"], "edges": [["a", "b", true]]}')


def test_rejects_duplicate_vertices():
    with pytest.raises(ValueError, match="duplicate vertex"):
        make_digraph(["a", "b", "a"], [])
    with pytest.raises(ValueError, match="duplicate vertex"):
        ColoredDigraph(("a", "a"), ())


def test_rejects_vertex_names_that_are_not_strings():
    with pytest.raises(ValueError, match="^a vertex name is not a str$"):
        make_digraph([1, 2], [(1, 2, 1)])


# -- round trips -------------------------------------------------------------


@given(seeded_digraphs())
def test_named_edges_and_json_round_trip(digraph_and_seed):
    d, _ = digraph_and_seed
    assert make_digraph(d.vertices, d.edges) == d
    assert digraph_from_json(digraph_to_json(d)) == d


@given(named_digraphs())
@example(make_digraph([], []))
@example(make_digraph([""], []))
@example(make_digraph(["b", "a"], [("b", "a", 9), ("b", "a", 10), ("a", "b", 1)]))
def test_json_text_is_the_indented_dump_of_the_dict(d):
    assert digraph_to_json(d) == json.dumps(digraph_to_json_dict(d), indent=2)


@given(named_digraphs())
@example(make_digraph([], []))
@example(make_digraph([""], []))
def test_dot_text_matches_the_name_sorted_reference(d):
    assert digraph_to_dot(d) == reference_digraph_dot(d)
    assert digraph_to_dot(d, name="cayley") == reference_digraph_dot(d, name="cayley")


@given(posets(max_points=10))
def test_hasse_digraph_edges_are_the_covers(p):
    d = hasse_digraph(p)
    assert d.edges == {(x, y, 1) for x, y in p.covers}
    assert d.out == (((1, p.up),) if p.covers else ())
    if p.covers:
        assert d.out[0][1] is p.up


@given(named_digraphs())
@example(make_digraph([], []))
@example(make_digraph(["a", "b"], [("a", "b", 2), ("a", "b", 5), ("b", "a", 5)]))
def test_strip_colors_keeps_each_arc_once_in_color_1(d):
    stripped = strip_colors(d)
    assert stripped.edges == {(s, t, 1) for s, t, _ in d.edges}
    assert repr(stripped) == (
        f"ColoredDigraph({len(d)} vertices, {len(stripped.edges)} edges, "
        f"{1 if d.edges else 0} colors)"
    )


# -- construction from checked rows --------------------------------------------


def _incidence_by_arcs(d):
    """The incidence as first built, one arc at a time: per vertex, the
    other endpoints and n times the rank of each edge's channel, out-layers
    ranked by color and then in-layers."""
    n = len(d.vertices)
    nbrs = [[] for _ in d.vertices]
    offsets = [[] for _ in d.vertices]
    for rank, (_, rows) in enumerate(d.out):
        into = (len(d.out) + rank) * n
        for s, ts in enumerate(rows):
            nbrs[s] += ts
            offsets[s] += [rank * n] * len(ts)
            for t in ts:
                nbrs[t].append(s)
                offsets[t].append(into)
    return nbrs, offsets


def _same_incidence(d) -> bool:
    """Each vertex has the reference's (offset, neighbour) multiset."""
    nbrs, offsets = d._incidence
    ref_nbrs, ref_offsets = _incidence_by_arcs(d)
    return len(nbrs) == len(offsets) == len(d) and all(
        len(nbrs[v]) == len(offsets[v])
        and Counter(zip(offsets[v], nbrs[v])) == Counter(zip(ref_offsets[v], ref_nbrs[v]))
        for v in range(len(d))
    )


LADDER = [cyclic(12), cyclic(48), symmetric(4), dihedral(24)]


@given(posets(max_points=12))
@example(build_realization(LADDER[0]).poset)
@example(build_realization(LADDER[1]).poset)
@example(build_realization(LADDER[2]).poset)
@example(build_realization(LADDER[3]).poset)
def test_hasse_digraph_is_the_validated_digraph(p):
    """The unchecked construction gives the value ``ColoredDigraph`` builds
    and checks, and the incidence of the per-arc reference."""
    d = hasse_digraph(p)
    assert d == ColoredDigraph(p.points, ((1, p.up),) if any(p.up) else ())
    assert _same_incidence(d)


@given(named_digraphs(), seeded_digraphs())
def test_incidence_matches_the_per_arc_builder(named, seeded):
    assert _same_incidence(named)
    assert _same_incidence(seeded[0])


def test_vertices_of_equal_degrees_share_offsets():
    """One offsets tuple per (out-degree, in-degree) pair: 20 on a 528-point
    realization space."""
    p = build_realization(cyclic(12)).poset
    _, offsets = hasse_digraph(p)._incidence
    degrees = set(zip(map(len, p.up), map(len, p._down)))
    assert len({id(o) for o in offsets}) == len(degrees) == 20


def _count_checks(monkeypatch) -> list:
    checks = []
    check = digraph_module._check_rows
    monkeypatch.setattr(
        digraph_module, "_check_rows", lambda *args: checks.append(1) or check(*args)
    )
    return checks


@pytest.mark.parametrize("group", LADDER[:3], ids=["cyclic:12", "cyclic:48", "symmetric:4"])
def test_hasse_digraph_checks_no_row_again(monkeypatch, group):
    """The poset has checked its rows: the Hasse digraph and the stripped
    digraph check none, while ``ColoredDigraph(...)`` still checks and
    rejects bad rows."""
    p = build_realization(group).poset
    checks = _count_checks(monkeypatch)
    d = hasse_digraph(p)
    d._incidence
    assert strip_colors(d) is d
    assert checks == []
    assert ColoredDigraph(p.points, ((1, p.up),)) == d
    assert checks == [1]
    bad = (tuple(reversed(p.up[0])),) + p.up[1:]
    with pytest.raises(ValueError, match="not sorted and distinct"):
        ColoredDigraph(p.points, ((1, bad),))
    out_of_range = ((len(p),),) + p.up[1:]
    with pytest.raises(ValueError, match="out of range"):
        ColoredDigraph(p.points, ((1, out_of_range),))


@given(named_digraphs())
@example(make_digraph([], []))
@example(make_digraph(["a", "b"], [("a", "b", 1)]))
@example(make_digraph(["a", "b"], [("a", "b", 4), ("b", "a", 4)]))
def test_strip_colors_reuses_checked_rows(d):
    """No layer, or one layer of color 1: the digraph itself.  One layer of
    another color: the same rows in color 1.  The result always equals the
    checked construction."""
    stripped = strip_colors(d)
    colors = [c for c, _ in d.out]
    if colors in ([], [1]):
        assert stripped is d
    elif len(colors) == 1:
        assert stripped.out[0][1] is d.out[0][1]
    assert stripped == ColoredDigraph(d.vertices, stripped.out)
    assert [c for c, _ in stripped.out] == ([1] if colors else [])
    assert _same_incidence(stripped)
