import json
from dataclasses import fields

import pytest
from hypothesis import example, given

from conftest import named_digraphs, posets, reference_digraph_dot, seeded_digraphs
from finspace import (
    ColoredDigraph,
    digraph_from_json,
    digraph_to_dot,
    digraph_to_json,
    hasse_digraph,
    make_digraph,
    strip_colors,
)
from finspace.digraph import digraph_to_json_dict

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
