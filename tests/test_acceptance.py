"""Acceptance suite: one test per top-level criterion, each timed.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
pass/fail report per criterion.
"""

import contextlib
import hashlib
import io
import random
import time

import pytest

from conftest import check_all_translations, hasse_degree, level_of
from conftest import random_colored_digraph, random_poset
from test_blocks import FOURTEEN_POINT_FIXTURE

import finspace.cli as cli
from finspace import (
    asymmetric_block,
    automorphisms,
    brute_force_automorphisms,
    build_realization,
    cayley_graph,
    cyclic,
    dihedral,
    group_from_permutations,
    hasse_digraph,
    is_minimal,
    isomorphic,
    klein_four,
    make_poset,
    right_translation,
    symmetric,
    verify_realization,
)


def _finish(label: str, bound_s: float, started: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < bound_s, f"{label}: {elapsed:.1f}s exceeds the {bound_s}s bound"
    print(f"[{label}] PASS ({elapsed:.2f}s < {bound_s:.0f}s)")


def test_criterion_1_block_family():
    started = time.perf_counter()
    for k in range(11):
        block = asymmetric_block(k)
        assert len(block.points) == 2 * k + 8
        for side in ("bot", "top"):
            degrees = sorted(
                hasse_degree(block, x)
                for x in block.points
                if x.endswith(f"/{side}")
            )
            assert degrees == [2, 2] + list(range(3, k + 5))
        assert is_minimal(block)
        assert automorphisms(hasse_digraph(block)).order == 1
    _finish("criterion 1: block family k=0..10", 10, started)


def test_criterion_2_fourteen_point_fixture():
    started = time.perf_counter()
    assert isomorphic(asymmetric_block(3), FOURTEEN_POINT_FIXTURE) is not None
    _finish("criterion 2: 14-point fixture fidelity", 1, started)


def test_criterion_3_engine_matches_oracle():
    started = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        d = random_colored_digraph(rng, max_vertices=8)
        assert automorphisms(d).order == brute_force_automorphisms(d).order
    _finish("criterion 3: engine vs oracle on 200 digraphs", 60, started)


def test_criterion_4_colored_cayley_automorphisms():
    started = time.perf_counter()
    groups = (
        [cyclic(m) for m in range(2, 9)]
        + [dihedral(2 * m) for m in (3, 4, 5)]
        + [symmetric(3), symmetric(4), klein_four()]
    )
    for g in groups:
        graph = cayley_graph(g)
        assert automorphisms(graph).order == g.order
        index = {v: i for i, v in enumerate(graph.vertices)}
        edges = {(index[s], index[t], c) for s, t, c in graph.edges}
        translations = set()
        for h in range(g.order):
            perm = right_translation(g, h)
            assert {(perm[s], perm[t], c) for s, t, c in edges} == edges
            translations.add(perm)
        assert len(translations) == g.order
    _finish("criterion 4: Cayley automorphism groups", 30, started)


def test_criterion_5_realization_sizes_and_inventories():
    started = time.perf_counter()

    def recount(g):
        n = len(g.generators)
        return 8 * g.order + g.order * sum(
            6 * k + 6 * n + 24 for k in range(1, n + 1)
        )

    space3 = build_realization(cyclic(3))
    assert len(space3.poset.points) == 132 == recount(cyclic(3))
    assert space3.block_inventory() == {0: 3, 1: 3, 2: 3, 3: 3}

    space6 = build_realization(dihedral(6))
    assert len(space6.poset.points) == 588 == recount(dihedral(6))
    assert space6.block_inventory() == {k: 6 for k in range(7)}
    _finish("criterion 5: realization sizes/inventories", 1, started)


def test_criterion_6_main_realization_theorem():
    started = time.perf_counter()
    groups = [
        ("cyclic:2", cyclic(2)),
        ("cyclic:3", cyclic(3)),
        ("cyclic:4", cyclic(4)),
        ("klein", klein_four()),
        ("dihedral:6", dihedral(6)),
        ("dihedral:8", dihedral(8)),
        ("symmetric:3", symmetric(3)),
    ]
    for name, g in groups:
        report = verify_realization(g)
        assert report.passed, f"{name}: {report.render()}"
        assert report.minimal
        assert report.generators_valid == len(g.generators)
        assert report.engine_order == g.order
        check_all_translations(build_realization(g))
    _finish("criterion 6: realization check on 7 groups", 300, started)


def test_criterion_7_non_minimal_generating_set_probe():
    started = time.perf_counter()
    # order-3 cyclic group generated redundantly by both non-identity
    # elements; the construction only needs a generating set, so record
    # (without asserting) whether the conclusion still holds
    redundant = group_from_permutations([(1, 2, 0), (2, 0, 1)])
    assert redundant.order == 3
    assert len(redundant.generators) == 2
    report = verify_realization(redundant)
    print(
        "[criterion 7: probe] non-minimal generating set for the order-3 "
        f"cyclic group: minimal={report.minimal} "
        f"generators={report.generators_valid}/{report.generator_count} "
        f"engine_order={report.engine_order} -> conclusion "
        f"{'holds' if report.passed else 'does not hold'} (recorded, not asserted)"
    )
    _finish("criterion 7: non-minimal generating set probe", 60, started)


def test_criterion_8_property_suites():
    started = time.perf_counter()

    from test_poset import _order_theoretic_beats

    rng = random.Random(0xFACE)
    for _ in range(100):
        p = random_poset(rng, 15)
        up, down = _order_theoretic_beats(p)
        assert is_minimal(p) == (not up and not down)

    # The draws above are minimal only as antichains.  Crowns on 2k points
    # and disjoint unions of blocks are minimal with covers; one cover
    # removed leaves both of its ends with one cover fewer.
    answers = set()
    for _ in range(20):
        k = rng.randint(3, 6)
        crown = [(f"a{i}", f"b{(i + j) % k}") for i in range(k) for j in (0, 1)]
        blocks = [asymmetric_block(rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        union = [(f"{i}.{x}", f"{i}.{y}")
                 for i, b in enumerate(blocks) for x, y in sorted(b.covers)]
        for covers in (crown, union):
            points = sorted({x for cover in covers for x in cover})
            cut = covers[:]
            del cut[rng.randrange(len(cut))]
            for q in (make_poset(points, covers), make_poset(points, cut)):
                up, down = _order_theoretic_beats(q)
                assert is_minimal(q) == (not up and not down)
                answers.add(is_minimal(q))
    assert answers == {True, False}

    spaces = [asymmetric_block(k) for k in range(11)]
    spaces.append(build_realization(cyclic(3)).poset)
    spaces.append(build_realization(dihedral(6)).poset)
    for space in spaces:
        levels = level_of(space)
        assert space._levels == tuple(map(levels.__getitem__, space.points))
        for x, y in space.covers:
            assert levels[y] >= levels[x] + 1
    _finish("criterion 8: property suites", 60, started)


# Groups outside the named families, each by permutation generators, with
# the sha256 of its `finspace verify` stdout.  Q8 acts on its own elements
# 1, i, j, k, -1, -i, -j, -k by left multiplication by i and j.
CORPUS = {
    "Q8": ("[[1,4,3,6,5,0,7,2],[2,7,4,1,6,3,0,5]]",
           "6c93e5bcad19a22bd487ddbdf35e37e7a02ec6328b8bb652b7485f7e62a2d49d"),
    "A4": ("[[1,2,0,3],[0,2,3,1]]",
           "2be4d5c52978a79ff6be1c94f3f5f29cdd3dd2fed8688350ca4d80fd2ab7cdc3"),
    "C7:C3": ("[[1,2,3,4,5,6,0],[0,2,4,6,1,3,5]]",
              "93d02b36175bc33f7deeca452a2e2c999fc994d3f0856fb17af6006bf5eaea8d"),
    "A5": ("[[1,2,3,4,0],[1,2,0,3,4]]",
           "e7197ab863cee84f776f638134f63c3132ec85679f274abe15c79e07e34c4d8f"),
    "C2^4": ("[[1,0,2,3,4,5,6,7],[0,1,3,2,4,5,6,7],[0,1,2,3,5,4,6,7],[0,1,2,3,4,5,7,6]]",
             "7a0322bde811b6a86fbf827cacf3fb04f961df07c15bf3e897d618260e43f65d"),
    "S4 by transpositions": ("[[1,0,2,3],[0,2,1,3],[0,1,3,2]]",
                             "f1d688e687211eb0fcdfe0997efffe3267e4ee8c66af60a21a3389386aca24dd"),
}


@pytest.mark.parametrize("name", CORPUS)
def test_criterion_9_corpus_verifies_with_pinned_output(name):
    started = time.perf_counter()
    gens, digest = CORPUS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", f"perm:{gens}"])
    assert code == 0, out.getvalue()
    assert out.getvalue().splitlines()[-1].endswith(": PASS")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    _finish(f"criterion 9: corpus group {name}", 30, started)
