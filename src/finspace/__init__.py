"""Finite topological spaces as posets, and groups realized as their symmetries.

Build rigid two-level blocks, colored Cayley graphs of finite groups, and
block-assembled four-level spaces whose Hasse-diagram automorphism group
is a prescribed finite group; verify all of it mechanically with a
refinement-backed automorphism search plus a brute-force oracle.
"""

from .assembly import (
    BlockInfo,
    RealizationSpace,
    assemble,
    build_realization,
    induced_translation,
    predicted_point_count,
)
from .blocks import asymmetric_block, block_edge_count
from .digraph import (
    ColoredDigraph,
    digraph_from_json,
    digraph_to_dot,
    digraph_to_json,
    make_digraph,
    strip_colors,
)
from .engine import (
    AutGroup,
    FamilyEntry,
    FamilyReport,
    RealizationReport,
    Refinement,
    automorphisms,
    brute_force_automorphisms,
    family_checks,
    hasse_digraph,
    isomorphic,
    isomorphism_between,
    refine,
    verify_realization,
)
from .groups import (
    FiniteGroup,
    cayley_graph,
    cyclic,
    dihedral,
    direct_product,
    group_from_permutations,
    klein_four,
    right_translation,
    symmetric,
)
from .poset import (
    BeatReport,
    Poset,
    beat_points,
    core,
    hasse_degree,
    is_minimal,
    level_of,
    make_poset,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
)

__version__ = "0.1.0"
