"""Command-line entry point.

Subcommands: build-fk, build-cayley, build-space, aut, verify,
family-check.  The requested format goes to stdout, diagnostics to
stderr.  Exit codes: 0 success, 1 verification failure, an operational
limit (oracle size, the ``--budget`` of points that verify and
build-space check before building the space) or a reader that closed
stdout early
(``finspace aut space.json | head -n 1``: no traceback, the rest of the
output is dropped), 2 usage error (bad arguments, bad group spec,
malformed JSON).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from .assembly import build_realization
from .blocks import asymmetric_block
from .digraph import (
    digraph_from_json_dict,
    digraph_to_dot,
    digraph_to_json,
    strip_colors,
)
from .engine import (
    ENGINE_POINT_BUDGET,
    _refuse_over_budget,
    automorphisms,
    brute_force_automorphisms,
    family_checks,
    hasse_digraph,
    verify_realization,
)
from .groups import (
    FiniteGroup,
    cayley_graph,
    cycle_name,
    cyclic,
    dihedral,
    group_from_permutations,
    symmetric,
)
from .poset import Poset, poset_from_json_dict, poset_to_dot, poset_to_json

GROUP_SPEC_HELP = (
    'group spec: "cyclic:N", "dihedral:2N", "symmetric:N", '
    '"perm:[[...],...]" (one-line images), or "@file.json"'
)


class UsageError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path!r}: {exc}") from exc


def parse_group_spec(spec: str) -> FiniteGroup:
    try:
        if spec.startswith("@"):
            return group_from_permutations(_read_json(spec[1:]))
        if spec.startswith("perm:"):
            try:
                data = json.loads(spec[len("perm:"):])
            except json.JSONDecodeError as exc:
                raise UsageError(f"malformed permutation list: {exc}") from exc
            return group_from_permutations(data)
        family, _, arg = spec.partition(":")
        if not arg or not arg.lstrip("-").isdigit():
            raise UsageError(f"unknown group spec {spec!r}; {GROUP_SPEC_HELP}")
        m = int(arg)
        if family == "cyclic":
            return cyclic(m)
        if family == "dihedral":
            return dihedral(m)
        if family == "symmetric":
            return symmetric(m)
        raise UsageError(f"unknown group spec {spec!r}; {GROUP_SPEC_HELP}")
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad group spec {spec!r}: {exc}") from exc


def _level_sizes(p: Poset) -> dict[int, int]:
    return dict(sorted(Counter(p._levels).items()))


# -- subcommands --------------------------------------------------------


def _cmd_build_fk(args) -> int:
    if args.k < 0:
        raise UsageError("block index must be >= 0")
    block = asymmetric_block(args.k)
    if args.format == "json":
        print(poset_to_json(block))
    elif args.format == "dot":
        print(poset_to_dot(block, name=f"block{args.k}"), end="")
    else:
        degrees = sorted(
            len(block.up[i]) + len(block._down[i])
            for i, x in enumerate(block.points)
            if x.endswith("/bot")
        )
        sizes = _level_sizes(block)
        print(
            f"block {args.k}: {len(block.points)} points, "
            f"{sum(map(len, block.up))} covers, levels "
            + "/".join(str(sizes[l]) for l in sorted(sizes))
            + ", per-level degrees "
            + ",".join(map(str, degrees))
        )
    return 0


def _cmd_build_cayley(args) -> int:
    group = parse_group_spec(args.group)
    graph = cayley_graph(group)
    if args.format == "json":
        print(digraph_to_json(graph))
    elif args.format == "dot":
        print(digraph_to_dot(graph, name="cayley"), end="")
    else:
        print(
            f"{len(graph.vertices)} vertices, {len(graph.arcs)} edges, "
            f"{len(graph.out)} color(s)"
        )
    return 0


def _check_budget(args) -> None:
    if args.budget < 1:
        raise UsageError("--budget must be a positive number of points")


def _cmd_build_space(args) -> int:
    _check_budget(args)
    group = parse_group_spec(args.group)
    _refuse_over_budget(group, args.budget)
    space = build_realization(group)
    inventory = ", ".join(
        f"{count} x F{fam}" for fam, count in space.block_inventory().items()
    )
    sizes = _level_sizes(space.poset)
    summary = (
        f"blocks: {inventory}\n"
        f"points: {len(space.poset.points)}, covers: {sum(map(len, space.poset.up))}\n"
        "level sizes: "
        + " ".join(f"{lvl}:{n}" for lvl, n in sizes.items())
    )
    print(summary, file=sys.stderr)
    if args.format == "json":
        print(poset_to_json(space.poset))
    elif args.format == "dot":
        print(poset_to_dot(space.poset, name="space"), end="")
    else:
        print(summary)
    return 0


def _cmd_aut(args) -> int:
    data = _read_json(args.file)
    try:
        if isinstance(data, dict) and "points" in data:
            digraph = hasse_digraph(poset_from_json_dict(data))
        elif isinstance(data, dict) and "vertices" in data:
            digraph = digraph_from_json_dict(data)
        else:
            raise UsageError(
                f"{args.file!r} holds neither a poset nor a digraph JSON object"
            )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not args.color_edges:
        digraph = strip_colors(digraph)
    group = (
        brute_force_automorphisms(digraph) if args.oracle else automorphisms(digraph)
    )
    print(f"order {group.order}")
    if group.generators:
        print("generators:")
        for g in group.generators:
            print(f"  {cycle_name(g, digraph.vertices)}")
    else:
        print("generators: none (identity only)")
    return 0


def _cmd_verify(args) -> int:
    _check_budget(args)
    group = parse_group_spec(args.group)
    report = verify_realization(group, budget=args.budget)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_family_check(args) -> int:
    if args.k_max < 0:
        raise UsageError("k_max must be >= 0")
    report = family_checks(args.k_max)
    print(report.render())
    return 0 if report.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no
    state in it, and each call of ``main`` parses into a new namespace."""
    parser = argparse.ArgumentParser(
        prog="finspace",
        description=(
            "Finite-space toolkit: rigid two-level blocks, colored Cayley "
            "graphs, block-built realization spaces, and digraph "
            "automorphism groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = {"choices": ["json", "dot", "summary"], "default": "json"}
    budget = {
        "type": int,
        "default": ENGINE_POINT_BUDGET,
        "help": "maximum realization-space size in points",
    }

    p = sub.add_parser("build-fk", help="emit one block of the asymmetric family")
    p.add_argument("k", type=int, help="family index (>= 0)")
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_build_fk)

    p = sub.add_parser("build-cayley", help="emit a group's colored Cayley graph")
    p.add_argument("group", help=GROUP_SPEC_HELP)
    p.add_argument("--format", **fmt)
    p.set_defaults(func=_cmd_build_cayley)

    p = sub.add_parser("build-space", help="emit a group's realization space")
    p.add_argument("group", help=GROUP_SPEC_HELP)
    p.add_argument("--format", **fmt)
    p.add_argument("--budget", **budget)
    p.set_defaults(func=_cmd_build_space)

    p = sub.add_parser("aut", help="automorphism group of a poset/digraph JSON file")
    p.add_argument("file")
    p.add_argument(
        "--color-edges",
        action="store_true",
        help="respect stored edge colors (default: treat all edges alike)",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="use the brute-force oracle (at most 10 vertices)",
    )
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("verify", help="run the three-part realization check")
    p.add_argument("group", help=GROUP_SPEC_HELP)
    p.add_argument("--budget", **budget)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("family-check", help="check blocks 0..k_max")
    p.add_argument("k_max", type=int)
    p.set_defaults(func=_cmd_family_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, as the Python docs
        # advise, so that the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
