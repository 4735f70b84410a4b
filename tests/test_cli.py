import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finspace
import finspace.cli as cli
from finspace import (
    asymmetric_block,
    cayley_graph,
    cyclic,
    digraph_from_json,
    poset_from_json,
)
from finspace.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_fk_json_round_trips(capsys):
    code, out, _ = run(capsys, "build-fk", "3", "--format", "json")
    assert code == 0
    assert poset_from_json(out) == asymmetric_block(3)


def test_build_fk_dot_has_two_ranks_and_all_nodes(capsys):
    code, out, _ = run(capsys, "build-fk", "3", "--format", "dot")
    assert code == 0
    assert out.count("rank=same") == 2
    assert out.count('"') >= 28  # 14 quoted node ids plus edges


def test_build_fk_summary(capsys):
    code, out, _ = run(capsys, "build-fk", "0", "--format", "summary")
    assert code == 0
    assert "8 points" in out and "2,2,3,4" in out


def test_build_fk_rejects_negative(capsys):
    code, _, err = run(capsys, "build-fk", "--", "-1")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_build_cayley_json_round_trips(capsys):
    code, out, _ = run(capsys, "build-cayley", "cyclic:4", "--format", "json")
    assert code == 0
    assert digraph_from_json(out) == cayley_graph(cyclic(4))


def test_build_cayley_dot_colors_by_generator(capsys):
    code, out, _ = run(capsys, "build-cayley", "dihedral:6", "--format", "dot")
    assert code == 0
    assert "color=red" in out and "color=blue" in out


def test_build_cayley_unknown_spec(capsys):
    code, _, err = run(capsys, "build-cayley", "frobenius:7")
    assert code == 2
    assert "unknown group spec" in err


def test_build_cayley_perm_spec(capsys):
    code, out, _ = run(capsys, "build-cayley", "perm:[[1,2,0]]", "--format", "summary")
    assert code == 0
    assert "3 vertices" in out


def test_build_cayley_malformed_perm_spec(capsys):
    code, _, err = run(capsys, "build-cayley", "perm:[[1,2")
    assert code == 2
    assert "malformed" in err


def test_group_spec_from_file(capsys, tmp_path):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[1, 2, 0], [1, 0, 2]]))
    code, out, _ = run(capsys, "build-cayley", f"@{path}", "--format", "summary")
    assert code == 0
    assert "6 vertices" in out


def test_build_space_summary_and_diagnostics(capsys):
    code, out, err = run(capsys, "build-space", "cyclic:3", "--format", "summary")
    assert code == 0
    assert "3 x F0, 3 x F1, 3 x F2, 3 x F3" in out
    assert "points: 132" in err


def test_build_space_json_round_trips(capsys):
    from finspace import build_realization

    code, out, _ = run(capsys, "build-space", "cyclic:2", "--format", "json")
    assert code == 0
    assert poset_from_json(out) == build_realization(cyclic(2)).poset


@pytest.mark.parametrize("fmt", ["json", "dot", "summary"])
@pytest.mark.parametrize(
    "argv, builder, name_set",
    [
        (("build-space", "dihedral:8"), "build_realization", "covers"),
        (("build-fk", "3"), "asymmetric_block", "covers"),
        (("build-cayley", "symmetric:3"), "cayley_graph", "edges"),
    ],
)
def test_build_commands_leave_the_name_sets_unbuilt(
    capsys, monkeypatch, argv, builder, name_set, fmt
):
    """Output and summaries are written from indices: the cached name sets
    ``Poset.covers`` and ``ColoredDigraph.edges`` are never built."""
    built = []
    make = getattr(cli, builder)
    monkeypatch.setattr(cli, builder, lambda arg: built.append(make(arg)) or built[0])
    code, _, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0
    value = getattr(built[0], "poset", built[0])
    assert name_set not in vars(value)


def test_aut_on_poset_file(capsys, tmp_path):
    code, out, _ = run(capsys, "build-fk", "2", "--format", "json")
    path = tmp_path / "block.json"
    path.write_text(out)
    code, out, _ = run(capsys, "aut", str(path))
    assert code == 0
    assert out.startswith("order 1")
    assert "identity only" in out


def test_aut_color_flag_changes_result(capsys, tmp_path):
    # antiparallel edges with different colors: swapping the endpoints is
    # legal only when colors are ignored
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps({"vertices": ["u", "v"], "edges": [["u", "v", 1], ["v", "u", 2]]})
    )
    code, colored_out, _ = run(capsys, "aut", str(path), "--color-edges")
    assert code == 0
    assert colored_out.startswith("order 1")
    code, plain_out, _ = run(capsys, "aut", str(path))
    assert code == 0
    assert plain_out.startswith("order 2")


def test_aut_oracle_agrees(capsys, tmp_path):
    code, out, _ = run(capsys, "build-cayley", "cyclic:3", "--format", "json")
    path = tmp_path / "cayley.json"
    path.write_text(out)
    code, out, _ = run(capsys, "aut", str(path), "--oracle", "--color-edges")
    assert code == 0
    assert out.startswith("order 3")


def test_aut_oracle_limit_is_operational_error(capsys, tmp_path):
    code, out, _ = run(capsys, "build-fk", "2", "--format", "json")
    path = tmp_path / "block.json"
    path.write_text(out)
    code, _, err = run(capsys, "aut", str(path), "--oracle")
    assert code == 1
    assert "oracle limit" in err


def test_aut_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "aut", str(path))
    assert code == 2
    assert "malformed JSON" in err


def test_aut_wrong_schema(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text('{"nodes": []}')
    assert run(capsys, "aut", str(path))[0] == 2


def test_aut_rejects_boolean_edge_color(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"vertices": ["a", "b"], "edges": [["a", "b", true]]}')
    assert run(capsys, "aut", str(path))[0] == 2


def test_aut_missing_file(capsys):
    assert run(capsys, "aut", "/no/such/file.json")[0] == 2


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "cyclic:3")
    assert code == 0
    assert out.strip().splitlines()[-1] == "order(Aut) = 3 = |G| : PASS"


def test_verify_budget_exceeded(capsys):
    code, _, err = run(capsys, "verify", "cyclic:500")
    assert code == 1
    assert "22000" in err
    code, out, _ = run(capsys, "verify", "symmetric:4")
    assert code == 0
    assert out.strip().splitlines()[-1] == "order(Aut) = 24 = |G| : PASS"


def test_verify_group_over_order_cap(capsys):
    code, _, err = run(capsys, "verify", "cyclic:100000")
    assert code == 2
    assert "group too large" in err


# Runs argv[1:], waits for it with os.wait4 and prints its exit code, peak
# RSS in kilobytes, stdout and stderr as JSON.  A child exec'd straight from
# the test process would report that process's peak RSS as its own: Linux
# carries the peak of the address space it replaces across exec.
_WAIT4 = """
import json, os, subprocess, sys
p = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
out, err = p.stdout.read(), p.stderr.read()
_, status, usage = os.wait4(p.pid, 0)
p.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps([p.returncode, usage.ru_maxrss, out, err]))
"""


@pytest.mark.parametrize(
    "spec", ["perm:[[1,0,2,3,4,5,6],[1,2,3,4,5,6,0]]", "cyclic:10000"], ids=["S7", "C10000"]
)
def test_verify_refuses_large_groups_in_little_memory(spec):
    """A group over the point budget costs its generators' rows and columns
    before it is refused, not a |G| x |G| table: the refusing process peaks
    under 64 MB RSS, read from ``os.wait4``."""
    env = {**os.environ, "PYTHONPATH": str(Path(finspace.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _WAIT4, sys.executable, "-m", "finspace.cli", "verify", spec],
        env=env, capture_output=True, text=True, check=True,
    )
    code, peak_kb, out, err = json.loads(done.stdout)
    assert (code, out) == (1, ""), err
    assert "budget" in err
    assert peak_kb / 1024 < 64, f"{spec}: {peak_kb / 1024:.0f} MB peak RSS"


def test_verify_with_raised_budget(capsys):
    code, out, _ = run(capsys, "verify", "cyclic:4", "--budget", "500")
    assert code == 0
    assert out.strip().splitlines()[-1] == "order(Aut) = 4 = |G| : PASS"


def test_verify_rejects_non_positive_budget(capsys):
    for budget in ("0", "-3"):
        code, out, err = run(capsys, "verify", "cyclic:3", "--budget", budget)
        assert (code, out) == (2, "")
        assert "--budget must be a positive number of points" in err


def test_build_space_refuses_over_budget_before_building(capsys, monkeypatch):
    def fail(group):
        raise AssertionError("built the space before checking the budget")

    monkeypatch.setattr(cli, "build_realization", fail)
    code, out, err = run(capsys, "build-space", "cyclic:48", "--budget", "100")
    assert (code, out) == (1, "")
    assert "needs 2112 points, over the engine budget of 100" in err
    code, out, err = run(capsys, "build-space", "symmetric:6")
    assert (code, out) == (1, "")
    assert "needs 70560 points, over the engine budget of 20000" in err
    for budget in ("0", "-3"):
        code, out, err = run(capsys, "build-space", "cyclic:3", "--budget", budget)
        assert (code, out) == (2, "")
        assert "--budget must be a positive number of points" in err


def test_build_space_within_budget(capsys):
    code, out, _ = run(capsys, "build-space", "cyclic:3", "--budget", "132")
    assert code == 0
    assert len(poset_from_json(out).points) == 132


def test_output_is_the_same_under_python_O(capsys, tmp_path):
    """``python -O`` strips asserts; no check or output may depend on one."""
    space = tmp_path / "space.json"
    space.write_text(run(capsys, "build-space", "cyclic:12", "--format", "json")[1])
    env = {**os.environ, "PYTHONPATH": str(Path(finspace.__file__).resolve().parents[1])}
    for argv in (["verify", "cyclic:12"], ["aut", str(space)]):
        code, out, _ = run(capsys, *argv)
        done = subprocess.run(
            [sys.executable, "-O", "-m", "finspace.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, out, "")


def test_family_check(capsys):
    code, out, _ = run(capsys, "family-check", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "family check: PASS"


def test_family_check_negative(capsys):
    assert run(capsys, "family-check", "--", "-3")[0] == 2


def test_outputs_deterministic(capsys):
    first = run(capsys, "build-space", "cyclic:2", "--format", "json")
    second = run(capsys, "build-space", "cyclic:2", "--format", "json")
    assert first == second
    one = run(capsys, "verify", "dihedral:6")
    two = run(capsys, "verify", "dihedral:6")
    assert one == two


def test_outputs_identical_across_hash_seeds(capsys, tmp_path):
    """String hashes differ between processes; no output may depend on them."""
    space = tmp_path / "space.json"
    space.write_text(run(capsys, "build-space", "dihedral:6", "--format", "json")[1])
    commands = [["verify", "dihedral:8"], ["aut", str(space)], ["family-check", "4"]]
    src = str(Path(finspace.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        outputs.append([
            subprocess.run(
                [sys.executable, "-m", "finspace.cli", *argv],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            for argv in commands
        ])
    assert outputs[0] == outputs[1]
    assert outputs[0][0].strip().endswith("PASS")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_1_without_a_traceback(capsys, tmp_path, unbuffered):
    """``finspace aut space.json | head -n 1``: the reader is gone before
    the first write.  Buffered, the output fits in the buffer and the
    write fails at the flush; unbuffered, at the first print."""
    space = tmp_path / "space.json"
    space.write_text(run(capsys, "build-space", "cyclic:3", "--format", "json")[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(finspace.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "finspace.cli", "aut", str(space)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == ""


# sha256 of each command's stdout.  A change here is a change of output.
STDOUT_SHA256 = {
    "build-space cyclic:6 --format json":
        "c60b66d7dc03315012cce5d9029a550657d7bbd5acd76deb9b43f74eed292fc8",
    "build-space cyclic:6 --format dot":
        "954322fbf92b682d5251dd8fefa36eef21da07f859f9be70aa9f6e552057612f",
    "build-space cyclic:6 --format summary":
        "dfc36b3a70fa0bf81a6ca72ffda2f06666a2e33d79e17527292ef7c2fee38bbe",
    "build-space dihedral:8 --format json":
        "7f3243c8ef00eb3b528006708f6c52c1812a53ebba7fcae63ceffa883ba9d64b",
    "build-cayley symmetric:3 --format dot":
        "6193bc53b63ddbd7df2691ca8599df9bd127befefa1e8eea801087b5f7a163e6",
    "build-cayley symmetric:3 --format json":
        "516757d3dbfe2a351a3bb7bcc549619360a55127d29a888e1c5a91e58c733d22",
    "build-fk 3 --format dot":
        "3d86e5429100e78f1e7fab0c6c850447cdbe8e8431772aea2c3466fb1afd1ae3",
    "build-fk 0 --format summary":
        "c63ab66d40c2b6442cf7625a006c137b9705c86ce9f09a32602b6e5a788fe323",
    "build-fk 3 --format summary":
        "497ca0c82b2353d55c846287d5fd93902e31ae3b37500f19fcdbc284796eee8b",
    "build-fk 6 --format summary":
        "2cc14515c62fe1637ba6f7e1945c352661c2a36251085e7536856bd942af6cfc",
    "verify cyclic:12":
        "eeec9ff279a6d30cf8a20f0cf5c746d2cfd9b39d73e01810cebdea335746fbbb",
    "family-check 4":
        "d7e3044412416f4636e5f8aad4eb2b07cf4d56630532519f7cbc175b78c66210",
}


@pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
def test_stdout_bytes_are_pinned(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


def test_realization_sweep_script_passes():
    """scripts/realization_sweep.py runs every small group through the
    pipeline, the redundant generating set of cyclic:3 included."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "realization_sweep.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    rows = done.stdout.splitlines()[2:]
    assert [row.split()[-2] for row in rows] == ["PASS"] * 11


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_repeated_calls_answer_as_a_first_call(capsys):
    """One parser serves every ``main`` call in a process: each command
    gives the exit code, stdout and stderr it gives from a fresh parser,
    whatever ran before it."""
    argvs = [
        ["verify", "cyclic:3"],
        ["build-space", "cyclic:3", "--format", "summary"],
        ["verify", "cyclic:3", "--budget", "many"],
        ["verify", "nosuch:3"],
        ["--help"],
        ["frobnicate"],
    ]
    first = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 0, 2]
    for _ in range(2):
        for argv, answer in zip(argvs, first):
            assert run(capsys, *argv) == answer, argv
    assert cli._build_parser.cache_info().misses == 1
