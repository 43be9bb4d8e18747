import hashlib
import json
import random
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, random_tree
from tnexp import bounds, cli, covers, search
from tnexp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
CHILD_AS_LIMIT = 3 << 29       # 1.5 GiB address space for each child


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# subcommands

def test_enumerate(capsys):
    payload = run_json(capsys, "enumerate", "--n", "6")
    assert payload["count"] == 6
    assert len(payload["trees"]) == 6
    payload = run_json(capsys, "enumerate", "--n", "5", "--plane", "--count-only")
    assert payload["count"] == 14 and "trees" not in payload


def test_exponent_ht2_tt4(capsys):
    payload = run_json(capsys, "exponent", "ht:2", "tt:4")
    assert payload["cover_bound"] == 1
    assert payload["extra_bounds"]["poset"] == 1
    assert payload["extra_bounds"]["height_tt"] == 1
    assert payload["extra_bounds"]["trivial"] == 2


def test_exponent_with_perm_and_ilp(capsys):
    payload = run_json(capsys, "exponent", "ht:2", "tt:4", "--perm", "1324", "--ilp")
    assert payload["cover_bound"] == 2
    assert payload["extra_bounds"]["ilp"] == 2


def test_exponent_witnesses(capsys):
    payload = run_json(capsys, "exponent", "ht:3", "tt:8", "--witnesses")
    assert payload["cover_bound"] == 2
    assert payload["witnesses"]


def test_bounds_pair(capsys):
    payload = run_json(capsys, "bounds", "((.(.((..).)))((..).))", "--probe", "tt:8")
    assert payload["poset"]["value"] == 3
    assert payload["cover"] == 3
    assert payload["heights"] == [0, 1, 2, 2, 0, 1, 1, 0]


EIGHT = ("((.(.((..).)))((..).))", "tt:8")
PERM = ("--perm", "15236748")


@pytest.mark.parametrize("argv, stdout_sha256", [
    (("exponent", *EIGHT, *PERM), "f06a145fc2080b05"),
    (("exponent", *EIGHT, *PERM, "--witnesses"), "5f45012801b130af"),
    (("exponent", *EIGHT, *PERM, "--ilp", "--table"), "e6c7ed040a712115"),
    (("bounds", EIGHT[0], "--probe", EIGHT[1], *PERM), "4d89628565472ae6"),
    (("bounds", EIGHT[0], "--probe", EIGHT[1], *PERM, "--table"), "5346a7fcedede31a"),
], ids=["exponent", "witnesses", "ilp-table", "probe", "probe-table"])
def test_instance_commands_call_cover_exponent_once(capsys, monkeypatch, argv, stdout_sha256):
    # one cover_exponent call serves each command (the poset value is its
    # cover_bound); the hash prefixes pin each command's stdout
    calls = []
    real = covers.cover_exponent

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(covers, "cover_exponent", counted)
    monkeypatch.setattr(bounds, "cover_exponent", counted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert len(calls) == 1
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == stdout_sha256


# `exponent ... --witnesses` on the seven exponent_mix benchmark instances of
# seed 1, round 0 (n = 14..20), and past the table cap; the sha256 of stdout
# was taken while the witnesses came from a greedy search over every doad set
WITNESS_JOBS = [
    (("((((.(.(..)))(..))(..))(((.(..)).)((..).)))",
      "(((..)(.(.(.(.((..)(..)))))))(.((.(..)).)))",
      "--perm", "3-2-12-7-14-10-1-5-15-11-13-6-4-9-8"),
     "7ee58d6e6fd7fcb482d78403819fcb731a76b4e61a5d0b562c8381a9d0515c16"),
    (("((((..).).)((((..)(..))(((.(..)).).))((..)((..).))))",
      "((((.(((.(..)).).))((..).))((..).))((.((..).))(..)))",
      "--perm", "16-15-2-10-3-5-11-18-7-14-12-9-4-13-1-8-17-6"),
     "52b32aafcca104acc2586866d2d0de089773a87caa06593ae28d63da933df883"),
    (("(((((..)((..).)).).)(((..)(..))((..).)))",
      "(((.(..))((..)(..)))(((..)(.((..).))).))",
      "--perm", "5-4-9-6-13-3-7-10-8-1-12-2-11-14"),
     "33996489a33794198153b799d97134cb195e18b5a89f89271d78c2644fbd8f6f"),
    (("(((.(..))(.(..)))((((..).)((((..).).)(..))).))",
      "((..)((((..)(..)).)((.((..)(..)))(.(.(..))))))",
      "--perm", "2-16-14-11-5-10-6-4-7-9-8-15-12-1-3-13"),
     "600b777395b47d1337712e53bb5d8df35adfbf4cf9d0bf6349719089b067c4ec"),
    (("((((((.((..).))(..))(.((..).))).)(..))(((..).)((..).)))",
      "((.((.(..)).))((((..)((.((..).))(..)))(..))((.(..)).)))",
      "--perm", "18-14-8-2-11-9-12-19-3-15-5-7-17-6-1-16-10-13-4"),
     "7845e4b24be755ce3e45e1b5c5b9a815913cf57998179887b0cc70e3446bd631"),
    (("(((.(..))(((..).).))(((.(.(..)))((..)(.(..))))((..)(..))))",
      "((((.(..))(.(..)))((..)((..)(..))))(.((.(.(..)))(.(..)))))",
      "--perm", "12-4-11-14-16-7-1-13-17-2-9-10-15-6-5-20-8-18-19-3"),
     "6ece3245963bc5218f278c008a7132de474b7dc7381b3d22c604b99c09642edd"),
    (("(((..).)((.((.((..).))(.((.(.(..)))(.(..)))))).))",
      "((((((..).)(..))(.((..).)))(.(.(..))))(((..).).))",
      "--perm", "1-15-3-4-12-16-9-5-17-8-10-6-14-2-7-11-13"),
     "7755e2f62da5aedeb29e44d0432aeda9724f7b90ba45d3ca8cb9a934294e5dd5"),
    (("ht:5", "tt:32"),
     "eced960a8ef50a55942eae5435da96eb9f343915bc68764aa74ea43e44ed1cd4"),
]


@pytest.mark.parametrize("args, stdout_sha256", WITNESS_JOBS,
                         ids=["n15", "n18", "n14", "n16", "n19", "n20", "n17", "ht5-tt32"])
def test_exponent_witnesses_stdout_is_pinned(capsys, args, stdout_sha256):
    code, out, err = run_cli(capsys, "exponent", *args, "--witnesses")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256


# verify-ranks jobs at (n, d) = (8, 4), (12, 2), (16, 2) with r in {2, 4}, two
# trials each, and the sha256 of their stdout (taken before flattening ranks
# were certified against the cut bound)
RANK_JOBS = [
    ("(.((.(..))(((..).).)))", "((((.(.(..))).)(..)).)", "8-2-3-6-4-1-7-5", 4, 2, 695,
     "4154a1d2078df4f254cae98f9e581f61291cb4b344986caf2d9da8ccc3f8cb8b"),
    ("((.(..))(((..).)(..)))", "(((.(((..).).)).)(..))", "7-6-1-3-8-2-4-5", 4, 4, 372,
     "058fd6f9235c2e4fc44fbca374fd5859bdc7bf6a45c17dbbc2dbcb2b7fda47fe"),
    ("(((.((..).))(.((..).)))((..)(..)))", "((((.((.(..)).))(.(..)))(..))(..))",
     "1-9-7-12-5-10-6-11-2-4-8-3", 2, 2, 685,
     "71bd7b2c4c2c68a1f43bd34c8f41e16ca562f4e8239af91ff540e0ea6fa3e7b8"),
    ("((((..)(..)).)(((..).)(.(.(..)))))", "((((.(..))(((..)(..)).)).)(.(..)))",
     "3-12-1-9-7-10-4-5-11-2-8-6", 2, 4, 924,
     "90c424873de1fc58388f8b522e8354f4f2827d9464406afbcbbb7679d2a7534a"),
    ("(((.(..))((.((..).)).))(.(.(((.(..)).)(..)))))",
     "((..)(((((.(..))(..))(((..).).))((.(..)).)).))",
     "6-1-11-4-8-14-15-13-3-7-2-16-9-12-10-5", 2, 2, 532,
     "bfebc99a2607f2a827139dbba4cf7605d53321fb388039bf1130053b4747c964"),
    ("((((..)(..))((.(.(((..).)(..))))(..)))((..).))",
     "(((.(..))(((.(..)).).))(((..)((..).))(.(..))))",
     "5-10-12-14-2-6-7-8-16-9-15-3-11-4-1-13", 2, 4, 132,
     "745040940a73a5aacfe08c21b9bc8e5c318c0d80b8eaf4908e2bf9898fd55750"),
]


@pytest.mark.parametrize("tree, probe, perm, dims, r, seed, stdout_sha256", RANK_JOBS,
                         ids=["8-4-r2", "8-4-r4", "12-2-r2", "12-2-r4", "16-2-r2", "16-2-r4"])
def test_verify_ranks_stdout_is_pinned(capsys, monkeypatch, tree, probe, perm, dims, r,
                                       seed, stdout_sha256):
    # every split is certified on its sub-block: no whole flattening is built
    from tnexp import ranks
    whole = []
    monkeypatch.setattr(ranks, "_flat_matrix", lambda *args: whole.append(args))
    code, out, err = run_cli(capsys, "verify-ranks", "--tree", tree, "--probe", probe,
                             "--perm", perm, "--dims", str(dims), "--r", str(r),
                             "--trials", "2", "--seed", str(seed))
    assert code == 0, err
    assert not whole
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256


def test_search_csv_json(capsys, tmp_path):
    csv_path = tmp_path / "n4.csv"
    json_path = tmp_path / "n4.json"
    payload = run_json(capsys, "search", "--n", "4", "--kinds", "cover,poset",
                       "--csv", str(csv_path), "--json", str(json_path))
    assert payload["instances"] == 96
    assert len(csv_path.read_text().splitlines()) == 97
    assert json.loads(json_path.read_text())["digests"] == payload["digests"]


def test_ip_solve_export(capsys, tmp_path):
    lp = tmp_path / "model.lp"
    payload = run_json(capsys, "ip", "ht:2", "tt:4", "--solve", "--export", str(lp))
    assert payload["solution"]["objective"] == 1
    text = lp.read_text()
    assert text.startswith("\\ cover-exponent integer program")
    assert text.rstrip().endswith("End")


def test_verify_ranks(capsys):
    payload = run_json(capsys, "verify-ranks", "--tree", "tt:4", "--probe", "ht:2",
                       "--trials", "3", "--seed", "1")
    assert payload["ok"] is True
    assert payload["exponent"] == 1
    assert len(payload["profiles"]) == 3


def test_verify_ranks_seed_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run_json(capsys, "verify-ranks", "--tree", "ht:2", "--probe", "tt:4",
                 "--trials", "2", "--seed", "9", "--json", str(path))
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"


def test_verify_ranks_checks_a_given_exponent(capsys):
    # tt:8 in tt:8 under 1-5-2-3-6-7-4-8: cover bound 4, while the sampled
    # ranks refute exponent 2 and fit under exponent 3
    tree = ("tt:8", "tt:8", "--perm", "1-5-2-3-6-7-4-8")
    assert run_json(capsys, "exponent", *tree)["cover_bound"] == 4
    argv = ("verify-ranks", "--tree", "tt:8", "--probe", "tt:8", "--perm", "1-5-2-3-6-7-4-8",
            "--r", "2", "--dims", "4", "--trials", "2", "--seed", "1")
    for exponent, want in (2, 1), (3, 0):
        code, out, err = run_cli(capsys, *argv, "--exponent", str(exponent))
        assert code == want and not err, err
        payload = json.loads(out)
        assert payload["exponent"] == exponent and payload["ok"] is (want == 0)


@pytest.mark.parametrize("argv", [
    ("search", "--n", "x"),
    ("verify-ranks", "--tree", "tt:4", "--probe", "tt:4", "--r", "2.5"),
    ("exponent",),
    ("exponent", "tt:4"),
    ("bogus",),
    (),
    ("search", "--n", "4", *(f"--x{i}" for i in range(3000))),
    ("search", "--n", "4", "--\u00e9\nx"),
], ids=["int-flag", "float-r", "no-trees", "one-tree", "unknown-command", "no-command",
        "3000-unknown-flags", "non-ascii-flag"])
def test_bad_argv_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err.encode()) < 200, err[:300]


def test_check_reference(capsys, tmp_path):
    ours = tmp_path / "ours.csv"
    run_json(capsys, "search", "--n", "4", "--csv", str(ours))
    code, out, _ = run_cli(capsys, "check-reference", str(ours), str(ours))
    assert code == 0
    assert json.loads(out)["ok"] is True

    corrupted = tmp_path / "bad.csv"
    lines = ours.read_text().splitlines()
    head, val = lines[5].rsplit(",", 1)
    lines[5] = f"{head},{int(val) + 1}"
    corrupted.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "check-reference", str(ours), str(corrupted))
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize("edit", ["swapped", "repeated", "short", "non-integer",
                                  "list-adapter", "non-string-adapter"])
def test_check_reference_bad_input_exits_2(capsys, tmp_path, edit):
    ours = tmp_path / "ours.csv"
    run_json(capsys, "search", "--n", "4", "--csv", str(ours))
    lines = ours.read_text().splitlines()
    if edit == "swapped":
        lines[3], lines[4] = lines[4], lines[3]
    elif edit == "repeated":
        lines.insert(4, lines[3])
    elif edit == "short":
        lines[3] = lines[3].rsplit(",", 1)[0]
    elif edit == "non-integer":
        lines[3] = lines[3].rsplit(",", 1)[0] + ",two"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    argv = ["check-reference", str(ours), str(bad)]
    if edit.endswith("adapter"):
        adapter = tmp_path / "adapter.json"
        adapter.write_text('["cover_bound"]' if edit == "list-adapter" else '{"cover_bound": 1}')
        argv += ["--adapter", str(adapter)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert len(err.encode()) < 200, err
    if not edit.endswith("adapter"):
        assert err.startswith(f"error: {bad}:") and err.split(":")[2].isdigit(), err


@pytest.fixture(scope="module")
def cover_and_naive_n5(tmp_path_factory):
    """n = 5 search CSVs of the cover kind and of the naive kind alone."""
    d = tmp_path_factory.mktemp("n5")
    for kind in ("cover", "naive"):
        assert main(["search", "--n", "5", "--kinds", kind,
                     "--csv", str(d / f"{kind}.csv")]) == 0
    return d / "cover.csv", d / "naive.csv"


def test_check_reference_without_shared_bound_exits_2(capsys, cover_and_naive_n5):
    capsys.readouterr()
    code, out, err = run_cli(capsys, "check-reference", *map(str, cover_and_naive_n5))
    assert code == 2 and not out
    assert err == ("error: no bound column in common: ours has cover_bound, "
                   "the reference has naive_max_bound\n")


def test_check_reference_adapter_takes_precedence(capsys, tmp_path, cover_and_naive_n5):
    # the reference's naive_max_bound is read as our cover_bound, not as
    # its own unrenamed column
    adapter = tmp_path / "adapter.json"
    adapter.write_text('{"cover_bound": "naive_max_bound"}')
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "check-reference", *map(str, cover_and_naive_n5),
                           "--adapter", str(adapter))
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False
    assert payload["compared"] == 1080
    assert len(payload["mismatches"]) == 720
    assert {m[1] for m in payload["mismatches"]} == {"cover_bound"}


def test_check_reference_adapter_naming_one_column_twice_exits_2(capsys, tmp_path,
                                                                  cover_and_naive_n5):
    adapter = tmp_path / "adapter.json"
    adapter.write_text('{"cover_bound": "naive_max_bound", "poset_bound": "naive_max_bound"}')
    capsys.readouterr()
    code, out, err = run_cli(capsys, "check-reference", *map(str, cover_and_naive_n5),
                             "--adapter", str(adapter))
    assert code == 2 and not out
    assert err == "error: adapter names one reference column twice\n"


def test_check_reference_adapter_key_not_ours_exits_2(capsys, tmp_path):
    # a misspelt key must not fall back to comparing the unrenamed columns
    path = tmp_path / "n5.csv"
    assert main(["search", "--n", "5", "--kinds", "cover,naive", "--csv", str(path)]) == 0
    adapter = tmp_path / "adapter.json"
    adapter.write_text('{"cover_boundd": "naive_max_bound"}')
    capsys.readouterr()
    code, out, err = run_cli(capsys, "check-reference", str(path), str(path),
                             "--adapter", str(adapter), "--table")
    assert code == 2 and not out
    assert err == ("error: adapter key 'cover_boundd' is not a column of ours (n, shape_a, "
                   "shape_b, perm_oneline, cover_bound, poset_bound, naive_max_bound)\n")


def test_error_paths(capsys):
    code, _, err = run_cli(capsys, "exponent", "((..)", "tt:4")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "exponent", "ht:2", "tt:8")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "exponent", "ht:2", "tt:4", "--perm", "1123")
    assert code == 2 and err.startswith("error:")
    code, _, err = run_cli(capsys, "search", "--n", "3")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (("exponent", "tt:4", "tt:4", "--perm", "12a4"), "permutation entry 'a' must be an integer"),
    (("exponent", "ht:", "tt:4"), "ht: size '' must be an integer"),
    (("exponent", "ht:2", "tt:x"), "tt: size 'x' must be an integer"),
    (("verify-ranks", "--tree", "tt:4", "--probe", "tt:4", "--trials", "0"),
     "trials must be in 1..4096, got 0"),
])
def test_bad_count_exit_line_names_the_argument(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_verify_ranks_bad_input_exits_2(capsys):
    for extra in (("--dims", "161", "--r", "20000"), ("--trials", "0"), ("--f-prime", "0"),
                  ("--f-prime", "-1")):
        code, out, err = run_cli(capsys, "verify-ranks", "--tree", "tt:3", "--probe", "tt:3",
                                 *extra)
        assert code == 2 and not out, extra
        assert err.startswith("error:") and err.count("\n") == 1, (extra, err)


CHILD_CLI = [sys.executable, "-c", "import sys; from tnexp.cli import main; sys.exit(main())"]


def run_capped(*argv, limit=CHILD_AS_LIMIT, timeout=60):
    """Run the CLI in a child process whose address space is capped at `limit` bytes."""
    return subprocess.run(
        [*CHILD_CLI, *argv], capture_output=True, text=True, env=child_env(), timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


def test_closed_stdout_exits_141_quietly():
    # `tnexp enumerate --n 16 | head -c 10`: the listing is far larger than
    # a pipe buffer, so the child is still writing when the reader leaves
    proc = subprocess.Popen([*CHILD_CLI, "enumerate", "--n", "16"], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141 and err == b"", err


@pytest.mark.parametrize("argv", [
    ("exponent", "(" * 1999 + "." + ".)" * 1999, "tt:4"),
    ("exponent", "(" * 100000 + ".", "tt:4"),
    ("exponent", "ht:10000000000", "tt:4"),
    ("verify-ranks", "--tree", "tt:4", "--probe", "ht:2", "--trials", "1", "--exponent", "-1"),
    ("verify-ranks", "--tree", "tt:4", "--probe", "ht:2", "--trials", "1",
     "--exponent", "10000000000"),
    ("search", "--n", "12", "--sample-perms", "1000000000"),
    ("search", "--n", "10", "--sample-perms", "3000000"),
    ("search", "--n", "4", "--kinds", "cover,cover"),
    ("search", "--n", "4", "--kinds", ""),
    ("exponent", "(..)" + "x" * 100000, "tt:2"),
    ("verify-ranks", "--tree", "tt:4", "--probe", "ht:2", "--trials", "1000000000000"),
    ("exponent", "ht:2", "tt:4", "--perm", ",".join(["1"] * 20000)),
    ("search", "--n", "4", "--kinds", ",".join(["x"] * 20000)),
    ("search", "--n", "4", "--kinds", ",".join(["cover"] * 20000)),
], ids=["comb2000", "deep-open", "ht-huge", "exponent-neg", "exponent-huge",
        "sample-n12", "sample-n10", "kinds-repeated", "kinds-empty", "long-tail",
        "trials-huge", "perm-huge", "kinds-unknown-huge", "kinds-repeated-huge"])
def test_oversized_input_exits_2_in_bounded_memory(argv):
    proc = run_capped(*argv)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert len(proc.stderr.encode()) < 200, proc.stderr[:300]


def test_allocation_failure_exits_2_with_one_error_line(monkeypatch):
    # the largest basis, 64 x 2^19 entries (256 MiB), fits BASIS_CAP, but sampling
    # peaks at about 2.5 times that, past the 768 MiB cap
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    proc = run_capped("verify-ranks", "--tree", "tt:20", "--probe", "tt:20", "--dims", "2",
                      "--r", "64", "--trials", "1", "--seed", "1", limit=3 << 28)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr[-500:]
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


# Reads a JSON list of argv lists on stdin, caps its own address space,
# runs each through cli.main in process and prints [code, stdout length,
# stderr] per input; an exception main lets through is reported as its name.
FUZZ_CHILD = r"""
import contextlib, io, json, resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from tnexp.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as exc:
            code = f"{type(exc).__name__}: {str(exc)[:100]}"
    results.append([code, len(out.getvalue()), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _fuzz_inputs(rng, tmp, count):
    """`count` seeded argv lists mixing valid, malformed and oversized values."""
    ours = tmp / "ours.csv"
    search.write_results(search.run_search(4, kinds=("cover", "naive")), "csv", ours)
    rows = ours.read_text().splitlines()
    refs = {"same": rows, "swapped": rows[:3] + [rows[4], rows[3]] + rows[5:],
            "repeated": rows[:4] + rows[3:], "short": rows[:3] + [rows[3][:-2]] + rows[4:],
            "non-integer": rows[:3] + [rows[3][:-1] + "x"] + rows[4:],
            "changed": rows[:3] + [rows[3][:-1] + "9"] + rows[4:],
            "header-only": rows[:1], "empty": [], "no-key": ["cover_bound"] + rows[1:]}
    for name, lines in refs.items():
        (tmp / f"{name}.csv").write_text("".join(line + "\n" for line in lines))
    (tmp / "binary.csv").write_bytes(bytes(range(256)) * 4)
    adapters = {"good": '{"cover_bound": "cover_bound"}', "list": '["cover_bound"]',
                "int-value": '{"cover_bound": 5}', "broken": '{"cover_bound"',
                "null": "null", "typo": '{"cover_boundd": "x"}'}
    for name, text in adapters.items():
        (tmp / f"{name}.json").write_text(text)
    (tmp / "binary.json").write_bytes(b"\xff\xfe{")
    paths = [str(tmp / "out.file"), str(tmp / "missing" / "out.file"), str(tmp)]
    huge = [0, -1, 10 ** 12, 10 ** 30]

    def pick(valid, bad):
        return rng.choice(valid if rng.random() < 0.75 else bad)

    def tree(n):
        if rng.random() < 0.7:
            return random_tree(rng, n).text
        return rng.choice([
            f"ht:{rng.choice([-1, 0, 1, 5, 6, 10 ** 12, 'x', ''])}",
            f"tt:{rng.choice([0, 1, 2, 33, 10 ** 12, -4, '1e3'])}",
            "".join(rng.choice("(.)x ") for _ in range(rng.randrange(40))),
            "(" * rng.randrange(1000, 200000) + ".",
            "(" * 1999 + "." + ".)" * 1999,
            random_tree(rng, n).text[:-1],
            random_tree(rng, n).text + "x" * 100000])

    def perm(n):
        p = rng.sample(range(1, n + 1), n)
        return pick(["id", "-".join(map(str, p))],
                    ["-".join(map(str, p[:-1])), "0", str(n + 1), "1-1", "x"])

    def small_tree():
        return pick([f"tt:{rng.randint(2, 6)}", "ht:2"], ["ht:9", "tt:40", "tt:x", "(."])

    commands = []
    for _ in range(count):
        n = rng.randint(2, 32)
        cmd = rng.choice(["exponent", "ip", "bounds", "verify-ranks", "search",
                          "check-reference", "enumerate"])
        if cmd in ("exponent", "ip"):
            argv = [cmd, tree(n), tree(n if rng.random() < 0.8 else n - 1), "--perm", perm(n)]
            argv += rng.choice([[], ["--table"]])
            argv += (rng.choice([[], ["--witnesses"], ["--ilp"]]) if cmd == "exponent" else
                     rng.choice([[], ["--solve"], ["--export", rng.choice(paths)]]))
        elif cmd == "bounds":
            argv = [cmd, tree(n)] + rng.choice([[], ["--probe", tree(n), "--perm", perm(n)]])
        elif cmd == "verify-ranks":
            k = small_tree()
            argv = [cmd, "--tree", k, "--probe", pick([k], [small_tree()])]
            for flag, valid in (("--dims", [1, 2, 3]), ("--f", [1, 2]), ("--f-prime", [1, 2]),
                                ("--r", [1, 2, 3]), ("--trials", [1, 2]), ("--seed", [0, 7]),
                                ("--exponent", [0, 1, 2])):
                if rng.random() < 0.5:
                    argv += [flag, str(pick(valid, huge + [5000]))]
        elif cmd == "search":
            size, sample = rng.choice([(4, None), (5, None), (6, 3), (4, 2)] * 3 +
                                      [(3, None), (9, 0), (12, 10 ** 9), (13, 5),
                                       (10 ** 30, None), (10, 3_000_000), (-1, 1)])
            argv = [cmd, "--n", str(size), "--kinds",
                    pick(["cover", "cover,poset", "naive,cover,poset"],
                         ["", "cover,cover", "bogus", ",", "COVER"])]
            argv += [] if sample is None else ["--sample-perms", str(sample)]
            argv += rng.choice([[], ["--csv", rng.choice(paths)], ["--json", rng.choice(paths)]])
        elif cmd == "check-reference":
            ref = rng.choice([*refs, "binary", "missing"])
            argv = [cmd, str(ours), str(tmp / f"{ref}.csv")]
            if rng.random() < 0.4:
                argv += ["--adapter", str(tmp / f"{rng.choice([*adapters, 'binary'])}.json")]
        else:
            argv = [cmd, "--n", str(pick([2, 5, 7], [-1, 0, 1, 40, 10 ** 9]))]
            argv += rng.choice([[], ["--plane"], ["--count-only"], ["--plane", "--count-only"]])
        commands.append(argv)
    return commands


def test_fuzzed_inputs_exit_0_1_or_2_with_one_error_line(tmp_path):
    argvs = _fuzz_inputs(random.Random(2026), tmp_path, 400)
    proc = subprocess.run([sys.executable, "-c", FUZZ_CHILD, str(CHILD_AS_LIMIT)],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(argvs)
    for argv, (code, out_len, err) in zip(argvs, results):
        shown = [a if len(a) < 80 else a[:40] + f"...({len(a)} chars)" for a in argv]
        assert code in (0, 1, 2), (shown, code, err)
        if code == 2:
            assert out_len == 0, (shown, err)
            assert err.startswith("error:") and err.count("\n") == 1, (shown, err)
            assert len(err.encode()) < 300, (shown, err)
    codes = [code for code, _, _ in results]
    assert {0, 1, 2} <= set(codes), codes


def test_check_reference_n7_in_bounded_memory(tmp_path):
    # both files are streamed: the 609,840-row CSV fits in a 256 MiB address space
    from tnexp.search import run_search, write_results
    path = tmp_path / "n7.csv"
    write_results(run_search(7), "csv", path)
    proc = run_capped("check-reference", str(path), str(path), limit=256 << 20, timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True and payload["compared"] == 609840


def test_verify_ranks_transpose_mismatch_exits_1(capsys, monkeypatch):
    from tnexp import ranks
    monkeypatch.setattr(ranks, "mat_rank", lambda a: a.shape[0])
    code, out, err = run_cli(capsys, "verify-ranks", "--tree", "tt:4", "--probe", "tt:4")
    assert code == 1 and not out
    assert err.startswith("error: transpose rank mismatch") and err.count("\n") == 1


def test_table_output(capsys):
    code, out, _ = run_cli(capsys, "exponent", "ht:2", "tt:4", "--table")
    assert code == 0
    assert "cover_bound : 1" in out


# every JSON scalar, with text that needs escapes and ints past 64 bits
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.integers(-(1 << 80), 1 << 80), st.floats(), st.text())
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple),
    st.lists(st.integers()), st.lists(st.text()),   # the joined lists
    st.dictionaries(st.text(), inner), st.dictionaries(st.integers(), inner),
    st.dictionaries(st.floats(), inner)), max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(JSON_VALUES, st.integers(0, 3))
def test_json_text_matches_json_dumps(value, indent):
    assert cli._json_text(value, indent) == json.dumps(value, sort_keys=True, indent=indent)


# ---------------------------------------------------------------------------
# every CLI example in the README runs

def test_readme_examples(capsys, tmp_path):
    text = README.read_text()
    commands = re.findall(r"^\$ (tnexp .+)$", text, flags=re.MULTILINE)
    assert len(commands) >= 6, "README should carry a worked CLI example per subcommand"
    for command in commands:
        argv = shlex.split(command)[1:]
        argv = [a.replace("/tmp/tnexp-out", str(tmp_path)) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, f"README example failed: {command}\n{err}"
        assert out.strip(), f"README example printed nothing: {command}"
