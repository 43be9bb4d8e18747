import hashlib
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tnexp import bounds, covers
from tnexp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src"
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


def test_verify_ranks_bad_input_exits_2(capsys):
    for extra in (("--dims", "161", "--r", "20000"), ("--trials", "0"), ("--f-prime", "0"),
                  ("--f-prime", "-1")):
        code, out, err = run_cli(capsys, "verify-ranks", "--tree", "tt:3", "--probe", "tt:3",
                                 *extra)
        assert code == 2 and not out, extra
        assert err.startswith("error:") and err.count("\n") == 1, (extra, err)


CHILD_CLI = [sys.executable, "-c", "import sys; from tnexp.cli import main; sys.exit(main())"]


def child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


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
], ids=["comb2000", "deep-open", "ht-huge", "exponent-neg", "exponent-huge",
        "sample-n12", "sample-n10", "kinds-repeated", "kinds-empty", "long-tail"])
def test_oversized_input_exits_2_in_bounded_memory(argv):
    proc = run_capped(*argv)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert len(proc.stderr.encode()) < 200, proc.stderr[:300]


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
