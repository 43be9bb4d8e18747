import csv
import itertools
import json
import re

import numpy as np
import pytest

from tnexp.covers import build_cover_table, cover_exponent
from tnexp import search
from tnexp.bounds import poset_bound
from tnexp.search import (
    _leaf_bits,
    _pullback_columns,
    _sample_perms,
    run_search,
    verify_against_reference,
    write_results,
)
from tnexp.trees import Permutation, all_permutations, doad_family, enumerate_shapes


# ---------------------------------------------------------------------------
# vectorized pullbacks

def test_pullback_table_matches_scalar():
    rng = np.random.default_rng(3)
    for n, perms in ((5, np.array([p.perm for p in all_permutations(5)], dtype=np.int8)),
                     (9, np.array([rng.permutation(9) + 1 for _ in range(500)], dtype=np.int8))):
        masks = [int(m) for m in rng.integers(1 << n, size=200)]
        pb = _pullback_columns(_leaf_bits(perms), masks)
        assert pb.shape == (200, len(perms))
        for k, mask in enumerate(masks):
            pi = int(rng.integers(len(perms)))
            assert pb[k, pi] == Permutation(perms[pi]).pullback(mask)


# ---------------------------------------------------------------------------
# searches

def test_search_n4_counts_and_values():
    res = run_search(4, kinds=("cover", "poset", "naive"))
    assert res.instance_count == 96
    assert len(res.shapes) == 2 and len(res.perms) == 24
    # identity instances are all 1; the full sweep also hits 2
    id_idx = res.perms.index("1234")
    for i, j in itertools.product(range(2), repeat=2):
        assert res.values("cover", i, j)[id_idx] == 1
    everything = np.concatenate([res.values("cover", i, j)
                                 for i, j in itertools.product(range(2), repeat=2)])
    assert set(np.unique(everything)) == {1, 2}


def _naive_by_definition(counts, t_prime, perm):
    """The naive kind as defined: n over every pulled-back doad set of T', maximized.

    The search and naive_max both read max(n_S, n_{S^c}) per node of T';
    this reads the doad sets one by one instead.
    """
    return max(int(counts[perm.pullback(m)]) for m in doad_family(t_prime).masks)


def test_naive_matches_its_definition_on_every_small_instance():
    for n in range(2, 6):
        shapes = enumerate_shapes(n)
        res = run_search(n, kinds=("naive",)) if n >= 4 else None
        for (i, t), (j, t2) in itertools.product(enumerate(shapes), repeat=2):
            counts = build_cover_table(t)
            for p, perm in enumerate(all_permutations(n)):
                want = _naive_by_definition(counts, t2, perm)
                assert cover_exponent(t, t2, perm).naive_max == want, (t, t2, perm)
                if res is not None:
                    assert res.perms[p] == perm.one_line()
                    assert res.values("naive", i, j)[p] == want, (t, t2, perm)


def test_search_matches_direct_evaluation():
    # n <= 9 reads pair tables (n = 9 has an odd node count, so its last
    # column pairs with the empty mask); n = 10 reads one node per lookup
    assert 4 ** 9 <= search.PAIR_TABLE_CAP < 4 ** 10
    for n, sample, seed, draws in ((5, None, 0, 60), (8, None, 0, 200),
                                   (9, 500, 1, 200), (10, 200, 2, 200)):
        res = run_search(n, kinds=("cover", "poset", "naive"), sample_perms=sample, seed=seed)
        shapes = enumerate_shapes(n)
        rng = np.random.default_rng(11 + n)
        for _ in range(draws):
            i, j = (int(x) for x in rng.integers(len(shapes), size=2))
            p = int(rng.integers(len(res.perms)))
            perm = Permutation.from_text(res.perms[p], n)
            rep = cover_exponent(shapes[i], shapes[j], perm)
            assert res.values("cover", i, j)[p] == rep.cover_bound, (n, i, j, res.perms[p])
            naive = _naive_by_definition(build_cover_table(shapes[i]), shapes[j], perm)
            assert res.values("naive", i, j)[p] == rep.naive_max == naive, (n, i, j, res.perms[p])
            assert (res.values("poset", i, j)[p]
                    == poset_bound(shapes[i], shapes[j], perm).value), (n, i, j, res.perms[p])


def test_search_deterministic():
    a = run_search(5, kinds=("cover",))
    b = run_search(5, kinds=("cover",))
    assert a.digest("cover") == b.digest("cover")
    assert a.perms == b.perms


ALL_KINDS = ("cover", "poset", "naive")


DIGEST_PINS = [
    (7, None, 0,
     "4da38153853af5f31e8b7b5c9fda0d05e065a562d98ee1fbbad8cea6fd79d3bc",
     "84071dfc497fd5edeaf72f2dafa7a0023531b03a1b1386249f80c6b73c5ac6ef"),
    (9, 2000, 3,
     "60bdde596b743f31092b1f70a5876600525cf10099c0e692bf8527750c88c070",
     "1454553ec9162fee3908bf90c30cf836d7e3b95f47e704e2ba3ac4c9002c3213"),
    # one T' node per lookup (no pair tables above n = 9)
    (10, 300, 4,
     "d0c76ba64616e50edc47be49c55a45aa6b9ce808a90c67ff0e658860c89118f1",
     "c0cf816439e07f31d9240f1d34e77971c8d3bc3d08bdcb410df9c700d794a3f1"),
    (12, 100, 1,
     "bdd658ec9355914d7b36cc72a19dc3f750af5239caa3b05951c356946ebcd657",
     "54a9bc4ede0f6fe164bffeaeff7aa4fba059b0a28a8309e1c4f64912235a1936"),
    # no naive digest: the poset kind alone
    (7, None, 0,
     "4da38153853af5f31e8b7b5c9fda0d05e065a562d98ee1fbbad8cea6fd79d3bc", None),
]


# rows with pair tables (n <= 9) run again with one T' node per lookup forced
@pytest.mark.parametrize("n, sample, seed, cover, naive, one_node", [
    pytest.param(*row, one_node, id="-".join(map(str, row)) + "-one-node" * one_node)
    for row in DIGEST_PINS for one_node in (False, True) if row[0] <= 9 or not one_node])
def test_search_digests_pinned(n, sample, seed, cover, naive, one_node, monkeypatch):
    if one_node:
        monkeypatch.setattr(search, "PAIR_TABLE_CAP", 0)
    if naive is None:
        res = run_search(n, kinds=("poset",), sample_perms=sample, seed=seed)
        assert res.digest("poset") == cover
        return
    res = run_search(n, kinds=ALL_KINDS, sample_perms=sample, seed=seed)
    assert res.digest("cover") == cover
    assert res.digest("poset") == cover
    assert res.digest("naive") == naive


def test_cover_and_poset_share_one_array_and_its_memo():
    res = run_search(5, kinds=("poset", "naive", "cover"))
    assert res.data["poset"] is res.data["cover"]
    assert res.data["naive"] is not res.data["cover"]
    assert res.aggregate("poset") is res.aggregate("cover")
    assert res.digest("cover") is res.digest("poset")
    assert res.aggregate("naive") is not res.aggregate("cover")
    assert run_search(5, kinds=("cover",)).digest("cover") == res.digest("poset")


def test_perm_strings_are_one_line():
    res = run_search(5)
    rows = list(itertools.permutations(range(1, 6)))
    assert res.perms == tuple(Permutation(row).one_line() for row in rows)
    res10 = run_search(10, sample_perms=30, seed=7)
    rows10 = _sample_perms(10, 30, 7)
    assert res10.perms == tuple(Permutation(row).one_line() for row in rows10)
    assert all("-" in p for p in res10.perms)


def test_aggregate_matches_per_pair_loop():
    res = run_search(6, kinds=ALL_KINDS)
    for kind in ALL_KINDS:
        agg = res.aggregate(kind)
        assert list(agg) == list(itertools.product(range(len(res.shapes)), repeat=2))
        for (i, j), got in agg.items():
            arr = res.values(kind, i, j)
            hist = {v: int(c) for v, c in enumerate(np.bincount(arr)) if c}
            assert got == {"min": int(arr.min()), "max": int(arr.max()), "histogram": hist}


def test_search_self_identity_spot_check():
    res = run_search(6)
    id_idx = res.perms.index("123456")
    for i in range(len(res.shapes)):
        assert res.values("cover", i, i)[id_idx] == 1


def test_search_n4_min_over_perms_is_all_ones():
    res = run_search(4)
    agg = res.aggregate("cover")
    mins = [[agg[(i, j)]["min"] for j in range(2)] for i in range(2)]
    assert mins == [[1, 1], [1, 1]]


def test_search_sampled_permutations():
    res = run_search(9, sample_perms=40, seed=5)
    assert res.sampled
    assert len(res.perms) == 40
    assert len(set(res.perms)) == 40
    again = run_search(9, sample_perms=40, seed=5)
    assert res.perms == again.perms
    assert res.digest("cover") == again.digest("cover")


@pytest.mark.parametrize("n,count", [(5, 100), (8, 40319)])
def test_sample_perms_above_half_leaves_out_the_rest(n, count):
    rows = [tuple(r) for r in _sample_perms(n, count, seed=0).tolist()]
    assert len(rows) == count
    assert rows == sorted(set(rows))
    assert all(sorted(r) == list(range(1, n + 1)) for r in rows)


def test_search_input_validation():
    with pytest.raises(ValueError):
        run_search(3)
    with pytest.raises(ValueError):
        run_search(9)
    with pytest.raises(ValueError):
        run_search(4, kinds=("cover", "bogus"))


# ---------------------------------------------------------------------------
# serialization and reference comparison

def test_csv_row_counts(tmp_path):
    res = run_search(4)
    path = tmp_path / "n4.csv"
    write_results(res, "csv", path)
    rows = path.read_text().splitlines()
    assert rows[0] == "n,shape_a,shape_b,perm_oneline,cover_bound"
    assert len(rows) == 1 + 96

    res5 = run_search(5)
    path5 = tmp_path / "n5.csv"
    write_results(res5, "csv", path5)
    assert len(path5.read_text().splitlines()) == 1 + 3 * 3 * 120


def test_csv_round_trip_aggregates(tmp_path):
    res = run_search(4, kinds=("cover", "poset"))
    path = tmp_path / "n4.csv"
    write_results(res, "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_pair = {}
    for row in rows:
        i = res.shapes.index(row["shape_a"])
        j = res.shapes.index(row["shape_b"])
        by_pair.setdefault((i, j), []).append(int(row["cover_bound"]))
    agg = res.aggregate("cover")
    for key, values in by_pair.items():
        assert max(values) == agg[key]["max"]
        assert min(values) == agg[key]["min"]


def test_csv_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results(run_search(5, kinds=("cover", "naive")), "csv", a)
    write_results(run_search(5, kinds=("cover", "naive")), "csv", b)
    assert a.read_bytes() == b.read_bytes()


def test_json_summary(tmp_path):
    res = run_search(4, kinds=("cover",))
    path = tmp_path / "n4.json"
    write_results(res, "json", path)
    payload = json.loads(path.read_text())
    assert payload["instances"] == 96
    assert payload["digests"]["cover"] == res.digest("cover")
    assert len(payload["pairs"]) == 4
    write_results(res, "json", tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_write_results_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        write_results(run_search(4), "xml", tmp_path / "x")


def test_reference_self_diff(tmp_path):
    res = run_search(4)
    path = tmp_path / "ours.csv"
    write_results(res, "csv", path)
    diff = verify_against_reference(path, path)
    assert diff.ok and diff.compared == 96


def test_reference_synthetic_identity_subset(tmp_path):
    # a reference carrying only the identity-permutation rows, all 1
    res = run_search(4)
    ours = tmp_path / "ours.csv"
    write_results(res, "csv", ours)
    ref = tmp_path / "ref.csv"
    lines = ["n,shape_a,shape_b,perm_oneline,cover_bound"]
    for a in res.shapes:
        for b in res.shapes:
            lines.append(f"4,{a},{b},1234,1")
    ref.write_text("\n".join(lines) + "\n")
    diff = verify_against_reference(ours, ref)
    assert not diff.mismatches
    assert len(diff.missing_in_reference) == 96 - 4


def test_reference_detects_corruption(tmp_path):
    res = run_search(4)
    ours = tmp_path / "ours.csv"
    write_results(res, "csv", ours)
    corrupted = tmp_path / "bad.csv"
    lines = ours.read_text().splitlines()
    fields = lines[17].rsplit(",", 1)
    lines[17] = f"{fields[0]},{int(fields[1]) + 1}"
    corrupted.write_text("\n".join(lines) + "\n")
    diff = verify_against_reference(ours, corrupted)
    assert len(diff.mismatches) == 1
    assert not diff.missing_in_reference


def test_reference_adapter_renames_columns(tmp_path):
    res = run_search(4)
    ours = tmp_path / "ours.csv"
    write_results(res, "csv", ours)
    renamed = tmp_path / "renamed.csv"
    text = ours.read_text().replace("cover_bound", "exponent")
    renamed.write_text(text)
    with pytest.raises(ValueError):
        verify_against_reference(ours, renamed)
    diff = verify_against_reference(ours, renamed,
                                    adapter={"cover_bound": "exponent"})
    assert diff.ok


def test_reference_unparseable(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("")
    ours = tmp_path / "ours.csv"
    write_results(run_search(4), "csv", ours)
    with pytest.raises(ValueError):
        verify_against_reference(ours, bad)


N10_HEADER = "n,shape_a,shape_b,perm_oneline,cover_bound"
N10_SHAPE = "(((((((((..).).).).).).).).)"
# integer order puts ...-9-10 before ...-10-9; string order would swap them
N10_PERMS = ("1-2-3-4-5-6-7-8-9-10", "1-2-3-4-5-6-7-8-10-9")


def _n10_csv(path, perms_values):
    lines = [N10_HEADER] + [f"10,{N10_SHAPE},{N10_SHAPE},{p},{v}" for p, v in perms_values]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_reference_orders_dashed_perms_as_integers(tmp_path):
    ours = _n10_csv(tmp_path / "ours.csv", [(N10_PERMS[0], 1), (N10_PERMS[1], 2)])
    assert verify_against_reference(ours, ours).compared == 2
    ref = _n10_csv(tmp_path / "ref.csv", [(N10_PERMS[1], 3)])
    diff = verify_against_reference(ours, ref)
    key = ("10", N10_SHAPE, N10_SHAPE)
    assert diff.mismatches == ((key + (N10_PERMS[1],), "cover_bound", 2, 3),)
    assert diff.missing_in_reference == (key + (N10_PERMS[0],),)
    assert diff.missing_in_ours == ()
    # the writer's own sampled n = 10 CSV is in this order
    path = tmp_path / "n10.csv"
    write_results(run_search(10, sample_perms=2, seed=7), "csv", path)
    diff = verify_against_reference(path, path)
    assert diff.ok and diff.compared == 98 * 98 * 2


@pytest.mark.parametrize("rows,message", [
    ([(N10_PERMS[1], 1), (N10_PERMS[0], 1)], ":3: key repeated or out of"),
    ([(N10_PERMS[0], 1), (N10_PERMS[0], 1)], ":3: key repeated or out of"),
    ([(N10_PERMS[0], "x")], ":2: invalid literal for int()"),
], ids=["swapped", "repeated", "non-integer"])
def test_reference_rejects_rows_with_file_and_line(tmp_path, rows, message):
    good = _n10_csv(tmp_path / "good.csv", [(N10_PERMS[0], 1)])
    bad = _n10_csv(tmp_path / "bad.csv", rows)
    for args in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad}{message}")):
            verify_against_reference(*args)


def test_reference_rejects_short_row_and_bad_header(tmp_path):
    good = _n10_csv(tmp_path / "good.csv", [(N10_PERMS[0], 1)])
    short = tmp_path / "short.csv"
    short.write_text(f"{N10_HEADER}\n10,{N10_SHAPE},{N10_SHAPE},{N10_PERMS[0]}\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{short}:2: 4 fields, header has 5")):
        verify_against_reference(good, short)
    no_key = tmp_path / "no_key.csv"
    no_key.write_text(N10_HEADER.replace("shape_b,", "") + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{no_key}:1: header needs")):
        verify_against_reference(good, no_key)
