import csv
import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from conftest import all_perms, doad_sets
from tnexp.covers import build_cover_table, cover_exponent
from tnexp import cli, search
from tnexp.bounds import poset_bound
from tnexp.search import (
    SearchResult,
    _leaf_bits,
    _lex_perms,
    _pullback_columns,
    _sample_perms,
    run_search,
    verify_against_reference,
    write_results,
)
from tnexp.trees import Permutation, enumerate_shapes


# ---------------------------------------------------------------------------
# vectorized pullbacks

def test_pullback_table_matches_scalar():
    rng = np.random.default_rng(3)
    for n, perms in ((5, np.array(list(itertools.permutations(range(1, 6))), dtype=np.int8)),
                     (9, np.array([rng.permutation(9) + 1 for _ in range(500)], dtype=np.int8))):
        masks = [int(m) for m in rng.integers(1 << n, size=200)]
        pb = _pullback_columns(_leaf_bits(perms), masks)
        assert pb.shape == (200, len(perms))
        for k, mask in enumerate(masks):
            pi = int(rng.integers(len(perms)))
            assert pb[k, pi] == Permutation(perms[pi]).pullback(mask)
        # group 2 folds masks 2k and 2k + 1 into one pair index a << n | b
        pairs = _pullback_columns(_leaf_bits(perms), masks, group=2)
        assert pairs.shape == (100, len(perms))
        assert np.array_equal(pairs, pb[0::2] << n | pb[1::2])


@pytest.mark.parametrize("n", range(1, 9))
def test_lex_perms_match_itertools(n):
    want = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
    got = _lex_perms(n)
    assert got.dtype == np.int8 and got.shape == (math.factorial(n), n)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# searches

def test_search_n4_counts_and_values():
    res = run_search(4, kinds=("cover", "poset", "naive"))
    assert res.instance_count == 96
    assert len(res.shapes) == 2 and len(res.perms) == 24
    # identity instances are all 1; the full sweep also hits 2
    id_idx = res.perms.index("1234")
    for i, j in itertools.product(range(2), repeat=2):
        assert res.data["cover"][i, j][id_idx] == 1
    everything = np.concatenate([res.data["cover"][i, j]
                                 for i, j in itertools.product(range(2), repeat=2)])
    assert set(np.unique(everything)) == {1, 2}


def _naive_by_definition(counts, t_prime, perm):
    """The naive kind as defined: n over every pulled-back doad set of T', maximized.

    The search and naive_max both read max(n_S, n_{S^c}) per node of T';
    this reads the doad sets one by one instead.
    """
    return max(int(counts[perm.pullback(m)]) for m in doad_sets(t_prime))


def test_naive_matches_its_definition_on_every_small_instance():
    for n in range(2, 6):
        shapes = enumerate_shapes(n)
        res = run_search(n, kinds=("naive",)) if n >= 4 else None
        for (i, t), (j, t2) in itertools.product(enumerate(shapes), repeat=2):
            counts = build_cover_table(t)
            for p, perm in enumerate(all_perms(n)):
                want = _naive_by_definition(counts, t2, perm)
                assert cover_exponent(t, t2, perm).naive_max == want, (t, t2, perm)
                if res is not None:
                    assert res.perms[p] == perm.one_line()
                    assert res.data["naive"][i, j][p] == want, (t, t2, perm)


def test_search_matches_direct_evaluation():
    # n <= 9 reads pair tables (n = 9 has an odd node count, so its last
    # column pairs with the empty mask); n = 10 reads one node per lookup.
    # Rows are padded to whole words (46 shapes to 48 bytes at n = 9, 98 to
    # 104 at n = 10), so these draws also show that no padding byte leaks.
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
            assert res.data["cover"][i, j][p] == rep.cover_bound, (n, i, j, res.perms[p])
            naive = _naive_by_definition(build_cover_table(shapes[i]), shapes[j], perm)
            assert res.data["naive"][i, j][p] == rep.naive_max == naive, (n, i, j, res.perms[p])
            assert (res.data["poset"][i, j][p]
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


def test_perm_strings_are_built_on_first_read():
    res = run_search(6)
    assert "perms" not in vars(res)
    assert res.perms is res.perms and len(res.perms) == 720


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
        mins, maxs, counts = res.aggregate(kind)
        assert mins.shape == maxs.shape == (len(res.shapes),) * 2
        for i, j in itertools.product(range(len(res.shapes)), repeat=2):
            arr = res.data[kind][i, j]
            hist = np.bincount(arr, minlength=counts.shape[2])
            assert (mins[i, j], maxs[i, j]) == (arr.min(), arr.max())
            assert counts[i, j].tolist() == hist.tolist()


def test_search_self_identity_spot_check():
    res = run_search(6)
    id_idx = res.perms.index("123456")
    for i in range(len(res.shapes)):
        assert res.data["cover"][i, i][id_idx] == 1


def test_search_n4_min_over_perms_is_all_ones():
    res = run_search(4)
    mins, _, _ = res.aggregate("cover")
    assert mins.tolist() == [[1, 1], [1, 1]]


def test_search_sampled_permutations():
    res = run_search(9, sample_perms=40, seed=5)
    assert res.sampled
    assert len(res.perms) == 40
    assert len(set(res.perms)) == 40
    again = run_search(9, sample_perms=40, seed=5)
    assert res.perms == again.perms
    assert res.digest("cover") == again.digest("cover")


def test_sample_perms_must_be_integral():
    # read like weight_vector's entries: a fraction is an error, not 2 permutations
    want = run_search(5, sample_perms=2, seed=0)
    for count in (2.0, np.int16(2)):
        assert run_search(5, sample_perms=count, seed=0).perms == want.perms
    for bad in (2.5, float("nan"), "2"):
        with pytest.raises(ValueError, match="sample_perms must be an integer"):
            run_search(5, sample_perms=bad)


@pytest.mark.parametrize("n,count", [(5, 120), (5, 10 ** 6), (6, 720), (6, 10 ** 6)])
def test_sample_perms_of_n_factorial_or_more_is_the_full_search(n, count):
    full = run_search(n, kinds=("cover", "naive"))
    res = run_search(n, kinds=("cover", "naive"), sample_perms=count, seed=1)
    assert res.sampled and not full.sampled
    assert np.array_equal(res.perm_array, full.perm_array)
    assert [res.digest(k) for k in res.kinds] == [full.digest(k) for k in full.kinds]


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


@pytest.mark.parametrize("n,kw,message", [
    (13, {"sample_perms": 5}, "sampled search supports 4..12 leaves"),
    (5, {"kinds": ()}, "need at least one bound kind"),
    (12, {"sample_perms": 10 ** 6}, f"exceed the {search.INSTANCE_CAP} instances"),
], ids=["sampled-n13", "no-kinds", "instance-cap"])
def test_search_rejects_before_it_allocates(n, kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_search(n, **kw)


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
    mins, maxs, _ = res.aggregate("cover")
    for key, values in by_pair.items():
        assert max(values) == maxs[key]
        assert min(values) == mins[key]


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


def _json_by_dumps(res):
    """The JSON summary as json.dumps writes it from one dict per pair."""
    payload = {"n": res.n, "shapes": list(res.shapes), "perm_count": len(res.perm_array),
               "sampled": res.sampled, "kinds": list(res.kinds),
               "instances": res.instance_count, "pairs": [],
               "digests": {k: res.digest(k) for k in res.kinds}}
    for i, j in itertools.product(range(len(res.shapes)), repeat=2):
        entry = {"a": i, "b": j}
        for k in res.kinds:
            arr = res.data[k][i, j]
            hist = {str(v): int(c) for v, c in enumerate(np.bincount(arr)) if c}
            entry[k] = {"min": int(arr.min()), "max": int(arr.max()), "histogram": hist}
        payload["pairs"].append(entry)
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def test_json_writer_matches_json_dumps(tmp_path):
    rng = np.random.default_rng(5)
    results = [run_search(4, kinds=("naive",)), run_search(6, kinds=ALL_KINDS),
               run_search(10, kinds=("poset", "naive"), sample_perms=7, seed=3)]
    # values up to 12 put "10", "11" and "12" before "2" among the histogram keys
    wide = rng.integers(1, 13, size=(3, 3, 40), dtype=np.uint8)
    results.append(SearchResult(n=9, shapes=("x", "y", "z"), perm_array=_lex_perms(9)[:40],
                                sampled=True, kinds=("naive", "cover"),
                                data={"naive": wide, "cover": np.maximum(wide, 11)}))
    for res in results:
        path = tmp_path / "out.json"
        write_results(res, "json", path)
        assert path.read_text() == _json_by_dumps(res)


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


@pytest.mark.parametrize("adapter", [{"cover_bound": 5}, ["cover_bound"],
                                     {"cover_bound": None}, "cover_bound"])
def test_reference_adapter_must_map_str_to_str(tmp_path, adapter):
    # a non-string target must not drop the renamed column and pass on the
    # others alone: both kinds here would compare 1,080 naive values
    path = tmp_path / "n5.csv"
    write_results(run_search(5, kinds=("cover", "naive")), "csv", path)
    with pytest.raises(ValueError, match="str -> str"):
        verify_against_reference(path, path, adapter=adapter)


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


# ---------------------------------------------------------------------------
# byte pins of the search command's outputs

def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


# (n, kinds, sampled perms, seed, sha256 of the --json file, sha256 of stdout)
SEARCH_OUTPUT_PINS = [
    (4, "cover,poset", None, 0,
     "39d20391f3ae5096e7a88c6c8989f26b7d6f1dfc235d93d92594b19ded9dbc3a",
     "5b5f621654b41598b4927aa964176563578646473a4c26ff7087a37a14b492b1"),
    (4, "cover,poset,naive", None, 0,
     "3a289075cbad7b303490c30a140ad411ff2ccb567690db41e88e6a8fb54f978b",
     "b87d5e0318da87ffe9bdd95abd445356a0e00b12661e5cdd79e5e8bfb20504a7"),
    (5, "cover,poset", None, 0,
     "ba49c9378f4a0540f68b5327df87ce5d9b0c65b5dc5e729461ca621c2631af2e",
     "fb4e46897d519e2213dfc2d8cfd8047d006c2030ff8d9e7bd045eea6bbc69f56"),
    (5, "cover,poset,naive", None, 0,
     "6ca3bc1ea19dfb9ba6d29fed64884a18cd43cc4af117cfdd7cdc612126f06bd4",
     "a530b79105202be4b7eaa35cb910deff0f2507e81ddd257f732b80bb6f72e0c7"),
    (6, "cover,poset", None, 0,
     "6fddf3f2289a2d525d2e9e5c7c18fb5255a432afd3fa4b3bd6c34d16289ffb0a",
     "6061f028408726339c849278353fd150f74af7ab9036645e5678dbc7d8278023"),
    (6, "cover,poset,naive", None, 0,
     "1049fa9390dd9e2f79fcb81e03ffd80ab556eebcb3d79136b9e0f474d14c4423",
     "523d79f37152dd063e7ea09df996168e479f90a364f042b4bacbc6afa51b8704"),
    (7, "cover,poset", None, 0,
     "b3060d699a267cd47cb629ad7336285a79d5ab70ca3c0812e30ae8a7a9b8ea6d",
     "2d302e267b00abb6cd5d3dff6b8858f9c02419a6375bd8909bf9ff56157eef08"),
    (7, "cover,poset,naive", None, 0,
     "bc33744c19142edf61bab8c63b887c003ba117cdc7c51ec6cbc369892368f3dc",
     "8fdce3d74aec4c136916b155618298857c5e96cc559aa19b95564b1111098d43"),
    (8, "cover,poset", None, 0,
     "ff7b93c335ba15a4ff5c7d6e090aa86c0a2a7cd031fe0393ead6d6edf351dde1",
     "b6de1fdc7957ac07be098cea14d61e19619f007c30c009b01b170c3ac413b865"),
    (8, "cover,poset,naive", None, 0,
     "79ba6cc4af71db090bdd562860b979e3353ab3043310ed388a110475762097c6",
     "c60b85677375e2b7227b5099191e5e87e25990fd2e03522ecfbf4d2e2ca22f46"),
    # 46 shapes (rows of 48 bytes) read through pair tables
    (9, "cover,poset,naive", 200, 2,
     "2c0ada78e4b74de2b3b7d18c269c387ab0adb6958e933b3782422b5a61687bf6",
     "8e5f1812c466711f16db8475941189ecefda08ffb5aca88f784533d4ed9e14f7"),
    (10, "cover,poset", 300, 4,
     "6bc99f979e1e2f7a79c431b2c8bb1f4d57ee418dc024b1b6c729745aed72b111",
     "6b13c89b7c03d3fdb466b00e2151e452625f13372ede5d2e0d71ecc564ac507a"),
    (10, "cover,poset,naive", 300, 4,
     "7e76c712ea9cf183e94b539a7c525a29f3b41e937dfb4b373ae050850f5e4bac",
     "28aa9ed32441802fe15ad7261063c95489b5ddecb42d1707ae05e792734caa20"),
    (12, "cover,poset", 100, 1,
     "a6859df6a37619b3fe9f75ee25dca37de5d51b5ff897b289335ce24dd48fb23b",
     "f9a410b7470465b3d22b740a2794610a866c28a848c0b4b67dbaa96890a81b3f"),
    (12, "cover,poset,naive", 100, 1,
     "ea64edf53c1c45c5d39cdc95f807d4b8b7449b34f47e726de10df4b45d751d24",
     "cf66ed3078529e7c0baaf9b7cdf60e753cebe1734a18154f562ea2b30bedc5de"),
]

# (n, sampled perms, seed, sha256 of the --csv file with kinds cover,poset,naive)
SEARCH_CSV_PINS = [
    (5, None, 0, "468ef4c59d74710d65646113e8551d2fb7de71a660acc01e3c2a0ff81987726b"),
    (10, 20, 4, "d46043123349b6979df356a8e7446ec332d2c0af2fb6962aba9045d0b3854f56"),
]


def _search_argv(n, kinds, sample, seed):
    argv = ["search", "--n", str(n), "--kinds", kinds]
    return argv + (["--sample-perms", str(sample), "--seed", str(seed)] if sample else [])


@pytest.mark.parametrize("n, kinds, sample, seed, json_sha, stdout_sha", SEARCH_OUTPUT_PINS,
                         ids=[f"{r[0]}-{r[1]}-{r[2]}" for r in SEARCH_OUTPUT_PINS])
def test_search_command_bytes_pinned(n, kinds, sample, seed, json_sha, stdout_sha,
                                     tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.main(_search_argv(n, kinds, sample, seed) + ["--json", str(path)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
    assert _sha256(path.read_bytes()) == json_sha


@pytest.mark.parametrize("n, sample, seed, csv_sha", SEARCH_CSV_PINS,
                         ids=[f"{r[0]}-{r[1]}" for r in SEARCH_CSV_PINS])
def test_search_csv_bytes_pinned(n, sample, seed, csv_sha, tmp_path, capsys):
    path = tmp_path / "out.csv"
    argv = _search_argv(n, "cover,poset,naive", sample, seed) + ["--csv", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert _sha256(path.read_bytes()) == csv_sha
