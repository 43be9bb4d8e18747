import hashlib
import itertools
import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    NOT_SHARP_A,
    NOT_SHARP_B,
    all_perms,
    bfs_cover_table,
    brute_cover_table,
    brute_product_table,
    child_env,
    compose,
    doad_sets,
    greedy_witness,
    mirror,
    random_tree,
)
from tnexp import covers
from tnexp.covers import (
    CoverCounter,
    build_cover_table,
    check_trivial_containment,
    cover_exponent,
)
from tnexp.ilp import build_ip, solve_ip
from tnexp.ranks import NetworkSpec
from tnexp.trees import (
    Permutation,
    Tree,
    build_ht,
    build_tt,
    enumerate_shapes,
    mask_from_leaves,
    parse_tree,
    weight_vector,
)


# ---------------------------------------------------------------------------
# cover tables against the brute-force oracle

def test_table_matches_brute_force_all_small_trees():
    for n in range(2, 6):
        for t in enumerate_shapes(n):
            table = build_cover_table(t)
            brute = brute_cover_table(t)
            for mask in range(1 << n):
                assert table[mask] == brute[mask]


def test_table_spot_values():
    ht2 = build_cover_table(build_ht(2))
    assert ht2[mask_from_leaves([2, 3])] == 2
    assert ht2[mask_from_leaves([1, 3])] == 2
    assert ht2[0] == 0
    tt8 = build_cover_table(build_tt(8))
    # interval touching neither end: only singletons fit inside it
    assert tt8[mask_from_leaves(range(2, 8))] == 6
    assert tt8[mask_from_leaves([1, 8])] == 2


def test_table_invariants():
    for t in enumerate_shapes(6):
        table = build_cover_table(t)
        doads = doad_sets(t)
        full = t.full_mask
        half = t.n // 2
        for mask in range(1, full + 1):
            n_s = table[mask]
            assert n_s >= 1
            assert (n_s == 1) == (mask in doads)
            assert n_s <= bin(mask).count("1")
            if mask != full:
                assert min(n_s, table[full ^ mask]) <= half


def test_table_cap():
    with pytest.raises(ValueError):
        build_cover_table(build_tt(25))


# ---------------------------------------------------------------------------
# both closed-form routes against the BFS table

ORACLE_TREES = ([Tree(".")] + [t for n in range(2, 11) for t in enumerate_shapes(n)]
                + [build_tt(12), build_ht(4)])


def test_table_matches_bfs_oracle():
    rng = random.Random(12)
    sampled = [random_tree(rng, 12) for _ in range(20)]
    for t in ORACLE_TREES + sampled:
        assert np.array_equal(build_cover_table(t), bfs_cover_table(t)), t


def test_table_blocks_join_up(monkeypatch):
    rng = random.Random(17)
    for t in (random_tree(rng, 17), build_tt(17)):   # two blocks of 2^16 masks
        assert np.array_equal(build_cover_table(t), bfs_cover_table(t)), t
    monkeypatch.setattr(covers, "_TABLE_BLOCK", 32)    # several blocks from n = 6 on
    for t in [t for n in range(2, 9) for t in enumerate_shapes(n)]:
        assert np.array_equal(build_cover_table(t), bfs_cover_table(t)), t


def test_table_memory_is_bounded_by_blocks():
    # the 22-leaf comb's BFS grows the process by about 70 MB; the blocked
    # closed form by its 4 MB result plus a few MB of per-block temporaries
    code = ("import resource; from tnexp.covers import build_cover_table; "
            "from tnexp.trees import build_tt; t = build_tt(22); "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "build_cover_table(t); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), check=True, timeout=120)
    assert int(proc.stdout) < 32 * 1024   # KiB


def test_counter_matches_table_every_subset():
    for t in ORACLE_TREES:
        counter = CoverCounter(t)
        got = [len(counter.cover(mask)[1]) for mask in range(1 << t.n)]
        assert np.array_equal(got, bfs_cover_table(t)), t


def test_witness_decompositions():
    trees = [t for n in range(2, 8) for t in enumerate_shapes(n)]
    for t in trees + [build_tt(12), build_ht(4)]:
        table, counter = build_cover_table(t), CoverCounter(t)
        doads = doad_sets(t)
        # ht:4 has 65536 subsets; a stride keeps the test short
        step = 7 if t.n > 12 else 1
        for mask in range(1, t.full_mask + 1, step):
            wit = counter.cover(mask)[1]
            assert len(wit) == table[mask]
            union = 0
            for vid, kind, m in wit:
                assert (vid, kind) in doads[m]
                assert union & m == 0  # pairwise disjoint
                union |= m
            assert union == mask
            assert CoverCounter(t).cover(mask)[1] == wit  # deterministic


def test_witness_matches_greedy_oracle():
    for t in ORACLE_TREES:
        counter, table = CoverCounter(t), bfs_cover_table(t)
        step = 7 if t.n > 12 else 1   # as in test_witness_decompositions
        for mask in range(0, t.full_mask + 1, step):
            assert counter.cover(mask)[1] == greedy_witness(t, table.item, mask), (t, mask)


def test_counter_rejects_masks_outside_the_leaf_set():
    counter = CoverCounter(build_tt(4))
    assert counter.cover(0) == (1, ()) and len(counter.cover(15)[1]) == 1
    for mask in (-1, 16):
        with pytest.raises(ValueError, match=f"mask must be in 0..15, got {mask}"):
            counter.cover(mask)
        with pytest.raises(ValueError, match=f"mask must be in 0..15, got {mask}"):
            CoverCounter(build_tt(4), 2).cover(mask)


def test_exponent_past_table_cap_matches_ip():
    ht5, tt32 = build_ht(5), build_tt(32)
    for t, t2, want in ((ht5, tt32, 3), (tt32, ht5, 2)):
        rep = cover_exponent(t, t2)
        assert rep.cover_bound == want
        assert solve_ip(build_ip(t, t2)).objective == want
        for nc in rep.per_node:
            side = nc.desc_set if nc.chosen == "desc" else nc.anti_set
            sets = [m for *_, m in rep.witnesses[nc.label]]
            assert len(sets) == nc.value
            union = 0
            for m in sets:
                assert not union & m  # pairwise disjoint
                union |= m
            assert union == side


# ---------------------------------------------------------------------------
# cover exponent reports

def test_ht2_into_tt4_identity():
    rep = cover_exponent(build_ht(2), build_tt(4))
    assert rep.cover_bound == 1
    assert rep.naive_max == 1


def test_one_leaf_naive_max_is_one():
    # a 1-leaf T' has no internal node; its one doad set needs one set
    assert cover_exponent(Tree("."), Tree(".")).naive_max == 1


def test_self_instances_are_one():
    for n in range(2, 7):
        for t in enumerate_shapes(n):
            assert cover_exponent(t, t).cover_bound == 1


def test_not_sharp_pair_is_one():
    rep = cover_exponent(parse_tree(NOT_SHARP_A), parse_tree(NOT_SHARP_B))
    assert rep.cover_bound == 1


def test_report_consistency():
    t, t2 = build_ht(3), build_tt(8)
    rep = cover_exponent(t, t2)
    assert rep.cover_bound == 2
    assert rep.cover_bound == max(1, max(nc.value for nc in rep.per_node))
    assert rep.naive_max >= rep.cover_bound
    assert len(rep.per_node) == t2.n - 1
    table = build_cover_table(t)
    for nc in rep.per_node:
        side = nc.desc_set if nc.chosen == "desc" else nc.anti_set
        wit = rep.witnesses[nc.label]
        assert len(wit) == table[side]
    d = rep.to_dict()
    assert d["cover_bound"] == 2 and "witnesses" in d


def test_permuted_instances_match_per_node_minimum():
    # spot-check the permutation pullback against a direct recomputation
    t, t2 = build_ht(2), build_tt(4)
    table = build_cover_table(t)
    full = t.full_mask
    for perm in all_perms(4):
        rep = cover_exponent(t, t2, perm)
        want = 1
        for w in t2.internal:
            if w == t2.root:
                continue
            d = perm.pullback(t2.desc_masks[w])
            want = max(want, min(table[d], table[full ^ d]))
        assert rep.cover_bound == want


def test_mirror_probe_symmetry():
    # mirroring only the target tree and post-composing the permutation
    # with the leaf reversal leaves every pulled-back node set unchanged
    for n in (4, 5):
        rev = Permutation(range(n, 0, -1))
        shapes = enumerate_shapes(n)
        perms = list(itertools.islice(all_perms(n), 0, None, 5))
        for t, t2 in itertools.product(shapes, repeat=2):
            for perm in perms:
                a = cover_exponent(t, t2, perm).cover_bound
                b = cover_exponent(t, mirror(t2), compose(rev, perm)).cover_bound
                assert a == b


def test_mirror_conjugation_invariance():
    for n in (4, 5):
        shapes = enumerate_shapes(n)
        rev = Permutation(range(n, 0, -1))
        perms = list(itertools.islice(all_perms(n), 0, None, 7))
        for t, t2 in itertools.product(shapes, repeat=2):
            for perm in perms:
                conj = compose(compose(rev, perm), rev)
                a = cover_exponent(t, t2, perm).cover_bound
                b = cover_exponent(mirror(t), mirror(t2), conj).cover_bound
                assert a == b


def test_leaf_mismatch_rejected():
    with pytest.raises(ValueError):
        cover_exponent(build_ht(2), build_tt(8))
    with pytest.raises(ValueError):
        cover_exponent(build_ht(2), build_tt(4), Permutation.identity(3))


# ---------------------------------------------------------------------------
# weighted covers

def test_product_all_ones_weight():
    for t in enumerate_shapes(4):
        for mask in range(1, t.full_mask + 1):
            product, wit = CoverCounter(t, 1).cover(mask)
            assert product == 1
            assert sum(m for *_, m in wit) == mask  # disjoint exact cover


def test_product_uniform_weight_matches_counts():
    for t in enumerate_shapes(5):
        table = build_cover_table(t)
        for mask in range(1, t.full_mask + 1):
            product, wit = CoverCounter(t, 2).cover(mask)
            want = int(table[mask])
            assert product == 2 ** want
            assert len(wit) == want


def test_product_ht2_example():
    product, wit = CoverCounter(build_ht(2), 2).cover(mask_from_leaves([2, 3]))
    assert product == 4
    assert len(wit) == 2


def test_product_single_doad_uses_cheapest_witness():
    t = build_ht(2)
    # {3,4} is both the descendant set of one node and the anti set of
    # another; with singletons priced out, the cheap anti witness wins
    f = [2] * t.size
    f[t.labels.index("1")] = 5
    f[t.labels.index("0")] = 3
    product, wit = CoverCounter(t, f).cover(mask_from_leaves([3, 4]))
    assert product == 3
    assert len(wit) == 1
    assert wit[0][1] == "anti"


def test_product_full_set_overlapping_pair():
    # the anti sets of two cheap leaves would cover everything for 1*1, but
    # the full set answers its least partition into descendant sets: the root
    t = build_ht(2)
    f = [10] * t.size
    f[t.root] = 5
    f[t.leaves[0]] = 1
    f[t.leaves[2]] = 1
    assert CoverCounter(t, f).cover(t.full_mask) == (5, ((t.root, "desc", t.full_mask),))


def test_full_set_answers_its_least_partition_into_descendant_sets():
    # brute force over every family of descendant sets, weighted by f(v)
    rng = random.Random(6)
    for n in range(2, 7):
        for t in enumerate_shapes(n):
            for _ in range(4):
                f = [rng.choice((1, 1, 2, 3, 5)) for _ in range(t.size)]
                best = min(
                    (math.prod(f[v] for v in vs), len(vs))
                    for k in range(1, t.n + 1)
                    for vs in itertools.combinations(range(t.size), k)
                    if sum(t.desc_masks[v] for v in vs) == t.full_mask
                    and not any(t.desc_masks[u] & t.desc_masks[v]
                                for u, v in itertools.combinations(vs, 2)))
                product, wit = CoverCounter(t, f).cover(t.full_mask)
                assert (product, len(wit)) == best
                assert all(kind == "desc" and m == t.desc_masks[v] for v, kind, m in wit)
                assert product == math.prod(f[v] for v, _, _ in wit)
                assert sum(m for _, _, m in wit) == t.full_mask


def test_product_matches_brute_force_random_weights():
    import numpy as np
    rng = np.random.default_rng(0)
    for n in (3, 4):
        for t in enumerate_shapes(n):
            doads = doad_sets(t)
            full = t.full_mask
            for _ in range(10):
                f = [int(x) for x in rng.integers(1, 9, size=t.size)]
                weight = {m: min(f[v] for v, _ in names) for m, names in doads.items()}
                cover = CoverCounter(t, f).cover
                for mask in range(1, full):
                    best = None
                    for k in range(1, 5):
                        for combo in itertools.combinations_with_replacement(doads, k):
                            u = 0
                            for m in combo:
                                u |= m
                            if u == mask:
                                p = 1
                                for m in combo:
                                    p *= weight[m]
                                best = p if best is None else min(best, p)
                    got, _ = cover(mask)
                    assert got == best


def test_product_rejects_bad_weights():
    t = build_ht(2)
    with pytest.raises(ValueError):
        CoverCounter(t, 0)
    with pytest.raises(ValueError):
        CoverCounter(t, [1] * (t.size - 1))


def test_product_cover_matches_relaxation_oracle():
    # every proper mask of every shape up to 7 leaves, one seeded weight draw each
    rng = random.Random(19)
    for n in range(2, 8):
        for t in enumerate_shapes(n):
            f = [rng.choice((1, 1, 2, 3, 5)) for _ in range(t.size)]
            cover = CoverCounter(t, f).cover
            for mask, want in enumerate(brute_product_table(t, f)[:-1]):
                product, wit = cover(mask)
                assert (product, len(wit)) == want
                assert product == math.prod(f[v] for v, _, _ in wit)
                union = 0
                for _, _, m in wit:
                    union |= m
                assert union == mask


def test_product_cover_takes_fewest_sets_on_ties():
    # every cover has product 1 under f = 1; the single doad set d("1") wins
    t = build_ht(3)
    product, wit = CoverCounter(t, 1).cover(mask_from_leaves([5, 6, 7, 8]))
    assert product == 1
    assert [m for _, _, m in wit] == [t.desc_masks[t.labels.index("1")]]


# ---------------------------------------------------------------------------
# trivial containment

def test_all_ones_network_trivially_contained():
    for t, t2 in itertools.product(enumerate_shapes(5), repeat=2):
        rep = check_trivial_containment(t, 1, t2, 1)
        assert rep.ok


def test_tree_in_itself_needs_one_set_per_node():
    # the root's full set is one set of weight 1, not a partition
    t = build_ht(3)
    assert check_trivial_containment(t, 1, t, 1).sets_used == 1


def test_trivial_containment_ht2_tt4():
    rep = check_trivial_containment(build_ht(2), 2, build_tt(4), 2)
    assert rep.ok
    assert rep.sets_used >= 1
    assert rep.to_dict()["holds_for_all_r"] is True


def test_weight_mapping_names_vertices():
    # weights are a scalar or a sequence by vertex id; a mapping is refused,
    # also one whose keys would read as a sequence of weights
    t = build_ht(2)
    for bad in ({"r": 2, "01": 3}, {"": 2}, dict.fromkeys(range(1, t.size + 1), 2)):
        with pytest.raises(ValueError, match="need 7 positive vertex-weight entries"):
            weight_vector(bad, t.size)
        with pytest.raises(ValueError, match="positive vertex-weight entries"):
            check_trivial_containment(t, bad, t, 1)


def test_weights_read_integral_scalars_and_reject_fractions():
    t, mask = build_ht(2), mask_from_leaves([2, 3])
    want = CoverCounter(t, 2).cover(mask)
    for f in (np.int64(2), 2.0, np.float64(2.0), [2.0] * t.size, np.full(t.size, 2)):
        assert CoverCounter(t, f).cover(mask) == want
        assert NetworkSpec.create(t, f=f).f == (2,) * t.size
    # a fraction is an error, not a weight truncated to 1
    for bad in (1.5, [1.5] * t.size, {"r": 2.5}, float("inf"), float("nan"), "2"):
        with pytest.raises(ValueError, match="vertex-weight must be an integer"
                                             "|need 7 positive vertex-weight entries"):
            CoverCounter(t, bad)
        with pytest.raises(ValueError, match="dimension-vector must be an integer"
                                             "|need 7 positive dimension-vector entries"):
            NetworkSpec.create(t, f=bad)
    with pytest.raises(ValueError, match="vertex-weight must be an integer"):
        check_trivial_containment(t, [1.5] * t.size, t, 1)


# sha256 over the reports of test_answers_are_pinned.  No report reads the full
# set's weighted cover (at the root of T' the empty anti side always wins), so
# the pin holds whatever that cover is.
ANSWERS_SHA256 = "49aabc6ca1ba0121f4afc2f84de073360ab88c5267f17f34cee2dc6770e5c215"


def test_answers_are_pinned():
    rng = random.Random(22)
    digest = hashlib.sha256()
    for _ in range(200):
        n = rng.randint(2, 32)
        t, t2 = random_tree(rng, n), random_tree(rng, n)
        perm = Permutation(rng.sample(range(1, n + 1), n))
        f = [rng.choice((1, 1, 2, 3, 5)) for _ in range(t.size)]
        f2 = [rng.choice((1, 1, 2, 3, 5)) for _ in range(t2.size)]
        for rep in (check_trivial_containment(t, f, t2, f2, perm),
                    cover_exponent(t, t2, perm)):
            digest.update(json.dumps(rep.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == ANSWERS_SHA256


def test_trivial_containment_violation_reports_node():
    t, t2 = build_ht(2), build_tt(4)
    f2 = [2] * t2.size
    # the node with descendant set {1,2,3} needs product 2 on its best side
    f2[t2.labels.index("00")] = 1
    rep = check_trivial_containment(t, 2, t2, f2)
    assert not rep.ok
    assert "00" in rep.violations
