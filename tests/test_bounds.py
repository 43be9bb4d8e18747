import itertools
import random

import numpy as np
import pytest

from conftest import (
    EIGHT_LEAVES,
    NOT_SHARP_A,
    all_perms,
    bfs_cover_table,
    brute_cover_table,
    doad_sets,
    mirror,
    random_tree,
)
from tnexp.bounds import (
    compose_exponents,
    height_bound_tt,
    plane_general_bound,
    poset_bound,
    poset_table,
    trivial_bound,
)
from tnexp.covers import CoverCounter, cover_exponent
from tnexp.trees import (
    Permutation,
    build_ht,
    build_tt,
    enumerate_plane_trees,
    enumerate_shapes,
    heights,
    instance_perm,
    leaves_of_mask,
    parse_tree,
)


# ---------------------------------------------------------------------------
# trivial bound

def test_trivial_values():
    assert trivial_bound(8).value == 4
    assert trivial_bound(2).value == 1
    assert trivial_bound(5).value == 2
    with pytest.raises(ValueError):
        trivial_bound(1)


# ---------------------------------------------------------------------------
# poset bound

def test_poset_eight_leaf_fixture():
    b = poset_bound(parse_tree(EIGHT_LEAVES), build_tt(8))
    assert b.value == 3
    # the max is attained at the prefix/suffix boundary between leaves 3 and 4
    assert "doad set" in b.note


def test_poset_self_pairs():
    for n in range(2, 7):
        for t in enumerate_shapes(n):
            assert poset_bound(t, t).value == 1


def test_poset_ht2_tt4():
    assert poset_bound(build_ht(2), build_tt(4)).value == 1


def _poset_bound_by_doad_scan(t, t_prime, perm=None):
    """(value, note) of the poset bound by scanning every doad set of T'
    in ascending mask order, the full set skipped, keeping the first that
    attains the max of min(n_S, n_{S^c}) over its pullback."""
    perm = instance_perm(t, t_prime, perm)
    cover = CoverCounter(t).cover
    full = t.full_mask
    best, best_mask = 1, None
    for m in doad_sets(t_prime):
        if m == full:
            continue
        pm = perm.pullback(m)
        v = min(len(cover(pm)[1]), len(cover(full ^ pm)[1]))
        if v > best:
            best, best_mask = v, m
    note = ""
    if best_mask is not None:
        note = f"attained at target doad set {set(leaves_of_mask(best_mask))}"
    return best, note


def _check_against_doad_scan(t, t_prime, perm):
    b = poset_bound(t, t_prime, perm)
    assert (b.value, b.note) == _poset_bound_by_doad_scan(t, t_prime, perm), \
        (t.text, t_prime.text, perm.one_line())


def test_poset_bound_matches_doad_scan_on_every_small_instance():
    for n in range(2, 6):
        shapes = enumerate_shapes(n)
        perms = all_perms(n)
        for t, t2 in itertools.product(shapes, repeat=2):
            for perm in perms:
                _check_against_doad_scan(t, t2, perm)


def test_poset_bound_matches_doad_scan_on_seeded_instances():
    rng = random.Random(5)
    notes = 0
    for n in range(6, 33):
        for _ in range(12):
            t, t2 = random_tree(rng, n), random_tree(rng, n)
            perm = Permutation(rng.sample(range(1, n + 1), n))
            _check_against_doad_scan(t, t2, perm)
            notes += bool(poset_bound(t, t2, perm).note)
        # a self pair under the identity: value 1, empty note
        _check_against_doad_scan(t, t, Permutation.identity(n))
    assert notes == 27 * 12     # every random draw has a node needing 2 sets


def test_poset_table_sound_and_complement_symmetric():
    # each of the four terms counts an actual covering of the subset or
    # its complement, so the minimum can never undercut the exact covers
    for n in range(2, 7):
        for t in enumerate_shapes(n):
            brute = brute_cover_table(t)
            table = poset_table(t)
            full = t.full_mask
            for mask in range(1, full):
                assert table[mask] >= min(brute[mask], brute[full ^ mask])
                assert table[mask] == table[full ^ mask]


def _min_side_cover_by_labels(t, mask):
    """min(n_S, n_{S^c}) as the min of four poset coverings, over path
    labels: ancestry is a label prefix."""
    def maxima(vids):
        labset = {t.labels[v] for v in vids}
        return sum(1 for lab in labset
                   if not any(lab[:k] in labset for k in range(len(lab))))

    def leaf_lca_label(m):
        labels = [t.labels[t.leaves[l - 1]] for l in leaves_of_mask(m)]
        lo, hi = min(labels), max(labels)
        i = 0
        while i < len(lo) and lo[i] == hi[i]:
            i += 1
        return lo[:i]

    comp = t.full_mask ^ mask
    dm = t.desc_masks
    in_s = [v for v in range(t.size) if not dm[v] & comp]
    in_c = [v for v in range(t.size) if not dm[v] & mask]
    lca_c, lca_s = leaf_lca_label(comp), leaf_lca_label(mask)
    return min(maxima(in_c), maxima(in_s),
               maxima([v for v in in_s if t.labels[v].startswith(lca_c)]) + 1,
               maxima([v for v in in_c if t.labels[v].startswith(lca_s)]) + 1)


def test_poset_table_matches_label_formula():
    for n in range(2, 11):
        for t in enumerate_shapes(n):
            table = poset_table(t)
            for mask in range(1, t.full_mask):
                assert table[mask] == _min_side_cover_by_labels(t, mask), (t, mask)


def test_poset_table_is_min_of_exact_covers():
    # the poset minimum is exact: min(n_S, n_{S^c}) on every proper subset,
    # against the disjoint-union BFS rather than the closed form it reads
    for n in range(2, 10):
        for t in enumerate_shapes(n):
            counts = bfs_cover_table(t)
            full = t.full_mask
            want = np.minimum(counts, counts[::-1])  # counts[::-1][m] == counts[full ^ m]
            want[0] = want[full] = 0
            assert np.array_equal(poset_table(t), want), t


def test_poset_dominates_cover_on_permuted_instances():
    for n in (4, 5):
        shapes = enumerate_shapes(n)
        perms = all_perms(n)
        for t, t2 in itertools.product(shapes, repeat=2):
            for perm in perms[::5]:
                cov = cover_exponent(t, t2, perm).cover_bound
                pos = poset_bound(t, t2, perm).value
                assert cov <= pos <= n // 2


# ---------------------------------------------------------------------------
# height bounds

def test_height_bound_perfect_tree_family():
    for k, want in [(2, 1), (3, 2), (4, 2), (5, 3)]:
        assert height_bound_tt(build_ht(k)).value == want


def test_height_bound_comb_is_one():
    for n in (2, 5, 9):
        assert height_bound_tt(build_tt(n)).value == 1


def test_plane_general_values():
    assert plane_general_bound(parse_tree(NOT_SHARP_A)).value == 4
    assert plane_general_bound(build_tt(7)).value == 2
    assert plane_general_bound(build_ht(3)).value == 4


def test_plane_general_is_twice_height_bound():
    for t in enumerate_plane_trees(7):
        assert plane_general_bound(t).value == 2 * height_bound_tt(t).value


def _min_prefix_desc_cover(t, l):
    """Exact minimum cover of {1..l} by descendant sets only: descendant
    sets are leaf intervals, so a left-to-right interval DP is exact."""
    intervals = set()
    for v in range(t.size):
        leaves = [t.leaf_number(u) for u in range(t.size)
                  if t.is_leaf(u) and t.desc_masks[u] & t.desc_masks[v]]
        intervals.add((min(leaves), max(leaves)))
    inf = 10 ** 6
    best = [0] + [inf] * t.n
    for r in range(1, t.n + 1):
        for a, b in intervals:
            if b == r:
                best[r] = min(best[r], best[a - 1] + 1)
    return best[l]


def test_prefixes_covered_within_height_budget():
    # every prefix {1..l} needs at most 1 + h_l descendant sets
    for n in range(2, 11):
        for t in enumerate_plane_trees(n):
            h, _ = heights(t)
            for l in range(1, n + 1):
                assert _min_prefix_desc_cover(t, l) <= 1 + h[l - 1]


def test_height_bound_dominates_cover_into_comb():
    for n in range(2, 8):
        tt = build_tt(n)
        for t in enumerate_plane_trees(n):
            cov = cover_exponent(t, tt).cover_bound
            assert cov <= height_bound_tt(t).value


def test_mirror_duality_of_height_bound():
    # mirroring reverses the leaf order and swaps the two height profiles,
    # so the certified value is unchanged
    for t in enumerate_plane_trees(7):
        assert height_bound_tt(mirror(t)).value == height_bound_tt(t).value


# ---------------------------------------------------------------------------
# composition

def test_compose_values():
    t = build_ht(3)
    e1 = height_bound_tt(t)
    e2 = plane_general_bound(build_tt(8))  # = 2, valid against any plane tree
    assert compose_exponents(e1, e2).value == e1.value * 2
    assert compose_exponents(e1, e2).value == plane_general_bound(t).value


def test_compose_identity_and_products():
    a = trivial_bound(4)  # wildcard source/target
    b = poset_bound(build_ht(2), build_tt(4))
    assert compose_exponents(b, a).value == b.value * 2
    two = plane_general_bound(build_tt(4))
    assert compose_exponents(two, two).value == 4


def test_compose_rejects_broken_chain():
    e1 = poset_bound(build_ht(2), build_tt(4))      # targets the comb tree
    e2 = poset_bound(build_ht(2), build_tt(4))      # but starts from ht2
    with pytest.raises(ValueError):
        compose_exponents(e1, e2)
