"""Acceptance gate: each criterion below runs at its stated tolerance and
prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 1 pins the exact values of the full n=4 permutation sweep: 32
instances have exponent 1 (every identity-permutation instance among
them) and 64 have exponent 2, because the pulled-back two-leaf set can
split across both halves of the covering tree.  Each value is certified
on both sides: its exact cover bounds it above, and the flattening ranks
of one sampled tensor demand exactly that exponent at two scales, since
a rank above r**e refutes exponent e at that r.  An external reference
once expected all ones on this sweep; the criterion asserts that this
table is refuted.  For example ht:2 = ((12)(34)) covering tt:4 under the
permutation 1324 pulls a probe split back to {1,3}|{2,4}; a generic
ht:2 state has rank r*r there, above the r that exponent 1 allows.  Only
superset covers (say a co-singleton containing {1,3}) would give all
ones, and those certify nothing.
"""

import itertools
import json
import math
import time

import numpy as np

from conftest import (
    EIGHT_LEAVES,
    EX_LABEL,
    NOT_SHARP_A,
    NOT_SHARP_B,
    brute_cover_table,
)
from tnexp.bounds import height_bound_tt, plane_general_bound, poset_bound
from tnexp.covers import build_cover_table, cover_exponent
from tnexp.ilp import build_ip, solve_ip
from tnexp.ranks import NetworkSpec, empirical_exponent, mat_rank, sample_tensor
from tnexp.search import _sample_perms, run_search, write_results
from tnexp.trees import (
    Permutation,
    build_ht,
    build_tt,
    enumerate_plane_trees,
    enumerate_shapes,
    heights,
    parse_tree,
)


def _criterion(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_c1_n4_reproduction():
    t0 = time.perf_counter()
    res = run_search(4)
    elapsed = time.perf_counter() - t0
    trees = [parse_tree(s) for s in res.shapes]
    cover = {(i, j): res.data["cover"][i, j] for i in range(2) for j in range(2)}
    values = np.concatenate(list(cover.values()))
    hist = {int(v): int(c) for v, c in zip(*np.unique(values, return_counts=True))}
    identity = res.perms.index("1234")
    identity_ones = all(int(arr[identity]) == 1 for arr in cover.values())

    # one sampled tensor per instance and scale: its ranks must demand
    # exactly cover_bound, and a rank above r refutes exponent 1
    named = (build_ht(2).text, build_tt(4).text, "1324")
    agree = refuted = 0
    named_ranks = {}
    for r, d in ((2, 4), (3, 9)):
        specs = [NetworkSpec.create(t, leaf_dims=d, f=1, r=r) for t in trees]
        for (i, j), arr in cover.items():
            for perm, c in zip(res.perms, arr):
                emp = empirical_exponent(specs[i], trees[j], Permutation(perm), trials=1)
                top = max(emp["per_node_rank"].values())
                agree += emp["max_exponent"] == c
                refuted += top > r
                if (res.shapes[i], res.shapes[j], perm) == named:
                    named_ranks[r] = top
    ok = (res.instance_count == 96 and elapsed < 1.0
          and hist == {1: 32, 2: 64} and identity_ones
          and agree == 2 * 96 and refuted == 2 * 64
          and len(named_ranks) == 2 and all(k > r for r, k in named_ranks.items()))
    witness = ", ".join(f"rank {k} > r={r}" for r, k in named_ranks.items())
    _criterion(1, ok,
               "n=4 search: 96 instances, < 1 s, cover_bound histogram {1: 32, 2: 64} "
               "(identity all 1), sampled exponent == cover_bound at (r, d) = (2, 4) "
               "and (3, 9); the all-ones table is refuted",
               f"instances={res.instance_count}, histogram={hist}, {elapsed:.3f}s; "
               f"sampled == cover on {agree}/192; rank > r on {refuted}/128; "
               f"all-ones refuted by ht:2 covering tt:4, perm 1324: {witness}")


def test_c2_height_fixture():
    h, _ = heights(parse_tree(EX_LABEL))
    _criterion(2, h == (0, 1, 0, 1, 2, 0),
               "leaf heights of the labelled 6-leaf tree are (0,1,0,1,2,0)",
               f"got {h}")


def test_c3_perfect_tree_family():
    got = {k: height_bound_tt(build_ht(k)).value for k in (2, 3, 4, 5)}
    want = {k: math.ceil(k / 2) for k in (2, 3, 4, 5)}
    ip_opt = solve_ip(build_ip(build_ht(3), build_tt(8))).objective
    _criterion(3, got == want and ip_opt == 2,
               "height bound of ht:k is ceil(k/2) for k=2..5; ip(ht:3 -> tt:8) = 2",
               f"heights={got}, ip={ip_opt}")


def test_c4_tt_universality():
    t0 = time.perf_counter()
    worst = 0
    checked = 0
    for n in range(2, 9):
        tt = build_tt(n)
        for t in enumerate_plane_trees(n):
            b = cover_exponent(tt, t).cover_bound
            worst = max(worst, b)
            checked += 1
    elapsed = time.perf_counter() - t0
    _criterion(4, worst <= 2 and elapsed < 60.0,
               "comb tree covers every plane tree (n <= 8, identity) with exponent <= 2",
               f"{checked} trees, worst={worst}, {elapsed:.1f}s")


def test_c5_non_sharpness_fixtures():
    a, b = parse_tree(NOT_SHARP_A), parse_tree(NOT_SHARP_B)
    cov = cover_exponent(a, b).cover_bound
    general = plane_general_bound(a).value
    poset = poset_bound(parse_tree(EIGHT_LEAVES), build_tt(8)).value
    _criterion(5, cov == 1 and general == 4 and poset == 3,
               "6-leaf pair: cover 1 vs plane-general 4; 8-leaf tree vs comb: poset 3",
               f"cover={cov}, plane_general={general}, poset={poset}")


def test_c6_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    instances = 0
    for n, pair_count in ((6, 36), (7, 121)):
        shapes = enumerate_shapes(n)
        assert len(shapes) ** 2 == pair_count
        perms = [Permutation(row) for row in _sample_perms(n, 50, seed=0)]
        for t in shapes:
            for t2 in shapes:
                for perm in perms:
                    want = cover_exponent(t, t2, perm).cover_bound
                    got = solve_ip(build_ip(t, t2, perm)).objective
                    instances += 1
                    mismatches += (got != want)
    # independent brute-force union search equals the subset DP everywhere
    brute_bad = 0
    for n in range(2, 6):
        for t in enumerate_shapes(n):
            table = build_cover_table(t)
            brute = brute_cover_table(t)
            brute_bad += sum(table[m] != brute[m] for m in range(1 << n))
    elapsed = time.perf_counter() - t0
    _criterion(6, mismatches == 0 and brute_bad == 0 and elapsed < 300.0,
               "integer program == cover DP on 36+121 shape pairs x 50 perms; "
               "brute force == DP for all subsets at n <= 5",
               f"{instances} instances, {mismatches} mismatches, "
               f"{brute_bad} brute diffs, {elapsed:.1f}s")


def test_c7_ordering_properties():
    t0 = time.perf_counter()
    ok = True
    for n in range(4, 8):
        res = run_search(n, kinds=("cover", "poset"))
        for i, j in itertools.product(range(len(res.shapes)), repeat=2):
            cov = res.data["cover"][i, j]
            pos = res.data["poset"][i, j]
            ok = ok and bool((cov <= pos).all()) and int(cov.max()) <= n // 2
    for n in range(2, 8):
        tt = build_tt(n)
        for t in enumerate_plane_trees(n):
            cov = cover_exponent(t, tt).cover_bound
            ok = ok and cov <= height_bound_tt(t).value
    elapsed = time.perf_counter() - t0
    _criterion(7, ok,
               "cover <= poset and cover <= floor(n/2) on the full n <= 7 sweep; "
               "cover into the comb tree <= height bound",
               f"{elapsed:.1f}s")


def test_c8_rank_verification():
    t0 = time.perf_counter()
    seeds = range(10)
    violations = 0
    transpose_bad = 0
    splits_checked = 0
    for n in range(2, 7):
        planes = enumerate_plane_trees(n)
        pair_bound = [[cover_exponent(t, t2).cover_bound for t2 in planes]
                      for t in planes]
        probe_masks = [[t2.desc_masks[w] for w in range(1, t2.size)]
                       for t2 in planes]
        full = (1 << n) - 1
        for i, t in enumerate(planes):
            spec = NetworkSpec.create(t, leaf_dims=2, f=1, r=2)
            for seed in seeds:
                tensor = sample_tensor(spec, seed)
                cube = tensor.coeffs.reshape(spec.leaf_dims)
                cache = {}

                def rank_of(mask):
                    if mask not in cache:
                        axes = [l for l in range(n) if mask >> l & 1]
                        rest = [l for l in range(n) if not mask >> l & 1]
                        flat = cube.transpose(axes + rest).reshape(2 ** len(axes), -1)
                        cache[mask] = mat_rank(flat)
                    return cache[mask]

                for j in range(len(planes)):
                    limit = 2 ** pair_bound[i][j]
                    for mask in probe_masks[j]:
                        r1, r2 = rank_of(mask), rank_of(full ^ mask)
                        splits_checked += 1
                        transpose_bad += (r1 != r2)
                        violations += (r1 > limit)
    elapsed = time.perf_counter() - t0
    _criterion(8, violations == 0 and transpose_bad == 0 and elapsed < 600.0,
               "sampled ranks respect 2**cover_bound on all plane pairs n <= 6 "
               "(10 seeds); transpose-rank identity exact",
               f"{splits_checked} split checks, {violations} violations, "
               f"{transpose_bad} transpose diffs, {elapsed:.1f}s")


def test_c9_n8_scale_and_determinism(tmp_path):
    t0 = time.perf_counter()
    res_a = run_search(8)
    path_a = tmp_path / "a.json"
    write_results(res_a, "json", path_a)
    res_b = run_search(8)
    path_b = tmp_path / "b.json"
    write_results(res_b, "json", path_b)
    elapsed = time.perf_counter() - t0
    identical = path_a.read_bytes() == path_b.read_bytes()
    payload = json.loads(path_a.read_text())
    worst = max(res_a.data["cover"][i, j].max()
                for i in range(23) for j in range(23))
    ok = (res_a.instance_count == 23 * 23 * 40320 and identical
          and int(worst) <= 4 and elapsed < 600.0)
    _criterion(9, ok,
               "full n=8 search (21.3M instances) twice, byte-identical output, < 10 min",
               f"instances={res_a.instance_count}, identical={identical}, "
               f"digest={payload['digests']['cover'][:12]}, {elapsed:.1f}s")
