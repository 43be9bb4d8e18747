#!/usr/bin/env python3
"""Cover tables and the cover-based containment exponent.

Computes minimum doad covers of leaf subsets, by the closed form one
subset at a time and by the same closed form vectorized over every
subset, then uses them to certify exponents for tree pairs under leaf
permutations, and weighs them for the all-r trivial containment test.
"""

from tnexp import (
    CoverCounter,
    Permutation,
    build_cover_table,
    build_ht,
    build_tt,
    check_trivial_containment,
    cover_exponent,
    leaves_of_mask,
    mask_from_leaves,
)

ht2 = build_ht(2)
counter = CoverCounter(ht2)

print(f"minimum doad covers over {ht2}:")
for leaves in [(1,), (1, 2), (2, 3), (1, 3), (2, 3, 4), (1, 2, 3, 4)]:
    mask = mask_from_leaves(leaves)
    wit = counter.cover(mask)[1]
    parts = " + ".join(str(set(leaves_of_mask(m))) for _, _, m in wit)
    print(f"  {set(leaves)!s:<14} n_S = {len(wit)}   {parts}")

# the comb tree on 8 leaves: an interior interval only decomposes into
# singletons, while its two-sided complement splits into two doads
tt8 = build_tt(8)
t8 = build_cover_table(tt8)
inner = mask_from_leaves(range(2, 8))
print(f"\nover {tt8}:")
print(f"  {{2..7}} needs {t8[inner]} sets, its complement {t8[tt8.full_mask ^ inner]}")
assert t8[inner] == 6

print("\nexponent reports (identity permutation):")
tt4 = build_tt(4)
for a, b in [(ht2, tt4), (tt4, ht2), (build_ht(3), build_tt(8))]:
    rep = cover_exponent(a, b)
    print(f"  {a} -> {b}: cover_bound {rep.cover_bound}, naive_max {rep.naive_max}")

print("\nthe same pair under a twisting permutation:")
rep = cover_exponent(ht2, tt4, Permutation([1, 3, 2, 4]))
for nc in rep.per_node:
    print(f"  node {nc.label:<3} desc {set(leaves_of_mask(nc.desc_set))!s:<14} "
          f"n_desc {nc.n_desc}  n_anti {nc.n_anti}  -> {nc.chosen}")
print(f"  cover_bound {rep.cover_bound}  (identity gave 1)")
assert rep.cover_bound == 2

print("\nweighted covers and trivial containment (holds for every scale r):")
product, wit = CoverCounter(ht2, 2).cover(mask_from_leaves([2, 3]))
print(f"  min f-product covering {{2,3}} with f = 2 everywhere: {product}")
triv = check_trivial_containment(ht2, 2, tt4, 2)
print(f"  (ht:2, f=2) trivially contained in (tt:4, f'=2): {triv.ok}, "
      f"covers use <= {triv.sets_used} sets")
