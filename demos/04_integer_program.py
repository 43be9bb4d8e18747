#!/usr/bin/env python3
"""The cover-exponent integer program.

Builds the 0/1 program for a pair of trees, solves it exactly by the
greedy cover per node and side (exact by the cover structure theorem in
the tnexp.ilp docstring), checks it against the closed-form cover
numbers, and prints the LP text that external solvers consume.
"""

from tnexp import (
    Permutation,
    build_ht,
    build_tt,
    build_ip,
    cover_exponent,
    export_lp,
    leaves_of_mask,
    parse_tree,
    solve_ip,
)

model = build_ip(build_ht(3), build_tt(8))
sol = solve_ip(model)
print(f"ht:3 -> tt:8: {len(model.variables)} variables, {len(model.rows)} rows, "
      f"{len(model.fixed_zero)} fixed to zero")
print(f"optimum c* = {sol.objective}")
for w, detail in sorted(sol.per_node.items()):
    cover = " + ".join(str(set(leaves_of_mask(m))) for m in detail["cover"])
    print(f"  node {w:<8} {detail['side']:<5} side, {detail['count']} sets: {cover}")
assert sol.objective == cover_exponent(build_ht(3), build_tt(8)).cover_bound == 2

print("\nthe greedy IP solve agrees with the closed-form covers under permutations:")
perm = Permutation([2, 4, 1, 3])
pair = (build_ht(2), build_tt(4))
ip_val = solve_ip(build_ip(*pair, perm)).objective
dp_val = cover_exponent(*pair, perm).cover_bound
print(f"  ht:2 -> tt:4 under 2413: ip {ip_val}, closed form {dp_val}")
assert ip_val == dp_val

print("\nfull LP text of the smallest model:")
two = parse_tree("(..)")
print(export_lp(build_ip(two, two)))
