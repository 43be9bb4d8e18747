#!/usr/bin/env python3
"""Trees, doad sets, heights.

Builds the two canonical families, shows how leaves, path labels and
doad sets fit together, and enumerates all shapes on few leaves.
"""

from tnexp import (
    build_ht,
    build_tt,
    enumerate_shapes,
    heights,
    leaves_of_mask,
    parse_tree,
)


def doad_sets(t):
    """Each doad set of t -> the (vertex, kind) names it has, in preorder:
    d(v) for every vertex v and a(v) for every v with a(v) nonempty."""
    names = {}
    for v in range(t.size):
        names.setdefault(t.desc_masks[v], []).append((v, "desc"))
        if t.anti_mask(v):
            names.setdefault(t.anti_mask(v), []).append((v, "anti"))
    return dict(sorted(names.items()))


ht2 = build_ht(2)
tt4 = build_tt(4)
print("perfect tree of depth 2 :", ht2)
print("comb tree on 4 leaves   :", tt4)
print()

print("path labels of", ht2, "leaves:",
      [ht2.labels[v] for v in ht2.leaves])

doads = doad_sets(ht2)
print(f"\ndoad sets of {ht2} ({len(doads)} of them):")
for mask, names in doads.items():
    wits = ", ".join(f"{kind} of {ht2.labels[v] or 'root'}" for v, kind in names)
    print(f"  {set(leaves_of_mask(mask))}  <- {wits}")

# both 4-leaf shapes have the same doad sets; only the subsets
# {1,3}, {1,4}, {2,3}, {2,4} are missing from them
assert doads.keys() == doad_sets(tt4).keys()
missing = set(range(1, 16)) - doads.keys()
print("\nnon-doad subsets:", [set(leaves_of_mask(m)) for m in sorted(missing)])

print("\nheights count the 1s before the final 0 of a leaf label")
t = parse_tree("((.(..))(.(..)))")
h, hs = heights(t)
for leaf, (a, b) in enumerate(zip(h, hs), start=1):
    print(f"  leaf {leaf} label {t.labels[t.leaves[leaf - 1]]:>4}  h={a}  h*={b}")
assert h == (0, 1, 0, 1, 2, 0)

print("\nunordered shapes per leaf count:")
for n in range(2, 11):
    shapes = enumerate_shapes(n)
    preview = "  ".join(s.text for s in shapes[:3])
    print(f"  n={n:>2}: {len(shapes):>3} shapes   {preview} ...")
