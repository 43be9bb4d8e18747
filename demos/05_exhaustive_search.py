#!/usr/bin/env python3
"""The exhaustive (shape, shape, permutation) search.

Runs the complete sweeps for small n, prints the per-pair aggregates,
and demonstrates the deterministic CSV/JSON outputs and the reference
comparison harness.
"""

import os
import tempfile
import time

import numpy as np

from tnexp import run_search, verify_against_reference, write_results

for n in (4, 5, 6):
    t0 = time.perf_counter()
    res = run_search(n, kinds=("cover", "poset"))
    dt = time.perf_counter() - t0
    values = np.concatenate([res.data["cover"][i, j]
                             for i in range(len(res.shapes))
                             for j in range(len(res.shapes))])
    hist = dict(zip(*[x.tolist() for x in np.unique(values, return_counts=True)]))
    print(f"n={n}: {res.instance_count:>9} instances in {dt:.2f}s, "
          f"cover histogram {hist}")

res = run_search(5, kinds=("cover", "poset", "naive"))
_, maxs, _ = res.aggregate("cover")
print("\nn=5 max cover bound over permutations, per shape pair:")
for a, row in zip(res.shapes, maxs.tolist()):
    print(f"  {a:<14} {' '.join(map(str, row))}")
print("identity instances are always 1:",
      all(res.data["cover"][i, i][res.perms.index("12345")] == 1
          for i in range(len(res.shapes))))

out = tempfile.mkdtemp(prefix="tnexp-search-")
csv_path = os.path.join(out, "n5.csv")
json_path = os.path.join(out, "n5.json")
write_results(res, "csv", csv_path)
write_results(res, "json", json_path)
print(f"\nwrote {sum(1 for _ in open(csv_path)) - 1} CSV rows and the JSON summary to {out}")

diff = verify_against_reference(csv_path, csv_path)
print(f"self-comparison: ok={diff.ok}, {diff.compared} values compared")

t0 = time.perf_counter()
res8 = run_search(8)
print(f"\nfull n=8 sweep: {res8.instance_count} instances in "
      f"{time.perf_counter() - t0:.1f}s, digest {res8.digest('cover')[:16]}")
