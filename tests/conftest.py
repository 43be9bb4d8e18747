"""Shared fixtures: figure trees used across the suite, plus independent
oracles (the doad sets listed vertex by vertex, breadth-first union
searches over them, a weighted union relaxation, a greedy witness search,
a branch and bound over the integer program's candidate sets and an
integer modular product) that the production code is checked against,
the tree mirror, shape key and permutation algebra that the symmetry
tests read, and the environment of child processes that import tnexp."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np

from tnexp.ilp import _greedy_cover
from tnexp.ranks import PRIME
from tnexp.trees import Permutation, Tree

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env() -> dict:
    """os.environ with src/ first on PYTHONPATH, so a child `python` imports
    this checkout's tnexp whether or not the package is installed."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


# six-leaf tree whose leaf heights are (0, 1, 0, 1, 2, 0)
EX_LABEL = "((.(..))(.(..)))"

# six-leaf pair whose cover exponent is 1 while the general plane bound is 4
NOT_SHARP_A = "((.((..).))(..))"
NOT_SHARP_B = "(((.((..).)).).)"

# eight-leaf tree whose poset bound against the comb tree is 3
EIGHT_LEAVES = "((.(.((..).)))((..).))"


def doad_sets(t: Tree) -> dict:
    """Every doad set of t, ascending, mapped to the (vertex, kind) pairs
    that name it in preorder, "desc" first: d(v) for every vertex v and
    a(v) for every v with a(v) nonempty."""
    names: dict[int, list] = {}
    for v in range(t.size):
        names.setdefault(t.desc_masks[v], []).append((v, "desc"))
        if t.anti_mask(v):
            names.setdefault(t.anti_mask(v), []).append((v, "anti"))
    return {m: tuple(names[m]) for m in sorted(names)}


def all_perms(n: int) -> list[Permutation]:
    """Every permutation of 1..n in lexicographic one-line order."""
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def brute_cover_table(t: Tree) -> list[int]:
    """Minimum number of doad sets whose union is each subset, by plain
    breadth-first search over unions (overlaps allowed)."""
    fam = doad_sets(t)
    full = t.full_mask
    inf = 10 ** 6
    dist = [inf] * (full + 1)
    dist[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for m in frontier:
            for d in fam:
                u = m | d
                if dist[u] > dist[m] + 1:
                    dist[u] = dist[m] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def brute_product_table(t: Tree, f) -> list[tuple[int, int]]:
    """(product, size) of the least exact cover of every leaf subset under
    per-vertex weights f, by relaxing over unions of doad sets (overlaps
    allowed) until nothing changes: the oracle for weighted covers.

    A doad set weighs the least f over the vertices that name it, and
    covers compare by product, then by number of sets.
    """
    weight = {m: min(f[v] for v, _ in ws) for m, ws in doad_sets(t).items()}
    best = [None] * (1 << t.n)
    best[0] = (1, 0)
    changed = True
    while changed:
        changed = False
        for m, cover in enumerate(best):
            if cover is None:
                continue
            p, k = cover
            for d, w in weight.items():
                c = (p * w, k + 1)
                if best[m | d] is None or c < best[m | d]:
                    best[m | d] = c
                    changed = True
    return best


def bfs_cover_table(t: Tree) -> np.ndarray:
    """n_S for every leaf subset by layered disjoint-union BFS over the doad
    family, independent of the closed form: the oracle for build_cover_table.

    Layer k holds the unions of k pairwise disjoint doad sets not reached
    before; minimal covers of proper subsets are disjoint, and the full set
    is a doad set.  Returns uint8 counts with counts[0] == 0.
    """
    doads = np.array(list(doad_sets(t)), dtype=np.int64)
    counts = np.full(1 << t.n, 255, dtype=np.uint8)
    counts[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    layer = 0
    while frontier.size:
        layer += 1
        grown = []
        for d in doads:
            ext = frontier[(frontier & d) == 0] | d
            ext = ext[counts[ext] == 255]
            if ext.size:
                counts[ext] = layer
                grown.append(ext)
        frontier = np.unique(np.concatenate(grown)) if grown else np.zeros(0, dtype=np.int64)
    return counts


def greedy_witness(t: Tree, count, mask: int) -> tuple:
    """One optimal decomposition of `mask` as (vertex, kind, set) triples, by
    greedy search: the oracle for CoverCounter.cover's witness.

    `count` maps a leaf mask to n_S.  Each step removes the doad set d
    inside what remains with n(remaining ^ d) = k - 1 whose (vertex, kind)
    is smallest, "desc" before "anti", so the result is pairwise disjoint
    and deterministic.  A set is first reached at its smallest witness,
    which is the one reported.
    """
    full = t.full_mask
    doads = [(vid, kind, d) for vid, d_v in enumerate(t.desc_masks)
             for kind, d in (("desc", d_v), ("anti", full ^ d_v)) if d]
    out = []
    remaining = mask
    k = count(mask)
    while remaining:
        k -= 1
        for vid, kind, d in doads:
            if not d & ~remaining and count(remaining ^ d) == k:
                break
        out.append((vid, kind, d))
        remaining ^= d
    return tuple(out)


def min_cover_bnb(cands: tuple, target: int):
    """Exact minimum cover of `target` by the candidate sets (all subsets of it).

    Branches on the lowest uncovered leaf; prunes with the counting
    bound ceil(|uncovered| / largest candidate).  Returns (count, masks).
    The oracle for ilp's greedy cover, which is also its starting bound:
    a strictly shorter cover replaces it, so the masks are greedy's
    whenever greedy is optimal.
    """
    if not target:
        return 0, ()
    masks = sorted({m for _, m in cands})
    best_sol = tuple(m for _, m in _greedy_cover(cands, target))
    best = len(best_sol)
    max_size = max(m.bit_count() for m in masks)
    by_bit: dict[int, list] = {}
    for m in masks:
        low = 1
        while low <= m:
            if m & low:
                by_bit.setdefault(low, []).append(m)
            low <<= 1

    chosen: list[int] = []

    def rec(uncovered: int, depth: int):
        nonlocal best, best_sol
        if not uncovered:
            if depth < best:
                best = depth
                best_sol = list(chosen)
            return
        need = -(-uncovered.bit_count() // max_size)
        if depth + need >= best:
            return
        low = uncovered & -uncovered
        for m in by_bit.get(low, ()):
            chosen.append(m)
            rec(uncovered & ~m, depth + 1)
            chosen.pop()

    rec(target, 0)
    return best, tuple(best_sol)


def int_matmul_mod(a, b) -> np.ndarray:
    """(a @ b) mod PRIME in int64 arithmetic, for entries in 0..PRIME-1: the
    oracle for ranks._matmul_mod.

    a splits into high and low 16-bit halves, so every partial sum of a
    contraction up to 2**16 long stays below 2**63.
    """
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if a.shape[-1] > 1 << 16:
        raise ValueError("contraction too long for the int64 split product")
    hi, lo = a >> 16, a & 0xFFFF
    return ((hi @ b % PRIME) * (1 << 16) + lo @ b) % PRIME


def mirror(t: Tree) -> Tree:
    """The plane reflection of t: left and right swapped at every node."""
    return Tree(t.text[::-1].translate(str.maketrans("()", ")(")))


def shape_key(t: Tree) -> str:
    """Canonical string of t's unordered shape: at every node the two child
    strings in lexicographic order, so equal keys mean isomorphic shapes."""
    key = ["."] * t.size
    for v in reversed(t.internal):
        a, b = sorted((key[t.left[v]], key[t.right[v]]))
        key[v] = "(" + a + b + ")"
    return key[0]


def inverse(p: Permutation) -> Permutation:
    position = {x: i for i, x in enumerate(p.perm, 1)}
    return Permutation(position[x] for x in range(1, p.n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: entry x of the result is p.perm[q.perm[x - 1] - 1]."""
    return Permutation(p.perm[x - 1] for x in q.perm)


def random_tree(rng, n: int) -> Tree:
    """A seeded random tree on n leaves: each internal node splits off
    1..k-1 of its k leaves uniformly."""
    def text(k: int) -> str:
        if k == 1:
            return "."
        a = rng.randint(1, k - 1)
        return "(" + text(a) + text(k - a) + ")"

    return Tree(text(n))


def wedderburn_etherington(n: int) -> int:
    """Number of unordered full binary trees with n leaves, by the
    classic split recurrence."""
    memo = {1: 1}

    def rec(k: int) -> int:
        if k in memo:
            return memo[k]
        total = 0
        for a in range(1, k // 2 + 1):
            b = k - a
            if a < b:
                total += rec(a) * rec(b)
            else:
                half = rec(a)
                total += half * (half + 1) // 2
        memo[k] = total
        return total

    return rec(n)
