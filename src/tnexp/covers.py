"""Exact minimum doad-set covers and the cover-based containment exponent.

For a tree T and a leaf subset S, n_S is the minimal number of doad
sets of T whose union is exactly S.  Minimal covers of proper subsets
can always be taken pairwise disjoint (two overlapping doad sets are
nested or union to the whole leaf set, so one of them is redundant).

Their structure gives n_S in closed form.  Let S be proper and
nonempty, write d(v) and a(v) for the descendant and anti-descendant
sets of v, and D(X) for the number of maximal descendant sets inside X.

* Two disjoint anti sets a(u), a(v) need d(u) | d(v) to be every leaf,
  so u and v are the root's children, where a(v) = d(u) is also a
  descendant set.  A minimal cover is therefore descendant sets plus
  at most one anti set.
* Descendant sets only: each maximal descendant set inside S needs a
  set of its own, and those sets alone partition S, so D(S) is optimal.
* One anti set a(v): a(v) lies in S exactly when S^c lies in d(v),
  that is when v is w = lca(S^c) (the deepest vertex whose descendant
  set contains S^c) or an ancestor of it.  The rest of the cover is
  disjoint from a(v), so it is the D(S & d(v)) maximal descendant sets
  of S & d(v).  For a strict ancestor v of w, every sibling on the path
  from w up to v lies in S and is one of those sets, so v costs strictly
  more than w.

Hence n_S = min(D(S), 1 + D(S & d(w))), with n_0 = 0 and n_full = 1; at
the root the second term is 1 + D(S) and never wins.  CoverCounter.cover
lists the cover this names as (vertex, kind, set) triples, n_S of them.
A is the maximal descendant sets of S in preorder.  B, when w is not the
root, is a(w) and then the maximal descendant sets of S & d(w) in
preorder.  B is taken when it is shorter than A, or as long with w
before A's first vertex; otherwise A.  The full set is (root, "desc")
and the empty set has no sets.

By the bullets, every optimal cover is A or B, so this is also the cover
of the greedy search that the tests keep as the witness oracle: scan
(vertex, kind) in preorder, "desc" first, and take the first doad set
in an optimal cover of what remains.  Its first pick is the earliest
vertex of an optimal cover, and a(w) comes before the rest of B, which
lies below w.  After that pick only one of A and B is left (or both hold
the same sets), so the rest is forced.  For the root's children u < v,
d(u) = a(v) and d(v) = a(u) have two names each; a chosen A never holds
v and a chosen B never has w = v, so the names are the greedy's.

The containment exponent certificate for a pair (T, T') under a leaf
permutation is then: for every internal node w of T', cover either the
pulled-back descendant set or its complement, and take the worst node.
Leaf nodes of T' always need exactly one singleton doad, so the bound is
floored at 1; the root contributes nothing (its anti side is empty).

Weighted covers back the trivial-containment test, valid for every
scaling factor r.  CoverCounter(T, f) takes positive vertex weights; a
doad set weighs its cheapest name (weight, vertex, kind), and exact
covers rank by product of weights, then size, then first vertex in
preorder (at f = 1, the count and tie-break above).  For proper sets:

* Least covers stay disjoint, since a dropped nested set weighs >= 1.
  The cheapest split of d(v) into descendant sets is d(v) alone or its
  children's splits joined, tabulated once; joining the splits of S's
  maximal descendant sets gives the best cover of S without an anti
  set.
* Strict ancestors x of w can now win with a cheap a(x).  The rest of
  that cover splits S & d(x), that is S & d(w) and the sibling subtrees
  on the path, so one pass up to a child of the root joins each
  sibling's split in turn.  At f = 1 each step adds sets: A or B wins.

The full set is asked for only at T''s root, where the empty anti side
(product 1, no sets) always wins; it answers the root's split, its least
partition into sets d(v) of weight f(v), at f = 1 (root, "desc").

Both reports read one walk over T' (_node_covers), which covers d(w) and
its complement and chooses the side of least f-product, then fewest sets,
desc on a tie; the chosen cover is the node's witness.  cover_exponent
walks T''s internal nodes at f = 1, check_trivial_containment every vertex.

Production evaluates covers only so: CoverCounter per subset, up to
LEAF_CAP leaves, for cover_exponent (and so bounds.poset_bound) and,
weighted, check_trivial_containment; build_cover_table all 2^n counts
at once, vectorized, for the search and bounds.poset_table.
The tests check them against BFS and plain union searches, for counts
and weighted products.  The integer program's greedy solve (tnexp.ilp)
covers by its own code, as a separate check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from typing import Optional

import numpy as np

from .trees import (
    LEAF_CAP,
    Permutation,
    Tree,
    instance_perm,
    integral,
    leaves_of_mask,
    mask_lca,
    maximal_desc_vertices,
    weight_vector,
)

__all__ = [
    "CoverCounter",
    "build_cover_table",
    "cover_exponent",
    "ExponentReport",
    "NodeCover",
    "check_trivial_containment",
    "TrivialContainment",
]

COVER_TABLE_CAP = 24  # 2^n table entries; CoverCounter has no such cap
_TABLE_BLOCK = 1 << 16  # masks per block of build_cover_table


# ---------------------------------------------------------------------------
# cover numbers

class CoverCounter:
    """Least exact doad covers, one leaf subset at a time, under vertex
    weights f as trees.weight_vector reads them; at f = 1, A or B."""

    __slots__ = ("tree", "_split", "_anti")

    def __init__(self, tree: Tree, f=1):
        self.tree = t = tree
        f = weight_vector(f, t.size)
        full, dm = t.full_mask, t.desc_masks
        self._anti = [(f[v], 1, v, ((v, "anti", full ^ dm[v]),)) for v in range(t.size)]
        self._split = split = [(f[v], 1, v, ((v, "desc", dm[v]),)) for v in range(t.size)]
        for v in range(t.size - 1, -1, -1):   # children first
            if not t.is_leaf(v):
                split[v] = min(split[v], _join(split[t.left[v]], split[t.right[v]]), key=_RANK)

    def cover(self, mask: int) -> tuple:
        """(f-product, witness) of the least exact cover of `mask` (least
        f-product, then fewest sets), the witness as (vertex, kind, set) triples
        in preorder.  The full set answers its least partition into descendant sets."""
        t = self.tree
        full, dm, split, anti = t.full_mask, t.desc_masks, self._split, self._anti
        mask = integral(mask, "mask", 0, full)
        parts = maximal_desc_vertices(t, mask)
        best = reduce(_join, [split[v] for v in parts], _EMPTY)
        x = mask_lca(t, (full ^ mask) or full)   # the full set stops at the root
        inner = reduce(_join, [split[v] for v in parts if not dm[v] & ~dm[x]], _EMPTY)
        while x != t.root:                # a(x) plus the split of S & d(x)
            best = min(best, _join(anti[x], inner), key=_RANK)
            p = t.parent[x]
            inner = _join(inner, split[t.left[p] + t.right[p] - x])
            x = p
        return best[0], tuple(sorted(best[3]))


# A cover in the walk is (product, size, first vertex, (vertex, kind, set) triples),
# ranked by its first three entries; min() keeps the earlier cover on a tie.
_RANK = itemgetter(slice(3))
_EMPTY = (1, 0, 2 * LEAF_CAP, ())


def _join(a, b) -> tuple:
    return a[0] * b[0], a[1] + b[1], min(a[2], b[2]), a[3] + b[3]


def build_cover_table(t: Tree) -> np.ndarray:
    """uint8 counts[mask] = n_S for every leaf subset, by the closed form.

    A pass over T's vertices, children first, gives D_v(S) = D(S & d(v)):
    1 if d(v) lies in S, else the children's sum.  lca(S^c) is the last
    vertex in preorder whose descendant set contains S^c, so n_S =
    min(D_root(S), 1 + D_lca(S)).  Masks go in blocks of _TABLE_BLOCK.
    """
    if t.n > COVER_TABLE_CAP:
        raise ValueError(
            f"cover tables are capped at {COVER_TABLE_CAP} leaves (got {t.n}); "
            f"CoverCounter answers one subset at a time up to {LEAF_CAP} leaves")
    full, one = t.full_mask, np.uint8(1)
    counts = np.empty(full + 1, dtype=np.uint8)
    for start in range(0, full + 1, _TABLE_BLOCK):
        s = np.arange(start, min(start + _TABLE_BLOCK, full + 1), dtype=np.int64)
        d = [None] * t.size
        for v in range(t.size - 1, -1, -1):   # children have larger ids
            inside = (s & t.desc_masks[v]) == t.desc_masks[v]
            d[v] = (inside.astype(np.uint8) if t.is_leaf(v)
                    else np.where(inside, one, d[t.left[v]] + d[t.right[v]]))
        anti = d[0].copy()
        for v in range(1, t.size):            # the deepest writer is lca(S^c)
            np.copyto(anti, d[v], where=(s | t.desc_masks[v]) == full)
        np.minimum(d[0], anti + one, out=counts[start:start + len(s)])
    return counts


# ---------------------------------------------------------------------------
# cover-based exponent for a (T, T', pi) instance

@dataclass(frozen=True)
class NodeCover:
    """Cover requirement at one internal node of the target tree."""

    label: str          # path label in T' ("r" = root)
    desc_set: int       # pulled back into T's leaf numbering
    anti_set: int
    n_desc: int
    n_anti: int
    chosen: str         # side realizing the minimum ("desc" or "anti")

    @property
    def value(self) -> int:
        return min(self.n_desc, self.n_anti)


@dataclass(frozen=True)
class ExponentReport:
    """All cover data for one (T, T', pi) instance.

    cover_bound is the certified containment exponent: max over internal
    nodes of T' of the cheaper side's exact cover number, floored at 1
    (every leaf of T' needs one singleton).  naive_max is the larger
    diagnostic that takes the dearer side per internal node,
    max(n_desc, n_anti); that equals covering every pulled-back doad set
    of T' individually, since each doad set is a side of some node and
    both sides of a leaf need one set.
    """

    tree: str
    tree_prime: str
    perm: str
    cover_bound: int
    per_node: tuple
    naive_max: int
    witnesses: dict     # T' label -> the chosen side's cover, (T label, kind, set) triples

    def to_dict(self) -> dict:
        return {
            "tree": self.tree,
            "tree_prime": self.tree_prime,
            "perm": self.perm,
            "cover_bound": self.cover_bound,
            "naive_max": self.naive_max,
            "per_node": [
                {
                    "node": nc.label,
                    "desc_set": list(leaves_of_mask(nc.desc_set)),
                    "anti_set": list(leaves_of_mask(nc.anti_set)),
                    "n_desc": nc.n_desc,
                    "n_anti": nc.n_anti,
                    "chosen": nc.chosen,
                }
                for nc in self.per_node
            ],
            "witnesses": {
                lab: [{"vertex": v_lab, "kind": kind, "set": list(leaves_of_mask(m))}
                      for (v_lab, kind, m) in ws]
                for lab, ws in self.witnesses.items()
            },
        }


def _node_covers(t: Tree, f, t_prime: Tree, perm: Permutation, vertices):
    """Per T' vertex w in `vertices`: w, d(w) pulled back into T, the least
    covers (f-product, witness) of d(w) and of its complement, and the chosen
    (cover, side): least f-product, then fewest sets, desc on a tie."""
    cover, full = CoverCounter(t, f).cover, t.full_mask
    for w in vertices:
        d_set = perm.pullback(t_prime.desc_masks[w])
        desc, anti = cover(d_set), cover(full ^ d_set)
        yield w, d_set, desc, anti, min((desc, "desc"), (anti, "anti"),
                                        key=lambda c: (c[0][0], len(c[0][1])))


def cover_exponent(t: Tree, t_prime: Tree, perm: Optional[Permutation] = None) -> ExponentReport:
    """Certified containment exponent for T' covered by doad sets of T."""
    perm = instance_perm(t, t_prime, perm)
    per_node, witnesses = [], {}
    bound = naive = 1   # a 1-leaf T' has no internal node; its one doad set needs one set
    for w, d_set, (_, dw), (_, aw), ((_, wit), side) in _node_covers(
            t, 1, t_prime, perm, t_prime.internal):
        lab, nd, na = t_prime.node_label(w), len(dw), len(aw)
        per_node.append(NodeCover(lab, d_set, t.full_mask ^ d_set, nd, na, side))
        witnesses[lab] = tuple((t.node_label(v), kind, m) for v, kind, m in wit)
        bound, naive = max(bound, min(nd, na)), max(naive, nd, na)
    return ExponentReport(
        tree=t.text, tree_prime=t_prime.text, perm=perm.one_line(),
        cover_bound=bound, per_node=tuple(per_node), naive_max=naive, witnesses=witnesses)


# ---------------------------------------------------------------------------
# f-weighted covers and trivial containment

@dataclass(frozen=True)
class TrivialContainment:
    """Outcome of the per-node product test between two weighted networks.

    When `ok` is true the containment holds for every scaling factor r,
    with exponent `sets_used`: the most doad sets in a chosen cover, where
    each node takes the side of least (product, size) cover, desc on a tie.
    """

    ok: bool
    sets_used: int
    per_node: tuple  # (label, side, product, limit, witness)
    violations: tuple

    def to_dict(self) -> dict:
        return {
            "trivially_contained": self.ok,
            "holds_for_all_r": self.ok,
            "sets_used": self.sets_used,
            "violations": list(self.violations),
            "per_node": [
                {"node": lab, "side": side, "product": p, "limit": lim,
                 "cover": [list(leaves_of_mask(m)) for (_, _, m) in wit]}
                for (lab, side, p, lim, wit) in self.per_node
            ],
        }


def check_trivial_containment(t: Tree, f, t_prime: Tree, f_prime,
                              perm: Optional[Permutation] = None) -> TrivialContainment:
    """Test whether the (T, f) network is trivially contained in (T', f').

    Every vertex of T' must admit a doad cover of its descendant or
    anti-descendant side whose f-product does not exceed f' there.
    """
    perm = instance_perm(t, t_prime, perm)
    fp = weight_vector(f_prime, t_prime.size)
    per_node, violations = [], []
    for w, _, _, _, ((product, wit), side) in _node_covers(
            t, f, t_prime, perm, range(t_prime.size)):
        lab = t_prime.node_label(w)
        per_node.append((lab, side, product, fp[w], wit))
        if product > fp[w]:
            violations.append(lab)
    return TrivialContainment(ok=not violations, sets_used=max(len(wit) for *_, wit in per_node),
                              per_node=tuple(per_node), violations=tuple(violations))
