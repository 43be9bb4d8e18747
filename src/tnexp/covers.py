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
  that is when v is lca(S^c) (the deepest vertex whose descendant set
  contains S^c) or an ancestor of it.  The rest of the cover is
  disjoint from a(v), so it covers S & d(v) by descendant sets, with
  D(S & d(v)) of them.  For a strict ancestor v' of v = lca(S^c), no
  descendant set inside S contains d(v) (d(v) meets S^c), so
  D(S & d(v')) >= D(S & d(v)): the lca is the best choice.

Hence n_S = min(D(S), 1 + D(S & d(lca(S^c)))), with n_0 = 0 and
n_full = 1; at the root the second term is 1 + D(S) and never wins.
CoverCounter evaluates this one subset at a time from the tree alone
and answers every single-instance cover query up to LEAF_CAP leaves:
cover_exponent reads it, and bounds.poset_bound reads cover_exponent.
The other route is build_cover_table, a layered BFS over all 2^n
subsets that returns the counts array.  The search reads its min side
per node for the "cover" and (equal by the closed form) "poset" kinds
and its max side for "naive".  The tests check the two routes against
each other, with bounds.poset_table as the closed form.

The containment exponent certificate for a pair (T, T') under a leaf
permutation is then: for every internal node w of T', cover either the
pulled-back descendant set or its complement, and take the worst node.
Leaf nodes of T' always need exactly one singleton doad, so the bound is
floored at 1; the root contributes nothing (its anti side is empty).

The f-weighted variant minimizes the product of a positive vertex
weight over the witnessing vertices instead of the count; it backs the
trivial-containment test, which upgrades the asymptotic containment to
one valid for every scaling factor r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trees import (
    LEAF_CAP,
    Permutation,
    Tree,
    doad_family,
    instance_perm,
    leaves_of_mask,
    mask_lca,
    maximal_desc_count,
    weight_vector,
)

__all__ = [
    "CoverCounter",
    "build_cover_table",
    "cover_exponent",
    "ExponentReport",
    "NodeCover",
    "min_product_cover",
    "check_trivial_containment",
    "TrivialContainment",
]

COVER_TABLE_CAP = 24  # 2^n table entries; CoverCounter has no such cap
_UNSET = 255


# ---------------------------------------------------------------------------
# cover numbers

class CoverCounter:
    """Exact n_S for one leaf subset at a time, read off the tree.

    n_S is the closed form of the module docstring, so any tree up to
    LEAF_CAP leaves is answered, one query in time linear in the tree
    size, without the 2^n table.
    """

    __slots__ = ("tree",)

    def __init__(self, tree: Tree):
        self.tree = tree

    def count(self, mask: int) -> int:
        t = self.tree
        full = t.full_mask
        if mask == full:
            return 1
        if not mask:
            return 0
        # at the root the anti term is 1 + D(S), never below D(S)
        lca_c = mask_lca(t, full ^ mask)
        return min(maximal_desc_count(t, mask),
                   1 + maximal_desc_count(t, mask & t.desc_masks[lca_c]))

    def witness(self, mask: int) -> tuple:
        """One optimal decomposition of `mask` as (vertex, kind, set) triples.

        Each step removes the doad set d inside what remains with
        n(remaining ^ d) = k - 1 whose (vertex, kind) is smallest, "desc"
        before "anti", so the result is pairwise disjoint and
        deterministic.  A set is first reached at its smallest witness,
        which is the one reported.
        """
        t, count = self.tree, self.count
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


def build_cover_table(t: Tree) -> np.ndarray:
    """Exact n_S for every leaf subset, by layered disjoint-union BFS.

    Returns the uint8 array with counts[mask] = n_S (counts[0] == 0).
    """
    if t.n > COVER_TABLE_CAP:
        raise ValueError(
            f"cover tables are capped at {COVER_TABLE_CAP} leaves (got {t.n}); "
            f"CoverCounter answers one subset at a time up to {LEAF_CAP} leaves")
    doads = np.array(doad_family(t).masks, dtype=np.int64)
    counts = np.full(1 << t.n, _UNSET, dtype=np.uint8)
    counts[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    layer = 0
    while frontier.size:
        layer += 1
        grown = []
        for d in doads:
            ext = frontier[(frontier & d) == 0] | d
            ext = ext[counts[ext] == _UNSET]
            if ext.size:
                counts[ext] = layer
                grown.append(ext)
        frontier = np.unique(np.concatenate(grown)) if grown else np.zeros(0, dtype=np.int64)
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
    witnesses: Optional[dict] = None

    def to_dict(self) -> dict:
        d = {
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
        }
        if self.witnesses is not None:
            d["witnesses"] = {
                lab: [{"vertex": v_lab, "kind": kind, "set": list(leaves_of_mask(m))}
                      for (v_lab, kind, m) in ws]
                for lab, ws in self.witnesses.items()
            }
        return d


def cover_exponent(t: Tree, t_prime: Tree, perm: Optional[Permutation] = None,
                   with_witnesses: bool = False) -> ExponentReport:
    """Certified containment exponent for T' covered by doad sets of T."""
    perm = instance_perm(t, t_prime, perm)
    counter = CoverCounter(t)

    full = t.full_mask
    per_node = []
    bound = 1
    for w in t_prime.internal:
        d_set = perm.pullback(t_prime.desc_masks[w])
        a_set = full ^ d_set
        nd = counter.count(d_set)
        na = counter.count(a_set)
        chosen = "anti" if na < nd else "desc"
        per_node.append(NodeCover(t_prime.node_label(w), d_set, a_set, nd, na, chosen))
        bound = max(bound, min(nd, na))

    # a 1-leaf T' has no internal node; its one doad set needs one set
    naive = max((max(nc.n_desc, nc.n_anti) for nc in per_node), default=1)

    witnesses = None
    if with_witnesses:
        witnesses = {}
        for nc in per_node:
            side = nc.desc_set if nc.chosen == "desc" else nc.anti_set
            witnesses[nc.label] = tuple(
                (t.node_label(vid), kind, m) for vid, kind, m in counter.witness(side))

    return ExponentReport(
        tree=t.text, tree_prime=t_prime.text, perm=perm.one_line(),
        cover_bound=bound, per_node=tuple(per_node), naive_max=naive,
        witnesses=witnesses)


# ---------------------------------------------------------------------------
# f-weighted covers and trivial containment

class _ProductCover:
    """Memoized minimum f-product doad covers of one tree."""

    def __init__(self, t: Tree, f):
        self.t = t
        self.f = weight_vector(t, f)
        self.family = doad_family(t)
        # cheapest witness per doad set: weight, then (vertex, kind) tiebreak
        self.weight = {}
        self.best_wit = {}
        for m in self.family.masks:
            w, vid, kind = min(
                (self.f[vid], vid, kind) for vid, kind in self.family.witnesses[m])
            self.weight[m] = w
            self.best_wit[m] = (vid, kind)
        self._memo = {0: (1, ())}

    def query(self, mask: int):
        """(minimum product, witness triples) for an exact cover of mask."""
        full = self.t.full_mask
        if mask != full:
            return self._disjoint(mask)
        # the full leaf set also admits irredundant covers by two
        # overlapping doads; anything larger reduces to these or to a
        # disjoint cover
        best = self._disjoint(mask)
        masks = self.family.masks
        for i, a in enumerate(masks):
            for b in masks[i:]:
                if a | b == full:
                    p = self.weight[a] * self.weight[b]
                    if p < best[0]:
                        best = (p, (self._wit(a), self._wit(b)))
        return best

    def _wit(self, m: int):
        vid, kind = self.best_wit[m]
        return (vid, kind, m)

    def _disjoint(self, mask: int):
        memo = self._memo
        if mask in memo:
            return memo[mask]
        low = mask & -mask
        best = None
        for d in self.family.masks:
            if not d & low or d & ~mask:
                continue
            sub_p, sub_w = self._disjoint(mask ^ d)
            p = self.weight[d] * sub_p
            if best is None or p < best[0]:
                best = (p, (self._wit(d),) + sub_w)
        memo[mask] = best
        return best


def min_product_cover(t: Tree, f, mask: int):
    """Minimum product of vertex weights over doad covers of `mask`.

    Returns (product, witness) where witness is a tuple of
    (vertex, kind, set) triples whose sets union to `mask` exactly.
    """
    if mask < 0 or mask > t.full_mask:
        raise ValueError("mask out of range for this tree")
    return _ProductCover(t, f).query(mask)


@dataclass(frozen=True)
class TrivialContainment:
    """Outcome of the per-node product test between two weighted networks.

    When `ok` is true the containment holds for every scaling factor r,
    with exponent `sets_used` (the largest number of doad sets in any
    chosen cover).
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
    fp = weight_vector(t_prime, f_prime)
    pc = _ProductCover(t, f)
    full = t.full_mask

    per_node = []
    violations = []
    sets_used = 0
    for v in range(t_prime.size):
        d_set = perm.pullback(t_prime.desc_masks[v])
        a_set = full ^ d_set
        pd, wd = pc.query(d_set)
        pa, wa = pc.query(a_set)
        product, side, wit = min((pd, "desc", wd), (pa, "anti", wa),
                                 key=lambda x: (x[0], x[1] != "desc"))
        lab = t_prime.node_label(v)
        per_node.append((lab, side, product, fp[v], wit))
        sets_used = max(sets_used, len(wit))
        if product > fp[v]:
            violations.append(lab)
    return TrivialContainment(ok=not violations, sets_used=sets_used,
                              per_node=tuple(per_node), violations=tuple(violations))
