"""Closed-form and structural containment-exponent bounds.

Four certificate families; the poset count is exact, the other three
are upper bounds for the exact cover number:

* trivial: floor(n/2), from covering the smaller side of every split by
  singletons;
* poset: per target doad set S, min(n_S, n_{S^c}), the cheaper exact
  cover of S or its complement.  n_S is covers.CoverCounter's closed
  form over the ancestor/descendant poset of the covering tree, exact
  by the covers module docstring, so the poset bound equals the cover
  bound: poset_bound reads cover_exponent's per-node pairs, and
  poset_table tabulates the closed form as the tests' oracle;
* heights: a plane tree embeds into the same-width comb tree with
  exponent 1 + max_l min(h_l, h*_{l+1}), where h counts the 1s before
  the final 0 of a leaf's path label and h* dually;
* plane-general: twice the height bound, valid against any plane tree of
  the same width, because the comb tree itself embeds anywhere with
  exponent 2 and exponents compose multiplicatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covers import CoverCounter, cover_exponent
from .trees import Permutation, Tree, build_tt, heights, leaves_of_mask

__all__ = [
    "BoundValue",
    "trivial_bound",
    "poset_table",
    "poset_bound",
    "height_bound_tt",
    "plane_general_bound",
    "compose_exponents",
]


@dataclass(frozen=True)
class BoundValue:
    """A certified containment exponent with its provenance.

    source/target are canonical tree strings when the certificate is
    tied to specific trees; None acts as a wildcard (e.g. the trivial
    bound holds for every pair of the given width).
    """

    kind: str
    value: int
    source: Optional[str] = None
    target: Optional[str] = None
    note: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value, "source": self.source,
                "target": self.target, "note": self.note}


def trivial_bound(n: int) -> BoundValue:
    """floor(n/2) is an exponent for any pair of trees on n leaves."""
    if n < 2:
        raise ValueError(f"need at least 2 leaves, got {n}")
    return BoundValue(kind="trivial", value=n // 2,
                      note=f"cover the smaller side of every split by singletons (n={n})")


# ---------------------------------------------------------------------------
# poset bound

def poset_table(t: Tree) -> np.ndarray:
    """min(n_S, n_{S^c}) for every leaf subset S, from CoverCounter's closed form.

    Entry m is the cheaper exact cover of S = m or its complement, so
    the table is symmetric under m <-> full ^ m; it is 0 at the empty
    and the full set, where one side is empty.  The tests' oracle for
    the BFS tables that the search reads for its `poset` kind.
    """
    count = CoverCounter(t).count
    c = np.array([count(m) for m in range(1 << t.n)], dtype=np.uint8)
    # full ^ m == full - m: the reversed table holds the complements' counts
    return np.minimum(c, c[::-1])


def poset_bound(t: Tree, t_prime: Tree, perm: Optional[Permutation] = None) -> BoundValue:
    """Poset-structure exponent for T' covered through the poset of T.

    Its value is cover_exponent's cover_bound: per internal node of T',
    min(n_S, n_{S^c}) of the pulled-back split.  The note names the
    target doad set of smallest mask among those attaining a value above
    1; both sides of a node attain its value, so that is min(d, full ^ d)
    over the nodes attaining the max.
    """
    report = cover_exponent(t, t_prime, perm)
    full = t_prime.full_mask
    desc = (t_prime.desc_masks[w] for w in t_prime.internal)
    hits = [min(d, full ^ d) for d, nc in zip(desc, report.per_node)
            if nc.value == report.cover_bound > 1]
    note = f"attained at target doad set {set(leaves_of_mask(min(hits)))}" if hits else ""
    return BoundValue(kind="poset", value=report.cover_bound, source=t.text,
                      target=t_prime.text, note=note)


# ---------------------------------------------------------------------------
# height bounds for plane trees

def _height_profile(t: Tree) -> tuple[int, int]:
    """(max over l of min(h_l, h*_{l+1}), attaining l)."""
    h, hs = heights(t)
    best, best_l = 0, 1
    for l in range(1, t.n):
        v = min(h[l - 1], hs[l])
        if v > best:
            best, best_l = v, l
    return best, best_l


def height_bound_tt(t: Tree) -> BoundValue:
    """Exponent for a plane tree inside the same-width comb tree."""
    m, l = _height_profile(t)
    return BoundValue(kind="height_tt", value=1 + m, source=t.text,
                      target=build_tt(t.n).text,
                      note=f"1 + min(h_{l}, h*_{l + 1}) with left-to-right leaf identification")


def plane_general_bound(t: Tree) -> BoundValue:
    """Exponent for a plane tree inside any plane tree of the same width."""
    m, l = _height_profile(t)
    return BoundValue(kind="plane_general", value=2 + 2 * m, source=t.text,
                      target=None,
                      note="height bound composed with the comb tree's universal exponent 2")


def compose_exponents(e1: BoundValue, e2: BoundValue) -> BoundValue:
    """Chain two certificates: exponents multiply along T -> T' -> T''."""
    if e1.target is not None and e2.source is not None and e1.target != e2.source:
        raise ValueError(
            f"cannot compose: first bound targets {e1.target!r}, "
            f"second starts from {e2.source!r}")
    return BoundValue(kind="composed", value=e1.value * e2.value,
                      source=e1.source, target=e2.target,
                      note=f"{e1.kind}({e1.value}) * {e2.kind}({e2.value})")
