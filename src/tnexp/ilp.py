"""The cover-exponent integer program: build, solve exactly, export as LP.

For trees T, T' on n leaves and a leaf permutation, the program decides,
for every internal node w of T', whether to cover its pulled-back
descendant set (zu_w = 1) or anti-descendant set (zo_w = 1) by doad sets
of T, and minimizes the common cardinality bound c on all chosen covers.
Binary variables:

    xu_w_v  descendant set of v used in the cover of w's descendant side
    xo_w_v  descendant set of v used in the cover of w's anti side
    yu_w_v  anti-descendant set of v used for w's descendant side
    yo_w_v  anti-descendant set of v used for w's anti side
    zu_w / zo_w  which side of w is covered

with w, v written as 0/1 path labels ("r" for the root).  A variable is
only registered when the corresponding set is nonempty and contained in
the target side, which makes every feasible cover exact: each leaf of
the chosen side is covered and no chosen set sticks out.  The covers at
leaf nodes of T' are singletons and are folded into the explicit bound
c >= 1 instead of per-leaf rows.

Row groups, in order: side choice per node; leaf covering rows for the
descendant sides, then the anti sides; cardinality rows for the
descendant sides, then the anti sides; the c floor.  Each group runs
over the internal nodes of T' in vertex order.  The LP text uses
Minimize / Subject To / Binary / End sections; c stays continuous since
it is integral at any optimum over binary x, y, z.

The solver does not touch the subset tables or CoverCounter: per node
and side it makes one stable pass over the model's own candidate sets by
(size, mask) descending, takes each set that fits inside the leaves left
uncovered, and combines sides by max-of-min, so its optimum is an
independent cross-check of the cover-table route.  Greedy is exact, by
the cover structure of the covers module docstring (every optimal cover
is A or B).  Let S be the target, w = lca(S^c), and D(X) the number of
maximal descendant sets inside X.

* If w is the root, no anti set fits inside S.  Greedy then takes the
  maximal descendant sets, largest first, which is cover A.
* Otherwise a(w) is the union of the p >= 1 sibling subtrees on the path
  from w up to the root.  Each of them is a maximal descendant set of S,
  so a(w) is larger than each (or, for p = 1, the same set) and than
  every a(x) with x a strict ancestor of w.  Greedy takes a(w) before
  any of them, then the maximal descendant sets of S & d(w): cover B,
  with 1 + D(S & d(w)) <= p + D(S & d(w)) = D(S) sets.
* The pass takes only sets inside the uncovered leaves, so its picks are
  disjoint and listed by (size, mask) descending; of equal sets it takes
  the first registered.  The tests keep an exhaustive branch and bound
  as the oracle for counts and order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .trees import Permutation, Tree, instance_perm, leaves_of_mask

__all__ = ["IpRow", "IpModel", "IpSolution", "build_ip", "solve_ip", "export_lp"]

_TAGS = {"desc": "u", "anti": "o"}    # side -> variable and row name tag


@dataclass(frozen=True)
class IpRow:
    name: str
    terms: tuple        # ((coef, var), ...)
    sense: str          # ">=" or "<="
    rhs: int


@dataclass(frozen=True)
class IpModel:
    tree: str
    tree_prime: str
    perm: str
    variables: tuple        # all registered variable names, c last; the rest are binary
    rows: tuple             # IpRow, grouped as described in the module docstring
    fixed_zero: tuple       # variable names excluded by the subset conditions
    node_sides: dict        # w-label -> {"desc"|"anti": (target_mask, ((var, set_mask), ...))}

    def to_dict(self) -> dict:
        return {
            "tree": self.tree,
            "tree_prime": self.tree_prime,
            "perm": self.perm,
            "num_variables": len(self.variables),
            "num_rows": len(self.rows),
            "variables": list(self.variables),
            "fixed_zero": list(self.fixed_zero),
        }


@dataclass(frozen=True)
class IpSolution:
    objective: int
    assignment: dict        # var -> value (binaries 0/1, plus "c")
    per_node: dict          # w-label -> {"side", "count", "cover": [leaf lists]}

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "per_node": {w: {"side": d["side"], "count": d["count"],
                             "cover": [list(leaves_of_mask(m)) for m in d["cover"]]}
                         for w, d in self.per_node.items()},
            "assignment": {k: v for k, v in self.assignment.items() if v},
        }


def build_ip(t: Tree, t_prime: Tree, perm: Optional[Permutation] = None) -> IpModel:
    """Assemble the integer program for covering T' by doad sets of T."""
    perm = instance_perm(t, t_prime, perm)
    full = t.full_mask
    # T's doad sets in registration order: per vertex x (descendant) before
    # y (anti); the root has no anti-descendant set
    doads = [(prefix, t.node_label(v), m) for v in range(t.size)
             for prefix, m in (("x", t.desc_masks[v]), ("y", t.anti_mask(v))) if m]

    variables: list[str] = []
    fixed_zero: list[str] = []
    node_sides: dict = {}
    for w in t_prime.internal:
        wl = t_prime.node_label(w)
        d_target = perm.pullback(t_prime.desc_masks[w])
        sides = node_sides[wl] = {}
        for side, tag in _TAGS.items():
            target = d_target if side == "desc" else full ^ d_target
            named = [(f"{prefix}{tag}_{wl}_{vl}", m) for prefix, vl, m in doads]
            fixed_zero += [name for name, m in named if m & ~target]
            cands = tuple((name, m) for name, m in named if not m & ~target)
            sides[side] = (target, cands)
            variables += [f"z{tag}_{wl}", *(name for name, _ in cands)]
    variables.append("c")

    rows = [IpRow(f"choose_{wl}", ((1, f"zu_{wl}"), (1, f"zo_{wl}")), ">=", 1)
            for wl in node_sides]
    for side, tag in _TAGS.items():
        # one covering row per leaf of the target side
        rows += [IpRow(f"cover_{tag}_{wl}_{leaf}",
                       tuple((1, name) for name, m in cands if m >> (leaf - 1) & 1)
                       + ((-1, f"z{tag}_{wl}"),), ">=", 0)
                 for wl, sides in node_sides.items()
                 for target, cands in (sides[side],)
                 for leaf in leaves_of_mask(target)]
    for side, tag in _TAGS.items():
        rows += [IpRow(f"card_{tag}_{wl}",
                       tuple((1, name) for name, _ in sides[side][1]) + ((-1, "c"),), "<=", 0)
                 for wl, sides in node_sides.items()]
    rows.append(IpRow("c_min", ((1, "c"),), ">=", 1))
    return IpModel(tree=t.text, tree_prime=t_prime.text, perm=perm.one_line(),
                   variables=tuple(variables), rows=tuple(rows),
                   fixed_zero=tuple(fixed_zero), node_sides=node_sides)


# ---------------------------------------------------------------------------
# exact solver

def _greedy_cover(cands: tuple, target: int) -> tuple:
    """The (name, mask) candidates, all subsets of `target`, that cover it
    minimally by the module docstring's pass; none for an empty target."""
    chosen, uncovered = [], target
    for c in sorted(cands, key=lambda c: (c[1].bit_count(), c[1]), reverse=True):
        if not c[1] & ~uncovered:
            chosen.append(c)
            uncovered ^= c[1]
    if uncovered:
        raise RuntimeError("target side not coverable; singleton sets missing")
    return tuple(chosen)


def solve_ip(model: IpModel) -> IpSolution:
    """Exact optimum of the program.

    The rows couple only through c, so the optimum decomposes into
    independent minimum covers per node and side, combined by
    max-of-min and floored by the c >= 1 row.
    """
    objective = 1
    per_node = {}
    assignment = {v: 0 for v in model.variables}
    for wl, sides in model.node_sides.items():
        covers = {side: _greedy_cover(cands, target) for side, (target, cands) in sides.items()}
        side = "anti" if len(covers["anti"]) < len(covers["desc"]) else "desc"
        chosen = covers[side]
        objective = max(objective, len(chosen))
        per_node[wl] = {"side": side, "count": len(chosen), "cover": tuple(m for _, m in chosen)}
        assignment[f"z{_TAGS[side]}_{wl}"] = 1
        assignment.update((name, 1) for name, _ in chosen)
    assignment["c"] = objective
    return IpSolution(objective=objective, assignment=assignment, per_node=per_node)


# ---------------------------------------------------------------------------
# LP text export

def export_lp(model: IpModel, path=None) -> str:
    """Deterministic LP-format text of the model; optionally written to path."""
    lines = [
        f"\\ cover-exponent integer program",
        f"\\ tree      : {model.tree}",
        f"\\ tree_prime: {model.tree_prime}",
        f"\\ perm      : {model.perm}",
        "Minimize",
        " obj: c",
        "Subject To",
    ]
    for row in model.rows:
        terms = []
        for i, (coef, var) in enumerate(row.terms):
            if i == 0:
                terms.append(var if coef >= 0 else f"- {var}")
            else:
                terms.append(f"+ {var}" if coef >= 0 else f"- {var}")
        expr = " ".join(terms) if terms else "0 c"
        lines.append(f" {row.name}: {expr} {row.sense} {row.rhs}")
    lines.append("Binary")
    for name in model.variables[:-1]:
        lines.append(f" {name}")
    lines.append("End")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    return text
