"""Full binary plane trees: parsing, the two canonical families, shape
enumeration, leaf heights, and leaf-mask queries.

A tree is its balanced-parenthesis string, where "." is a leaf and
"(LR)" is an internal node with plane-ordered children L and R, so
"((..)(..))" is the perfect tree of depth 2 and "(((..).).)" the 4-leaf
comb.  The string is the only representation: a vertex id is the
position of its character among the characters that are not ")", which
is depth-first preorder, and one recursive descent over the grammar
tree := "." | "(" tree tree ")", one call per vertex, builds every
structural array.  It stops with a ValueError at the LEAF_CAP leaf cap,
so no input, however long or deeply nested, makes it build more than
2 * LEAF_CAP - 1 = 63 vertices or nest deeper.  Leaves are numbered
1..n from left to right, and every vertex carries the 0/1 path label of
the left(0)/right(1) steps reaching it from the root (root label: "").
Leaf numbering agrees with lexicographic order of the path labels.

Leaf subsets are plain int bitmasks with leaf k on bit k-1.  The doad
sets of a tree are, for every vertex v, its descendant leaf set
desc_masks[v] and the nonempty complement anti_mask(v) (the
anti-descendant set); these sets are the only building blocks of all
cover computations downstream.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Mapping
from functools import lru_cache

__all__ = [
    "Tree",
    "parse_tree",
    "build_ht",
    "build_tt",
    "enumerate_shapes",
    "enumerate_plane_trees",
    "heights",
    "Permutation",
    "instance_perm",
    "perm_string",
    "mask_lca",
    "maximal_desc_vertices",
    "weight_vector",
    "integral",
    "mask_from_leaves",
    "leaves_of_mask",
]

SHAPE_ENUM_CAP = 16
PLANE_ENUM_CAP = 12  # Catalan growth; 12 leaves is already 58786 trees
LEAF_CAP = 32        # bitmask width


# ---------------------------------------------------------------------------
# tree structure

class Tree:
    """Immutable full binary plane tree, built by one descent over its string.

    Vertex v is the v-th character of `text` that is not ")": ids run
    0..2n-2 in depth-first preorder (root = 0), which coincides with
    lexicographic order of the 0/1 path labels, so children have larger
    ids than their parents.  All structural arrays are tuples; instances
    hash and compare by `text`.
    """

    __slots__ = ("n", "parent", "left", "right", "labels", "leaves",
                 "desc_masks", "text")

    def __init__(self, text: str):
        parent, left, right, labels, leaves, masks = [], [], [], [], [], []

        def vertex(pos: int, par: int, label: str) -> int:
            """Build the subtree that starts at pos; return the position after it."""
            if pos >= len(text):
                raise ValueError("unbalanced tree string: unexpected end of input")
            c = text[pos]
            if c not in "(.":
                raise ValueError(f"unexpected character {c!r} at position {pos}")
            if c == "(" and text.startswith(")", pos + 1):
                raise ValueError(f"node at position {pos} has no children")
            v = len(parent)
            if v == 2 * LEAF_CAP - 1:   # before any recursion: at most 63 calls deep
                raise _over_cap(text)
            parent.append(par)
            labels.append(label)
            left.append(v + 1 if c == "(" else -1)
            right.append(-1)
            masks.append(0 if c == "(" else 1 << len(leaves))
            if c == ".":
                leaves.append(v)
                return pos + 1
            end = vertex(pos + 1, v, label + "0")
            if text.startswith(")", end):
                raise ValueError(f"node at position {pos} has only one child")
            right[v] = len(parent)
            end = vertex(end, v, label + "1")
            if not text.startswith(")", end):
                raise ValueError(f"node at position {pos} has more than two "
                                 f"children or is unclosed")
            masks[v] = masks[v + 1] | masks[right[v]]
            return end + 1

        pos = vertex(0, -1, "")
        if pos != len(text):
            tail = text[pos:]   # echoed whole only when short: the input may be huge
            shown = (repr(tail) if len(tail) <= 20
                     else f"{tail[:20]!r}... ({len(tail)} characters)")
            raise ValueError(f"trailing characters after position {pos}: {shown}")

        self.n = len(leaves)
        self.parent = tuple(parent)
        self.left = tuple(left)
        self.right = tuple(right)
        self.labels = tuple(labels)
        self.leaves = tuple(leaves)
        self.desc_masks = tuple(masks)
        self.text = text

    # -- basic queries ------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return 0

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_leaf(self, v: int) -> bool:
        return self.left[v] < 0

    def leaf_number(self, v: int) -> int:
        """1-based leaf number of a leaf vertex, 0 for internal vertices."""
        return self.desc_masks[v].bit_length() if self.left[v] < 0 else 0

    def node_label(self, v: int) -> str:
        """Path label of vertex v as reports print it, "r" for the root."""
        return self.labels[v] or "r"

    @property
    def internal(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.size) if self.left[v] >= 0)

    def anti_mask(self, v: int) -> int:
        return self.full_mask ^ self.desc_masks[v]

    # -- dunder -------------------------------------------------------

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"Tree({self.text!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Tree) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)


def _over_cap(text: str) -> ValueError:
    n = text.count(".")
    if n > LEAF_CAP:
        return ValueError(f"trees are limited to {LEAF_CAP} leaves, got {n}")
    return ValueError(f"tree string has {text.count('(')} '(' but a tree on at most "
                      f"{LEAF_CAP} leaves has at most {LEAF_CAP - 1} internal nodes")


# ---------------------------------------------------------------------------
# parsing / construction

def parse_tree(text: str) -> Tree:
    """Parse a balanced-parenthesis tree string into a Tree.

    Raises ValueError on empty input, unbalanced parentheses, nodes with
    a child count other than two, or more than LEAF_CAP leaves.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty tree string")
    return Tree(s)


def build_ht(k: int) -> Tree:
    """Perfect binary tree of depth k (2**k leaves, all at depth k)."""
    text = "."
    for _ in range(integral(k, "depth", 1, LEAF_CAP.bit_length() - 1)):
        text = "(" + text + text + ")"
    return Tree(text)


def build_tt(n: int) -> Tree:
    """Left-combed train track tree on n leaves.

    Every internal node has its right child a leaf; the left child
    carries all remaining leaves, so descendant sets are exactly the
    prefixes {1..l} of the leaf order.
    """
    n = integral(n, "leaf count", 2, LEAF_CAP)
    return Tree("(" * (n - 1) + "." + ".)" * (n - 1))


# ---------------------------------------------------------------------------
# enumeration

@lru_cache(maxsize=None)
def _shape_strings(n: int) -> tuple[str, ...]:
    if n == 1:
        return (".",)
    out = []
    for a in range(1, n // 2 + 1):
        b = n - a
        if a < b:
            combos = itertools.product(_shape_strings(a), _shape_strings(b))
        else:
            combos = itertools.combinations_with_replacement(_shape_strings(a), 2)
        for sa, sb in combos:
            lo, hi = sorted((sa, sb))
            out.append("(" + lo + hi + ")")
    return tuple(sorted(out))


def enumerate_shapes(n: int) -> list[Tree]:
    """One canonical plane representative per unordered shape on n leaves.

    Output is sorted lexicographically on the canonical serialization;
    its length is the Wedderburn-Etherington number of n.
    """
    return [Tree(s) for s in _shape_strings(integral(n, "leaf count", 2, SHAPE_ENUM_CAP))]


@lru_cache(maxsize=None)
def _plane_strings(n: int) -> tuple[str, ...]:
    if n == 1:
        return (".",)
    out = []
    for a in range(1, n):
        for sa in _plane_strings(a):
            for sb in _plane_strings(n - a):
                out.append("(" + sa + sb + ")")
    return tuple(sorted(out))


def enumerate_plane_trees(n: int) -> list[Tree]:
    """All plane trees on n leaves (Catalan many), lexicographic order."""
    return [Tree(s) for s in _plane_strings(integral(n, "leaf count", 2, PLANE_ENUM_CAP))]


# ---------------------------------------------------------------------------
# heights

def heights(t: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-leaf heights (h, h*) in left-to-right leaf order.

    h counts the 1s before the final 0 of the leaf's path label, h* the
    0s before the final 1 (0 when the label has no such final digit).
    """
    labels = [t.labels[v] for v in t.leaves]
    h = tuple(lab.count("1", 0, max(lab.rfind("0"), 0)) for lab in labels)
    hs = tuple(lab.count("0", 0, max(lab.rfind("1"), 0)) for lab in labels)
    return h, hs


# ---------------------------------------------------------------------------
# leaf-mask queries (the building blocks of covers.CoverCounter)

def mask_lca(t: Tree, mask: int) -> int:
    """Deepest vertex whose descendant set contains the nonempty leaf mask."""
    dm, left, right = t.desc_masks, t.left, t.right
    v = t.root
    while left[v] >= 0:
        if not mask & ~dm[left[v]]:
            v = left[v]
        elif not mask & ~dm[right[v]]:
            v = right[v]
        else:
            break
    return v


def maximal_desc_vertices(t: Tree, mask: int) -> list[int]:
    """The vertices of the maximal descendant sets inside a leaf mask, in preorder.

    These are the vertices u with d(u) inside `mask` whose parent's
    descendant set is not; their descendant sets partition `mask`, and
    they are the only exact cover of it by descendant sets.
    """
    outside = ~mask
    inside = [not d & outside for d in t.desc_masks]
    inside.append(False)        # read as the root's parent, -1
    return [v for v, p in enumerate(t.parent) if inside[v] and not inside[p]]


def weight_vector(f, size: int, what: str = "vertex-weight") -> tuple[int, ...]:
    """`size` positive integers: weights by vertex id, or dimensions by leaf.

    f is a scalar for every entry or a sequence of `size` entries; a
    mapping is an error.  Each entry is read by `integral`, >= 1, and
    `what` names the vector in the error message.
    """
    if isinstance(f, Mapping):
        f = ()                  # refused below, not read by its keys
    vec = (f,) * size if isinstance(f, numbers.Real) else tuple(f)
    if len(vec) != size:
        raise ValueError(f"need {size} positive {what} entries")
    return tuple(integral(x, what, 1) for x in vec)


def integral(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """x as an int if it is a real of integral value (2, 2.0 and numpy
    integers alike) in lo..hi, or >= lo when hi is None; else a ValueError
    that names `what`.  Every count, seed and mask the library reads goes
    through here."""
    if type(x) is not int:      # an ABC check costs ~0.5 us; masks on hot paths are ints
        if not (isinstance(x, numbers.Real) and x % 1 == 0):
            raise ValueError(f"{what} must be an integer")
        x = int(x)
    if hi is not None and not lo <= x <= hi:
        raise ValueError(f"{what} must be in {lo}..{hi}, got {x}")
    if lo is not None and x < lo:
        raise ValueError(f"{what} must be >= {lo}, got {x}")
    return x


def _int_text(text: str, what: str) -> int:
    """int(text), or a ValueError that names `what` and the text."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} {text[:20]!r} must be an integer") from None


# ---------------------------------------------------------------------------
# permutations of the leaf set

class Permutation:
    """Bijection on {1..n} in one-line notation."""

    __slots__ = ("perm",)

    def __init__(self, seq):
        # integral numbers, or the digit strings of from_text
        perm = tuple(_int_text(x, "permutation entry") if isinstance(x, str)
                     else integral(x, "permutation entry") for x in seq)
        missing = set(range(1, len(perm) + 1)).difference(perm)
        if missing:             # name one value: the input may be huge
            raise ValueError(f"not a permutation of 1..{len(perm)}: {min(missing)} is missing")
        self.perm = perm

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_text(cls, text: str, n: int) -> "Permutation":
        """Parse "id", a digit string like "3142", or separated entries."""
        s = text.strip().lower()
        if s in ("id", "identity", ""):
            return cls.identity(n)
        if "," in s or "-" in s or " " in s:
            entries = [p for p in s.replace("-", ",").replace(" ", ",").split(",") if p]
        else:
            entries = list(s)
        perm = cls(entries)
        if perm.n != n:
            raise ValueError(f"permutation has {perm.n} entries, tree has {n} leaves")
        return perm

    @property
    def n(self) -> int:
        return len(self.perm)

    def pullback(self, mask: int) -> int:
        """Preimage bitmask: leaf l is in the result iff perm[l - 1] is in mask."""
        out = 0
        for i, p in enumerate(self.perm):
            if (mask >> (p - 1)) & 1:
                out |= 1 << i
        return out

    def one_line(self) -> str:
        return perm_string(self.perm)

    def is_identity(self) -> bool:
        return all(p == i + 1 for i, p in enumerate(self.perm))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"Permutation({list(self.perm)})"


def perm_string(entries) -> str:
    """One-line notation of a permutation: "3142" up to 9 leaves, "3-1-4-...-10" above."""
    return ("" if len(entries) <= 9 else "-").join(map(str, entries))


def instance_perm(t: Tree, t_prime: Tree, perm=None) -> Permutation:
    """Check a (T, T', pi) instance and return pi (identity when None)."""
    if t.n != t_prime.n:
        raise ValueError(f"leaf counts differ: {t.n} vs {t_prime.n}")
    if perm is None:
        perm = Permutation.identity(t.n)
    if perm.n != t.n:
        raise ValueError(f"permutation size {perm.n} does not match {t.n} leaves")
    return perm


# ---------------------------------------------------------------------------
# bitmask helpers

def mask_from_leaves(leaves) -> int:
    out = 0
    for leaf in leaves:
        out |= 1 << (integral(leaf, "leaf", 1, LEAF_CAP) - 1)
    return out


def leaves_of_mask(mask: int) -> tuple[int, ...]:
    mask = integral(mask, "leaf mask", 0)
    out = []
    leaf = 1
    while mask:
        if mask & 1:
            out.append(leaf)
        mask >>= 1
        leaf += 1
    return tuple(out)
