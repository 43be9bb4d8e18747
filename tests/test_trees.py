import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import (EX_LABEL, compose, doad_sets, inverse, mirror, shape_key,
                      wedderburn_etherington)
from tnexp.trees import (
    Permutation,
    build_ht,
    build_tt,
    enumerate_plane_trees,
    enumerate_shapes,
    heights,
    leaves_of_mask,
    mask_from_leaves,
    mask_lca,
    maximal_desc_vertices,
    parse_tree,
)


# ---------------------------------------------------------------------------
# parsing and serialization

def test_parse_two_leaf():
    t = parse_tree("(..)")
    assert t.n == 2 and t.size == 3
    assert t.text == str(t) == "(..)"


def test_parse_named_trees():
    assert parse_tree("((..)(..))") == build_ht(2)
    assert parse_tree("(((..).).)") == build_tt(4)


@pytest.mark.parametrize("text", ["(..)", "((..)(..))", "(((..).).)",
                                  "((.(..))(.(..)))", "(.((..)(..)))"])
def test_round_trip(text):
    assert parse_tree(text).text == text


@pytest.mark.parametrize("bad", ["", "  ", "(.)", "(...)", "((..)", "(..))",
                                 "(..)x", "()", "..", "(,.)"])
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_tree(bad)


@pytest.mark.parametrize("bad, message", [
    ("(.)", "node at position 0 has only one child"),
    ("(...)", "node at position 0 has more than two children or is unclosed"),
    ("((..)", "unbalanced tree string: unexpected end of input"),
    ("(..))", "trailing characters after position 4: ')'"),
    ("(..)x", "trailing characters after position 4: 'x'"),
    ("()", "node at position 0 has no children"),
    ("..", "trailing characters after position 1: '.'"),
    ("(,.)", "unexpected character ',' at position 1"),
    (")", "unexpected character ')' at position 0"),
    ("(..(..)", "node at position 0 has more than two children or is unclosed"),
    ("(..)" + "x" * 21, "trailing characters after position 4: "
                        "'xxxxxxxxxxxxxxxxxxxx'... (21 characters)"),
])
def test_parse_error_messages(bad, message):
    with pytest.raises(ValueError) as exc:
        parse_tree(bad)
    assert str(exc.value) == message


def test_parse_stops_at_leaf_cap():
    comb = "(" * 31 + "." + ".)" * 31
    assert parse_tree(comb) == build_tt(32)
    for n in (33, 2000):
        with pytest.raises(ValueError) as exc:
            parse_tree("(" * (n - 1) + "." + ".)" * (n - 1))
        assert str(exc.value) == f"trees are limited to 32 leaves, got {n}"
    with pytest.raises(ValueError) as exc:
        parse_tree("(" * 100000 + ".")
    assert "\n" not in str(exc.value) and "32 leaves" in str(exc.value)
    for k in (6, 10 ** 10):
        with pytest.raises(ValueError, match=f"depth must be in 1..5, got {k}"):
            build_ht(k)


def test_vertex_ids_are_string_positions():
    for t in enumerate_plane_trees(6):
        chars = [c for c in t.text if c != ")"]
        assert len(chars) == t.size
        assert all((c == ".") == t.is_leaf(v) for v, c in enumerate(chars))


def test_mirror_and_shape_key():
    shapes = {t.text for n in range(2, 8) for t in enumerate_shapes(n)}
    for n in range(2, 8):
        for t in enumerate_plane_trees(n):
            m = mirror(t)
            assert mirror(m) == t
            assert [m.labels[v] for v in m.leaves] == [
                t.labels[v].translate(str.maketrans("01", "10")) for v in reversed(t.leaves)]
            assert shape_key(t) == shape_key(m) and shape_key(t) in shapes
    for t in enumerate_shapes(7):
        assert shape_key(t) == t.text


def test_structure_invariants():
    for t in enumerate_plane_trees(6):
        assert t.size == 2 * t.n - 1
        assert len(t.internal) == t.n - 1
        assert sum(1 for v in range(t.size) if t.is_leaf(v)) == t.n
        for v in range(1, t.size):
            assert t.parent[v] >= 0
        # leaf numbering is the lexicographic order of path labels
        labs = [t.labels[v] for v in t.leaves]
        assert labs == sorted(labs)


# ---------------------------------------------------------------------------
# canonical families

def test_build_ht():
    t = build_ht(2)
    assert t.n == 4 and t.size == 7
    assert build_ht(1).text == "(..)"
    t3 = build_ht(3)
    assert [t3.labels[v] for v in t3.leaves] == [
        format(i, "03b") for i in range(8)]
    with pytest.raises(ValueError):
        build_ht(0)


def test_build_tt():
    assert build_tt(2).text == "(..)"
    assert build_tt(4).text == "(((..).).)"
    t = build_tt(6)
    for w in t.internal:
        assert t.is_leaf(t.right[w]) or w == t.internal[-1]
    with pytest.raises(ValueError):
        build_tt(1)


def test_tt_descendant_sets_are_prefixes():
    t = build_tt(8)
    descs = {t.desc_masks[w] for w in t.internal}
    assert descs == {mask_from_leaves(range(1, l + 1)) for l in range(2, 9)}


# ---------------------------------------------------------------------------
# shape enumeration

def test_shape_counts_match_recurrence():
    expected = [1, 1, 2, 3, 6, 11, 23, 46, 98]
    for n, want in zip(range(2, 11), expected):
        shapes = enumerate_shapes(n)
        assert len(shapes) == want
        assert len(shapes) == wedderburn_etherington(n)


def test_shapes_are_canonical_and_sorted():
    for n in (4, 6, 8):
        shapes = enumerate_shapes(n)
        texts = [t.text for t in shapes]
        assert texts == sorted(texts)
        assert len(set(texts)) == len(texts)
        for t in shapes:
            assert shape_key(t) == t.text
            assert shape_key(mirror(t)) == t.text


def test_shapes_n4():
    assert {t.text for t in enumerate_shapes(4)} == {"((..)(..))", "(((..).).)"}
    assert len(enumerate_shapes(3)) == 1


def test_enumerate_range_checks():
    with pytest.raises(ValueError):
        enumerate_shapes(1)
    with pytest.raises(ValueError):
        enumerate_shapes(17)


def test_plane_tree_counts_are_catalan():
    import math
    for n in range(2, 9):
        cat = math.comb(2 * (n - 1), n - 1) // n
        assert len(enumerate_plane_trees(n)) == cat


# ---------------------------------------------------------------------------
# doad sets (the conftest listing the oracles read)

def test_doad_family_two_leaf():
    assert doad_sets(parse_tree("(..)")).keys() == {0b01, 0b10, 0b11}


def test_doad_family_ht2_by_hand():
    # all 7 descendant sets plus the 4 co-singletons; nothing else
    doads = doad_sets(build_ht(2))
    expected = {mask_from_leaves(s) for s in
                [(1,), (2,), (3,), (4,), (1, 2), (3, 4), (1, 2, 3, 4),
                 (2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3)]}
    assert doads.keys() == expected
    # {1,2} = d("0") = a("1"): both names, in preorder
    assert doads[0b0011] == ((1, "desc"), (4, "anti"))


def test_doad_family_tt4():
    # every leaf is a vertex, so all singletons and co-singletons are doad
    doads = doad_sets(build_tt(4))
    expected = {mask_from_leaves(s) for s in
                [(1,), (2,), (3,), (4,), (1, 2), (1, 2, 3), (1, 2, 3, 4),
                 (3, 4), (2, 3, 4), (1, 3, 4), (1, 2, 4)]}
    assert doads.keys() == expected


def test_doad_family_invariants():
    for t in enumerate_shapes(6):
        doads = doad_sets(t)
        full = t.full_mask
        assert list(doads) == sorted(doads)
        assert len(doads) <= 2 * t.size
        for leaf in range(1, t.n + 1):
            assert mask_from_leaves([leaf]) in doads
        for m, names in doads.items():
            assert m != 0
            assert (full ^ m) in doads or m == full
            assert all((t.desc_masks[v] if kind == "desc" else t.anti_mask(v)) == m
                       for v, kind in names)
        for v in range(t.size):
            assert t.desc_masks[v] | t.anti_mask(v) == full
            assert t.desc_masks[v] & t.anti_mask(v) == 0


def test_descendant_sets_are_laminar():
    for t in enumerate_shapes(7):
        masks = t.desc_masks
        for a, b in itertools.combinations(masks, 2):
            inter = a & b
            assert inter == 0 or inter == a or inter == b


# ---------------------------------------------------------------------------
# heights

def _leaf_at(label: str) -> str:
    """A tree with a leaf at path `label`, every other subtree a leaf."""
    if not label:
        return "."
    inner = _leaf_at(label[1:])
    return "(" + inner + ".)" if label[0] == "0" else "(." + inner + ")"


def test_label_heights():
    # h counts the 1s before the final 0 of a leaf label, h* the 0s before the final 1
    for label, want_h, want_hs in [("110", 2, 0), ("01", 0, 1), ("111", 0, 0),
                                   ("001", 0, 2), ("000", 0, 0), ("1010", 2, 1)]:
        t = parse_tree(_leaf_at(label))
        leaf = t.leaf_number(t.labels.index(label))
        h, hs = heights(t)
        assert (h[leaf - 1], hs[leaf - 1]) == (want_h, want_hs), label
    assert heights(parse_tree(".")) == ((0,), (0,))


def test_heights_fixture():
    h, _ = heights(parse_tree(EX_LABEL))
    assert h == (0, 1, 0, 1, 2, 0)


def test_heights_ht2():
    h, hs = heights(build_ht(2))
    assert h == (0, 0, 1, 0)
    assert hs == (0, 1, 0, 0)


def test_heights_tt():
    for n in (4, 6, 9):
        h, hs = heights(build_tt(n))
        assert h == (0,) * n
        assert hs == (0,) + tuple(n - l for l in range(2, n + 1))


def test_mirror_swaps_heights():
    for t in enumerate_plane_trees(6):
        h, hs = heights(t)
        mh, mhs = heights(mirror(t))
        assert mh == tuple(reversed(hs))
        assert mhs == tuple(reversed(h))


# ---------------------------------------------------------------------------
# poset queries

def test_lca_examples():
    t = build_ht(2)
    assert mask_lca(t, 0b0011) == t.labels.index("0")
    assert mask_lca(t, t.full_mask) == t.root
    assert mask_lca(t, 0b0100) == t.leaves[2]


def test_maxima_example():
    # leaves other than leaf 1: the sibling leaf and the whole right subtree
    t = build_ht(2)
    assert maximal_desc_vertices(t, 0b1110) == [t.leaves[1], t.labels.index("1")]
    assert maximal_desc_vertices(t, t.full_mask) == [t.root]


def _lca(t, vs):
    """Lowest common ancestor of vertices: the longest common label prefix."""
    labels = [t.labels[v] for v in vs]
    lo, hi = min(labels), max(labels)
    i = 0
    while i < len(lo) and lo[i] == hi[i]:
        i += 1
    return t.labels.index(lo[:i])


def _maxima(t, vs):
    """The vertices in vs with no strict ancestor (label prefix) in vs."""
    labset = {t.labels[v] for v in vs}
    return {t.labels.index(lab) for lab in labset
            if not any(lab[:k] in labset for k in range(len(lab)))}


def test_mask_queries_match_vertex_queries():
    for n in range(2, 7):
        for t in enumerate_shapes(n):
            dm = t.desc_masks
            for mask in range(1, t.full_mask + 1):
                leaves = [t.leaves[l - 1] for l in leaves_of_mask(mask)]
                assert mask_lca(t, mask) == _lca(t, leaves)
                inside = [v for v in range(t.size) if not dm[v] & ~mask]
                got = maximal_desc_vertices(t, mask)
                assert got == sorted(got)   # preorder
                assert set(got) == _maxima(t, inside)


# ---------------------------------------------------------------------------
# permutations

def test_permutation_parsing():
    p = Permutation.from_text("3142", 4)
    assert p.perm == (3, 1, 4, 2)
    assert Permutation.from_text("3,1,4,2", 4) == p
    assert Permutation.from_text("id", 4) == Permutation.identity(4)
    assert p.one_line() == "3142"
    with pytest.raises(ValueError):
        Permutation.from_text("1123", 4)
    with pytest.raises(ValueError):
        Permutation.from_text("312", 4)


def test_permutation_entries_must_be_integral():
    want = Permutation([2, 1, 3])
    for seq in ([2, 1, 3], (2.0, 1.0, 3.0), np.array([2, 1, 3], dtype=np.int8), ["2", "1", "3"]):
        assert Permutation(seq) == want
    # a fraction is an error, not an entry truncated to the identity
    for bad in ([1.5, 2, 3, 4], [1, 2, 3.25], [1, float("inf")], [float("nan"), 1]):
        with pytest.raises(ValueError, match="permutation entry must be an integer"):
            Permutation(bad)


def test_permutation_algebra():
    p = Permutation([2, 3, 1])
    assert p.perm[0] == 2
    assert compose(inverse(p), p) == Permutation.identity(3)
    assert compose(p, inverse(p)) == Permutation.identity(3)


def test_pullback():
    p = Permutation([2, 3, 1])
    # leaf l lands in the preimage iff p(l) is in the set
    assert p.pullback(mask_from_leaves([2])) == mask_from_leaves([1])
    assert p.pullback(mask_from_leaves([2, 3])) == mask_from_leaves([1, 2])
    assert Permutation.identity(3).pullback(0b101) == 0b101


def test_mask_helpers():
    assert build_tt(4).full_mask == 0b1111
    assert mask_from_leaves([1, 3]) == 0b101
    assert leaves_of_mask(0b101) == (1, 3)
    assert leaves_of_mask(0) == ()
    with pytest.raises(ValueError, match="leaf mask must be >= 0, got -2"):
        leaves_of_mask(-2)


def test_mask_from_leaves_rejects_leaves_outside_the_cap():
    assert mask_from_leaves([1, 32]) == 1 | 1 << 31
    for leaf in (0, -1, 33, 40):
        with pytest.raises(ValueError, match=f"leaf must be in 1..32, got {leaf}"):
            mask_from_leaves([2, leaf])


# ---------------------------------------------------------------------------
# parser pins: sha256 over the structure of 2,556 trees and over the parse
# outcome of every short string, so a rewrite of the parser keeps both

def _structure(t) -> str:
    return repr((t.text, t.n, t.parent, t.left, t.right, t.labels, t.leaves, t.desc_masks,
                 tuple(t.leaf_number(v) for v in range(t.size)), t.internal))


def _pinned_trees():
    """The one-leaf tree, every plane tree on 2..9 leaves and 500 seeded
    random trees on 10..32 leaves."""
    rng = random.Random(25)

    def text(k: int) -> str:
        if k == 1:
            return "."
        a = rng.randint(1, k - 1)
        return "(" + text(a) + text(k - a) + ")"

    yield parse_tree(".")
    for n in range(2, 10):
        yield from enumerate_plane_trees(n)
    for _ in range(500):
        yield parse_tree(text(rng.randint(10, 32)))


def test_tree_structure_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for t in _pinned_trees():
        digest.update(_structure(t).encode() + b"\n")
        count += 1
    assert count == 2556
    assert digest.hexdigest() == "6f2aa9816f4a32e99a2d6cd59e23232f2fab88a626f3a47ef0a7bd1ed49426f2"


def test_parse_outcomes_are_pinned():
    # the arrays or the error text of every string of length <= 8 over "(.)x"
    digest = hashlib.sha256()
    count = 0
    for k in range(9):
        for chars in itertools.product("(.)x", repeat=k):
            try:
                outcome = _structure(parse_tree("".join(chars)))
            except ValueError as exc:
                outcome = f"error: {exc}"
            digest.update(outcome.encode() + b"\n")
            count += 1
    assert count == 87381
    assert digest.hexdigest() == "e9b0188e7bd86458a4c815e4b0360be90397cbc819042dc3e630a442a5072b15"
