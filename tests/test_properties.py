"""Bounded property tests on random trees with at most 16 leaves.

Every test draws at most 50 examples with a fixed derivation seed
(derandomize), so the suite stays fast and repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bfs_cover_table, brute_product_table, compose, greedy_witness, inverse,
                      mirror)
from tnexp.covers import CoverCounter, build_cover_table, cover_exponent
from tnexp.ilp import build_ip, solve_ip
from tnexp.trees import Permutation, parse_tree

BOUNDED = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def trees(draw, min_leaves=1, max_leaves=12):
    """A random full binary plane tree: each internal node splits its leaves at random."""
    def build(k):
        if k == 1:
            return "."
        left = draw(st.integers(1, k - 1))
        return "(" + build(left) + build(k - left) + ")"
    return parse_tree(build(draw(st.integers(min_leaves, max_leaves))))


def perms(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


@BOUNDED
@given(trees())
def test_parse_round_trip(t):
    assert parse_tree(t.text) == t
    assert parse_tree(f"  {t.text}\n").text == t.text
    assert mirror(parse_tree(mirror(t).text)) == t


@BOUNDED
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(perms(n), perms(n),
                                                      st.integers(0, (1 << n) - 1))))
def test_compose_pulls_back_in_reverse_order(case):
    p, q, mask = case
    # (p after q) pulls back through p first, then q
    assert compose(p, q).pullback(mask) == q.pullback(p.pullback(mask))
    assert compose(p, inverse(p)).is_identity()
    assert inverse(p).pullback(p.pullback(mask)) == mask
    assert bin(p.pullback(mask)).count("1") == bin(mask).count("1")


@BOUNDED
@given(trees(min_leaves=2).flatmap(
    lambda t: st.tuples(st.just(t), trees(t.n, t.n), perms(t.n))))
def test_cover_bound_at_most_half_the_leaves(case):
    t, t_prime, perm = case
    # each node's cheaper side has at most n // 2 leaves, one singleton each
    assert 1 <= cover_exponent(t, t_prime, perm).cover_bound <= t.n // 2


@BOUNDED
@given(trees(max_leaves=10))
def test_counter_matches_bfs_table(t):
    table = bfs_cover_table(t)
    cover = CoverCounter(t).cover
    assert [len(cover(m)[1]) for m in range(1 << t.n)] == table.tolist()


@BOUNDED
@given(trees(max_leaves=10).flatmap(lambda t: st.tuples(
    st.just(t), st.lists(st.sampled_from((1, 1, 2, 3, 5)), min_size=t.size, max_size=t.size))))
def test_weighted_cover_matches_relaxation_oracle(case):
    t, f = case
    cover = CoverCounter(t, f).cover
    got = [cover(m) for m in range(t.full_mask)]   # every mask but the full set
    assert [(p, len(wit)) for p, wit in got] == brute_product_table(t, f)[:-1]


@BOUNDED
@given(trees(max_leaves=16).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(st.integers(0, t.full_mask), max_size=20))))
def test_witness_matches_greedy_oracle(case):
    t, masks = case
    table, counter = build_cover_table(t), CoverCounter(t)
    for mask in masks:
        assert counter.cover(mask)[1] == greedy_witness(t, table.item, mask)


@BOUNDED
@given(trees(max_leaves=14))
def test_table_matches_bfs_table(t):
    assert np.array_equal(build_cover_table(t), bfs_cover_table(t))


@BOUNDED
@given(trees().flatmap(lambda t: st.tuples(st.just(t), trees(t.n, t.n), perms(t.n))))
def test_ip_optimum_equals_cover_bound(case):
    t, t_prime, perm = case
    # the integer program and the closed-form cover numbers are independent routes
    assert solve_ip(build_ip(t, t_prime, perm)).objective == \
        cover_exponent(t, t_prime, perm).cover_bound
