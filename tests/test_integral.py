"""Every count, seed and mask the library reads follows one rule,
trees.integral: a real of integral value in a range.  One table of entry
points, each called with one such value x."""

import math
import re

import numpy as np
import pytest

from tnexp.bounds import trivial_bound
from tnexp.covers import CoverCounter, check_trivial_containment
from tnexp.ranks import (TRIALS_CAP, NetworkSpec, flattening_rank, rank_profile, sample_tensor,
                         trial_seeds)
from tnexp.search import run_search
from tnexp.trees import (Permutation, build_ht, build_tt, enumerate_plane_trees,
                         enumerate_shapes, leaves_of_mask, mask_from_leaves, weight_vector)

TT4 = build_tt(4)
SPEC = NetworkSpec.create(TT4, r=2)
TENSOR = sample_tensor(SPEC, 0)


def _search(**kwargs):
    res = run_search(5, **kwargs)
    return res.perm_array.tolist(), res.digest("cover")


# (entry point, call on x, values outside its range, the message they raise)
ENTRIES = [
    ("weight_vector", lambda x: weight_vector(x, 3), [0], "must be >= 1, got {x}"),
    ("CoverCounter f", lambda x: CoverCounter(TT4, x).cover(0b0110), [0],
     "must be >= 1, got {x}"),
    ("check_trivial_containment f'", lambda x: check_trivial_containment(TT4, 1, TT4, x), [0],
     "must be >= 1, got {x}"),
    ("NetworkSpec f", lambda x: NetworkSpec.create(TT4, f=x), [0], "must be >= 1, got {x}"),
    ("NetworkSpec leaf_dims", lambda x: NetworkSpec.create(TT4, leaf_dims=x), [0],
     "must be >= 1, got {x}"),
    ("NetworkSpec r", lambda x: NetworkSpec.create(TT4, r=x), [0], "must be >= 1, got {x}"),
    ("rank_profile f'", lambda x: rank_profile(TENSOR, TT4, f_prime=x), [0],
     "must be >= 1, got {x}"),
    ("rank_profile exponent", lambda x: rank_profile(TENSOR, TT4, exponent=x), [-1, 33],
     "must be in 0..32, got {x}"),
    ("Permutation entry", lambda x: Permutation([1, x]), [0, 3],
     "not a permutation of 1..2: 2 is missing"),
    ("trial_seeds trials", lambda x: trial_seeds(0, x), [0, TRIALS_CAP + 1],
     "must be in 1..4096, got {x}"),
    ("trial_seeds seed", lambda x: trial_seeds(x, 2), [-1], "must be >= 0, got {x}"),
    ("sample_tensor seed", lambda x: sample_tensor(SPEC, x).coeffs.tolist(), [-1],
     "must be >= 0, got {x}"),
    ("run_search seed", lambda x: _search(sample_perms=5, seed=x), [-1],
     "must be >= 0, got {x}"),
    ("run_search sample_perms", lambda x: _search(sample_perms=x, seed=1), [0],
     "must be >= 1, got {x}"),
    ("build_ht", build_ht, [0, 6], "must be in 1..5, got {x}"),
    ("build_tt", build_tt, [1, 33], "must be in 2..32, got {x}"),
    ("enumerate_shapes", enumerate_shapes, [1, 17], "must be in 2..16, got {x}"),
    ("enumerate_plane_trees", enumerate_plane_trees, [1, 13], "must be in 2..12, got {x}"),
    ("trivial_bound", trivial_bound, [1], "must be >= 2, got {x}"),
    ("CoverCounter.cover mask", lambda x: CoverCounter(TT4).cover(x), [-1, 16],
     "must be in 0..15, got {x}"),
    ("flattening_rank mask", lambda x: flattening_rank(TENSOR, x), [0, 15],
     "must be in 1..14, got {x}"),
    ("leaves_of_mask", leaves_of_mask, [-1], "must be >= 0, got {x}"),
    ("mask_from_leaves", lambda x: mask_from_leaves([x]), [0, 33], "must be in 1..32, got {x}"),
]
IDS = [entry[0] for entry in ENTRIES]


@pytest.mark.parametrize("name,call,outside,message", ENTRIES, ids=IDS)
def test_integral_values_read_alike(name, call, outside, message):
    want = call(2)
    assert call(2.0) == want and call(np.int64(2)) == want


@pytest.mark.parametrize("name,call,outside,message", ENTRIES, ids=IDS)
def test_non_integers_are_refused(name, call, outside, message):
    # a ValueError, not a TypeError, a truncation or an answer
    for bad in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)


@pytest.mark.parametrize("name,call,outside,message", ENTRIES, ids=IDS)
def test_out_of_range_values_name_the_range(name, call, outside, message):
    for x in outside:
        with pytest.raises(ValueError, match=re.escape(message.format(x=x))):
            call(x)
