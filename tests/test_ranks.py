import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import EIGHT_LEAVES, int_matmul_mod
from tnexp import ranks
from tnexp.bounds import poset_bound
from tnexp.covers import cover_exponent
from tnexp.ranks import (
    PRIME,
    TRIALS_CAP,
    NetworkSpec,
    empirical_exponent,
    flattening_rank,
    mat_rank,
    rank_profile,
    sample_tensor,
    trial_seeds,
)
from tnexp.trees import (
    Permutation,
    build_ht,
    build_tt,
    enumerate_plane_trees,
    enumerate_shapes,
    parse_tree,
)


# ---------------------------------------------------------------------------
# modular rank

def test_mat_rank_basics():
    assert mat_rank(np.eye(4, dtype=np.int64)) == 4
    assert mat_rank(np.zeros((3, 5), dtype=np.int64)) == 0
    assert mat_rank(np.array([[1, 2], [2, 4], [3, 6]])) == 1
    assert mat_rank(np.array([[PRIME, 1], [0, 1]])) == 1  # PRIME == 0 mod PRIME


def test_mat_rank_matches_float_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.integers(0, 7, size=(rows, cols))
        assert mat_rank(m) == np.linalg.matrix_rank(m.astype(float))


def test_mat_rank_products_have_bounded_rank():
    rng = np.random.default_rng(1)
    for k in (1, 2, 3):
        a = rng.integers(0, PRIME, size=(6, k), dtype=np.int64)
        b = rng.integers(0, PRIME, size=(k, 8), dtype=np.int64)
        prod = np.zeros((6, 8), dtype=np.int64)
        for i in range(6):
            for j in range(8):
                prod[i, j] = sum(int(a[i, c]) * int(b[c, j]) for c in range(k)) % PRIME
        assert mat_rank(prod) == k


# ---------------------------------------------------------------------------
# sampling

def test_matrix_network_rank_bounded():
    two = parse_tree("(..)")
    spec = NetworkSpec.create(two, leaf_dims=3, f=1, r=2)
    for seed in range(5):
        t = sample_tensor(spec, seed)
        assert flattening_rank(t, 0b01) == 2
        assert t.subspace_dims == (2, 2, 2)


def test_decomposable_locus():
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=1, r=1)
    t = sample_tensor(spec, 3)
    for mask in range(1, t.spec.tree.full_mask):
        assert flattening_rank(t, mask) == 1


def test_generic_full_tensor_has_full_rank_splits():
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=4, r=4)
    t = sample_tensor(spec, 5)
    n = 4
    for mask in range(1, (1 << n) - 1):
        rows = 2 ** bin(mask).count("1")
        assert flattening_rank(t, mask) == min(rows, 2 ** n // rows)


def test_tt4_defining_ranks():
    spec = NetworkSpec.create(build_tt(4), leaf_dims=2, f=1, r=2)
    tree = spec.tree
    for seed in range(3):
        t = sample_tensor(spec, seed)
        for v in range(1, tree.size):
            assert flattening_rank(t, tree.desc_masks[v]) <= 2


def test_sampling_is_deterministic():
    spec = NetworkSpec.create(parse_tree(EIGHT_LEAVES), leaf_dims=2, f=1, r=2)
    a = sample_tensor(spec, 42)
    b = sample_tensor(spec, 42)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = sample_tensor(spec, 43)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_full_rank_draw_is_retried_once(monkeypatch):
    # a deficient draw (probability < 2**-60) is drawn again, once
    rng = np.random.default_rng(0)
    drawn = iter([1, 2])   # the ranks mat_rank reports, draw by draw
    monkeypatch.setattr(ranks, "mat_rank", lambda a: next(drawn))
    mat, resamples = ranks._random_full_rank(rng, 2, 3)
    assert resamples == 1 and mat.shape == (2, 3) and next(drawn, None) is None
    monkeypatch.setattr(ranks, "mat_rank", lambda a: a.shape[0] - 1)
    with pytest.raises(RuntimeError, match="two rank-deficient draws for a 2x3 matrix"):
        ranks._random_full_rank(rng, 2, 3)


def test_transpose_rank_identity():
    spec = NetworkSpec.create(parse_tree("(.((..)(..)))"), leaf_dims=2, f=1, r=2)
    t = sample_tensor(spec, 9)
    full = spec.tree.full_mask
    for mask in range(1, full):
        assert flattening_rank(t, mask) == flattening_rank(t, full ^ mask)


def test_spec_validation():
    two = parse_tree("(..)")
    with pytest.raises(ValueError):
        NetworkSpec.create(two, leaf_dims=0)
    with pytest.raises(ValueError):
        NetworkSpec.create(two, f=0)
    with pytest.raises(ValueError):
        NetworkSpec.create(two, r=0)
    with pytest.raises(ValueError):
        NetworkSpec.create(two, leaf_dims=(2, 2, 2))
    big = NetworkSpec.create(build_tt(24), leaf_dims=2, f=1, r=1)
    with pytest.raises(ValueError):
        sample_tensor(big, 0)


def test_spec_scale_must_be_integral():
    tt4 = build_tt(4)
    for r in (2, 2.0, np.int8(2)):
        spec = NetworkSpec.create(tt4, r=r)
        assert spec.r == 2 and type(spec.r) is int
    for bad in (2.5, float("inf"), "2"):
        with pytest.raises(ValueError, match="scale r must be an integer"):
            NetworkSpec.create(tt4, r=bad)


def test_spec_leaf_dims_must_be_integral():
    tt4 = build_tt(4)
    for dims in (2, 2.0, np.int64(2), (2, 2.0, np.int8(2), 2)):
        assert NetworkSpec.create(tt4, leaf_dims=dims).leaf_dims == (2, 2, 2, 2)
    for bad in ((2.5, 2, 2, 2), 2.5, float("nan")):
        with pytest.raises(ValueError, match="leaf dimension must be an integer"):
            NetworkSpec.create(tt4, leaf_dims=bad)


def test_profile_exponent_must_be_integral():
    tensor = sample_tensor(NetworkSpec.create(build_tt(4), r=2), 0)
    want = rank_profile(tensor, build_ht(2), exponent=2)
    assert rank_profile(tensor, build_ht(2), exponent=np.int32(2)) == want
    assert rank_profile(tensor, build_ht(2), exponent=2.0) == want
    for bad in (1.5, float("inf")):
        with pytest.raises(ValueError, match="exponent must be an integer"):
            rank_profile(tensor, build_ht(2), exponent=bad)


def test_flattening_rejects_trivial_splits():
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=1, r=2)
    t = sample_tensor(spec, 0)
    with pytest.raises(ValueError):
        flattening_rank(t, 0)
    with pytest.raises(ValueError):
        flattening_rank(t, t.spec.tree.full_mask)
    # a negative mask never shifts down to 0, and bits past leaf n index no leaf
    for mask in (-2, -1, 1 << 4, 0b10011):
        with pytest.raises(ValueError, match="nonempty proper leaf subset"):
            flattening_rank(t, mask)


# ---------------------------------------------------------------------------
# profiles against combinatorial bounds

def test_profile_ht2_into_tt4():
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=1, r=2)
    bound = cover_exponent(build_ht(2), build_tt(4)).cover_bound
    assert bound == 1
    for seed in range(10):
        prof = rank_profile(sample_tensor(spec, seed), build_tt(4), exponent=bound)
        assert prof.ok
        assert all(rank <= 2 for (_, _, rank, _, _) in prof.entries)


def test_profile_self_probe():
    for text in ("((..)(..))", "(((..).).)", "(.((..)(..)))"):
        t = parse_tree(text)
        spec = NetworkSpec.create(t, leaf_dims=2, f=1, r=2)
        prof = rank_profile(sample_tensor(spec, 7), t, exponent=1)
        assert prof.ok


def test_profile_serializes():
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=1, r=2)
    prof = rank_profile(sample_tensor(spec, 0), build_tt(4), exponent=1)
    d = prof.to_dict()
    assert d["ok"] is True
    assert len(d["splits"]) == len(prof.entries)


# ---------------------------------------------------------------------------
# empirical exponents

def test_empirical_ht2_tt4():
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=1, r=2)
    rep = empirical_exponent(spec, build_tt(4), trials=10, seed=0)
    assert rep["max_exponent"] <= 1
    assert rep["trials"] == 10


def test_empirical_self_probe():
    t = parse_tree("((..)((..).))")
    spec = NetworkSpec.create(t, leaf_dims=2, f=1, r=2)
    rep = empirical_exponent(spec, t, trials=5, seed=1)
    assert rep["max_exponent"] <= 1


def test_empirical_eight_leaf_fixture_attains_poset_bound():
    # the poset bound 3 is attained generically here: the {1,2,3} split of
    # a generic sample fills its full 8-dimensional row space (8 = 2**3)
    t = parse_tree(EIGHT_LEAVES)
    tt8 = build_tt(8)
    assert poset_bound(t, tt8).value == 3
    spec = NetworkSpec.create(t, leaf_dims=2, f=1, r=2)
    rep = empirical_exponent(spec, tt8, trials=10, seed=0)
    flagged = rep["per_node_exponent"]["00000"]
    assert flagged == 3
    assert rep["per_node_rank"]["00000"] == 8
    assert rep["max_exponent"] <= cover_exponent(t, tt8).cover_bound


def test_empirical_rejects_r_one():
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=1, r=1)
    with pytest.raises(ValueError):
        empirical_exponent(spec, build_tt(4))


def test_empirical_reports_seeds():
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=1, r=2)
    a = empirical_exponent(spec, build_tt(4), trials=3, seed=5)
    b = empirical_exponent(spec, build_tt(4), trials=3, seed=5)
    assert a["trial_seeds"] == b["trial_seeds"]
    assert len(a["trial_seeds"]) == 3


@pytest.mark.parametrize("trials,seed", [(2.0, 1.0), (np.int64(2), np.int64(1))],
                         ids=["float", "numpy"])
def test_empirical_reports_the_integers_it_read(trials, seed):
    # the JSON text tells 2.0 from 2, which == does not
    spec = NetworkSpec.create(build_tt(4), r=2)
    want = empirical_exponent(spec, build_ht(2), trials=2, seed=1)
    got = empirical_exponent(spec, build_ht(2), trials=trials, seed=seed)
    assert json.dumps(got) == json.dumps(want)


def test_empirical_answers_are_pinned():
    # sha256 over 40 seeded reports: n = 4..8, plane trees, perms (every
    # fourth the default identity), dims and r in {2, 3}, f' entries in {1, 2}
    rng = np.random.default_rng(23)
    digest = hashlib.sha256()
    for k in range(40):
        n = 4 + k % 5
        trees = enumerate_plane_trees(n)
        t, probe = (trees[int(i)] for i in rng.integers(len(trees), size=2))
        perm = None if k % 4 == 0 else Permutation(rng.permutation(n) + 1)
        spec = NetworkSpec.create(t, leaf_dims=int(rng.integers(2, 4)), r=int(rng.integers(2, 4)))
        f_prime = [int(x) for x in rng.integers(1, 3, size=probe.size)]
        report = empirical_exponent(spec, probe, perm=perm, trials=2, seed=k, f_prime=f_prime)
        digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == "ee5008229be045ebd45981054c766d0b92a508e93f5712a3e24b1fc416e957e5"


# ---------------------------------------------------------------------------
# exactness of mat_rank against the plain elimination it replaced

def _reference_rank(a) -> int:
    """Full Gauss-Jordan elimination over every column, row-normalised."""
    m = np.array(a, dtype=np.int64) % PRIME
    if m.ndim != 2:
        raise ValueError("rank needs a 2-d array")
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivots = np.nonzero(m[r:, c])[0]
        if pivots.size == 0:
            continue
        p = r + int(pivots[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        inv = pow(int(m[r, c]), PRIME - 2, PRIME)
        m[r] = m[r] * inv % PRIME
        below = m[r + 1:, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            rows_nz = r + 1 + nz
            m[rows_nz] = (m[rows_nz] - np.outer(m[rows_nz, c], m[r])) % PRIME
        r += 1
    return r


def _low_rank(rng, rows, cols, rank):
    a = rng.integers(0, PRIME, size=(rows, rank), dtype=np.int64)
    b = rng.integers(0, PRIME, size=(rank, cols), dtype=np.int64)
    return int_matmul_mod(a, b)


def test_mat_rank_skinny_products_both_orientations():
    rng = np.random.default_rng(11)
    for rows, cols in ((2, 32768), (4, 16384), (16, 4096), (8, 1024), (64, 1024)):
        for rank in sorted({rows, rows - 1, rows // 2, 1}):
            m = _low_rank(rng, rows, cols, rank)
            for mat in (m, m.T):
                assert mat_rank(mat) == _reference_rank(mat) == rank


def test_mat_rank_edge_inputs():
    rng = np.random.default_rng(13)
    cases = [np.zeros((3, 40), dtype=np.int64), np.zeros((40, 3), dtype=np.int64),
             np.zeros((0, 5), dtype=np.int64), np.zeros((5, 0), dtype=np.int64),
             np.zeros((0, 0), dtype=np.int64)]
    big = _low_rank(rng, 6, 50, 3)
    cases += [big + PRIME, big - 2 * PRIME, (big + PRIME).T,
              rng.integers(-3 * PRIME, 3 * PRIME, size=(5, 30), dtype=np.int64),
              np.full((4, 4), PRIME, dtype=np.int64)]
    # every row but row 1 lies in a 3-dimensional space
    odd = _low_rank(rng, 64, 4, 3)
    odd[1] = rng.integers(0, PRIME, size=4)
    cases += [odd, odd.T]
    for mat in cases:
        assert mat_rank(mat) == _reference_rank(mat)
    assert mat_rank(big - 2 * PRIME) == 3
    assert mat_rank(odd) == mat_rank(odd.T) == 4
    with pytest.raises(ValueError):
        mat_rank(np.zeros(4, dtype=np.int64))


def test_mat_rank_across_panel_boundaries():
    # shapes around the panel width, in both orientations: rank reached
    # mid-panel, pivot-less columns (a whole panel of them) before and
    # between pivots, zero rows and entries congruent mod PRIME
    rng = np.random.default_rng(17)
    sizes = (1, 31, 32, 33, 64, 65, 257)
    for rows in sizes:
        for cols in sizes:
            small = min(rows, cols)
            for rank in sorted({0, 1, small // 2, small - 1, small, min(small, 40)}):
                m = _low_rank(rng, rows, cols, rank)
                cases = [m]
                if cols > 33:
                    gap = m.copy()
                    gap[:, :32] = 0                 # a whole pivot-less panel first
                    gap[:, 40:45] = 0
                    cases.append(gap)
                if rows > 2:
                    holes = m.copy()
                    holes[::3] = 0
                    cases.append(holes)
                for mat in cases:
                    want = _reference_rank(mat)
                    for same in (mat, mat.T, mat - PRIME, (mat + 2 * PRIME).T):
                        assert mat_rank(same) == want, (rows, cols, rank)


def test_matmul_mod_is_exact_at_the_float_limit():
    # every entry PRIME - 1 makes every partial sum as large as it can be
    # (rows past half the block size leave one column per block)
    top = PRIME - 1
    for inner in (1, 63, 64, 65, 128, 1000):
        for rows in (1, 3, 300) + ((ranks._OUT_BLOCK // 2 + 1,) if inner <= 65 else ()):
            width = max(1, ranks._OUT_BLOCK // max(rows, 2 * inner))
            for cols in (1, width, 2 * width + 1):
                got = ranks._matmul_mod(np.full((rows, inner), top, dtype=np.int64),
                                        np.full((inner, cols), top, dtype=np.int64))
                assert got.shape == (rows, cols) and (got == inner * top * top % PRIME).all()
    rng = np.random.default_rng(19)
    for rows, inner, cols in ((1, 1000, 1), (5, 65, 9), (9, 128, 5), (40, 64, 3000),
                              (3000, 63, 30), (2, 2, 70000)):
        a = rng.integers(0, PRIME, size=(rows, inner), dtype=np.int64)
        b = rng.integers(0, PRIME, size=(inner, cols), dtype=np.int64)
        want = np.array([[sum(int(x) * int(y) for x, y in zip(row, col)) % PRIME
                          for col in b.T[:4]] for row in a[:4]])
        got = ranks._matmul_mod(a, b)
        assert np.array_equal(got[:4, :4], want)
        assert np.array_equal(got, int_matmul_mod(a, b))


def test_mat_rank_every_flattening_of_small_networks():
    # mat_rank and the certified flattening_rank agree with plain
    # elimination, and the cut bound lies above it, at every split
    for n in range(2, 8):
        for t in enumerate_shapes(n):
            full = t.full_mask
            for d, r in ((2, 2), (3, 2), (2, 3)):
                tensor = sample_tensor(NetworkSpec.create(t, leaf_dims=d, r=r), n)
                for mask in range(1, full):
                    mat = ranks._flat_matrix(tensor, mask)
                    rank = _reference_rank(mat)
                    assert mat_rank(mat) == rank, (t.text, d, r, mask)
                    assert ranks._cut_bound(tensor, mask) >= rank, (t.text, d, r, mask)
                    assert flattening_rank(tensor, mask) == rank, (t.text, d, r, mask)


def test_cut_bound_is_the_cheapest_edge_cut():
    # tt:4 = (((1 2) 3) 4) at d = 4: dim U_v is 2 and 3 at leaves 1 and 2,
    # 5 at (1 2), 4 at leaves 3 and 4, 3 at ((1 2) 3)
    spec = NetworkSpec.create(build_tt(4), leaf_dims=4, f=(1, 3, 5, 2, 3, 4, 4), r=1)
    tensor = sample_tensor(spec, 0)
    for mask, bound in ((0b0001, 2),     # leaf 1's edge
                        (0b0011, 5),     # the edge above (1 2), not 2 * 3
                        (0b0101, 8),     # the edges of leaves 1 and 3
                        (0b0111, 3),     # the edge above ((1 2) 3)
                        (0b1000, 3)):    # the same edge, not leaf 4's 4
        assert ranks._cut_bound(tensor, mask) == bound
        assert ranks._cut_bound(tensor, tensor.spec.tree.full_mask ^ mask) == bound
        assert flattening_rank(tensor, mask) == bound


def test_stride_sub_blocks_certify_every_split(monkeypatch):
    # evenly spaced lines alias with the power-of-two mixed-radix index of
    # this network and missed rank u on 24 of its splits
    tensor = sample_tensor(NetworkSpec.create(build_ht(3), leaf_dims=4, r=4), 0)

    def refuse(*_):
        raise AssertionError("the whole flattening was built")

    monkeypatch.setattr(ranks, "_flat_matrix", refuse)
    for mask in range(1, tensor.spec.tree.full_mask):
        assert flattening_rank(tensor, mask) == ranks._cut_bound(tensor, mask)


def test_flattening_rank_falls_back_when_the_sub_block_is_deficient(monkeypatch):
    # a sum of two product states has rank <= 2 at every split, below most
    # cut bounds of an r = 4 network, so those sub-blocks cannot certify
    spec = NetworkSpec.create(build_tt(6), leaf_dims=2, r=4)
    rng = np.random.default_rng(14)
    state = np.zeros(spec.ambient_dim, dtype=np.int64)
    for _ in range(2):
        product = np.ones(1, dtype=np.int64)
        for _ in range(6):
            product = np.kron(product, rng.integers(0, PRIME, size=2)) % PRIME
        state = (state + product) % PRIME
    tensor = dataclasses.replace(sample_tensor(spec, 0), coeffs=state)
    shapes = []
    real = ranks.mat_rank

    def recording(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(ranks, "mat_rank", recording)
    fell_back = 0
    for mask in range(1, tensor.spec.tree.full_mask):
        flat = ranks._flat_matrix(tensor, mask)
        shapes.clear()
        rank = flattening_rank(tensor, mask)
        assert rank == _reference_rank(flat) <= 2
        if rank < ranks._cut_bound(tensor, mask):
            assert len(shapes) == 3 and shapes[-2] == flat.shape == shapes[-1][::-1]
            fell_back += 1
        else:
            assert len(shapes) == 2
    assert fell_back > 40


# ---------------------------------------------------------------------------
# sampling without the Kronecker product

def _kron_sample(spec, seed):
    """The bottom-up sampler with explicit Kronecker bases."""
    t = spec.tree
    rng = np.random.Generator(np.random.PCG64(seed))
    bases, dims = {}, [0] * t.size
    for v in range(t.size - 1, -1, -1):
        if t.is_leaf(v):
            amb = spec.leaf_dims[t.leaf_number(v) - 1]
            k = min(spec.r * spec.f[v], amb)
            bases[v], _ = ranks._random_full_rank(rng, k, amb)
        else:
            bl, br = bases.pop(t.left[v]), bases.pop(t.right[v])
            amb = bl.shape[0] * br.shape[0]
            k = min(spec.r * spec.f[v], amb)
            coeff, _ = ranks._random_full_rank(rng, k, amb)
            bases[v] = int_matmul_mod(coeff, np.kron(bl, br) % PRIME)
        dims[v] = k
    vec, _ = ranks._random_full_rank(rng, 1, dims[t.root])
    return int_matmul_mod(vec, bases.pop(t.root))[0]


def test_sampling_matches_kronecker_reference():
    rng = np.random.default_rng(14)
    for seed in range(12):
        n = int(rng.integers(2, 8))
        shapes = enumerate_shapes(n)
        t = shapes[int(rng.integers(len(shapes)))]
        spec = NetworkSpec.create(t, leaf_dims=tuple(int(x) for x in rng.integers(1, 4, n)),
                                  f=tuple(int(x) for x in rng.integers(1, 3, t.size)),
                                  r=int(rng.integers(1, 4)))
        assert np.array_equal(sample_tensor(spec, seed).coeffs, _kron_sample(spec, seed))


def test_sampling_refuses_oversized_bases():
    # vertex {1,2}: a 20000 x 25921 basis, refused before it is drawn
    spec = NetworkSpec.create(build_tt(3), leaf_dims=161, f=1, r=20000)
    with pytest.raises(ValueError, match="20000 x 25921 matrix at vertex .* cap"):
        sample_tensor(spec, 0)
    # root: 40000 x 40000 coefficients against two 200-dimensional leaves
    t = build_tt(2)
    spec = NetworkSpec.create(t, leaf_dims=2048, r=1,
                              f=[40000 if v == t.root else 200 for v in range(t.size)])
    with pytest.raises(ValueError, match="40000 x 40000 matrix at vertex r "):
        sample_tensor(spec, 0)


def test_sampling_never_builds_the_root_basis():
    # a 5 x 3748096 root basis (18.7M entries) would be over 2**24; the
    # root's vector is folded into its 5 x 25 coefficients instead
    spec = NetworkSpec.create(build_tt(4), leaf_dims=44, r=5)
    tensor = sample_tensor(spec, 3)
    assert tensor.coeffs.shape == (44 ** 4,) and tensor.subspace_dims[spec.tree.root] == 5
    assert 0 <= tensor.coeffs.min() and tensor.coeffs.max() < PRIME
    for mask in (0b0001, 0b0011, 0b0111):
        assert flattening_rank(tensor, mask) == 5


# ---------------------------------------------------------------------------
# input validation and the transpose check

def test_weight_vectors_are_checked():
    spec = NetworkSpec.create(build_tt(7), leaf_dims=2, f=1, r=2)
    with pytest.raises(ValueError):
        empirical_exponent(spec, build_tt(7), trials=1, f_prime=(1, 1))
    for bad in (0, -1):
        with pytest.raises(ValueError):
            empirical_exponent(spec, build_tt(7), trials=1, f_prime=bad)
        with pytest.raises(ValueError):
            rank_profile(sample_tensor(spec, 0), build_tt(7), f_prime=bad)
    with pytest.raises(ValueError, match="need 13 positive dimension-vector entries"):
        NetworkSpec.create(build_tt(7), f=(1, 1))


def test_trial_seeds():
    assert trial_seeds(5, 3) == [int(s) for s in np.random.SeedSequence(5).generate_state(3)]
    for bad in (0, -2, TRIALS_CAP + 1):
        with pytest.raises(ValueError):
            trial_seeds(0, bad)
    spec = NetworkSpec.create(build_ht(2), leaf_dims=2, f=1, r=2)
    with pytest.raises(ValueError):
        empirical_exponent(spec, build_tt(4), trials=0)


def test_transpose_mismatch_raises_named_error(monkeypatch):
    # a fake rank that reads the orientation: rows of the flattening
    monkeypatch.setattr(ranks, "mat_rank", lambda a: np.asarray(a).shape[0])
    spec = NetworkSpec.create(build_tt(4), leaf_dims=2, f=1, r=2)
    with pytest.raises(ranks.RankMismatchError, match="transpose rank mismatch"):
        rank_profile(sample_tensor(spec, 0), build_tt(4))


def test_empirical_exponent_checks_transposes(monkeypatch):
    # the same orientation-reading fake rank, through the sampled trials
    monkeypatch.setattr(ranks, "mat_rank", lambda a: np.asarray(a).shape[0])
    spec = NetworkSpec.create(build_tt(4), leaf_dims=2, f=1, r=2)
    with pytest.raises(ranks.RankMismatchError, match="transpose rank mismatch"):
        empirical_exponent(spec, build_tt(4), trials=1)
