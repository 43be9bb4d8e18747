"""Sampled network tensors over a prime field and exact flattening ranks.

A network tensor is built bottom-up along its tree: every leaf gets a
random subspace of its leaf space, every node a random subspace of the
tensor product of its children's subspaces, each of dimension at most
r * f(v), and the tensor is a random vector of the root subspace.  All
coefficients live in the prime field mod 2**31 - 1, so ranks are exact
integers -- no tolerance tuning -- while generic behavior over a field
this large matches the characteristic-zero picture.

The flattening of the sampled tensor along any leaf split is an exact
matrix rank computed by modular Gaussian elimination.  Comparing the
observed ranks at the nodes of a second (probe) tree against
r**c * f'(node) gives a one-sided empirical check of a claimed
containment exponent c: a violation disproves it, agreement is evidence
only.  Basis matrices are certified full-rank at sampling time; a
deficient draw (probability below dim/p) is resampled once and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trees import Permutation, Tree, instance_perm, leaves_of_mask

__all__ = [
    "PRIME",
    "NetworkSpec",
    "SampledTensor",
    "sample_tensor",
    "flattening_rank",
    "FlatteningProfile",
    "rank_profile",
    "empirical_exponent",
    "mat_rank",
]

PRIME = 2 ** 31 - 1
AMBIENT_CAP = 1 << 22       # total tensor entries
_MATMUL_SPLIT = 1 << 16     # contraction length cap for the split trick


# ---------------------------------------------------------------------------
# modular linear algebra

def _matmul_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b) mod PRIME without int64 overflow.

    Splits a into high/low 16-bit halves so every partial dot product of
    length up to 2**16 stays below 2**63.
    """
    if a.shape[-1] > _MATMUL_SPLIT:
        raise ValueError("contraction dimension too large for modular matmul")
    hi, lo = a >> 16, a & 0xFFFF
    return ((hi @ b % PRIME) * (1 << 16) + lo @ b) % PRIME


def mat_rank(a: np.ndarray) -> int:
    """Exact rank of an integer matrix over the field mod PRIME."""
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


def _random_full_rank(rng: np.random.Generator, dim: int, ambient: int):
    """Random dim x ambient matrix of full row rank; one retry on deficiency."""
    resamples = 0
    for _ in range(2):
        mat = rng.integers(0, PRIME, size=(dim, ambient), dtype=np.int64)
        if mat_rank(mat) == dim:
            return mat, resamples
        resamples += 1
    raise RuntimeError(
        f"two rank-deficient draws for a {dim}x{ambient} matrix; "
        "this has probability < 2**-60 per draw and indicates a broken RNG")


# ---------------------------------------------------------------------------
# network specification and sampling

@dataclass(frozen=True)
class NetworkSpec:
    """Tree, per-leaf dimensions, per-vertex dimension vector, scale r."""

    tree: Tree
    leaf_dims: tuple
    f: tuple
    r: int

    @classmethod
    def create(cls, tree: Tree, leaf_dims=2, f=1, r: int = 1) -> "NetworkSpec":
        if isinstance(leaf_dims, int):
            leaf_dims = (leaf_dims,) * tree.n
        else:
            leaf_dims = tuple(int(d) for d in leaf_dims)
        if len(leaf_dims) != tree.n or any(d < 1 for d in leaf_dims):
            raise ValueError(f"need {tree.n} positive leaf dimensions")
        if isinstance(f, int):
            f = (f,) * tree.size
        else:
            f = tuple(int(x) for x in f)
        if len(f) != tree.size or any(x < 1 for x in f):
            raise ValueError(f"need {tree.size} positive dimension-vector entries")
        if r < 1:
            raise ValueError("scale r must be >= 1")
        return cls(tree=tree, leaf_dims=leaf_dims, f=f, r=int(r))

    @property
    def ambient_dim(self) -> int:
        return math.prod(self.leaf_dims)


@dataclass(frozen=True)
class SampledTensor:
    """A sampled member of the scaled network's state variety.

    coeffs is the flat coefficient vector over the mixed-radix leaf
    index (leaf 1 slowest); subspace_dims records dim U_v per vertex.
    """

    spec: NetworkSpec
    seed: int
    coeffs: np.ndarray
    subspace_dims: tuple
    resamples: int


def sample_tensor(spec: NetworkSpec, seed: int) -> SampledTensor:
    """Draw one generic tensor of the scaled network, bottom-up.

    Every vertex subspace has dimension min(r * f_v, ambient), realized
    as a random full-rank coefficient matrix against the children's
    (Kronecker) basis; leaves draw directly inside their leaf space.
    """
    t = spec.tree
    if spec.ambient_dim > AMBIENT_CAP:
        raise ValueError(
            f"total dimension {spec.ambient_dim} exceeds the cap {AMBIENT_CAP}")
    rng = np.random.Generator(np.random.PCG64(seed))
    bases: dict[int, np.ndarray] = {}
    dims = [0] * t.size
    resamples = 0
    for v in range(t.size - 1, -1, -1):
        if t.is_leaf(v):
            amb = spec.leaf_dims[t.leaf_number(v) - 1]
            k = min(spec.r * spec.f[v], amb)
            basis, extra = _random_full_rank(rng, k, amb)
        else:
            bl, br = bases.pop(t.left[v]), bases.pop(t.right[v])
            amb = bl.shape[0] * br.shape[0]
            k = min(spec.r * spec.f[v], amb)
            coeff, extra = _random_full_rank(rng, k, amb)
            basis = _matmul_mod(coeff, np.kron(bl, br) % PRIME)
        bases[v] = basis
        dims[v] = k
        resamples += extra
    root_basis = bases.pop(t.root)
    vec, extra = _random_full_rank(rng, 1, dims[t.root])
    resamples += extra
    coeffs = _matmul_mod(vec, root_basis)[0]
    return SampledTensor(spec=spec, seed=seed, coeffs=coeffs,
                         subspace_dims=tuple(dims), resamples=resamples)


# ---------------------------------------------------------------------------
# flattening ranks

def _flat_matrix(tensor: SampledTensor, mask: int) -> np.ndarray:
    spec = tensor.spec
    n = spec.tree.n
    row_axes = [l - 1 for l in leaves_of_mask(mask)]
    col_axes = [i for i in range(n) if i not in set(row_axes)]
    cube = tensor.coeffs.reshape(spec.leaf_dims)
    flat = cube.transpose(row_axes + col_axes)
    rows = math.prod(spec.leaf_dims[i] for i in row_axes)
    return flat.reshape(rows, -1)


def flattening_rank(tensor: SampledTensor, mask: int) -> int:
    """Exact rank of the tensor reshaped along the split (mask | rest)."""
    full = tensor.spec.tree.full_mask
    if mask == 0 or mask == full:
        raise ValueError("flattening needs a nonempty proper leaf subset")
    return mat_rank(_flat_matrix(tensor, mask))


@dataclass(frozen=True)
class FlatteningProfile:
    """Observed ranks at every split of a probe tree, against r**c * f'."""

    tree: str
    probe: str
    perm: str
    seed: int
    exponent: int
    entries: tuple      # (label, leaves, rank, limit, ok)
    ok: bool

    def to_dict(self) -> dict:
        return {
            "tree": self.tree,
            "probe": self.probe,
            "perm": self.perm,
            "seed": self.seed,
            "exponent": self.exponent,
            "ok": self.ok,
            "splits": [
                {"node": lab, "leaves": list(ls), "rank": rk, "limit": lim, "ok": good}
                for (lab, ls, rk, lim, good) in self.entries
            ],
        }


def rank_profile(tensor: SampledTensor, probe: Tree,
                 perm: Optional[Permutation] = None, f_prime=1,
                 exponent: int = 1, check_transpose: bool = True) -> FlatteningProfile:
    """Rank every probe-node split of a sampled tensor.

    Each non-root vertex v' of the probe tree contributes the split at
    its pulled-back descendant set, compared against
    r**exponent * f'(v').  With check_transpose the complementary
    reshaping is ranked too and must agree.
    """
    spec = tensor.spec
    t = spec.tree
    if probe.n != t.n:
        raise ValueError(f"probe has {probe.n} leaves, tensor has {t.n}")
    perm = instance_perm(t, probe, perm)
    if isinstance(f_prime, int):
        fp = (f_prime,) * probe.size
    else:
        fp = tuple(int(x) for x in f_prime)
        if len(fp) != probe.size:
            raise ValueError(f"need {probe.size} probe dimension-vector entries")

    full = t.full_mask
    entries = []
    all_ok = True
    cache: dict[int, int] = {}
    for v in range(probe.size):
        if v == probe.root:
            continue
        mask = perm.pullback(probe.desc_masks[v])
        if mask in cache:
            rank = cache[mask]
        else:
            rank = flattening_rank(tensor, mask)
            if check_transpose:
                co_rank = flattening_rank(tensor, full ^ mask)
                if co_rank != rank:
                    raise AssertionError(
                        f"transpose rank mismatch at split {leaves_of_mask(mask)}: "
                        f"{rank} vs {co_rank}")
            cache[mask] = rank
            cache[full ^ mask] = rank
        limit = spec.r ** exponent * fp[v]
        good = rank <= limit
        all_ok = all_ok and good
        entries.append((probe.labels[v] or "r", leaves_of_mask(mask), rank, limit, good))
    return FlatteningProfile(tree=t.text, probe=probe.text, perm=perm.one_line(),
                             seed=tensor.seed, exponent=exponent,
                             entries=tuple(entries), ok=all_ok)


# ---------------------------------------------------------------------------
# empirical exponent estimation

def _needed_exponent(rank: int, r: int, f_val: int) -> int:
    e = 0
    bound = f_val
    while rank > bound:
        e += 1
        bound *= r
    return e


def empirical_exponent(spec: NetworkSpec, probe: Tree,
                       perm: Optional[Permutation] = None, trials: int = 10,
                       seed: int = 0, f_prime=1) -> dict:
    """Largest observed per-node exponent demand over sampled tensors.

    For each probe node the smallest e with rank <= r**e * f' is
    recorded and maximized over trials.  The result is one-sided: an
    observed rank above r**e * f' refutes exponent e at this r (every
    r-scaled state of an exponent-e containment has rank at most that),
    so every exponent below max_exponent is refuted at this r.  No finite
    sample proves the asymptotic lower bound, which is about all large
    r; agreement with an upper bound is evidence only.
    """
    if spec.r < 2:
        raise ValueError("empirical exponents need r >= 2 (logarithm base)")
    if perm is None:
        perm = Permutation.identity(spec.tree.n)
    if isinstance(f_prime, int):
        fp = (f_prime,) * probe.size
    else:
        fp = tuple(int(x) for x in f_prime)
    f_of = {probe.labels[v] or "r": fp[v] for v in range(probe.size)}
    trial_seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(trials)]
    per_node: dict[str, int] = {}
    per_node_rank: dict[str, int] = {}
    for ts in trial_seeds:
        tensor = sample_tensor(spec, ts)
        profile = rank_profile(tensor, probe, perm=perm, f_prime=fp,
                               exponent=1, check_transpose=False)
        for (lab, _, rank, _, _) in profile.entries:
            e = _needed_exponent(rank, spec.r, f_of[lab])
            per_node[lab] = max(per_node.get(lab, 0), e)
            per_node_rank[lab] = max(per_node_rank.get(lab, 0), rank)
    return {
        "tree": spec.tree.text,
        "probe": probe.text,
        "perm": perm.one_line(),
        "r": spec.r,
        "trials": trials,
        "seed": seed,
        "trial_seeds": trial_seeds,
        "max_exponent": max(per_node.values(), default=0),
        "per_node_exponent": dict(sorted(per_node.items())),
        "per_node_rank": dict(sorted(per_node_rank.items())),
    }
