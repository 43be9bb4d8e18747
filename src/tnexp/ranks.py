"""Sampled network tensors over a prime field and exact flattening ranks.

A network tensor is built bottom-up along its tree: every leaf gets a
random subspace of its leaf space, every node a random subspace of the
tensor product of its children's subspaces, each of dimension at most
r * f(v), and the tensor is a random vector of the root subspace.  All
coefficients live in the prime field mod 2**31 - 1, so ranks are exact
integers -- no tolerance tuning -- while generic behavior over a field
this large matches the characteristic-zero picture.

The flattening of the sampled tensor along a leaf split S | S^c has an
exact rank, bounded by T.  The tensor contracts one array per vertex (a
leaf's basis, d_v x dim U_v; a node's coefficients, dim U_v x dim U_left
x dim U_right; the root's folded vector) along T's edges, and edge
(v, parent v) has size dim U_v.  Put every vertex on a side, each leaf
on its own: contracting each side apart writes the flattening as A @ B
with an inner index over the edges whose ends differ, so its rank is at
most the product of their sizes.  `_cut_bound` finds the least such
product u in one bottom-up pass that keeps, per vertex, the cheapest
cost with the vertex on either side (a leaf on the far side cuts its own
leg, of size d_v).  `flattening_rank` first ranks a sub-block of at most
2u rows and 2u columns, line i of a side of size N being i * 2654435761
mod N (the stride is a prime above AMBIENT_CAP, so the lines are
distinct, and unlike evenly spaced lines they do not alias with the
power-of-two mixed-radix index).  rank(sub) <= rank <= u, so a sub-block
of rank u certifies the rank exactly, and only a deficient one leads to
ranking the whole flattening.  That is the one certificate.  `mat_rank`
eliminates in panels of 32 columns: each pivot updates only its panel,
and the block right of the panel takes one update by `_matmul_mod` per
panel, so it is reduced mod p once per panel, not once per pivot.
`_matmul_mod` is a float64 matrix product that stays exact, since it
splits entries into 15- and 16-bit halves and contracts in chunks of 64,
keeping every partial sum an integer below 2**53.  No probability
enters any answer; the choice of lines only decides how often the
fallback runs.  Comparing the observed ranks at the nodes of a second
(probe) tree against r**c * f'(node) gives a one-sided empirical check
of a claimed containment exponent c: a violation disproves it, agreement
is evidence only.  `flattening_rank` also ranks the transpose of the
matrix it ranked, and two different ranks raise RankMismatchError.
Basis matrices are certified full-rank at sampling time; a deficient
draw (probability below dim/p) is resampled once and counted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trees import (LEAF_CAP, Permutation, Tree, instance_perm, integral, leaves_of_mask,
                    weight_vector)

__all__ = [
    "PRIME",
    "NetworkSpec",
    "SampledTensor",
    "sample_tensor",
    "flattening_rank",
    "FlatteningProfile",
    "rank_profile",
    "empirical_exponent",
    "trial_seeds",
    "RankMismatchError",
    "mat_rank",
]

PRIME = 2 ** 31 - 1
AMBIENT_CAP = 1 << 22       # total tensor entries
BASIS_CAP = 1 << 28         # entries of the largest matrix one vertex builds
TRIALS_CAP = 1 << 12        # trials per run: verify-ranks keeps one profile per trial
_PANEL = 32                 # columns per panel of mat_rank
_DOT_CHUNK = 64             # terms per float64 partial sum of _matmul_mod
_OUT_BLOCK = 1 << 16        # output entries per column block of _matmul_mod


# ---------------------------------------------------------------------------
# modular linear algebra

def _matmul_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a @ b) mod PRIME for entries in 0..PRIME-1, exact through a float64 GEMM.

    a = hi * 2**16 + lo with hi < 2**15 and lo < 2**16, so a @ b is
    [hi lo] @ [2**16 * b mod PRIME; b] modulo PRIME.  That contraction
    goes in chunks of _DOT_CHUNK terms, so every partial sum is an
    integer below 64 * (2**16 - 1) * (2**31 - 2) < 2**53: exact in
    float64 in any BLAS summation order.  Output columns go in blocks of
    about _OUT_BLOCK entries, and every temporary but the split of a holds
    one block, so none is as large as a product of many blocks.
    """
    rows, inner = a.shape
    split = np.empty((rows, inner, 2))      # hi and lo of each entry side by side
    np.right_shift(a, 16, out=split[..., 0], casting="unsafe")
    np.bitwise_and(a, 0xFFFF, out=split[..., 1], casting="unsafe")
    split = split.reshape(rows, 2 * inner)
    out = np.zeros((rows, b.shape[1]), dtype=np.int64)
    width = max(1, _OUT_BLOCK // max(rows, 2 * inner))
    for j in range(0, b.shape[1], width):
        block = b[:, j:j + width]
        pair = np.empty((inner, 2, block.shape[1]))
        pair[:, 0] = (block << 16) % PRIME
        pair[:, 1] = block
        pair = pair.reshape(2 * inner, -1)
        acc = out[:, j:j + width]
        for i in range(0, 2 * inner, _DOT_CHUNK):
            part = (split[:, i:i + _DOT_CHUNK] @ pair[i:i + _DOT_CHUNK]).astype(np.int64)
            part %= PRIME
            acc += part
        if 2 * inner > _DOT_CHUNK:
            acc %= PRIME
    return out


def mat_rank(a: np.ndarray) -> int:
    """Exact rank of an integer matrix over the field mod PRIME, by panel elimination.

    Columns go in panels of _PANEL.  Inside a panel each pivot row,
    scaled by the pivot inverse, is subtracted from the rows below on the
    panel's columns only; the multiples subtracted stay in place in the
    pivot columns (L).  After the panel the pivot rows' part right of it
    is forward-substituted through L D^-1 (D the pivots) to U, and the
    block below takes one update A22 - L21 D^-1 U (mod PRIME) by
    `_matmul_mod`, so it is reduced once per panel, not once per pivot.
    Stops once every row holds a pivot or the remaining block is zero.
    """
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2:
        raise ValueError("rank needs a 2-d array")
    m = np.remainder(m, PRIME, order="C")    # row order even for a transposed view
    rows, cols = m.shape
    r = c = 0
    while r < rows and c < cols:
        top, end, piv, invs = r, min(c + _PANEL, cols), [], []
        while r < rows and c < end:
            if not m[r, c]:
                nz = np.flatnonzero(m[r:, c])
                if nz.size == 0:
                    # before the panel's first pivot every column right of c is current
                    live = np.flatnonzero(m[r:, c:end if piv else cols].any(axis=0))
                    if live.size == 0:
                        if not piv:
                            return r
                        break
                    c += int(live[0])
                    if not piv:
                        end = min(c + _PANEL, cols)
                    continue
                p = r + int(nz[0])
                first = piv[0] if piv else c
                m[[r, p], first:] = m[[p, r], first:]
            inv = pow(int(m[r, c]), -1, PRIME)
            if r + 1 < rows and c + 1 < end:
                row = m[r, c + 1:end] * inv % PRIME
                block = m[r + 1:, c + 1:end]
                block -= m[r + 1:, c, None] * row
                block %= PRIME
            piv.append(c)
            invs.append(inv)
            r += 1
            c += 1
        if r < rows and end < cols:
            k = r - top
            lower = m[top:, piv] * np.array(invs)     # L, times the pivot inverses
            lower %= PRIME
            u = m[top:r, end:]
            for j in range(k - 1):
                u[j + 1:] -= lower[j + 1:k, j, None] * u[j]
                u[j + 1:] %= PRIME
            trail = m[r:, end:]
            trail -= _matmul_mod(lower[k:], u)
            trail %= PRIME
        c = end
    return r


def _times_kron(coeff: np.ndarray, bl: np.ndarray, br: np.ndarray) -> np.ndarray:
    """coeff @ kron(bl, br) mod PRIME, contracting with br, then bl."""
    k = coeff.shape[0]
    (kl, al), (kr, ar) = bl.shape, br.shape
    half = _matmul_mod(coeff.reshape(k * kl, kr), br)
    half = half.reshape(k, kl, ar).transpose(0, 2, 1).reshape(k * ar, kl)
    out = _matmul_mod(half, bl).reshape(k, ar, al).transpose(0, 2, 1)
    return out.reshape(k, al * ar)


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
        if isinstance(leaf_dims, numbers.Real):
            leaf_dims = (leaf_dims,) * tree.n
        leaf_dims = tuple(integral(d, "leaf dimension") for d in leaf_dims)
        if len(leaf_dims) != tree.n or any(d < 1 for d in leaf_dims):
            raise ValueError(f"need {tree.n} positive leaf dimensions")
        f = weight_vector(tree, f, "dimension-vector")
        r = integral(r, "scale r")
        if r < 1:
            raise ValueError("scale r must be >= 1")
        return cls(tree=tree, leaf_dims=leaf_dims, f=f, r=r)

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
    (Kronecker) basis, which is never formed; leaves draw directly
    inside their leaf space.  The root's random vector is folded into
    its coefficients first, so the root basis is never built either.

    BASIS_CAP bounds the largest matrix of each vertex before it is
    drawn: the dim U_v x leaf-space basis, or at the root the dim U_v x
    ambient coefficients.  An explicit Kronecker basis has at least as
    many entries as either, so a spec over the cap would need a 2 GiB
    int64 array that way too.
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
            children = ()
            space = amb = spec.leaf_dims[t.leaf_number(v) - 1]
        else:
            children = bl, br = bases.pop(t.left[v]), bases.pop(t.right[v])
            amb, space = bl.shape[0] * br.shape[0], bl.shape[1] * br.shape[1]
        k = min(spec.r * spec.f[v], amb)
        held = amb if v == t.root else space
        if k * held > BASIS_CAP:
            raise ValueError(
                f"a {k} x {held} matrix at vertex {t.node_label(v)} exceeds "
                f"the cap of {BASIS_CAP} entries")
        coeff, extra = _random_full_rank(rng, k, amb)
        resamples += extra
        if v == t.root:
            vec, extra = _random_full_rank(rng, 1, k)
            resamples += extra
            coeff = _matmul_mod(vec, coeff)
        bases[v] = _times_kron(coeff, *children) if children else coeff
        dims[v] = k
    coeffs = bases.pop(t.root)[0]
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


def _cut_bound(tensor: SampledTensor, mask: int) -> int:
    """Least product of dim U_v over the edge cuts of T that split mask off."""
    spec, dims = tensor.spec, tensor.subspace_dims
    t = spec.tree
    cost = [None] * t.size      # per vertex: (off mask's side, on it)
    for v in range(t.size - 1, -1, -1):
        if t.is_leaf(v):
            leg = spec.leaf_dims[t.leaf_number(v) - 1]
            cost[v] = (leg, 1) if t.desc_masks[v] & mask else (1, leg)
        else:   # a child on the other side pays its own edge
            (a0, a1), ka = cost[t.left[v]], dims[t.left[v]]
            (b0, b1), kb = cost[t.right[v]], dims[t.right[v]]
            cost[v] = (min(a0, a1 * ka) * min(b0, b1 * kb), min(a1, a0 * ka) * min(b1, b0 * kb))
    return min(cost[t.root])


class RankMismatchError(RuntimeError):
    """A flattening and its transpose were ranked differently."""


def flattening_rank(tensor: SampledTensor, mask: int) -> int:
    """Exact rank of the tensor reshaped along the split (mask | rest).

    A sub-block whose rank reaches the cut bound certifies the answer,
    else the whole flattening is ranked.  The transpose of the one ranked
    last is ranked too, and a different rank raises RankMismatchError.
    """
    spec, full = tensor.spec, tensor.spec.tree.full_mask
    if not 0 < mask < full:
        raise ValueError("flattening needs a nonempty proper leaf subset")
    u = _cut_bound(tensor, mask)
    strides = np.array([math.prod(spec.leaf_dims[i + 1:]) for i in range(spec.tree.n)])
    offsets = []
    for side in (mask, full ^ mask):
        axes = [l - 1 for l in leaves_of_mask(side)]
        shape = [spec.leaf_dims[i] for i in axes]
        size = math.prod(shape)
        # a prime stride above AMBIENT_CAP: distinct lines, no aliasing
        lines = np.arange(min(2 * u, size)) * 2654435761 % size
        offsets.append(strides[axes] @ np.unravel_index(lines, shape))
    block = tensor.coeffs[offsets[0][:, None] + offsets[1]]
    rank = mat_rank(block)
    if rank < u:
        block = _flat_matrix(tensor, mask)
        rank = mat_rank(block)
    co_rank = mat_rank(block.T)
    if co_rank != rank:
        raise RankMismatchError(f"transpose rank mismatch at split {leaves_of_mask(mask)}: "
                                f"{rank} vs {co_rank}")
    return rank


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
                 exponent: int = 1) -> FlatteningProfile:
    """Rank every probe-node split of a sampled tensor.

    Each non-root vertex v' of the probe tree contributes the split at
    its pulled-back descendant set, compared against r**exponent *
    f'(v'), and each split is ranked once (both orientations, see
    flattening_rank).  The exponent must lie in 0..LEAF_CAP: every
    containment exponent is at most floor(n/2) <= LEAF_CAP / 2.
    """
    spec = tensor.spec
    t = spec.tree
    if probe.n != t.n:
        raise ValueError(f"probe has {probe.n} leaves, tensor has {t.n}")
    exponent = integral(exponent, "exponent")
    if not 0 <= exponent <= LEAF_CAP:
        raise ValueError(f"exponent must be in 0..{LEAF_CAP}, got {exponent}")
    perm = instance_perm(t, probe, perm)
    fp = weight_vector(probe, f_prime, "probe dimension-vector")

    full = t.full_mask
    entries = []
    all_ok = True
    cache: dict[int, int] = {}
    for v in range(probe.size):
        if v == probe.root:
            continue
        mask = perm.pullback(probe.desc_masks[v])
        if mask not in cache:
            cache[mask] = cache[full ^ mask] = flattening_rank(tensor, mask)
        rank = cache[mask]
        limit = spec.r ** exponent * fp[v]
        good = rank <= limit
        all_ok = all_ok and good
        entries.append((probe.node_label(v), leaves_of_mask(mask), rank, limit, good))
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


def trial_seeds(seed: int, trials: int) -> list[int]:
    """Per-trial sampling seeds, all drawn from one master seed."""
    if not 1 <= trials <= TRIALS_CAP:
        raise ValueError(f"need 1..{TRIALS_CAP} trials, got {trials}")
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(trials)]


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
    seeds = trial_seeds(seed, trials)
    per_node: dict[str, int] = {}
    per_node_rank: dict[str, int] = {}
    for ts in seeds:
        profile = rank_profile(sample_tensor(spec, ts), probe, perm=perm,
                               f_prime=f_prime, exponent=0)
        for (lab, _, rank, f_val, _) in profile.entries:
            e = _needed_exponent(rank, spec.r, f_val)
            per_node[lab] = max(per_node.get(lab, 0), e)
            per_node_rank[lab] = max(per_node_rank.get(lab, 0), rank)
    return {
        "tree": spec.tree.text,
        "probe": probe.text,
        "perm": profile.perm,
        "r": spec.r,
        "trials": trials,
        "seed": seed,
        "trial_seeds": seeds,
        "max_exponent": max(per_node.values(), default=0),
        "per_node_exponent": dict(sorted(per_node.items())),
        "per_node_rank": dict(sorted(per_node_rank.items())),
    }
