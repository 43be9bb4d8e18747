"""Exhaustive containment-exponent search over tree shapes and permutations.

For n leaves the instance space is every ordered pair of unordered
shapes times every permutation of the second tree's leaves.  One cover
table per shape is enough: a single instance evaluation is a handful of
table lookups at the pulled-back node sets, so everything is vectorized
over the permutation axis.

The pair loop runs target-outer.  For each target shape T' the pulled-back
masks of its non-root internal node sets are computed once, straight from
the permutation array, and every covering shape T and every kind reads
them.  A node v of T' pulls back to a split S | S^c of T's leaves, and
each kind is a symmetric function of the node's pair (n_S, n_{S^c}):
cover and poset take the min (the cheaper side), naive the max.  Every
doad set of T' is d(v) or a(v) = d(v)^c of some node v, so the max over
the pulled-back doad sets of T' is a max over nodes, and the nodes left
out give at most 1, which the floor below supplies: a leaf of T' pulls
back to a singleton and a co-singleton (the anti set of a leaf of T),
and the root's descendant set is the full set.  With full ^ m == full - m
the pair's other side is the reversed BFS table, so a kind's side
function of (counts, counts[::-1]) is one per-shape table read at the
node's descendant mask.  poset equals cover by the covers docstring's
theorem, so each distinct side is evaluated once for all its kinds.

Every value is at least 1 (a leaf of T' needs one singleton), so each
lookup table is floored at 1 once, up front.  While 4^n <= PAIR_TABLE_CAP,
i.e. n <= 9, lookups go two T' nodes at a time: a shape's pair table
holds max(t[a], t[b]) at a << n | b, the node columns are packed two to
an index (an odd count pairs the last one with the empty mask, floored
to 1), and an instance costs one lookup per two nodes.  Above that each
node is its own lookup.

Results are kept as one uint8 array of shape (shapes, shapes, perms) per
side, with permutations in lexicographic order, so the aggregates and
serializations below are deterministic.  The CSV holds one row per
instance (at n = 8 that is 21.3M rows, around 2 GB -- request it
deliberately); the JSON summary carries the shape list, per-pair
aggregates, and a sha256 digest of the raw per-instance array, which pins
the full result down byte-exactly at a few KB.

check-reference compares two such CSVs in one merge pass, holding one row
per file.  Both must list rows in the writer's key order: n, shape_a,
shape_b, then the permutation as integers (so "1-2-..." precedes
"1-10-..." at n >= 10).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import poset_table  # noqa: F401 -- unused; perfbench/tracing.py wraps it here
from .covers import build_cover_table
from .trees import enumerate_shapes

__all__ = ["SearchResult", "run_search", "write_results",
           "verify_against_reference", "DiffReport"]

FULL_SEARCH_CAP = 8       # n! blow-up; larger n must sample permutations
SAMPLED_SEARCH_CAP = 12
INSTANCE_CAP = 1 << 30    # instances per kind array (1 GiB of uint8); full n = 9 fits
PAIR_TABLE_CAP = 1 << 18  # entries per pair table (256 KiB of uint8): n <= 9
SIDES = {"cover": np.minimum, "poset": np.minimum, "naive": np.maximum}  # per node pair
KINDS = tuple(SIDES)
KEY_COLUMNS = ("n", "shape_a", "shape_b", "perm_oneline")
CSV_COLUMNS = {"cover": "cover_bound", "poset": "poset_bound", "naive": "naive_max_bound"}
COLUMNS = KEY_COLUMNS + tuple(CSV_COLUMNS.values())


@dataclass(frozen=True)
class SearchResult:
    """Per-instance bound values for all (shape, shape, perm) instances.

    data[kind] is a uint8 array of shape (shapes, shapes, perms), with the
    permutation axis in the lexicographic order of `perms`; kinds with one
    side share an array.  Arrays are never written after run_search, so
    each array's aggregate and digest are computed once, then read from `_memo`.
    """

    n: int
    shapes: tuple            # canonical strings, lexicographic
    perms: tuple             # one-line strings, lexicographic
    sampled: bool
    kinds: tuple
    data: dict
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def instance_count(self) -> int:
        return len(self.shapes) ** 2 * len(self.perms)

    def values(self, kind: str, i: int, j: int) -> np.ndarray:
        return self.data[kind][i, j]

    def aggregate(self, kind: str) -> dict:
        """Per-pair min/max/histogram over the permutation axis."""
        arr = self.data[kind]
        if ("aggregate", id(arr)) in self._memo:
            return self._memo["aggregate", id(arr)]
        mins, maxs = arr.min(axis=2), arr.max(axis=2)
        # counts[i, j, v] = #perms with value v, one row of pairs at a time
        # (popcounts of the packed equality bits; temporaries stay small)
        counts = np.zeros(mins.shape + (int(maxs.max()) + 1,), dtype=np.int64)
        for i, block in enumerate(arr):
            for v in range(int(mins[i].min()), int(maxs[i].max()) + 1):
                counts[i, :, v] = np.bitwise_count(np.packbits(block == v, axis=1)).sum(axis=1)
        out = {}
        for (i, j), lo, hi, row in zip(itertools.product(range(len(mins)), repeat=2),
                                       mins.ravel().tolist(), maxs.ravel().tolist(),
                                       counts.reshape(-1, counts.shape[2]).tolist()):
            out[(i, j)] = {"min": lo, "max": hi,
                           "histogram": {v: c for v, c in enumerate(row) if c}}
        self._memo["aggregate", id(arr)] = out
        return out

    def digest(self, kind: str) -> str:
        arr = self.data[kind]
        if ("digest", id(arr)) not in self._memo:
            # the C-order buffer is the per-pair arrays concatenated in (i, j) order
            self._memo["digest", id(arr)] = hashlib.sha256(arr).hexdigest()
        return self._memo["digest", id(arr)]


def _leaf_bits(perms: np.ndarray) -> np.ndarray:
    """(n, P) float64 table: row x holds 2^l where perms[p, l] == x + 1.

    perms has shape (P, n) with 1-based entries; the pulled-back mask of a
    mask m is the OR, here also the sum, of the rows of its leaves.
    """
    return np.ldexp(1.0, np.argsort(perms, axis=1).T)


def _pullback_columns(leaf_bits: np.ndarray, masks) -> np.ndarray:
    """(len(masks), P) intp: pulled-back mask of each requested mask.

    out[k, p] has leaf l set iff perms[p, l] is a leaf of masks[k], as in
    Permutation.pullback: one product of the masks' 0/1 leaf-membership
    matrix with `_leaf_bits`, exact in float64 since every sum is below 2^n.
    """
    member = np.asarray(masks, dtype=np.intp)[:, None] >> np.arange(len(leaf_bits)) & 1
    return (member.astype(np.float64) @ leaf_bits).astype(np.intp)


def _node_masks(t) -> list:
    """Descendant sets of the non-root internal vertices (one for n >= 4)."""
    return [t.desc_masks[w] for w in t.internal if w != t.root]


def _lex_perms(n: int) -> np.ndarray:
    flat = itertools.chain.from_iterable(itertools.permutations(range(1, n + 1)))
    return np.fromiter(flat, dtype=np.int8, count=n * math.factorial(n)).reshape(-1, n)


def _lookup_tables(tables: np.ndarray, group: int) -> np.ndarray:
    """(S, 2^(group n)) uint8 from (S, 2^n) tables, every entry floored at 1.

    For group 2 entry a << n | b holds max(t[a], t[b], 1): one pair table per shape.
    """
    floored = np.maximum(tables, 1)   # a leaf of T' needs one singleton
    if group == 1:
        return floored
    return np.maximum(floored[:, :, None], floored[:, None, :]).reshape(len(tables), -1)


def _pack_columns(cols: np.ndarray, n: int, group: int) -> np.ndarray:
    """Node columns packed `group` to an index.

    An odd count pairs the last column with mask 0, whose floored entry 1
    leaves every max unchanged.
    """
    if group == 1:
        return cols
    packed = cols[0::2] << n
    packed[:len(cols) // 2] |= cols[1::2]
    return packed


def _sample_perms(n: int, count: int, seed: int) -> np.ndarray:
    """Distinct random permutations, returned in lexicographic order.

    Falls back to the complete lexicographic set when `count` reaches n!.
    Above n!/2 it draws the n! - count permutations to leave out instead,
    so rejection sampling never pays the coupon-collector tail near n!.
    """
    if count < 1:
        raise ValueError(f"need at least one sampled permutation, got {count}")
    total = math.factorial(n)
    if count >= total:
        return _lex_perms(n)
    rng = np.random.default_rng(seed)
    draws = count if 2 * count <= total else total - count
    seen = set()
    while len(seen) < draws:
        seen.add(tuple(int(x) + 1 for x in rng.permutation(n)))
    if draws == count:
        return np.array(sorted(seen), dtype=np.int8)
    return np.array([p for p in itertools.permutations(range(1, n + 1)) if p not in seen],
                    dtype=np.int8)


def _perm_strings(perms: np.ndarray) -> tuple:
    n = perms.shape[1]
    if n <= 9:
        # one ASCII digit per entry: each row's bytes are its one-line string
        digits = (perms + ord("0")).astype(np.uint8)
        return tuple(digits.view(f"S{n}").ravel().astype(f"U{n}").tolist())
    return tuple("-".join(str(int(x)) for x in row) for row in perms)


def run_search(n: int, kinds=("cover",), sample_perms=None, seed: int = 0) -> SearchResult:
    """Evaluate the chosen bound kinds on every (shape, shape, perm) instance.

    Full permutation products are allowed for 4 <= n <= 8; beyond that a
    sampled permutation set must be requested (flagged in the result).
    """
    if sample_perms is None and not 4 <= n <= FULL_SEARCH_CAP:
        raise ValueError(
            f"full search supports 4..{FULL_SEARCH_CAP} leaves (got n={n}); "
            "pass sample_perms for larger n")
    if sample_perms is not None and not 4 <= n <= SAMPLED_SEARCH_CAP:
        raise ValueError(f"sampled search supports 4..{SAMPLED_SEARCH_CAP} leaves")
    bad = [k for k in kinds if k not in KINDS]
    if bad:
        raise ValueError(f"unknown bound kinds {bad}; choose from {KINDS}")
    if not kinds or len(set(kinds)) != len(kinds):
        raise ValueError(f"need distinct bound kinds from {KINDS}, got {list(kinds)}")

    shapes = enumerate_shapes(n)
    perm_count = math.factorial(n)
    if sample_perms is not None:
        perm_count = min(int(sample_perms), perm_count)
    if len(shapes) ** 2 * perm_count > INSTANCE_CAP:
        raise ValueError(f"{len(shapes)}^2 shape pairs x {perm_count} permutations exceed "
                         f"the {INSTANCE_CAP} instances a search can hold per kind")
    if sample_perms is None:
        perms = _lex_perms(n)
        sampled = False
    else:
        perms = _sample_perms(n, int(sample_perms), seed)
        sampled = True
    leaf_bits = _leaf_bits(perms)

    counts = np.array([build_cover_table(t) for t in shapes])
    group = 2 if 4 ** n <= PAIR_TABLE_CAP else 1
    # one lookup table per shape and distinct side
    tables = {side: _lookup_tables(side(counts, counts[:, ::-1]), group)
              for side in dict.fromkeys(SIDES[k] for k in kinds)}

    arrays = {side: np.empty((len(shapes), len(shapes), len(perms)), dtype=np.uint8)
              for side in tables}
    for j, target in enumerate(shapes):
        idx = _pack_columns(_pullback_columns(leaf_bits, _node_masks(target)), n, group)
        tmp = np.empty(idx.shape, dtype=np.uint8)
        for side, side_tables in tables.items():
            for i, table in enumerate(side_tables):
                # indices are in range, so "wrap" only skips take's buffered bounds check
                np.take(table, idx, out=tmp, mode="wrap")
                tmp.max(axis=0, out=arrays[side][i, j])

    return SearchResult(n=n, shapes=tuple(t.text for t in shapes),
                        perms=_perm_strings(perms), sampled=sampled,
                        kinds=tuple(kinds), data={k: arrays[SIDES[k]] for k in kinds})


# ---------------------------------------------------------------------------
# serialization

def write_results(result: SearchResult, format: str, path) -> None:
    """Write a search result as per-instance CSV or aggregate JSON."""
    if format == "csv":
        _write_csv(result, path)
    elif format == "json":
        _write_json(result, path)
    else:
        raise ValueError(f"unknown format {format!r} (csv or json)")


def _write_csv(result: SearchResult, path) -> None:
    # streamed one shape pair at a time: the full n=8 table is ~2 GB
    cols = list(KEY_COLUMNS) + [CSV_COLUMNS[k] for k in result.kinds]
    n_str = str(result.n)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for i, a in enumerate(result.shapes):
            for j, b in enumerate(result.shapes):
                arrays = [result.data[k][i, j] for k in result.kinds]
                prefix = f"{n_str},{a},{b},"
                fh.write("".join(
                    f"{prefix}{perm},{','.join(str(int(arr[p])) for arr in arrays)}\n"
                    for p, perm in enumerate(result.perms)))


def _write_json(result: SearchResult, path) -> None:
    payload = {
        "n": result.n,
        "shapes": list(result.shapes),
        "perm_count": len(result.perms),
        "sampled": result.sampled,
        "kinds": list(result.kinds),
        "instances": result.instance_count,
        "pairs": [],
        "digests": {k: result.digest(k) for k in result.kinds},
    }
    aggs = {k: result.aggregate(k) for k in result.kinds}
    for i in range(len(result.shapes)):
        for j in range(len(result.shapes)):
            entry = {"a": i, "b": j}
            for k in result.kinds:
                agg = aggs[k][(i, j)]
                entry[k] = {"min": agg["min"], "max": agg["max"],
                            "histogram": {str(v): c for v, c in agg["histogram"].items()}}
            payload["pairs"].append(entry)
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# reference comparison

@dataclass(frozen=True)
class DiffReport:
    compared: int
    mismatches: tuple      # (key, column, ours, theirs)
    missing_in_reference: tuple
    missing_in_ours: tuple

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.missing_in_reference or self.missing_in_ours)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "compared": self.compared,
                "mismatches": [list(m) for m in self.mismatches],
                "missing_in_reference": [list(k) for k in self.missing_in_reference],
                "missing_in_ours": [list(k) for k in self.missing_in_ours]}


def _rows(path, column_map):
    """Yield the header's bound columns (ours -> theirs), then (order, key,
    bounds) per CSV row; order must strictly increase."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            # a renamed column answers only to its new name
            ours = {c: c for c in COLUMNS if c not in column_map}
            ours.update((column_map[c], c) for c in COLUMNS if c in column_map)
            col = {ours[h]: i for i, h in enumerate(header) if h in ours}
            bounds = [(c, col[c]) for c in CSV_COLUMNS.values() if c in col]
            if not bounds or any(c not in col for c in KEY_COLUMNS):
                raise ValueError(f"header needs {', '.join(KEY_COLUMNS)} and a bound column")
            yield {c: header[i] for c, i in bounds}
            last = ()
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, header has {len(header)}")
                n, a, b, perm = (row[col[c]] for c in KEY_COLUMNS)
                order = (int(n), a, b, tuple(map(int, perm.split("-") if "-" in perm else perm)))
                if order <= last:
                    raise ValueError("key repeated or out of the search's order")
                last = order
                yield order, (n, a, b, perm), {c: int(row[i]) for c, i in bounds}
        except (csv.Error, ValueError) as exc:   # echo at most 80 characters of the input
            raise ValueError(f"{path}:{reader.line_num or 1}: {str(exc)[:80]}") from None


def verify_against_reference(ours_path, reference_path, adapter=None) -> DiffReport:
    """Diff two per-instance CSVs, each in the writer's key order, in one merge pass.

    Only bound columns present in both files are compared, and at least one
    must be.  `adapter` maps our column names to the reference's, e.g.
    {"cover_bound": "exponent"}; its keys must be our columns, a renamed column
    is read only under its new name, and no two entries name one reference column.
    """
    adapter = adapter or {}
    for c in adapter:
        if c not in COLUMNS:
            raise ValueError(f"adapter key {c!r} is not a column of ours ({', '.join(COLUMNS)})")
    if len(set(adapter.values())) < len(adapter):
        raise ValueError("adapter names one reference column twice")
    ours, theirs = _rows(ours_path, {}), _rows(reference_path, adapter)
    mine, ref = next(ours), next(theirs)
    if not mine.keys() & ref.keys():
        raise ValueError(f"no bound column in common: ours has {', '.join(mine.values())}, "
                         f"the reference has {', '.join(ref.values())}")
    end = ((math.inf,), None, None)
    a, b = next(ours, end), next(theirs, end)
    mismatches, only_ours, only_theirs, compared = [], [], [], 0
    while a is not b:   # until both files reach `end`
        if a[0] < b[0]:
            only_ours.append(a[1])
        elif b[0] < a[0]:
            only_theirs.append(b[1])
        else:
            shared = sorted(a[2].keys() & b[2].keys())
            compared += len(shared)
            mismatches += [(a[1], c, a[2][c], b[2][c]) for c in shared if a[2][c] != b[2][c]]
        a, b = next(ours, end) if a[0] <= b[0] else a, next(theirs, end) if b[0] <= a[0] else b
    return DiffReport(compared, *(tuple(sorted(x)) for x in (mismatches, only_ours, only_theirs)))
