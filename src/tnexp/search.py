"""Exhaustive containment-exponent search over tree shapes and permutations.

For n leaves the instance space is every ordered pair of unordered
shapes times every permutation of the second tree's leaves.  One cover
table per shape (covers.build_cover_table, the closed form over all 2^n
masks) is enough: an instance is a handful of table lookups at the
pulled-back node sets, so everything is vectorized over the permutations.

A node v of T' pulls back to a split S | S^c of T's leaves, and each
kind is a symmetric function of the node's pair (n_S, n_{S^c}): cover
and poset take the min (the cheaper side), naive the max.  Every doad
set of T' is d(v) or a(v) = d(v)^c of some node v, and the leaves and
the root give at most 1, which the floor below supplies.  With
full ^ m == full - m the pair's other side is the reversed table, so a
kind is one per-shape table read at the node's descendant mask.  poset
equals cover by the covers docstring's theorem, so each distinct side
is evaluated once for all its kinds.

Every value is at least 1, so each lookup table is floored at 1 up
front.  A side's tables are stored entry-major: row e holds every
shape's value at entry e, padded with zeros to whole 8-byte words (24
bytes for the 23 shapes of n = 8), so one gathered row reads every
source shape at once.  The loop runs over target shapes T': one float64
product of its nodes' leaf membership with the permutations' leaf bits
gives the (columns, P) indices, one gather of whole rows gives
(columns, P, width) bytes, and their max over the columns, cut to the
shapes and transposed, is the target's column of the result.  While
4^n <= PAIR_TABLE_CAP, i.e. n <= 9, an index covers two T' nodes: entry
a << n | b holds max(t[a], t[b]), and the product forms that index
itself by weighting the two nodes' membership rows 2^n and 1 (every sum
stays below 2^(2n) <= 2^18, so it is exact).

Results are one uint8 array of shape (shapes, shapes, perms) per side,
permutations in lexicographic order, so the outputs are deterministic.
The CSV holds one row per instance (21.3M rows, around 2 GB, at n = 8);
the JSON summary carries the shape list, per-pair aggregates, and a
sha256 digest of the raw per-instance array, which pins the full result
down byte-exactly at a few KB.

check-reference compares two such CSVs in one merge pass, holding one row
per file.  Both must list rows in the writer's key order: n, shape_a,
shape_b, then the permutation as integers (so "1-2-..." precedes
"1-10-..." at n >= 10).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .bounds import poset_table  # noqa: F401 -- unused; perfbench/tracing.py wraps it here
from .covers import build_cover_table
from .trees import enumerate_shapes, integral, perm_string

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
    permutation axis in the lexicographic order of the (perms, n) int8
    array `perm_array`; kinds with one side share an array.  Arrays are
    never written after run_search, so each array's aggregate and digest
    are computed once, then read from `_memo`.
    """

    n: int
    shapes: tuple            # canonical strings, lexicographic
    perm_array: np.ndarray   # rows lexicographic, entries 1..n
    sampled: bool
    kinds: tuple
    data: dict
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def instance_count(self) -> int:
        return len(self.shapes) ** 2 * len(self.perm_array)

    @functools.cached_property
    def perms(self) -> tuple:
        """One-line strings of `perm_array`'s rows (only the CSV needs them all)."""
        return tuple(map(perm_string, self.perm_array.tolist()))

    def aggregate(self, kind: str) -> tuple:
        """(mins, maxs, counts) over the permutation axis, indexed by pair [i, j]:
        counts[i, j, v] is the number of permutations with value v."""
        arr = self.data[kind]
        key = "aggregate", id(arr)
        if key not in self._memo:
            mins, maxs = arr.min(axis=2), arr.max(axis=2)
            # one row of pairs at a time (popcounts of the packed equality bits,
            # so temporaries stay small); the row's least value takes the rest
            counts = np.zeros(mins.shape + (int(maxs.max()) + 1,), dtype=np.int64)
            for i, block in enumerate(arr):
                lo = int(mins[i].min())
                for v in range(lo + 1, int(maxs[i].max()) + 1):
                    counts[i, :, v] = np.bitwise_count(np.packbits(block == v, axis=1)).sum(1)
                counts[i, :, lo] = arr.shape[2] - counts[i].sum(axis=1)
            self._memo[key] = mins, maxs, counts
        return self._memo[key]

    def digest(self, kind: str) -> str:
        arr = self.data[kind]
        if ("digest", id(arr)) not in self._memo:
            # the C-order buffer is the per-pair arrays concatenated in (i, j) order
            self._memo["digest", id(arr)] = hashlib.sha256(arr).hexdigest()
        return self._memo["digest", id(arr)]


def _leaf_bits(perms: np.ndarray) -> np.ndarray:
    """(n, P) float64: row x holds 2^l where perms[p, l] == x + 1, so a
    mask pulls back to the OR, here the sum, of its leaves' rows."""
    count, n = perms.shape
    bits = np.empty((n, count))
    bits[perms.T - 1, np.arange(count)] = (2.0 ** np.arange(n))[:, None]
    return bits


def _pullback_columns(leaf_bits: np.ndarray, masks, group: int = 1) -> np.ndarray:
    """(len(masks) // group, P) intp: pulled-back masks, `group` per index.

    out[k, p] has leaf l set iff perms[p, l] is a leaf of masks[k], as in
    Permutation.pullback: one product of the masks' 0/1 leaf-membership
    matrix with `_leaf_bits`.  For group 2 the rows of masks 2k and 2k + 1
    are weighted 2^n and 1 before the product, so out[k] is the pair index
    a << n | b of their pullbacks a, b.  Every sum is below 2^(group n) <= 2^18,
    so the float64 product is exact.
    """
    n = len(leaf_bits)
    member = np.asarray(masks, dtype=np.intp)[:, None] >> np.arange(n) & 1
    weights = 2.0 ** (n * np.arange(group - 1, -1, -1))
    member = (member.reshape(-1, group, n) * weights[:, None]).sum(axis=1)
    return (member @ leaf_bits).astype(np.intp)


def _lex_perms(n: int) -> np.ndarray:
    """(n!, n) int8: every permutation of 1..n, rows in lexicographic order.

    Built in blocks: the permutations of k symbols are, for each first
    symbol f in turn, f followed by those of k - 1 symbols with f skipped.
    """
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, n + 1):
        first = np.arange(k, dtype=np.int8)[:, None, None]
        rest = perms + (perms >= first)          # (k, (k-1)!, k-1)
        perms = np.concatenate([np.broadcast_to(first, rest.shape[:2] + (1,)), rest], 2)
        perms = perms.reshape(-1, k)
    return perms + 1


def _lookup_tables(tables: np.ndarray, group: int) -> np.ndarray:
    """(2^(group n), W / 8) uint64 from (S, 2^n) tables, every entry floored at 1.

    Entry-major: row e holds every shape's value at entry e in its first S
    bytes, padded with zeros to W = 8 ceil(S / 8) bytes, so one gathered
    row reads all shapes.  For group 2 entry a << n | b holds
    max(t[a], t[b], 1): one pair table per shape.
    """
    shapes, entries = tables.shape
    floored = np.maximum(tables.T, 1)   # a leaf of T' needs one singleton
    rows = np.zeros((entries,) * group + (-(-shapes // 8) * 8,), dtype=np.uint8)
    if group == 1:
        rows[:, :shapes] = floored
    else:
        np.maximum(floored[:, None], floored[None, :], out=rows[..., :shapes])
    return rows.reshape(entries ** group, -1).view(np.uint64)


def _sample_perms(n: int, count: int, seed: int) -> np.ndarray:
    """Distinct random permutations, returned in lexicographic order.

    Falls back to the complete lexicographic set when `count` reaches n!.
    Above n!/2 it draws the n! - count permutations to leave out instead,
    so rejection sampling never pays the coupon-collector tail near n!.
    """
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
    every = _lex_perms(n)
    return every[[p not in seen for p in map(tuple, every.tolist())]]


def run_search(n: int, kinds=("cover",), sample_perms=None, seed: int = 0) -> SearchResult:
    """Evaluate the chosen bound kinds on every (shape, shape, perm) instance.

    Full permutation products are allowed for 4 <= n <= 8; beyond that a
    sampled permutation set must be requested (flagged in the result).
    """
    n, sampled = integral(n, "n"), sample_perms is not None
    if sampled:
        sample_perms, seed = integral(sample_perms, "sample_perms", 1), integral(seed, "seed", 0)
    if not sampled and not 4 <= n <= FULL_SEARCH_CAP:
        raise ValueError(
            f"full search supports 4..{FULL_SEARCH_CAP} leaves (got n={n}); "
            "pass sample_perms for larger n")
    if sampled and not 4 <= n <= SAMPLED_SEARCH_CAP:
        raise ValueError(f"sampled search supports 4..{SAMPLED_SEARCH_CAP} leaves")
    for i, k in enumerate(kinds):   # name one entry: the list may be huge
        if k not in KINDS or k in kinds[:i]:
            raise ValueError(f"{'repeated' if k in KINDS else 'unknown'} bound kind "
                             f"{str(k)[:20]!r}; choose distinct kinds from {KINDS}")
    if not kinds:
        raise ValueError(f"need at least one bound kind from {KINDS}")

    shapes = enumerate_shapes(n)
    perm_count = math.factorial(n)
    if sampled:
        perm_count = min(sample_perms, perm_count)
    if len(shapes) ** 2 * perm_count > INSTANCE_CAP:
        raise ValueError(f"{len(shapes)}^2 shape pairs x {perm_count} permutations exceed "
                         f"the {INSTANCE_CAP} instances a search can hold per kind")
    perms = _sample_perms(n, sample_perms, seed) if sampled else _lex_perms(n)
    group = 2 if 4 ** n <= PAIR_TABLE_CAP else 1
    leaf_bits = _leaf_bits(perms)

    counts = np.array([build_cover_table(t) for t in shapes])
    # one lookup table per shape and distinct side
    tables = {side: _lookup_tables(side(counts, counts[:, ::-1]), group)
              for side in dict.fromkeys(SIDES[k] for k in kinds)}

    arrays = {side: np.empty((len(shapes), len(shapes), len(perms)), dtype=np.uint8)
              for side in tables}
    for j, target in enumerate(shapes):
        # the n - 2 non-root internal sets, padded to pairs by mask 0 (floored entry 1)
        masks = [target.desc_masks[w] for w in target.internal if w != target.root]
        idx = _pullback_columns(leaf_bits, masks + [0] * (len(masks) % group), group)
        for side, rows in tables.items():
            # (columns, P, W) gather of whole rows, reduced over T' nodes to (P, W);
            # indices are in range, so "clip" only skips take's bounds check
            best = rows.take(idx, axis=0, mode="clip").view(np.uint8).max(axis=0)
            arrays[side][:, j] = best[:, :len(shapes)].T

    return SearchResult(n=n, shapes=tuple(t.text for t in shapes),
                        perm_array=perms, sampled=sampled,
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
                prefix = f"{n_str},{a},{b},"
                rows = zip(result.perms, *(result.data[k][i, j].tolist() for k in result.kinds))
                fh.write("".join(prefix + ",".join(map(str, row)) + "\n" for row in rows))


def _write_json(result: SearchResult, path) -> None:
    """Write the bytes of json.dumps(payload, sort_keys=True, indent=1) + "\n"
    with the pairs formatted from the aggregate arrays one shape row at a time."""
    head = json.dumps({
        "n": result.n, "shapes": list(result.shapes), "perm_count": len(result.perm_array),
        "sampled": result.sampled, "kinds": list(result.kinds), "pairs": [],
        "instances": result.instance_count, "digests": {k: result.digest(k) for k in result.kinds},
    }, sort_keys=True, indent=1)
    before, after = head.split('"pairs": []')
    kinds = sorted(result.kinds)
    pair = '  {\n   "a": %d,\n   "b": %d,\n' + ",\n".join(f'   "{k}": %s' for k in kinds) + "\n  }"
    aggs, templates = [result.aggregate(k) for k in kinds], {}
    distinct = {id(a): a for a in aggs}   # kinds sharing an array share its aggregate
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(before + '"pairs": [')
        for i in range(len(result.shapes)):
            texts = {key: _aggregate_texts(a, i, templates) for key, a in distinct.items()}
            columns = zip(*(texts[id(a)] for a in aggs))
            fh.write(",\n"[i == 0:] + ",\n".join(pair % (i, j, *c) for j, c in enumerate(columns)))
        fh.write("\n ]" + after + "\n")


def _aggregate_texts(aggregate, i, templates) -> list:
    """JSON text of pair (i, j)'s {"histogram", "max", "min"} object for every j.
    A template per bit set of nonzero values lists them as JSON sorts keys,
    as strings, with a getter for their counts in the row (max, min, *counts)."""
    mins, maxs, counts = (a[i] for a in aggregate)
    keys = ((counts > 0) << np.arange(counts.shape[1])).sum(axis=1).tolist()
    for key in set(keys) - templates.keys():
        values = sorted((v for v in range(key.bit_length()) if key >> v & 1), key=str)
        hist = ",\n".join(f'     "{v}": %d' for v in values)
        templates[key] = ('{\n    "histogram": {\n' + hist + '\n    },\n    "max": %d,\n'
                          '    "min": %d\n   }', operator.itemgetter(*(v + 2 for v in values), 0, 1))
    rows = np.column_stack([maxs, mins, counts]).tolist()
    return [fmt % pick(row) for (fmt, pick), row in zip(map(templates.get, keys), rows)]


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
    adapter = {} if adapter is None else adapter
    if not (isinstance(adapter, dict)
            and all(isinstance(x, str) for item in adapter.items() for x in item)):
        raise ValueError("adapter must map our column names to the reference's (str -> str)")
    for c in adapter:
        if c not in COLUMNS:
            raise ValueError(f"adapter key {c!r} is not a column of ours ({', '.join(COLUMNS)})")
    if len(set(adapter.values())) < len(adapter):
        raise ValueError("adapter names one reference column twice")
    ours, theirs = _rows(ours_path, {}), _rows(reference_path, adapter)
    mine, ref = next(ours), next(theirs)
    shared = sorted(mine.keys() & ref.keys())   # every row carries its header's columns
    if not shared:
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
            compared += len(shared)
            mismatches += [(a[1], c, a[2][c], b[2][c]) for c in shared if a[2][c] != b[2][c]]
        a, b = next(ours, end) if a[0] <= b[0] else a, next(theirs, end) if b[0] <= a[0] else b
    return DiffReport(compared, *(tuple(sorted(x)) for x in (mismatches, only_ours, only_theirs)))
