"""Per-layer timing by wrapping tnexp's public functions from outside.

Each wrapper replaces a name where the calling module looks it up (for
example `search.build_cover_table`, which search imported from covers)
and records a span: inclusive seconds `.s`, self seconds `.self_s`
(duration minus the spans nested in it), `.calls`, and counts read off
the arguments or the result.  Metric names use the module that defines
the function.  Nothing inside tnexp changes; `uninstall` restores the
original objects.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict


def _table_entries(result, args, kwargs):
    return {"entries": 1 << args[0].n}


def _subsets(result, args, kwargs):
    return {"subsets": (1 << args[0].n) - 2}


def _ip_size(result, args, kwargs):
    return {"rows": len(result.rows), "vars": len(result.variables)}


def _lp_bytes(result, args, kwargs):
    return {"bytes": len(result)}


def _written_bytes(result, args, kwargs):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _resamples(result, args, kwargs):
    return {"resamples": result.resamples}


def _cells(result, args, kwargs):
    return {"cells": math.prod(args[0].shape)}


# (object the caller looks the name up in, attribute, metric prefix, counter)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_tree", "trees.parse_tree", None),
    ("search", "run_search", "search.run_search", None),
    ("search", "enumerate_shapes", "trees.enumerate_shapes", None),
    ("search", "build_cover_table", "covers.build_cover_table", _table_entries),
    ("search", "poset_table", "bounds.poset_table", _subsets),
    ("search", "write_results", "search.write_results", _written_bytes),
    ("search.SearchResult", "aggregate", "search.SearchResult.aggregate", None),
    ("search.SearchResult", "digest", "search.SearchResult.digest", None),
    ("covers", "build_cover_table", "covers.build_cover_table", _table_entries),
    ("covers", "cover_exponent", "covers.cover_exponent", None),
    ("bounds", "poset_bound", "bounds.poset_bound", None),
    ("ilp", "build_ip", "ilp.build_ip", _ip_size),
    ("ilp", "solve_ip", "ilp.solve_ip", None),
    ("ilp", "export_lp", "ilp.export_lp", _lp_bytes),
    ("ranks", "sample_tensor", "ranks.sample_tensor", _resamples),
    ("ranks", "rank_profile", "ranks.rank_profile", None),
    ("ranks", "mat_rank", "ranks.mat_rank", _cells),
)

# Reported per operation of the traced phase.
LAYER_METRICS = (
    "search.run_search.self_s",
    "search.SearchResult.aggregate.s",
    "search.SearchResult.digest.s",
    "cli.main.self_s",
    "bounds.poset_table.s",
    "bounds.poset_table.calls",
    "bounds.poset_table.subsets",
    "search.write_results.s",
    "search.write_results.bytes",
    "covers.build_cover_table.s",
    "covers.build_cover_table.calls",
    "covers.build_cover_table.entries",
    "covers.cover_exponent.self_s",
    "bounds.poset_bound.s",
    "ilp.build_ip.s",
    "ilp.build_ip.rows",
    "ilp.build_ip.vars",
    "ilp.solve_ip.s",
    "ilp.export_lp.s",
    "ilp.export_lp.bytes",
    "ranks.mat_rank.s",
    "ranks.mat_rank.calls",
    "ranks.mat_rank.cells",
    "ranks.sample_tensor.self_s",
    "ranks.sample_tensor.resamples",
    "ranks.rank_profile.self_s",
    "trees.enumerate_shapes.s",
    "trees.parse_tree.s",
)

# Which end-to-end metric each layer metric should move, and on which
# workload, with its share of the traced phase's time there.
LAYER_MAP = (
    ("search.run_search.self_s (pullback + pair evaluation)", "ops_per_s",
     "search_n8 (88%)"),
    ("search.SearchResult.aggregate.s, .digest.s", "ops_per_s",
     "search_n8 (5%)"),
    ("bounds.poset_table.s, .calls, .subsets", "ops_per_s",
     "search_n8 (4%)"),
    ("search.write_results.s, .bytes", "ops_per_s",
     "search_n8 JSON (3%)"),
    ("covers.build_cover_table.s, .calls, .entries", "op_p90_ms, ops_per_s",
     "exponent_mix (86%); verify_ranks 5%; search_n8 <1%"),
    ("covers.cover_exponent.self_s, bounds.poset_bound.s", "op_p50_ms",
     "exponent_mix (5%)"),
    ("ilp.build_ip.s, .rows, .vars, ilp.solve_ip.s, ilp.export_lp.s, .bytes", "op_p50_ms",
     "exponent_mix (6%)"),
    ("ranks.mat_rank.s, .calls, .cells", "ops_per_s, op_p50_ms, op_p90_ms",
     "verify_ranks only (85%)"),
    ("ranks.sample_tensor.self_s, .resamples, ranks.rank_profile.self_s", "ops_per_s",
     "verify_ranks (8%)"),
    ("cli.main.self_s (argument parsing, JSON output)", "op_p50_ms",
     "exponent_mix (6%); verify_ranks 2%"),
    ("trees.enumerate_shapes.s, trees.parse_tree.s", "setup_s / none",
     "negligible everywhere (<0.2%)"),
    ("trace.overhead_pct", "none", "all workloads: traced vs untraced ops_per_s"),
    ("fail_share", "none", "all workloads: failed / attempted operations"),
)


class Tracer:
    """Span totals for the functions in WRAPPED while installed."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._nested = []        # per open span: seconds of spans nested in it
        self._originals = []

    def _wrap(self, fn, prefix, counter):
        totals, nested = self.totals, self._nested

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = time.perf_counter()
            stop = None
            try:
                result = fn(*args, **kwargs)
                stop = time.perf_counter()
                if counter is not None:
                    for stat, value in counter(result, args, kwargs).items():
                        totals[f"{prefix}.{stat}"] += value
                return result
            finally:
                end = time.perf_counter()
                elapsed = (end if stop is None else stop) - start
                inner = nested.pop()
                totals[prefix + ".s"] += elapsed
                totals[prefix + ".self_s"] += elapsed - inner
                totals[prefix + ".calls"] += 1
                if nested:
                    # counting time belongs to no span, so the caller skips it too
                    nested[-1] += end - start

        return wrapper

    def install(self) -> None:
        for where, attr, prefix, counter in WRAPPED:
            module, _, cls = where.partition(".")
            target = importlib.import_module("tnexp." + module)
            if cls:
                target = getattr(target, cls)
            original = target.__dict__[attr]
            self._originals.append((target, attr, original))
            setattr(target, attr, self._wrap(original, prefix, counter))

    def uninstall(self) -> None:
        while self._originals:
            target, attr, original = self._originals.pop()
            setattr(target, attr, original)

    def per_op(self, ops: int) -> dict:
        return {name: self.totals.get(name, 0.0) / ops for name in LAYER_METRICS}
