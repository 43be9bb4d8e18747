"""Command-line interface.

Subcommands: enumerate, exponent, bounds, search, ip, verify-ranks,
check-reference.  Tree arguments accept a parenthesis string, "ht:K"
for the perfect tree of depth K, or "tt:N" for the N-leaf comb tree.
Permutations are one-line ("3142", "3,1,4,2") or "id".  Output is JSON
by default; --table prints an aligned human-readable view.  Exit code 0
on success, 1 on a failed comparison, 2 on bad input, each with a
one-line "error: ..." message on stderr; 141 (128 + SIGPIPE), silently,
when the reader closes stdout early (`tnexp ... | head`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bounds as bounds_mod
from . import covers, ilp, ranks, search
from .trees import Permutation, Tree, build_ht, build_tt, enumerate_plane_trees, \
    enumerate_shapes, heights, parse_tree

__all__ = ["main"]


def _tree_arg(text: str) -> Tree:
    s = text.strip()
    if s.lower().startswith("ht:"):
        return build_ht(int(s[3:]))
    if s.lower().startswith("tt:"):
        return build_tt(int(s[3:]))
    return parse_tree(s)


def _emit(payload: dict, table: bool, table_lines) -> None:
    if table:
        for line in table_lines(payload):
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_enumerate(args) -> int:
    trees = enumerate_plane_trees(args.n) if args.plane else enumerate_shapes(args.n)
    payload = {"n": args.n, "plane": bool(args.plane), "count": len(trees)}
    if not args.count_only:
        payload["trees"] = [t.text for t in trees]
    _emit(payload, args.table, lambda p: [f"count: {p['count']}"]
          + [f"  {s}" for s in p.get("trees", [])])
    return 0


def _cmd_exponent(args) -> int:
    t, t2 = _tree_arg(args.tree_a), _tree_arg(args.tree_b)
    perm = Permutation.from_text(args.perm, t.n)
    report = covers.cover_exponent(t, t2, perm, with_witnesses=args.witnesses)
    # poset_bound's value is cover_bound: read it rather than walk T' again
    extra = {"trivial": bounds_mod.trivial_bound(t.n).value, "poset": report.cover_bound}
    if perm.is_identity():
        extra["plane_general"] = bounds_mod.plane_general_bound(t).value
        if t2 == build_tt(t.n):
            extra["height_tt"] = bounds_mod.height_bound_tt(t).value
    if args.ilp:
        extra["ilp"] = ilp.solve_ip(ilp.build_ip(t, t2, perm)).objective
    payload = report.to_dict()
    payload["extra_bounds"] = extra

    def lines(p):
        out = [f"T  : {p['tree']}", f"T' : {p['tree_prime']}", f"pi : {p['perm']}",
               f"cover_bound : {p['cover_bound']}", f"naive_max   : {p['naive_max']}"]
        for k, v in sorted(p["extra_bounds"].items()):
            out.append(f"{k:<12}: {v}")
        out.append("per-node (desc | anti -> chosen):")
        for nc in p["per_node"]:
            out.append(f"  {nc['node']:<6} {nc['n_desc']} | {nc['n_anti']} -> {nc['chosen']}")
        return out

    _emit(payload, args.table, lines)
    return 0


def _cmd_bounds(args) -> int:
    t = _tree_arg(args.tree)
    h, hs = heights(t)
    payload = {
        "tree": t.text,
        "heights": list(h),
        "dual_heights": list(hs),
        "trivial": bounds_mod.trivial_bound(t.n).to_dict(),
        "height_tt": bounds_mod.height_bound_tt(t).to_dict(),
        "plane_general": bounds_mod.plane_general_bound(t).to_dict(),
    }
    if args.probe:
        t2 = _tree_arg(args.probe)
        perm = Permutation.from_text(args.perm, t.n)
        payload["poset"] = bounds_mod.poset_bound(t, t2, perm).to_dict()
        payload["cover"] = payload["poset"]["value"]   # poset_bound's value is cover_bound

    def lines(p):
        out = [f"tree: {p['tree']}", f"h : {p['heights']}", f"h*: {p['dual_heights']}"]
        for k in ("trivial", "height_tt", "plane_general", "poset"):
            if k in p:
                out.append(f"{k:<14}: {p[k]['value']}")
        if "cover" in p:
            out.append(f"{'cover':<14}: {p['cover']}")
        return out

    _emit(payload, args.table, lines)
    return 0


def _cmd_search(args) -> int:
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    result = search.run_search(args.n, kinds=kinds, sample_perms=args.sample_perms,
                               seed=args.seed)
    if args.csv:
        search.write_results(result, "csv", args.csv)
    if args.json:
        search.write_results(result, "json", args.json)
    payload = {
        "n": result.n,
        "instances": result.instance_count,
        "shapes": list(result.shapes),
        "sampled": result.sampled,
        "digests": {k: result.digest(k) for k in result.kinds},
    }
    for k in result.kinds:
        agg = result.aggregate(k)
        payload[f"{k}_max_matrix"] = [
            [agg[(i, j)]["max"] for j in range(len(result.shapes))]
            for i in range(len(result.shapes))]
        payload[f"{k}_min_matrix"] = [
            [agg[(i, j)]["min"] for j in range(len(result.shapes))]
            for i in range(len(result.shapes))]

    def lines(p):
        out = [f"n={p['n']}  instances={p['instances']}  sampled={p['sampled']}"]
        for k in result.kinds:
            out.append(f"{k} max over perms, per (shape_a, shape_b):")
            for row in p[f"{k}_max_matrix"]:
                out.append("  " + " ".join(str(v) for v in row))
        return out

    _emit(payload, args.table, lines)
    return 0


def _cmd_ip(args) -> int:
    t, t2 = _tree_arg(args.tree_a), _tree_arg(args.tree_b)
    perm = Permutation.from_text(args.perm, t.n)
    model = ilp.build_ip(t, t2, perm)
    payload = model.to_dict()
    if args.export:
        ilp.export_lp(model, args.export)
        payload["exported"] = args.export
    if args.solve:
        sol = ilp.solve_ip(model)
        payload["solution"] = sol.to_dict()

    def lines(p):
        out = [f"variables: {p['num_variables']}  rows: {p['num_rows']}"]
        if "solution" in p:
            out.append(f"c* = {p['solution']['objective']}")
        if "exported" in p:
            out.append(f"exported: {p['exported']}")
        return out

    _emit(payload, args.table, lines)
    return 0


def _cmd_verify_ranks(args) -> int:
    t, probe = _tree_arg(args.tree), _tree_arg(args.probe)
    perm = Permutation.from_text(args.perm, t.n)
    spec = ranks.NetworkSpec.create(t, leaf_dims=args.dims, f=args.f, r=args.r)
    if args.exponent is not None:
        exponent = args.exponent
    else:
        exponent = covers.cover_exponent(t, probe, perm).cover_bound
    profiles = []
    ok = True
    for ts in ranks.trial_seeds(args.seed, args.trials):
        tensor = ranks.sample_tensor(spec, ts)
        prof = ranks.rank_profile(tensor, probe, perm=perm, f_prime=args.f_prime,
                                  exponent=exponent)
        ok = ok and prof.ok
        profiles.append(prof.to_dict())
    payload = {
        "tree": t.text, "probe": probe.text, "perm": perm.one_line(),
        "leaf_dims": list(spec.leaf_dims), "f": list(spec.f),
        "f_prime": args.f_prime, "r": args.r, "exponent": exponent,
        "trials": args.trials, "seed": args.seed, "ok": ok, "profiles": profiles,
    }
    if args.json:
        with open(args.json, "w", encoding="ascii", newline="\n") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")

    def lines(p):
        out = [f"exponent {p['exponent']}  trials {p['trials']}  ok {p['ok']}"]
        worst = {}
        for prof in p["profiles"]:
            for s in prof["splits"]:
                worst[s["node"]] = max(worst.get(s["node"], 0), s["rank"])
        for node, rank in sorted(worst.items()):
            out.append(f"  node {node:<6} max rank {rank}")
        return out

    _emit(payload, args.table, lines)
    return 0 if ok else 1


def _cmd_check_reference(args) -> int:
    adapter = None
    if args.adapter:
        with open(args.adapter) as fh:
            adapter = json.load(fh)
        if not (isinstance(adapter, dict)
                and all(isinstance(x, str) for item in adapter.items() for x in item)):
            raise ValueError(f"{args.adapter}: adapter must be a JSON object of column names")
    diff = search.verify_against_reference(args.ours, args.reference, adapter=adapter)
    payload = diff.to_dict()

    def lines(p):
        out = [f"ok: {p['ok']}  compared: {p['compared']}"]
        for m in p["mismatches"][:20]:
            out.append(f"  mismatch {m}")
        return out

    _emit(payload, args.table, lines)
    return 0 if diff.ok else 1


# ---------------------------------------------------------------------------
# parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnexp",
        description="Containment exponents of tree tensor-network varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table(p):
        p.add_argument("--table", action="store_true",
                       help="human-readable output instead of JSON")

    p = sub.add_parser("enumerate", help="enumerate tree shapes or plane trees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--plane", action="store_true", help="all plane trees, not shapes")
    p.add_argument("--count-only", action="store_true")
    add_table(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("exponent", help="cover-based exponent for a tree pair")
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.add_argument("--perm", default="id")
    p.add_argument("--witnesses", action="store_true")
    p.add_argument("--ilp", action="store_true", help="also solve the integer program")
    add_table(p)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("bounds", help="structural bounds for one tree (or a pair)")
    p.add_argument("tree")
    p.add_argument("--probe", default=None)
    p.add_argument("--perm", default="id")
    add_table(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="exhaustive (shape, shape, perm) sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kinds", default="cover", help="comma list: cover,poset,naive")
    p.add_argument("--csv", default=None, help="write per-instance CSV here")
    p.add_argument("--json", default=None, help="write aggregate JSON here")
    p.add_argument("--sample-perms", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    add_table(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("ip", help="build, solve, export the integer program")
    p.add_argument("tree_a")
    p.add_argument("tree_b")
    p.add_argument("--perm", default="id")
    p.add_argument("--solve", action="store_true")
    p.add_argument("--export", default=None, help="write LP text here")
    add_table(p)
    p.set_defaults(func=_cmd_ip)

    p = sub.add_parser("verify-ranks", help="sample tensors and check flattening ranks")
    p.add_argument("--tree", required=True)
    p.add_argument("--probe", required=True)
    p.add_argument("--perm", default="id")
    p.add_argument("--dims", type=int, default=2, help="uniform leaf dimension")
    p.add_argument("--f", type=int, default=1, help="uniform dimension vector entry")
    p.add_argument("--f-prime", type=int, default=1, help="probe dimension vector entry")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exponent", type=int, default=None,
                   help="claimed exponent (default: computed cover bound)")
    p.add_argument("--json", default=None, help="write the full profile here")
    add_table(p)
    p.set_defaults(func=_cmd_verify_ranks)

    p = sub.add_parser("check-reference", help="diff a results CSV against a reference")
    p.add_argument("ours")
    p.add_argument("reference")
    p.add_argument("--adapter", default=None,
                   help="JSON file mapping our column names to the reference's")
    add_table(p)
    p.set_defaults(func=_cmd_check_reference)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point fd 1 at devnull so the final
        # flush at exit stays quiet, and exit as if killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ranks.RankMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
