"""Benchmark workloads: generated inputs, tnexp argv lists and output checks.

A workload is a sequence of rounds.  A round is a list of tasks, and a
task is one or more `tnexp` commands, issued in order, that together
answer `ops` operations.  Rounds are generated lazily from the workload
seed and cached, so a second pass over the rounds replays exactly the
same commands.

Only the standard library is imported here: the parent process reads the
workload descriptions without importing tnexp.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# `cover` and `poset` digest of the complete n = 8 search; a faster search
# that changes it is wrong, not faster.
SEARCH_N8_DIGEST = "376ed22089a611e70c2e0bb29d696b3223e5fd449cd4916e3d2104360d8077a2"

# Wedderburn-Etherington numbers: unordered shapes on n leaves.
SHAPE_COUNTS = {4: 2, 5: 3, 6: 6, 7: 11, 8: 23}

# There is no sampled-sweep workload (search --sample-perms, then
# check-reference): its time is mostly pure-Python poset tables and
# reference dicts, whose speed swung up to 1.7x between rounds of one run
# on a shared 2-vCPU VM, beyond a 25% bound at any affordable run length.
MIX_SIZES = tuple(range(14, 21))
# (12, 2) comes twice per round so that the median job lies inside the
# (14, 2) jobs rather than at the cost gap between the cheap (12, 2) and
# (14, 2) jobs and the expensive (8, 4) and (16, 2) ones.
RANK_JOBS = tuple((n, d, r) for (n, d) in ((8, 4), (12, 2), (12, 2), (14, 2), (16, 2))
                  for r in (2, 3, 4))
# Rounds generated before the timed section; later rounds, if a run
# needs them, come from the same generator on demand.
PREGENERATED_ROUNDS = 40

DOCS = {
    "search_n8": {
        "argv": "search --n 8 --kinds cover,poset --json F",
        "seed": "unused: every seed runs the same complete sweep",
        "op": "one (shape, shape, permutation) instance evaluated and written "
              "(21,329,280 per command)",
        "round": "one command",
    },
    "exponent_mix": {
        "argv": "exponent T T' --perm P --witnesses; then ip T T' --perm P --solve --export F",
        "seed": "random.Random(seed) draws the trees T, T' (random splits) and the "
                "permutation P; each round visits n = 14..20 once, in a seeded order",
        "op": "one instance answered by both commands",
        "round": "seven instances, one for each n in 14..20",
    },
    "verify_ranks": {
        "argv": "verify-ranks --tree T --probe T' --perm P --dims d --r r --trials 1 --seed s",
        "seed": "random.Random(seed) draws T, T', P and s; each round visits every "
                "(n, d) in {(8,4), (12,2), (14,2), (16,2)} times r in 2..4, in a "
                "seeded order, with (12,2) twice",
        "op": "one verify-ranks job",
        "round": "fifteen jobs: each (n, d, r) once, (12, 2, r) twice",
    },
}


class CheckFailed(Exception):
    """An output that contradicts what the command must produce."""


@dataclass
class Command:
    """Outcome of one `tnexp.cli.main(argv)` call."""

    argv: list
    rc: object          # exit code, or None when the call raised
    stdout: str
    stderr: str
    seconds: float
    error: str = ""     # exception text when the call raised


@dataclass
class Task:
    """Commands issued in order, answering `ops` operations together.

    `check` receives the commands' outcomes (all exited 0) and returns the
    bytes that identify the outputs, or raises CheckFailed.
    """

    argvs: list
    ops: int
    check: Callable


@dataclass
class Workload:
    batch: bool          # every round repeats the same commands
    min_ops: int         # operations a run completes at least (for p90)
    make_round: Callable  # round index -> list of tasks

    def __post_init__(self):
        self._rounds = []

    def round(self, i: int) -> list:
        while len(self._rounds) <= i:
            self._rounds.append(self.make_round(len(self._rounds)))
        return self._rounds[i]


# ---------------------------------------------------------------------------
# input generation

def random_tree(rng: random.Random, n: int) -> str:
    """A random binary tree on n leaves: the root splits off 1..n-1 leaves."""
    if n == 1:
        return "."
    k = rng.randint(1, n - 1)
    return "(" + random_tree(rng, k) + random_tree(rng, n - k) + ")"


def random_perm(rng: random.Random, n: int) -> str:
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    return "-".join(map(str, entries))


# ---------------------------------------------------------------------------
# output checks

def _payload(cmd: Command) -> dict:
    try:
        return json.loads(cmd.stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CheckFailed(f"output file unreadable: {exc}") from None


def check_search(payload: dict, json_bytes: bytes, instances: int,
                 digest=None) -> None:
    """Instance count, cover digest = poset digest (= `digest` if given),
    and the written JSON agrees with stdout."""
    if payload.get("instances") != instances:
        raise CheckFailed(f"instances {payload.get('instances')} != {instances}")
    digests = payload.get("digests", {})
    if digests.get("cover") != digests.get("poset"):
        raise CheckFailed(f"cover digest {digests.get('cover')} != poset digest "
                          f"{digests.get('poset')}")
    if digest is not None and digests.get("cover") != digest:
        raise CheckFailed(f"digest {digests.get('cover')} != pinned {digest}")
    try:
        written = json.loads(json_bytes)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"search JSON file is not JSON: {exc}") from None
    if written.get("digests") != digests or written.get("instances") != instances:
        raise CheckFailed("search JSON file disagrees with stdout")


def check_exponent(e: dict, c_star) -> None:
    """c* = cover_bound <= poset <= trivial, and witnesses certify each node."""
    cover = e.get("cover_bound")
    extra = e.get("extra_bounds", {})
    if c_star != cover:
        raise CheckFailed(f"ip c* {c_star} != cover_bound {cover}")
    if not cover <= extra.get("poset", -1) <= extra.get("trivial", -1):
        raise CheckFailed(f"not cover {cover} <= poset {extra.get('poset')} "
                          f"<= trivial {extra.get('trivial')}")
    witnesses = e.get("witnesses", {})
    for nc in e.get("per_node", []):
        side = nc["desc_set"] if nc["chosen"] == "desc" else nc["anti_set"]
        sets = [w["set"] for w in witnesses.get(nc["node"], ())]
        union = set().union(*sets)
        if sum(map(len, sets)) != len(union):
            raise CheckFailed(f"node {nc['node']}: witness sets overlap")
        if union != set(side):
            raise CheckFailed(f"node {nc['node']}: witnesses cover {sorted(union)}, "
                              f"side is {sorted(side)}")
        if len(sets) != min(nc["n_desc"], nc["n_anti"]):
            raise CheckFailed(f"node {nc['node']}: {len(sets)} witnesses for value "
                              f"{min(nc['n_desc'], nc['n_anti'])}")


def check_ranks(payload: dict) -> None:
    if payload.get("ok") is not True:
        raise CheckFailed("verify-ranks reports ok = false")
    for prof in payload.get("profiles", []):
        for s in prof["splits"]:
            if s["rank"] > s["limit"]:
                raise CheckFailed(f"split {s['node']}: rank {s['rank']} > limit {s['limit']}")


# ---------------------------------------------------------------------------
# tasks

def search_task(n: int, json_path: str, digest=None) -> Task:
    instances = SHAPE_COUNTS[n] ** 2 * math.factorial(n)

    def check(cmds):
        payload, written = _payload(cmds[0]), _read(json_path)
        check_search(payload, written, instances, digest)
        return cmds[0].stdout.encode() + written

    argv = ["search", "--n", str(n), "--kinds", "cover,poset", "--json", json_path]
    return Task([argv], instances, check)


def exponent_task(t: str, t2: str, perm: str, lp_path: str) -> Task:
    def check(cmds):
        e, ip = _payload(cmds[0]), _payload(cmds[1])
        check_exponent(e, ip.get("solution", {}).get("objective"))
        lp = _read(lp_path)
        if not lp.endswith(b"\nEnd\n"):
            raise CheckFailed("LP export does not end with an End section")
        ip.pop("exported", None)     # the temporary path, not an output
        return cmds[0].stdout.encode() + json.dumps(ip, sort_keys=True).encode() + lp

    return Task([["exponent", t, t2, "--perm", perm, "--witnesses"],
                 ["ip", t, t2, "--perm", perm, "--solve", "--export", lp_path]], 1, check)


def ranks_task(t: str, t2: str, perm: str, dims: int, r: int, seed: int) -> Task:
    def check(cmds):
        check_ranks(_payload(cmds[0]))
        return cmds[0].stdout.encode()

    return Task([["verify-ranks", "--tree", t, "--probe", t2, "--perm", perm,
                  "--dims", str(dims), "--r", str(r), "--trials", "1",
                  "--seed", str(seed)]], 1, check)


# ---------------------------------------------------------------------------
# workloads

def _exponent_rounds(rng: random.Random, sizes, lp_path: str):
    def make(_):
        return [exponent_task(random_tree(rng, n), random_tree(rng, n),
                              random_perm(rng, n), lp_path)
                for n in rng.sample(sizes, len(sizes))]
    return make


def _rank_rounds(rng: random.Random, jobs):
    def make(_):
        return [ranks_task(random_tree(rng, n), random_tree(rng, n), random_perm(rng, n),
                           d, r, rng.randrange(1 << 31))
                for (n, d, r) in rng.sample(jobs, len(jobs))]
    return make


def make_workload(name: str, seed: int, tmp: str) -> Workload:
    """The named workload, with every output file inside `tmp`."""
    if name == "search_n8":
        task = search_task(8, os.path.join(tmp, "n8.json"), SEARCH_N8_DIGEST)
        wl = Workload(True, 0, lambda _: [task])
    elif name == "exponent_mix":
        wl = Workload(False, 100, _exponent_rounds(
            random.Random(seed), MIX_SIZES, os.path.join(tmp, "model.lp")))
    elif name == "verify_ranks":
        wl = Workload(False, 100, _rank_rounds(random.Random(seed), RANK_JOBS))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(DOCS)}")
    wl.round(0 if wl.batch else PREGENERATED_ROUNDS - 1)
    return wl
