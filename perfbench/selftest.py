"""Self-test of the benchmark's output checks at tiny sizes.

Each checker must accept the real outputs of small commands, give the
same outputs hash on a second run, and count a tampered output or a
non-zero exit as a failed operation.  Started by `run.py --self-test`
in a fresh process with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import json
import os
import random
import sys

import tnexp.cli as cli

from child import Phase, run_task
from workloads import Task, exponent_task, random_perm, random_tree, ranks_task, search_task


def tampered(task: Task, edit) -> Task:
    """The task with `edit` applied to its first command's parsed stdout."""
    def check(cmds):
        payload = json.loads(cmds[0].stdout)
        edit(payload)
        cmds[0].stdout = json.dumps(payload)
        return task.check(cmds)
    return Task(task.argvs, task.ops, check)


def wrong_digest(payload):
    payload["digests"]["cover"] = "0" * 64


def extra_leaf(payload):
    """Add a leaf from outside the chosen side to one witness set."""
    for nc in payload["per_node"]:
        side = nc["desc_set"] if nc["chosen"] == "desc" else nc["anti_set"]
        other = nc["anti_set"] if nc["chosen"] == "desc" else nc["desc_set"]
        if side and other:
            payload["witnesses"][nc["node"]][0]["set"].append(other[0])
            return
    raise RuntimeError("no node with two nonempty sides")


def outcome(tasks) -> tuple:
    """(failed operations, attempted operations, outputs hash) of one pass."""
    phase = Phase()
    digest = b"".join(run_task(cli, t, phase) for t in tasks)
    return phase.failed, phase.ops, digest


def main(tmp: str) -> int:
    rng = random.Random(0)
    trees = [(random_tree(rng, n), random_tree(rng, n), random_perm(rng, n))
             for n in (6, 7, 8)]
    lp = os.path.join(tmp, "model.lp")
    n5 = os.path.join(tmp, "n5.json")
    valid = {
        "search n=5": [search_task(5, n5)],
        "exponent_mix x3": [exponent_task(t, t2, p, lp) for t, t2, p in trees],
        "verify_ranks n=6": [ranks_task(*trees[0], 2, 2, 7)],
    }
    broken = {
        "search: cover digest != poset digest": [tampered(search_task(5, n5), wrong_digest)],
        "search: digest != pinned value": [search_task(5, n5, digest="f" * 64)],
        "exponent: witness with an extra leaf": [
            tampered(exponent_task(*trees[2], lp), extra_leaf)],
        "verify-ranks: exit 1 (claimed exponent 0)": [
            Task([t.argvs[0] + ["--exponent", "0"]], 1, t.check)
            for t in valid["verify_ranks n=6"]],
        "exponent: exit 2 (leaf counts differ)": [
            exponent_task(trees[0][0], trees[1][1], "id", lp)],
    }
    bad = 0
    for label, tasks in valid.items():
        failed, ops, first = outcome(tasks)
        again = outcome(tasks)[2]
        ok = failed == 0 and first == again
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} accepted and deterministic: {label} "
              f"({ops} ops, {failed} failed)")
    for label, tasks in broken.items():
        failed, ops, _ = outcome(tasks)
        ok = failed == ops > 0
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} counted as failed: {label} ({failed}/{ops})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
