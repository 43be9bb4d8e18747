import dataclasses
import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from conftest import all_perms, doad_sets, min_cover_bnb, random_tree
from tnexp.covers import cover_exponent
from tnexp.ilp import _greedy_cover, build_ip, export_lp, solve_ip
from tnexp.trees import (
    Permutation,
    build_ht,
    build_tt,
    enumerate_shapes,
    mask_lca,
    parse_tree,
)


def _check_assignment(model, sol):
    """Every row of the model must hold under the solver's assignment."""
    values = dict(sol.assignment)
    for row in model.rows:
        total = sum(coef * values[var] for coef, var in row.terms)
        if row.sense == ">=":
            assert total >= row.rhs, row.name
        else:
            assert total <= row.rhs, row.name


# ---------------------------------------------------------------------------
# model construction

def test_two_leaf_model_shape():
    t = parse_tree("(..)")
    model = build_ip(t, t)
    assert len(model.variables) == 8   # zu, zo, c, three xu, two yu
    assert len(model.rows) == 6        # choose, two covers, two cards, c floor
    assert model.variables[-1] == "c"
    _, binary = _parse_lp(export_lp(model))
    assert "c" not in binary
    # nothing fits inside the root's empty anti side
    assert set(model.fixed_zero) == {"xo_r_r", "xo_r_0", "yo_r_0", "xo_r_1", "yo_r_1"}
    sol = solve_ip(model)
    assert sol.objective == 1
    _check_assignment(model, sol)


def test_variables_respect_subset_conditions():
    t, t2 = build_ht(2), build_tt(4)
    model = build_ip(t, t2)
    names = set(model.variables)
    # node "00" of the comb tree pulls back to {1,2}: the descendant set
    # {3,4} cannot participate there
    assert "xu_00_1" in model.fixed_zero
    assert "xu_00_1" not in names
    # but {1,2} itself (descendant set of vertex "0" of ht2) can
    assert "xu_00_0" in names
    # anti set of the covering tree's root is empty: never registered
    assert not any(name.startswith(("yu", "yo")) and name.endswith("_r")
                   for name in names)
    rows = {row.name for row in model.rows}
    assert {"choose_r", "choose_0", "choose_00", "c_min"} <= rows


def test_row_variables_are_registered():
    model = build_ip(build_ht(2), build_ht(2), Permutation([2, 3, 1, 4]))
    names = set(model.variables)
    for row in model.rows:
        for _, var in row.terms:
            assert var in names


def test_leaf_mismatch_rejected():
    with pytest.raises(ValueError):
        build_ip(build_ht(2), build_tt(8))


# ---------------------------------------------------------------------------
# solving

def test_paper_instances():
    assert solve_ip(build_ip(build_ht(2), build_tt(4))).objective == 1
    assert solve_ip(build_ip(build_ht(3), build_tt(8))).objective == 2


def test_self_instances():
    for n in (2, 4, 6):
        for t in enumerate_shapes(n):
            assert solve_ip(build_ip(t, t)).objective == 1


def test_solution_covers_are_valid():
    t, t2 = build_ht(3), build_tt(8)
    model = build_ip(t, t2)
    sol = solve_ip(model)
    _check_assignment(model, sol)
    for wl, detail in sol.per_node.items():
        target, _ = model.node_sides[wl][detail["side"]]
        union = 0
        for m in detail["cover"]:
            assert m & ~target == 0
            union |= m
        assert union == target
        assert len(detail["cover"]) == detail["count"] <= sol.objective


def _side_covers(t, masks):
    """solve_ip's (count, cover) for each mask, over the candidate sets
    build_ip registers for it: one model node per mask, whose two sides
    are both that mask, so the tie keeps the desc side."""
    model = build_ip(t, t)
    _, every = model.node_sides["r"]["desc"]   # the root's desc side holds every doad set
    sides = {}
    for m in masks:
        side = (m, tuple(c for c in every if not c[1] & ~m))
        sides[str(m)] = {"desc": side, "anti": side}
    sol = solve_ip(dataclasses.replace(model, node_sides=sides))
    assert {d["side"] for d in sol.per_node.values()} <= {"desc"}
    return {int(w): (d["count"], d["cover"]) for w, d in sol.per_node.items()}, sides


def _check_against_bnb(t, masks):
    # the oracle's count is exact from any start; its masks are its greedy
    # start's unless that is beaten, so the order is also checked directly
    got, sides = _side_covers(t, masks)
    for m in masks:
        target, cands = sides[str(m)]["desc"]
        assert got[m] == min_cover_bnb(cands, target), (t.text, m)
        cover = got[m][1]
        assert cover == tuple(sorted(cover, key=lambda c: (c.bit_count(), c), reverse=True))


def test_side_covers_match_branch_and_bound_every_mask_n7():
    # greedy's count and mask order equal the exhaustive branch and bound's
    # on every leaf subset, empty and full included
    for n in range(2, 8):
        for t in enumerate_shapes(n):
            _check_against_bnb(t, range(t.full_mask + 1))


def test_side_covers_match_branch_and_bound_random_masks():
    rng = random.Random(7)
    for n in range(8, 33):
        for _ in range(4):
            t = random_tree(rng, n)
            _check_against_bnb(t, [rng.getrandbits(n) for _ in range(25)])


def test_greedy_raises_on_leaves_no_candidate_covers():
    with pytest.raises(RuntimeError, match="not coverable"):
        _greedy_cover((("x", 0b011),), 0b111)


def test_solution_sides_match_branch_and_bound():
    # on real models: per node, the cheaper side by the oracle (desc on a
    # tie) and its oracle cover
    rng = random.Random(3)
    for n in range(4, 33, 2):
        t, t2 = random_tree(rng, n), random_tree(rng, n)
        model = build_ip(t, t2, Permutation(rng.sample(range(1, n + 1), n)))
        sol = solve_ip(model)
        for wl, sides in model.node_sides.items():
            (nd, cd), (na, ca) = (min_cover_bnb(cands, target)
                                  for target, cands in (sides["desc"], sides["anti"]))
            want = ("anti", na, ca) if na < nd else ("desc", nd, cd)
            d = sol.per_node[wl]
            assert (d["side"], d["count"], d["cover"]) == want, (t.text, t2.text, wl)


def test_matches_cover_engine_small_sweep():
    # the greedy IP solve over the model's own candidate sets vs the
    # closed-form cover numbers
    for n in (4, 5):
        shapes = enumerate_shapes(n)
        perms = all_perms(n)[::11]
        for t, t2 in itertools.product(shapes, repeat=2):
            for perm in perms:
                want = cover_exponent(t, t2, perm).cover_bound
                got = solve_ip(build_ip(t, t2, perm)).objective
                assert got == want


def test_zero_fixing_enforces_exact_unions():
    # the subset conditions are load-bearing: they are what makes every
    # feasible cover an exact union.  dropping them turns the covering
    # rows into a plain hitting problem, where an oversized set can fake
    # a cheaper "cover" that certifies nothing
    from tnexp.trees import mask_from_leaves

    t, t2 = build_ht(2), build_tt(4)
    perm = Permutation([1, 3, 2, 4])
    model = build_ip(t, t2, perm)
    assert solve_ip(model).objective == 2

    target = perm.pullback(mask_from_leaves([1, 2]))   # {1,3}
    doads = doad_sets(t)
    relaxed = min(
        (a, b) for a in doads for b in doads
        if (a | b) & target == target)
    assert any(m & target == target for m in doads)  # one superset suffices
    assert all(m & ~target for m in doads if m & target == target)


def _label_maxima(t, vids):
    labset = {t.labels[v]: v for v in vids}
    return [v for lab, v in labset.items()
            if not any(lab[:k] in labset for k in range(len(lab)))]


def _poset_assignment(t, t2, perm, model, c_value):
    """Translate the four-way poset coverings into an IP assignment."""
    assignment = {v: 0 for v in model.variables}
    full = t.full_mask
    for w in t2.internal:
        wl = t2.labels[w] or "r"
        side_mask = perm.pullback(t2.desc_masks[w])
        comp = full ^ side_mask
        if comp == 0:
            assignment[f"zo_{wl}"] = 1  # empty anti side: zero sets suffice
            continue
        in_s = [v for v in range(t.size) if not t.desc_masks[v] & comp]
        in_c = [v for v in range(t.size) if not t.desc_masks[v] & side_mask]
        lca_c, lca_s = mask_lca(t, comp), mask_lca(t, side_mask)
        below_c = [v for v in in_s if t.labels[v].startswith(t.labels[lca_c])]
        below_s = [v for v in in_c if t.labels[v].startswith(t.labels[lca_s])]
        m_s, m_c = _label_maxima(t, in_s), _label_maxima(t, in_c)
        m3, m4 = _label_maxima(t, below_c), _label_maxima(t, below_s)
        options = [
            (len(m_c), "anti", [("desc", v) for v in m_c]),
            (len(m_s), "desc", [("desc", v) for v in m_s]),
            (len(m3) + 1, "desc", [("desc", v) for v in m3] + [("anti", lca_c)]),
            (len(m4) + 1, "anti", [("desc", v) for v in m4] + [("anti", lca_s)]),
        ]
        count, side, sets = min(options, key=lambda o: o[0])
        assert count <= c_value
        tag = "u" if side == "desc" else "o"
        assignment[f"z{tag}_{wl}"] = 1
        for kind, v in sets:
            if kind == "anti" and t.anti_mask(v) == 0:
                continue  # empty set adds nothing to the union
            prefix = ("x" if kind == "desc" else "y") + tag
            assignment[f"{prefix}_{wl}_{t.labels[v] or 'r'}"] = 1
    assignment["c"] = c_value
    return assignment


def test_poset_certificate_is_feasible():
    # the explicit poset coverings satisfy every row of the program with
    # c set to the poset bound
    from tnexp.bounds import poset_bound
    from tnexp.search import _sample_perms

    checked = 0
    for n in range(2, 7):
        shapes = enumerate_shapes(n)
        if n <= 4:
            perms = all_perms(n)
        else:
            perms = [Permutation(row) for row in _sample_perms(n, 60, seed=1)]
        for t, t2 in itertools.product(shapes, repeat=2):
            for perm in perms:
                model = build_ip(t, t2, perm)
                bound = poset_bound(t, t2, perm).value
                assignment = _poset_assignment(t, t2, perm, model, bound)
                for row in model.rows:
                    total = sum(coef * assignment[var] for coef, var in row.terms)
                    if row.sense == ">=":
                        assert total >= row.rhs, (row.name, t.text, t2.text)
                    else:
                        assert total <= row.rhs, (row.name, t.text, t2.text)
                assert solve_ip(model).objective <= bound
                checked += 1
    assert checked == 2 + 6 + 4 * 24 + 9 * 60 + 36 * 60


# ---------------------------------------------------------------------------
# LP export

def test_export_two_leaf():
    t = parse_tree("(..)")
    text = export_lp(build_ip(t, t))
    lines = text.splitlines()
    assert "Minimize" in lines and "Subject To" in lines
    assert "Binary" in lines and lines[-1] == "End"
    assert " obj: c" in lines
    assert " choose_r: zu_r + zo_r >= 1" in lines
    assert " c_min: c >= 1" in lines
    # five structural rows plus the c floor
    assert sum(1 for l in lines if ">=" in l or "<=" in l) == 6


def test_export_deterministic(tmp_path):
    model = build_ip(build_ht(2), build_tt(4), Permutation([2, 1, 4, 3]))
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    export_lp(model, p1)
    export_lp(model, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == export_lp(model)


# sha256 over the LP text, model dict, node_sides and solution dict of
# the seeded model set below; any change to names, row order or the
# optimal cover found shows here
IP_BYTES_SHA256 = "6c505ddebad6fdd0edf451ada355d8d3b2d0f544a80429419d06e11bf55f2da5"


def test_ip_bytes_pinned():
    rng = random.Random(20)
    h = hashlib.sha256()
    for n in range(2, 21):
        for _ in range(5):
            t, t2 = random_tree(rng, n), random_tree(rng, n)
            model = build_ip(t, t2, Permutation(rng.sample(range(1, n + 1), n)))
            h.update(export_lp(model).encode())
            h.update(json.dumps(model.to_dict()).encode())
            h.update(repr(model.node_sides).encode())
            h.update(json.dumps(solve_ip(model).to_dict()).encode())
    assert h.hexdigest() == IP_BYTES_SHA256


def _parse_lp(text):
    """Minimal reader for our own LP dialect: +/-1 coefficients only."""
    lines = [l for l in text.splitlines() if not l.startswith("\\")]
    rows, binaries = [], []
    section = None
    for line in lines:
        if line in ("Minimize", "Subject To", "Binary", "End"):
            section = line
            continue
        entry = line.strip()
        if section == "Subject To":
            name, rest = entry.split(":", 1)
            body, rhs = (rest.rsplit(">=", 1) if ">=" in rest else rest.rsplit("<=", 1))
            sense = ">=" if ">=" in rest else "<="
            terms, sign = [], 1
            for tok in body.split():
                if tok == "+":
                    sign = 1
                elif tok == "-":
                    sign = -1
                else:
                    terms.append((sign, tok))
                    sign = 1
            rows.append((name.strip(), terms, sense, int(rhs)))
        elif section == "Binary":
            binaries.append(entry)
    return rows, binaries


def _solve_lp_text(text):
    """Optimum of the exported LP text, solved by scipy's HiGHS MILP."""
    optimize = pytest.importorskip("scipy.optimize")
    rows, binaries = _parse_lp(text)
    column = {name: k for k, name in enumerate(binaries + ["c"])}
    matrix = np.zeros((len(rows), len(column)))
    lower, upper = np.full(len(rows), -np.inf), np.full(len(rows), np.inf)
    for r, (_, terms, sense, rhs) in enumerate(rows):
        for coef, var in terms:
            matrix[r, column[var]] += coef
        (lower if sense == ">=" else upper)[r] = rhs
    cost = np.zeros(len(column))
    cost[column["c"]] = 1
    # binaries are integral in [0, 1]; c is continuous and, as in LP files, >= 0
    res = optimize.milp(cost, constraints=optimize.LinearConstraint(matrix, lower, upper),
                        integrality=cost == 0,
                        bounds=optimize.Bounds(0, np.where(cost == 0, 1, np.inf)))
    assert res.success, res.message
    return round(res.fun)


@pytest.mark.parametrize("pair,perm,want", [
    ((build_ht(2), build_tt(4)), None, 1),
    ((build_ht(2), build_tt(4)), Permutation([1, 3, 2, 4]), 2),
    ((build_ht(3), build_tt(8)), None, 2),
    ((parse_tree("(..)"), parse_tree("(..)")), None, 1),
])
def test_export_solved_by_external_milp_solver(pair, perm, want):
    model = build_ip(*pair, perm)
    text = export_lp(model)
    assert _solve_lp_text(text) == want
    assert solve_ip(model).objective == want


def test_export_solved_by_milp_matches_solve_ip_n6():
    from tnexp.search import _sample_perms

    perms = [Permutation(row) for row in _sample_perms(6, 5, seed=2)]
    checked = 0
    for t, t2 in itertools.product(enumerate_shapes(6), repeat=2):
        for perm in perms:
            model = build_ip(t, t2, perm)
            assert _solve_lp_text(export_lp(model)) == solve_ip(model).objective, \
                (t.text, t2.text, perm.one_line())
            checked += 1
    assert checked == 36 * 5
