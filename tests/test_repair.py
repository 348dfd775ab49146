"""Tests for local repair generation and the repair algorithm (paper §5)."""

from __future__ import annotations

import pytest

from repro.core.clustering import cluster_programs
from repro.core.inputs import is_correct
from repro.core.localrepair import (
    enumerate_partial_relations,
    expressions_match,
    generate_local_repairs,
)
from repro.core.matching import structural_match
from repro.core.repair import find_best_repair, repair_against_cluster
from repro.frontend import parse_python_source
from repro.model.expr import Const, Op, Var


@pytest.fixture()
def deriv_cluster(paper_sources, deriv_cases):
    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
    ]
    return cluster_programs(programs, deriv_cases).clusters[0]


# -- expression matching and partial relations ----------------------------------------


def test_expressions_match_on_representative_traces(deriv_cluster):
    rep = deriv_cluster.representative
    traces = deriv_cluster.representative_traces
    loop_body = rep.location_ids()[2]
    append_style = rep.update_for(loop_body, "result")
    concat_style = Op(
        "Add",
        Var("result"),
        Op("ListInit", Op("Mult", Op("float", Op("ListHead", Var("$iter1"))),
                          Op("GetElement", Var("poly"), Op("ListHead", Var("$iter1"))))),
    )
    assert expressions_match(concat_style, append_style, traces, loop_body)
    wrong = Op("Add", Var("result"), Const([1.0]))
    assert not expressions_match(wrong, append_style, traces, loop_body)


def test_enumerate_partial_relations_injective_and_forced():
    relations = list(
        enumerate_partial_relations(["a", "b"], ["x", "y", "z"], forced=("a", "x"))
    )
    assert all(rel["a"] == "x" for rel in relations)
    assert all(rel["b"] != "x" for rel in relations)
    assert {rel["b"] for rel in relations} == {"y", "z"}


def test_enumerate_partial_relations_fixed_specials_map_identically():
    relations = list(
        enumerate_partial_relations(["$ret", "v"], ["x", "y"], forced=("v", "x"))
    )
    assert relations and all(rel["$ret"] == "$ret" for rel in relations)


# -- local repairs --------------------------------------------------------------------


def test_local_repairs_for_paper_i1(paper_sources, deriv_cluster):
    implementation = parse_python_source(paper_sources["I1"])
    location_map = structural_match(implementation, deriv_cluster.representative)
    candidates = generate_local_repairs(implementation, deriv_cluster, location_map)

    # Site of the wrong return expression (after the loop, variable $ret).
    after_loop = implementation.location_ids()[3]
    ret_site = next(s for s in candidates if s.loc_id == after_loop and s.var == "$ret")
    ret_candidates = candidates[ret_site]
    assert ret_candidates, "the return expression must have repair candidates"
    # At least one replacement candidate exists with a small cost (change 0.0
    # to [0.0]); no zero-cost keep candidate may exist because the original
    # return expression is wrong.
    assert all(c.cost > 0 or c.new_expr is not None for c in ret_candidates)
    assert min(c.cost for c in ret_candidates) <= 2

    # The accumulator assignment inside the loop body is already correct, so a
    # zero-cost keep candidate must exist for it.
    loop_body = implementation.location_ids()[2]
    new_site = next(s for s in candidates if s.loc_id == loop_body and s.var == "new")
    assert any(c.keeps_original and c.cost == 0 for c in candidates[new_site])


# -- whole-program repair ----------------------------------------------------------------


def test_repair_paper_i1_minimal(paper_sources, deriv_cases, deriv_cluster):
    implementation = parse_python_source(paper_sources["I1"])
    repair = repair_against_cluster(implementation, deriv_cluster)
    assert repair is not None
    # Fig. 2(g): a single small change (0.0 -> [0.0]); relative size ~0.03.
    assert repair.num_modified_expressions == 1
    assert repair.cost <= 2
    assert repair.relative_size() < 0.1
    assert is_correct(repair.repaired_program, deriv_cases)
    # The witness maps the student's variables onto the representative's.
    assert repair.variable_map["new"] == "result"


def test_repair_paper_i2_three_changes(paper_sources, deriv_cases, deriv_cluster):
    implementation = parse_python_source(paper_sources["I2"])
    repair = repair_against_cluster(implementation, deriv_cluster)
    assert repair is not None
    # Fig. 2(h): iterator bounds, the assignment style, and the return value.
    assert repair.num_modified_expressions == 3
    assert is_correct(repair.repaired_program, deriv_cases)


def test_repair_soundness_theorem_5_3(paper_sources, deriv_cases, deriv_cluster):
    # Every produced repair must make the program pass the inputs I
    # (Theorem 5.3 instantiated on the test inputs).
    for name in ("I1", "I2"):
        implementation = parse_python_source(paper_sources[name])
        repair = repair_against_cluster(implementation, deriv_cluster)
        assert repair is not None
        assert is_correct(repair.repaired_program, deriv_cases)


def test_repair_requires_same_control_flow(deriv_cases, deriv_cluster):
    loop_free = parse_python_source("def computeDeriv(poly):\n    return [0.0]\n")
    assert repair_against_cluster(loop_free, deriv_cluster) is None


def test_repair_adds_fresh_variable_when_needed(deriv_cases):
    # The correct solution tracks the derivative in an accumulator; the
    # incorrect attempt forgot the accumulator entirely (cf. Fig. 8's "big
    # conceptual error": a fresh variable plus new statements are required).
    correct = """
def computeDeriv(poly):
    result = []
    for e in range(1, len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
"""
    missing_accumulator = """
def computeDeriv(poly):
    for e in range(1, len(poly)):
        pass
    if poly == []:
        return [0.0]
    else:
        return poly
"""
    cluster = cluster_programs([parse_python_source(correct)], deriv_cases).clusters[0]
    implementation = parse_python_source(missing_accumulator)
    repair = repair_against_cluster(implementation, cluster)
    assert repair is not None
    assert repair.added_vars, "a fresh accumulator variable must be introduced"
    assert is_correct(repair.repaired_program, deriv_cases)
    assert any(action.kind == "add" for action in repair.actions)


def test_repair_deletes_spurious_variable(deriv_cases, paper_sources):
    cluster = cluster_programs(
        [parse_python_source(paper_sources["C1"])], deriv_cases
    ).clusters[0]
    with_extra = """
def computeDeriv(poly):
    result = []
    junk = 0
    for e in range(1, len(poly)):
        result.append(poly[e]*e)
        junk = junk + 1
    if result == []:
        return [0.0]
    else:
        return result
"""
    implementation = parse_python_source(with_extra)
    repair = repair_against_cluster(implementation, cluster)
    assert repair is not None
    assert is_correct(repair.repaired_program, deriv_cases)
    # 'junk' has no counterpart in the single-member cluster: it is deleted.
    assert "junk" in repair.deleted_vars


def test_find_best_repair_prefers_cheapest_cluster(paper_sources, deriv_cases):
    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
    ]
    clusters = cluster_programs(programs, deriv_cases).clusters
    implementation = parse_python_source(paper_sources["I1"])
    best = find_best_repair(implementation, clusters)
    assert best is not None
    assert best.cost <= 2


def test_find_best_repair_visits_clusters_in_deterministic_order(
    paper_sources, deriv_cases
):
    """Under max_clusters (and timeouts) the search must try bigger clusters
    first and break size ties by ascending cluster_id, independent of the
    order the cluster list happens to arrive in."""
    programs = [
        parse_python_source(paper_sources["C1"]),
        parse_python_source(paper_sources["C2"]),
    ]
    # Two singleton clusters of the same strategy: equal sizes, ids 0 and 1.
    clusters = [
        cluster_programs([program], deriv_cases).clusters[0] for program in programs
    ]
    clusters[1].cluster_id = 1
    implementation = parse_python_source(paper_sources["I1"])
    for ordering in (clusters, list(reversed(clusters))):
        best = find_best_repair(implementation, ordering, max_clusters=1)
        assert best is not None
        assert best.cluster_id == 0  # tie on size -> lowest cluster_id wins


def test_enumeration_solver_agrees_with_ilp(paper_sources, deriv_cases, deriv_cluster):
    for name in ("I1", "I2"):
        implementation = parse_python_source(paper_sources[name])
        ilp = repair_against_cluster(implementation, deriv_cluster, solver="ilp")
        enum = repair_against_cluster(implementation, deriv_cluster, solver="enumerate")
        assert ilp is not None and enum is not None
        assert abs(ilp.cost - enum.cost) < 1e-9


def test_unknown_solver_rejected(paper_sources, deriv_cluster):
    implementation = parse_python_source(paper_sources["I1"])
    with pytest.raises(ValueError):
        repair_against_cluster(implementation, deriv_cluster, solver="magic")


# -- the fast path: cost-bounded search and candidate pruning ------------------------


def _repair_fields(repair):
    """Everything observable about a repair except wall-clock solve time."""
    return repair.comparable_fields() if repair is not None else None


def test_cost_bounded_search_is_field_identical(paper_sources, deriv_cases):
    from repro.engine import RepairCaches

    # Two singleton clusters force the search to visit a second cluster with
    # a bound from the first.
    clusters = [
        cluster_programs([parse_python_source(paper_sources[name])], deriv_cases).clusters[0]
        for name in ("C1", "C2")
    ]
    clusters[1].cluster_id = 1
    for name in ("I1", "I2"):
        implementation = parse_python_source(paper_sources[name])
        unpruned = find_best_repair(
            implementation, clusters, caches=RepairCaches(enabled=False), cost_bound=False
        )
        pruned = find_best_repair(
            implementation, clusters, caches=RepairCaches(), cost_bound=True
        )
        assert _repair_fields(pruned) == _repair_fields(unpruned)


def test_cost_bounded_search_skips_ted_dps(paper_sources, deriv_cases):
    from repro.engine import RepairCaches

    clusters = [
        cluster_programs([parse_python_source(paper_sources[name])], deriv_cases).clusters[0]
        for name in ("C1", "C2")
    ]
    clusters[1].cluster_id = 1
    implementation = parse_python_source(paper_sources["I2"])

    baseline = RepairCaches(enabled=False)
    find_best_repair(implementation, clusters, caches=baseline, cost_bound=False)
    fast = RepairCaches()
    find_best_repair(implementation, clusters, caches=fast, cost_bound=True)

    assert fast.ted.stats.dp_runs < baseline.ted.stats.dp_runs
    assert fast.ted.stats.memo_hits + fast.ted.stats.lb_prunes > 0


def test_generate_local_repairs_prunes_only_at_or_above_bound(
    paper_sources, deriv_cluster
):
    implementation = parse_python_source(paper_sources["I2"])
    location_map = structural_match(implementation, deriv_cluster.representative)
    unbounded = generate_local_repairs(implementation, deriv_cluster, location_map)
    costs = sorted(
        c.cost for candidates in unbounded.values() for c in candidates if c.cost > 0
    )
    assert costs, "the corpus must produce costly candidates"
    bound = float(costs[len(costs) // 2])

    bounded = generate_local_repairs(
        implementation, deriv_cluster, location_map, cost_bound=bound
    )
    assert set(bounded) == set(unbounded)
    for site, candidates in unbounded.items():
        surviving = [c for c in candidates if c.cost < bound]
        assert bounded[site] == surviving, (
            "pruning must drop exactly the candidates whose cost reaches the "
            "bound, with identical costs for the survivors"
        )
