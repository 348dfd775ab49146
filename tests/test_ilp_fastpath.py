"""Tests for the solver fast path: degenerate dispatch, solve memoization
and warm starts (``repro.ilp.fastpath`` / ``repro.ilp.structure``).

The contract under test everywhere: :func:`repro.ilp.solve_fast` is
*objective-identical* to the plain solver :func:`repro.ilp.solver.solve` —
on optimal solves, on infeasible problems and under node limits — and the
repair pipeline produces field-identical outcomes whether or not the
:class:`repro.ilp.SolveCache` memo is enabled."""

from __future__ import annotations

import itertools
import random

import pytest

from helpers.differential import (
    assert_outcomes_field_identical,
    assert_repairs_field_identical,
)
from helpers.ilp_problems import (
    hard_feasible_problem,
    random_assignment_problem,
    random_def55_problem,
)

from repro.core.clustering import cluster_programs
from repro.core.pipeline import Clara
from repro.core.repair import find_best_repair
from repro.datasets import generate_corpus, get_problem
from repro.engine import RepairCaches
from repro.frontend import parse_python_source
from repro.graphs import min_cost_perfect_matching
from repro.ilp import (
    IlpProblem,
    InfeasibleError,
    SolveCache,
    analyze_assignment_form,
    problem_fingerprint,
    solve,
    solve_fast,
)

SEED = 20180618


def _brute_force(problem: IlpProblem) -> float | None:
    best = None
    for bits in itertools.product((0, 1), repeat=len(problem.variables)):
        values = dict(zip(problem.variables, bits))
        if problem.is_feasible(values):
            objective = problem.objective_value(values)
            if best is None or (
                objective < best if problem.minimize else objective > best
            ):
                best = objective
    return best


def _objective_or_none(problem: IlpProblem, **kwargs) -> float | None:
    try:
        return solve_fast(problem, **kwargs).objective
    except InfeasibleError as error:
        assert error.proven, "an unlimited solve must prove infeasibility"
        return None


# -- the min-cost matching substrate ---------------------------------------------------


def test_min_cost_matching_agrees_with_permutation_brute_force():
    rng = random.Random(SEED)
    for _ in range(60):
        n = rng.randint(1, 5)
        left = [f"l{i}" for i in range(n)]
        right = [f"r{j}" for j in range(n)]
        edges = {
            (u, v): float(rng.randint(-5, 9)) for u in left for v in right
        }
        result = min_cost_perfect_matching(left, right, edges)
        assert result is not None
        matching, cost = result
        assert sorted(matching) == left
        assert sorted(matching.values()) == right
        brute = min(
            sum(edges[(left[i], right[p[i]])] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert abs(cost - brute) < 1e-9
        assert abs(sum(edges[e] for e in matching.items()) - brute) < 1e-9


def test_min_cost_matching_detects_impossible_instances():
    assert min_cost_perfect_matching(["a"], ["x", "y"], {("a", "x"): 1.0}) is None
    blocked = {("a", "x"): 1.0, ("b", "x"): 2.0}
    assert min_cost_perfect_matching(["a", "b"], ["x", "y"], blocked) is None
    assert min_cost_perfect_matching([], [], {}) == ({}, 0.0)


# -- objective identity: fast path vs the spec solver ---------------------------------


def test_solve_fast_objective_identical_on_def55_problems():
    rng = random.Random(SEED)
    for trial in range(150):
        problem = random_def55_problem(rng)
        cache = SolveCache()
        fast = _objective_or_none(problem, cache=cache)
        try:
            spec = solve(problem).objective
        except InfeasibleError:
            spec = None
        brute = _brute_force(problem)
        assert (fast is None) == (spec is None) == (brute is None), trial
        if brute is not None:
            assert abs(fast - brute) < 1e-9 and abs(spec - brute) < 1e-9, trial
        # Second solve of the same problem is answered from the memo with
        # the same verdict.
        assert _objective_or_none(problem, cache=cache) == fast
        assert cache.hits == 1 and cache.misses == 1


def test_degenerate_dispatch_is_exact_and_explores_no_nodes():
    rng = random.Random(SEED)
    dispatched = infeasible = 0
    for trial in range(150):
        problem = random_assignment_problem(rng)
        assert analyze_assignment_form(problem) is not None, trial
        cache = SolveCache()
        fast = _objective_or_none(problem, cache=cache)
        assert cache.degenerate_dispatches == 1 and cache.bnb_fallbacks == 0
        assert cache.nodes_explored == 0
        try:
            spec = solve(problem).objective
        except InfeasibleError:
            spec = None
        assert (fast is None) == (spec is None), trial
        if fast is None:
            infeasible += 1
        else:
            assert abs(fast - spec) < 1e-9, trial
            dispatched += 1
        # Proven verdicts (both kinds) are memoized.
        assert _objective_or_none(problem, cache=cache) == fast
        assert cache.hits == 1
    assert dispatched > 50 and infeasible > 10  # both regimes exercised


def test_solutions_returned_by_degenerate_dispatch_are_feasible():
    rng = random.Random(SEED + 1)
    for _ in range(80):
        problem = random_assignment_problem(rng)
        try:
            solution = solve_fast(problem)
        except InfeasibleError:
            continue
        assert problem.is_feasible(solution.values)
        assert solution.optimal and solution.nodes_explored == 0


def test_implications_decline_the_degenerate_form():
    problem = IlpProblem()
    problem.add_variable("a", objective=1.0)
    problem.add_variable("b", objective=2.0)
    problem.add_exactly_one(["a", "b"])
    problem.add_implication("a", "b")
    assert analyze_assignment_form(problem) is None
    cache = SolveCache()
    solution = solve_fast(problem, cache=cache)
    assert cache.bnb_fallbacks == 1 and cache.degenerate_dispatches == 0
    assert solution.objective == solve(problem).objective


def test_odd_group_cycles_decline_the_degenerate_form():
    problem = IlpProblem()
    for var in ("a", "b", "c"):
        problem.add_variable(var)
    problem.add_exactly_one(["a", "b"])
    problem.add_exactly_one(["b", "c"])
    problem.add_exactly_one(["a", "c"])
    assert analyze_assignment_form(problem) is None  # non-bipartite
    with pytest.raises(InfeasibleError) as excinfo:
        solve_fast(problem)
    assert excinfo.value.proven


# -- canonical fingerprints ------------------------------------------------------------


def test_fingerprint_is_insensitive_to_construction_order():
    rng = random.Random(SEED)
    for _ in range(30):
        problem = random_def55_problem(rng)
        shuffled = IlpProblem(minimize=problem.minimize)
        for var in sorted(problem.variables, key=lambda v: rng.random()):
            shuffled.add_variable(var, objective=problem.objective.get(var, 0.0))
        constraints = list(problem.constraints)
        rng.shuffle(constraints)
        for constraint in constraints:
            coeffs = list(constraint.coeffs)
            rng.shuffle(coeffs)
            shuffled.add_constraint(coeffs, constraint.sense, constraint.rhs)
        assert problem_fingerprint(shuffled) == problem_fingerprint(problem)
        # ... and therefore shares a memo entry.
        cache = SolveCache()
        first = _objective_or_none(problem, cache=cache)
        assert _objective_or_none(shuffled, cache=cache) == first
        assert cache.hits == 1


def test_fingerprint_distinguishes_different_problems():
    base = IlpProblem()
    base.add_variable("a", objective=1.0)
    base.add_variable("b", objective=2.0)
    base.add_exactly_one(["a", "b"])

    cheaper = IlpProblem()
    cheaper.add_variable("a", objective=1.0)
    cheaper.add_variable("b", objective=1.0)
    cheaper.add_exactly_one(["a", "b"])
    assert problem_fingerprint(cheaper) != problem_fingerprint(base)

    relaxed = IlpProblem()
    relaxed.add_variable("a", objective=1.0)
    relaxed.add_variable("b", objective=2.0)
    relaxed.add_constraint({"a": 1.0, "b": 1.0}, "<=", 1.0)
    assert problem_fingerprint(relaxed) != problem_fingerprint(base)

    maximized = IlpProblem(minimize=False)
    maximized.add_variable("a", objective=1.0)
    maximized.add_variable("b", objective=2.0)
    maximized.add_exactly_one(["a", "b"])
    assert problem_fingerprint(maximized) != problem_fingerprint(base)


# -- node limits (boundary regression) and what may be cached -------------------------


def test_node_limit_boundary_always_returns_incumbent_or_unproven():
    problem = hard_feasible_problem()
    reference = solve(problem)
    assert reference.optimal
    full_nodes = reference.nodes_explored
    assert full_nodes > 2  # the sweep below must exercise real truncation
    first_return = None
    for limit in range(1, full_nodes + 2):
        try:
            solution = solve(problem, node_limit=limit)
        except InfeasibleError as error:
            # Truncation may legitimately precede the first incumbent, but
            # then the verdict must be unproven — and once any limit admits
            # an incumbent, every larger limit must return (never raise).
            assert not error.proven
            assert first_return is None, f"raise after a return at limit={limit}"
            continue
        if first_return is None:
            first_return = limit
        assert problem.is_feasible(solution.values)
        if limit <= full_nodes:
            assert not solution.optimal  # hit limit -> incumbent, optimal=False
            assert solution.nodes_explored == limit
            assert solution.objective >= reference.objective
        else:
            assert solution.optimal
            assert solution.objective == reference.objective
            assert solution.nodes_explored == full_nodes
    assert first_return is not None and first_return <= full_nodes


def test_infeasible_error_is_unproven_under_truncation():
    problem = IlpProblem()
    for var in ("a", "b", "c"):
        problem.add_variable(var)
    problem.add_exactly_one(["a", "b"])
    problem.add_exactly_one(["b", "c"])
    problem.add_exactly_one(["a", "c"])
    with pytest.raises(InfeasibleError) as full:
        solve(problem)
    assert full.value.proven and full.value.nodes_explored > 0
    with pytest.raises(InfeasibleError) as truncated:
        solve(problem, node_limit=1)
    assert not truncated.value.proven


def test_truncated_incumbents_are_not_cached():
    problem = hard_feasible_problem()
    full_nodes = solve(problem).nodes_explored
    cache = SolveCache()
    truncated = None
    for limit in range(1, full_nodes + 1):
        try:
            truncated = solve_fast(problem, node_limit=limit, cache=cache)
            break
        except InfeasibleError:
            continue
    assert truncated is not None and not truncated.optimal
    assert cache.entry_counts() == {"solves": 0}
    # The next (unlimited) solve is a miss and runs for real ...
    exact = solve_fast(problem, cache=cache)
    assert exact.optimal and cache.hits == 0
    # ... and only then is the optimum memoized.
    assert cache.entry_counts() == {"solves": 1}
    assert solve_fast(problem, cache=cache).objective == exact.objective
    assert cache.hits == 1


def test_unproven_infeasibility_is_not_cached():
    problem = IlpProblem()
    for var in ("a", "b", "c"):
        problem.add_variable(var)
    problem.add_exactly_one(["a", "b"])
    problem.add_exactly_one(["b", "c"])
    problem.add_exactly_one(["a", "c"])
    cache = SolveCache()
    with pytest.raises(InfeasibleError):
        solve_fast(problem, node_limit=1, cache=cache)
    assert cache.entry_counts() == {"solves": 0}
    with pytest.raises(InfeasibleError):  # full solve proves it ...
        solve_fast(problem, cache=cache)
    assert cache.entry_counts() == {"solves": 1}
    with pytest.raises(InfeasibleError) as hit:  # ... and the proof is reused
        solve_fast(problem, cache=cache)
    assert hit.value.proven and cache.hits == 1


def test_empty_choice_group_is_proven_infeasible_via_dispatch():
    problem = IlpProblem()
    problem.add_variable("x", objective=1.0)
    problem.add_exactly_one(["x"])
    problem.add_constraint([], "==", 1.0, name="infeasible")
    cache = SolveCache()
    with pytest.raises(InfeasibleError) as excinfo:
        solve_fast(problem, cache=cache)
    assert excinfo.value.proven
    assert cache.degenerate_dispatches == 1 and cache.nodes_explored == 0
    assert cache.entry_counts() == {"solves": 1}


# -- warm starts ----------------------------------------------------------------------


def test_warm_start_returns_the_cold_solution_when_it_beats_the_bound():
    rng = random.Random(SEED)
    strict_prunes = 0
    for trial in range(100):
        problem = random_def55_problem(rng)
        try:
            cold = solve(problem)
        except InfeasibleError:
            continue
        # Degenerate problems dispatch to the assignment solver, whose
        # tie-breaking may legitimately pick a different optimal assignment
        # than branch-and-bound; compare warm against the cold *fast-path*
        # solution so both sides take the same dispatch route.
        cold_fast = solve_fast(problem)
        margin = 1.0 if problem.minimize else -1.0
        warm = solve_fast(problem, upper_bound=cold.objective + margin)
        assert warm is not None, trial
        assert warm.values == cold_fast.values, trial
        assert warm.objective == cold.objective, trial
        if warm.nodes_explored < cold.nodes_explored:
            strict_prunes += 1
        # A bound at (or below) the optimum can never be beaten.
        assert solve_fast(problem, upper_bound=cold.objective) is None
    assert strict_prunes > 0  # the incumbent really prunes the search


def test_warm_start_applies_to_memoized_solutions():
    problem = hard_feasible_problem()
    cache = SolveCache()
    exact = solve_fast(problem, cache=cache)
    assert solve_fast(problem, cache=cache, upper_bound=exact.objective) is None
    better = solve_fast(problem, cache=cache, upper_bound=exact.objective + 1.0)
    assert better is not None and better.objective == exact.objective
    assert cache.hits == 2  # both bounded solves were answered from the memo


def test_proven_infeasibility_outranks_the_bound():
    problem = IlpProblem()
    problem.add_variable("x")
    problem.add_constraint({"x": 1.0}, "==", 1.0)
    problem.add_constraint({"x": 1.0}, "==", 0.0)
    with pytest.raises(InfeasibleError) as excinfo:
        solve_fast(problem, upper_bound=10.0)
    assert excinfo.value.proven


# -- SolveCache ownership and plumbing -------------------------------------------------


def test_repair_caches_own_a_solve_cache():
    caches = RepairCaches()
    assert isinstance(caches.solve, SolveCache)
    assert caches.solve.enabled
    assert RepairCaches(enabled=False).solve.enabled is False

    problem = hard_feasible_problem()
    solve_fast(problem, cache=caches.solve)
    assert caches.entry_counts()["solves"] == 1
    caches.clear()
    assert caches.entry_counts()["solves"] == 0
    counters = caches.solve.counters()
    assert counters["misses"] == 1  # counters survive clear()


def test_disabled_solve_cache_counts_misses_and_stores_nothing():
    cache = SolveCache(enabled=False)
    problem = hard_feasible_problem()
    first = solve_fast(problem, cache=cache)
    second = solve_fast(problem, cache=cache)
    assert first.objective == second.objective
    assert cache.hits == 0 and cache.misses == 2
    assert cache.bnb_fallbacks == 2 and cache.nodes_explored > 0
    assert cache.entry_counts() == {"solves": 0}


# -- differential end to end: SolveCache on vs off ------------------------------------


def test_repair_outcomes_identical_with_solve_cache_on_vs_off():
    """find_best_repair over a corpus (with duplicated attempts, the MOOC
    redundancy the memo targets) is field-identical with the SolveCache
    enabled vs disabled — only the solve counters may differ."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 8, 6, seed=11)
    correct = [parse_python_source(s) for s in corpus.correct_sources]
    clusters = cluster_programs(correct, problem.cases).clusters
    attempts = [parse_python_source(s) for s in corpus.incorrect_sources * 2]

    uncached = RepairCaches()
    uncached.solve.enabled = False
    baseline = [
        find_best_repair(p, clusters, caches=uncached) for p in attempts
    ]
    for cluster in clusters:  # drop reference-value memos filled above
        cluster.reset_runtime_caches()
    cached = RepairCaches()
    memoized = [
        find_best_repair(p, clusters, caches=cached) for p in attempts
    ]

    assert_repairs_field_identical(memoized, baseline)
    assert cached.solve.hits > 0, "duplicated attempts must hit the solve memo"
    assert cached.solve.hits + cached.solve.misses == uncached.solve.misses
    assert cached.solve.nodes_explored < uncached.solve.nodes_explored


def test_pipeline_feedback_identical_with_solve_cache_on_vs_off():
    """Full pipeline differential (mirrors ``tests/test_exec_fastpath.py``):
    statuses, repairs and feedback *text* agree with the memo on and off."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 8, 6, seed=7)

    outcomes = []
    for disable in (True, False):
        clara = Clara(problem.cases)
        if disable:
            clara.caches.solve.enabled = False
        clara.add_correct_sources(corpus.correct_sources)
        outcomes.append([clara.repair_source(s) for s in corpus.incorrect_sources])

    baseline, memoized = outcomes
    assert len(baseline) == len(memoized)
    assert_outcomes_field_identical(memoized, baseline)
