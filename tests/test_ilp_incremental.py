"""Differential tests: the incremental solver against its executable spec.

:func:`repro.ilp.solver.solve` (trail, incremental activities, seeded
propagation queue, slack forcing) must visit exactly the branch-and-bound
nodes of :func:`repro.ilp.reference.solve_reference`.  Every test below
compares the two field for field — ``values``, ``objective``, ``optimal``
and ``nodes_explored`` of a solution, ``proven`` and ``nodes_explored`` of
an :class:`InfeasibleError` — over seeded Def. 5.5 generators swept across
node limits and incumbent bounds, a Hypothesis family checked against
brute force, and the real repair ILPs of a small corpus.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers.ilp_problems import (
    hard_feasible_problem,
    random_assignment_problem,
    random_def55_problem,
)

import repro.ilp.fastpath as fastpath
from repro.core.clustering import cluster_programs
from repro.core.repair import find_best_repair
from repro.datasets import generate_corpus, get_problem
from repro.engine import RepairCaches
from repro.frontend import parse_python_source
from repro.ilp import IlpProblem, InfeasibleError, solve
from repro.ilp.reference import solve_reference

SEED = 20180618
#: ``None`` stands for the default (effectively unlimited) node budget.
NODE_LIMITS = (1, 2, 5, None)


def _outcome(solver, problem: IlpProblem, **kwargs) -> tuple:
    """Every observable field of one solve, solution or error."""
    try:
        solution = solver(problem, **kwargs)
    except InfeasibleError as error:
        return ("infeasible", error.proven, error.nodes_explored)
    return (
        "solution",
        solution.values,
        solution.objective,
        solution.optimal,
        solution.nodes_explored,
    )


def _assert_identical(problem: IlpProblem, **kwargs) -> tuple:
    incremental = _outcome(solve, problem, **kwargs)
    assert incremental == _outcome(solve_reference, problem, **kwargs), kwargs
    return incremental


def _sweep(problem: IlpProblem) -> None:
    """Node limits x incumbent bounds: none, the optimum, the optimum - 1."""
    full = _assert_identical(problem)
    bounds = [None]
    if full[0] == "solution":
        bounds += [full[2], full[2] - 1]
    for node_limit, upper_bound in itertools.product(NODE_LIMITS, bounds):
        kwargs = {"upper_bound": upper_bound}
        if node_limit is not None:
            kwargs["node_limit"] = node_limit
        _assert_identical(problem, **kwargs)


# -- seeded Def. 5.5 generators ----------------------------------------------------------


def test_identical_on_def55_problems_across_limits_and_bounds():
    rng = random.Random(SEED)
    for _ in range(150):
        _sweep(random_def55_problem(rng))


def test_identical_on_assignment_problems_across_limits_and_bounds():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        _sweep(random_assignment_problem(rng))


def test_identical_on_every_node_limit_of_a_branchy_problem():
    problem = hard_feasible_problem()
    full_nodes = solve_reference(problem).nodes_explored
    for node_limit in range(1, full_nodes + 2):
        _assert_identical(problem, node_limit=node_limit)


# -- repeated, cancelling and zero terms ---------------------------------------------------


def test_repeated_term_counts_twice():
    # a + a <= 1 forbids a; the cheapest way to satisfy b + a >= 1 is b.
    problem = IlpProblem()
    problem.add_variable("a", objective=1.0)
    problem.add_variable("b", objective=5.0)
    problem.add_constraint([("a", 1.0), ("a", 1.0)], "<=", 1.0)
    problem.add_constraint([("a", 1.0), ("b", 1.0)], ">=", 1.0)
    result = _assert_identical(problem)
    assert result[1] == {"a": 0, "b": 1}


def test_repeated_term_in_exactly_one_is_infeasible_alone():
    problem = IlpProblem()
    problem.add_variable("a", objective=1.0)
    problem.add_constraint([("a", 1.0), ("a", 1.0)], "==", 1.0)
    with pytest.raises(InfeasibleError) as excinfo:
        solve(problem)
    assert excinfo.value.proven
    _assert_identical(problem)


def test_cancelling_terms_constrain_nothing():
    # a - a >= 0 holds for both values of a, so only the cost decides.
    problem = IlpProblem(minimize=False)
    problem.add_variable("a", objective=2.0)
    problem.add_constraint([("a", 1.0), ("a", -1.0)], ">=", 0.0)
    result = _assert_identical(problem)
    assert result[1] == {"a": 1} and result[2] == 2.0
    # ... and a - a == 1 can never hold.
    problem.add_constraint([("a", 1.0), ("a", -1.0)], "==", 1.0)
    assert _assert_identical(problem)[:2] == ("infeasible", True)


def test_zero_coefficient_is_ignored():
    problem = IlpProblem()
    problem.add_variable("a", objective=3.0)
    problem.add_variable("b", objective=1.0)
    problem.add_constraint([("a", 0.0), ("b", 1.0)], ">=", 1.0)
    problem.add_constraint([("a", 1.0), ("b", 0.0)], "<=", 1.0)
    result = _assert_identical(problem)
    assert result[1] == {"a": 0, "b": 1}


# -- property: brute force, dyadic costs -----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_identical_and_optimal_on_random_problems(data):
    """Costs are multiples of 0.25, so every sum is exact in floating point
    and ties are real ties; coefficients may repeat a variable or be 0."""
    n_vars = data.draw(st.integers(1, 6), label="n_vars")
    variables = [f"v{i}" for i in range(n_vars)]
    problem = IlpProblem(minimize=data.draw(st.booleans(), label="minimize"))
    for var in variables:
        problem.add_variable(var, objective=data.draw(st.integers(-12, 24), label=var) / 4)
    for index in range(data.draw(st.integers(0, 5), label="n_constraints")):
        terms = data.draw(
            st.lists(
                st.tuples(st.sampled_from(variables), st.integers(-3, 3).map(float)),
                max_size=n_vars + 1,
            ),
            label=f"c{index}",
        )
        sense = data.draw(st.sampled_from(["==", ">=", "<="]), label=f"s{index}")
        rhs = data.draw(st.integers(-3, 4), label=f"r{index}")
        problem.add_constraint(terms, sense, float(rhs))
    node_limit = data.draw(st.sampled_from(NODE_LIMITS), label="node_limit")
    kwargs = {} if node_limit is None else {"node_limit": node_limit}

    result = _assert_identical(problem, **kwargs)

    best = None
    for bits in itertools.product((0, 1), repeat=n_vars):
        values = dict(zip(variables, bits))
        if problem.is_feasible(values):
            objective = problem.objective_value(values)
            if best is None or (objective < best if problem.minimize else objective > best):
                best = objective
    if result[0] == "infeasible":
        assert best is None or not result[1]
    else:
        assert problem.is_feasible(result[1])
        if result[3]:  # optimal
            assert result[2] == best


# -- the real repair ILPs of a small corpus ----------------------------------------------------


@pytest.mark.parametrize("problem_name", ["derivatives", "oddTuples", "polynomials"])
def test_identical_on_recorded_repair_ilps(problem_name, monkeypatch):
    """Every branch-and-bound solve ``find_best_repair`` makes, with its
    own ``node_limit`` / ``upper_bound``, then again under small limits."""
    recorded = []

    def recording_solve(problem, **kwargs):
        recorded.append((problem, kwargs))
        return solve(problem, **kwargs)

    monkeypatch.setattr(fastpath, "solve", recording_solve)
    spec = get_problem(problem_name)
    corpus = generate_corpus(spec, 8, 6, seed=2018)
    correct = [parse_python_source(source) for source in corpus.correct_sources]
    clusters = cluster_programs(correct, spec.cases).clusters
    for source in corpus.incorrect_sources:
        find_best_repair(parse_python_source(source), clusters, caches=RepairCaches())
    monkeypatch.undo()

    assert len(recorded) >= 10
    total_nodes = 0
    for problem, kwargs in recorded:
        result = _assert_identical(problem, **kwargs)
        total_nodes += result[-1]
        for node_limit in NODE_LIMITS[:-1]:
            _assert_identical(problem, **{**kwargs, "node_limit": node_limit})
    assert total_nodes > 2 * len(recorded)  # real search, not just root propagation
