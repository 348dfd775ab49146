"""Seeded 0-1 ILP generators shaped like the repair encoding (Def. 5.5).

Shared by the solver fast-path tests (``tests/test_ilp_fastpath.py``) and
the incremental-solver differential tests (``tests/test_ilp_incremental.py``).
"""

from __future__ import annotations

import random

from repro.ilp import IlpProblem


def random_def55_problem(rng: random.Random) -> IlpProblem:
    """Choice groups + implications + arbitrary-sense rows, arbitrary costs."""
    n = rng.randint(2, 7)
    problem = IlpProblem(minimize=rng.random() < 0.8)
    variables = [f"v{i}" for i in range(n)]
    for var in variables:
        problem.add_variable(var, objective=float(rng.randint(-4, 6)))
    for _ in range(rng.randint(1, 3)):
        problem.add_exactly_one(rng.sample(variables, rng.randint(1, n)))
    for _ in range(rng.randint(0, 2)):
        antecedent, consequent = rng.sample(variables, 2)
        problem.add_implication(antecedent, consequent)
    for _ in range(rng.randint(0, 2)):
        subset = rng.sample(variables, rng.randint(1, n))
        sense = rng.choice(["==", ">=", "<="])
        problem.add_constraint(
            {v: 1.0 for v in subset}, sense, float(rng.randint(0, len(subset)))
        )
    return problem


def random_assignment_problem(rng: random.Random) -> IlpProblem:
    """Row/column exactly-one groups: assignment-degenerate by construction.

    Rows and columns may differ in size and slack variables appear only
    sometimes, so a fraction of the generated problems is (provenly)
    infeasible — no perfect matching pads the smaller side."""
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    problem = IlpProblem()
    for i in range(rows):
        for j in range(cols):
            problem.add_variable(f"x{i}{j}", objective=float(rng.randint(-3, 9)))
    for i in range(rows):
        members = [f"x{i}{j}" for j in range(cols)]
        if rng.random() < 0.5:
            members.append(
                problem.add_variable(f"rs{i}", objective=float(rng.randint(0, 9)))
            )
        problem.add_exactly_one(members)
    for j in range(cols):
        members = [f"x{i}{j}" for i in range(rows)]
        if rng.random() < 0.5:
            members.append(
                problem.add_variable(f"cs{j}", objective=float(rng.randint(0, 9)))
            )
        problem.add_exactly_one(members)
    for k in range(rng.randint(0, 2)):
        problem.add_variable(f"free{k}", objective=float(rng.randint(-3, 3)))
    return problem


def hard_feasible_problem() -> IlpProblem:
    """Small but branchy: overlapping groups, implications, a packing row."""
    problem = IlpProblem()
    costs = {"a": 3.0, "b": 2.0, "c": 5.0, "d": 1.0, "e": 4.0, "f": 2.0}
    for var, cost in costs.items():
        problem.add_variable(var, objective=cost)
    problem.add_exactly_one(["a", "b", "c"])
    problem.add_exactly_one(["c", "d", "e"])
    problem.add_exactly_one(["e", "f", "a"])
    problem.add_implication("d", "f")
    problem.add_constraint({"b": 1.0, "d": 1.0, "f": 1.0}, "<=", 2.0)
    return problem
