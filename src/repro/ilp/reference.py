"""The executable specification of the branch-and-bound 0-1 ILP solver.

:func:`solve_reference` is the original, deliberately naive solver that
:func:`repro.ilp.solver.solve` replaced.  Every branch-and-bound node
copies the whole assignment, re-queues every constraint and, for every
free variable of a queued constraint, re-evaluates the constraint's full
activity under each trial value.  It is kept only as a test oracle: the
differential tests (``tests/test_ilp_incremental.py``) assert that the
incremental solver returns the same values, objective, ``optimal`` flag
and node count, and raises the same :class:`InfeasibleError` verdicts.
Nothing under ``src/`` calls it.

The search it performs is the definition the incremental solver follows:

* constraint propagation to fixpoint (bound reasoning on every constraint,
  with the special cases of choice groups and implications falling out of
  the generic rule);
* a lower bound that adds, for every undecided choice group disjoint from
  the groups already charged, the cheapest still-available member (plus
  the cost of every unassigned negative-cost variable);
* best-first variable selection (most constrained group first, cheapest
  value first).
"""

from __future__ import annotations

from .problem import Constraint, IlpProblem, IlpSolution
from .solver import InfeasibleError

__all__ = ["solve_reference"]


def solve_reference(
    problem: IlpProblem,
    *,
    node_limit: int = 200_000,
    upper_bound: float | None = None,
) -> IlpSolution:
    """The executable specification of :func:`repro.ilp.solver.solve`.

    Same arguments, results and errors; see that function for the
    contract.
    """
    solver = _Solver(problem, node_limit=node_limit, upper_bound=upper_bound)
    return solver.run()


class _Solver:
    def __init__(
        self,
        problem: IlpProblem,
        node_limit: int,
        upper_bound: float | None = None,
    ) -> None:
        self.problem = problem
        self.node_limit = node_limit
        self.variables = list(problem.variables)
        self.objective = {
            var: problem.objective.get(var, 0.0) for var in self.variables
        }
        if not problem.minimize:
            self.objective = {var: -coeff for var, coeff in self.objective.items()}
        self.constraints = problem.constraints
        self.var_constraints: dict[str, list[Constraint]] = {v: [] for v in self.variables}
        for constraint in self.constraints:
            for var, _ in constraint.coeffs:
                self.var_constraints[var].append(constraint)
        self.choice_groups = [
            constraint
            for constraint in self.constraints
            if constraint.sense == "=="
            and constraint.rhs == 1.0
            and all(coeff == 1.0 for _, coeff in constraint.coeffs)
        ]
        # Variables whose (normalized) cost is negative: every one still
        # unassigned may yet lower the objective, so the lower bound must
        # charge them.  Repair instances have non-negative costs only, but
        # maximisation problems negate into this case.
        self.negative_vars = [
            var for var in self.variables if self.objective.get(var, 0.0) < 0
        ]
        # ``best_cost`` lives in the normalized (minimisation) space; an
        # externally supplied incumbent bound is translated into it.
        self.bounded = upper_bound is not None
        if upper_bound is None:
            self.best_cost = float("inf")
        elif problem.minimize:
            self.best_cost = upper_bound
        else:
            self.best_cost = -upper_bound
        self.best_assignment: dict[str, int] | None = None
        self.nodes = 0
        self.truncated = False

    # -- public ----------------------------------------------------------------

    def run(self) -> IlpSolution:
        assignment: dict[str, int] = {}
        if not self._propagate(assignment):
            # A propagation contradiction is a complete argument: it uses
            # neither the node limit nor the incumbent bound.
            raise InfeasibleError(
                "propagation found the root infeasible",
                proven=True,
                nodes_explored=self.nodes,
            )
        self._search(assignment)
        if self.best_assignment is None:
            if self.truncated:
                message = "node limit hit before any feasible assignment was found"
            elif self.bounded:
                message = "no feasible assignment beats the upper bound"
            else:
                message = "no feasible assignment exists"
            raise InfeasibleError(
                message,
                proven=not self.truncated and not self.bounded,
                nodes_explored=self.nodes,
            )
        values = {var: self.best_assignment.get(var, 0) for var in self.variables}
        objective = self.problem.objective_value(values)
        return IlpSolution(
            values=values,
            objective=objective,
            optimal=not self.truncated,
            nodes_explored=self.nodes,
        )

    # -- propagation -------------------------------------------------------------

    def _constraint_bounds(
        self, constraint: Constraint, assignment: dict[str, int]
    ) -> tuple[float, float]:
        lower = 0.0
        upper = 0.0
        for var, coeff in constraint.coeffs:
            value = assignment.get(var)
            if value is not None:
                lower += coeff * value
                upper += coeff * value
            elif coeff >= 0:
                upper += coeff
            else:
                lower += coeff
        return lower, upper

    def _constraint_consistent(
        self, constraint: Constraint, assignment: dict[str, int]
    ) -> bool:
        lower, upper = self._constraint_bounds(constraint, assignment)
        if constraint.sense == "==":
            return lower - 1e-9 <= constraint.rhs <= upper + 1e-9
        if constraint.sense == ">=":
            return upper >= constraint.rhs - 1e-9
        return lower <= constraint.rhs + 1e-9  # "<="

    def _propagate(self, assignment: dict[str, int]) -> bool:
        """Fix forced variables; return ``False`` on contradiction."""
        queue = list(self.constraints)
        while queue:
            constraint = queue.pop()
            if not self._constraint_consistent(constraint, assignment):
                return False
            for var, _ in constraint.coeffs:
                if var in assignment:
                    continue
                forced = None
                for candidate in (0, 1):
                    assignment[var] = candidate
                    ok = self._constraint_consistent(constraint, assignment)
                    del assignment[var]
                    if not ok:
                        forced = 1 - candidate
                        break
                if forced is not None:
                    assignment[var] = forced
                    if not all(
                        self._constraint_consistent(c, assignment)
                        for c in self.var_constraints[var]
                    ):
                        return False
                    queue.extend(self.var_constraints[var])
        return True

    # -- bounding -----------------------------------------------------------------

    def _current_cost(self, assignment: dict[str, int]) -> float:
        return sum(
            self.objective[var] * value
            for var, value in assignment.items()
            if value and self.objective.get(var)
        )

    def _lower_bound(self, assignment: dict[str, int]) -> float:
        bound = self._current_cost(assignment)
        for var in self.negative_vars:
            if var not in assignment:
                bound += self.objective[var]
        counted: set[str] = set()
        for group in self.choice_groups:
            members = [var for var, _ in group.coeffs]
            if any(assignment.get(var) == 1 for var in members):
                continue
            available = [var for var in members if assignment.get(var) != 0]
            # Only charge groups whose available members are disjoint from
            # every group already charged: a shared variable set to 1 could
            # satisfy both groups at a single cost, so charging the
            # remaining members of an overlapping group would overcharge
            # (an inadmissible bound that prunes true optima).
            if not available or any(var in counted for var in available):
                continue
            cheapest = min(self.objective.get(var, 0.0) for var in available)
            if cheapest > 0:
                bound += cheapest
                counted.update(available)
        return bound

    # -- search -----------------------------------------------------------------

    def _select_variable(self, assignment: dict[str, int]) -> str | None:
        # Prefer a free variable from the tightest undecided choice group.
        best_var: str | None = None
        best_key: tuple[int, float] | None = None
        for group in self.choice_groups:
            members = [var for var, _ in group.coeffs]
            if any(assignment.get(var) == 1 for var in members):
                continue
            free = [var for var in members if var not in assignment]
            if not free:
                continue
            for var in free:
                key = (len(free), self.objective.get(var, 0.0))
                if best_key is None or key < best_key:
                    best_key = key
                    best_var = var
        if best_var is not None:
            return best_var
        for var in self.variables:
            if var not in assignment:
                return var
        return None

    def _search(self, assignment: dict[str, int]) -> None:
        self.nodes += 1
        if self.nodes >= self.node_limit:
            self.truncated = True
            return
        if self._lower_bound(assignment) >= self.best_cost:
            return
        variable = self._select_variable(assignment)
        if variable is None:
            cost = self._current_cost(assignment)
            if cost < self.best_cost and self._complete_is_feasible(assignment):
                self.best_cost = cost
                self.best_assignment = dict(assignment)
            return
        # Try the cheaper value first (for minimisation with non-negative
        # costs that is almost always 0, but selecting a repair variable to 1
        # is what satisfies choice groups, so order by resulting bound).
        order = (0, 1) if self.objective.get(variable, 0.0) > 0 else (1, 0)
        for value in order:
            trail = dict(assignment)
            trail[variable] = value
            if not all(
                self._constraint_consistent(c, trail)
                for c in self.var_constraints[variable]
            ):
                continue
            if not self._propagate(trail):
                continue
            self._search(trail)

    def _complete_is_feasible(self, assignment: dict[str, int]) -> bool:
        values = {var: assignment.get(var, 0) for var in self.variables}
        return self.problem.is_feasible(values)
