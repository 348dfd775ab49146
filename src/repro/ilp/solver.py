"""Branch-and-bound solver for 0-1 ILPs.

The repair encoding (paper Def. 5.5) produces problems with a very regular
structure: "exactly one" choice groups (one per representative variable, one
per implementation variable, one per location/variable pair) plus implication
constraints tying selected local repairs to the chosen variable relation, with
non-negative objective coefficients only on the local-repair variables.

The solver below is a generic 0-1 branch-and-bound with:

* constraint propagation to fixpoint (bound reasoning on every constraint,
  with the special cases of choice groups and implications falling out of the
  generic rule);
* a lower bound that adds, for every undecided choice group disjoint from
  the groups already charged, the cheapest still-available member (plus the
  cost of every unassigned negative-cost variable);
* best-first variable selection (most constrained group first, cheapest value
  first), which reaches the optimum quickly for repair instances.

A node limit protects against pathological inputs; if it is hit, the best
incumbent found so far is returned with ``optimal=False``.

Propagation is incremental, in the style of pseudo-Boolean CDCL solvers:

* **Integer form.**  Variables become indices and every constraint becomes
  parallel index and coefficient arrays plus its bounds and its largest
  ``|coefficient|``.  A variable repeated in one constraint is merged into
  a single term: its positive and its negative coefficients are summed
  separately, and zero coefficients are dropped.
* **Activities.**  Each constraint's min and max activity — the smallest
  and largest value its left-hand side can still take — are kept in two
  arrays and updated in O(occurrences) whenever a variable is assigned.
* **Trail.**  Assignments are pushed on a trail.  A child node is explored
  by assigning and then undoing back to a trail mark, not by copying the
  assignment.  The current cost is a prefix stack parallel to the trail,
  restored by truncation.
* **Seeded queue.**  Every search node is a propagation fixpoint, so after
  a branch only the constraints of the variable just fixed can force
  anything; the queue starts with those (the root starts with all).  Of
  them, only the ones whose slack the new value shrinks are queued, and a
  forced assignment wakes its constraints the same way.
* **Slack forcing.**  A constraint's slack is how far its activity may
  still move before the constraint is violated: ``rhs - min`` for ``<=``,
  ``max - rhs`` for ``>=``, both for ``==``.  A free variable with
  coefficient ``c`` is forced iff ``|c|`` exceeds a slack, to the value
  that keeps the activity inside it.  A constraint whose largest ``|c|``
  is within its slack forces nothing and is skipped without a scan.

The search visits exactly the nodes of the executable specification,
:func:`repro.ilp.reference.solve_reference`, so solutions and node counts
are identical.  Propagation only deduces values that every solution
extending the current assignment must take, and a deduction stays valid as
more variables are fixed; such a monotone rule set reaches one fixpoint (or
a contradiction) whatever order the rules fire in, so a seeded queue ends
at the assignment the specification's full queue reaches.  Variable
selection, value order, the bound test and the strict ``<`` incumbent rule
then run on that same assignment with the same tie-breaks.  Activities and
costs are exact sums whenever the coefficients are integers (as in the
Def. 5.5 encoding) or short binary fractions, so they match the
specification's freshly recomputed sums bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable

from .problem import IlpProblem, IlpSolution

__all__ = ["solve", "IlpError", "InfeasibleError"]

#: Feasibility tolerance of every constraint test (as in ``IlpProblem``).
_EPS = 1e-9
_INF = float("inf")


class IlpError(Exception):
    """Base class for solver errors."""


class InfeasibleError(IlpError):
    """No feasible assignment was found.

    ``proven`` distinguishes a completed argument (root propagation reached
    a contradiction, or the search space was exhausted with neither a node
    limit nor an initial ``upper_bound`` in play) from a search that merely
    *failed to find* an assignment because it was truncated by the node
    limit or restricted to solutions beating an incumbent bound.  Only
    proven infeasibility may be memoized by
    :class:`repro.ilp.fastpath.SolveCache`.

    ``nodes_explored`` carries the branch-and-bound node count at the time
    of the raise, so profiling can attribute infeasible solves too.
    """

    def __init__(
        self,
        message: str = "no feasible assignment exists",
        *,
        proven: bool = True,
        nodes_explored: int = 0,
    ) -> None:
        super().__init__(message)
        self.proven = proven
        self.nodes_explored = nodes_explored


def solve(
    problem: IlpProblem,
    *,
    node_limit: int = 200_000,
    upper_bound: float | None = None,
) -> IlpSolution:
    """Solve a 0-1 ILP; raises :class:`InfeasibleError` if no solution exists.

    Args:
        problem: The 0-1 program to solve.
        node_limit: Branch-and-bound node budget.  When it is hit, the best
            incumbent found so far is returned with ``optimal=False``; if no
            incumbent exists yet, :class:`InfeasibleError` is raised with
            ``proven=False``.
        upper_bound: Optional incumbent objective value used to warm-start
            the search (in the problem's own objective sense): only
            solutions *strictly better* than the bound are considered, and
            branches that cannot beat it are pruned immediately.  When no
            solution beats the bound, :class:`InfeasibleError` is raised
            with ``proven=False`` — the problem may still be feasible.
            Because pruning only ever removes completions that are at least
            as costly as the current incumbent, a warm-started solve that
            does return a solution returns exactly the one the cold solve
            would have found.
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
        index = {var: i for i, var in enumerate(self.variables)}
        # Normalized (minimisation) cost per variable index.
        costs = [problem.objective.get(var, 0.0) for var in self.variables]
        self.cost = costs if problem.minimize else [-coeff for coeff in costs]

        # Per constraint: one term per variable, feasibility bounds and
        # activities.  A term is the sum of the variable's positive
        # coefficients (``pos``) and of its negative ones as a magnitude
        # (``neg``): setting the variable to 1 raises the min activity by
        # ``pos`` and lowers the max by ``neg``, setting it to 0 does the
        # reverse.  The spec bounds every occurrence on its own, so a
        # cancelling ``a - a`` still spans [-1, 1] until ``a`` is fixed;
        # summing the two signs separately keeps exactly those bounds.
        self.row_vars: list[list[int]] = []
        self.row_pos: list[list[float]] = []
        self.row_neg: list[list[float]] = []
        self.row_widest: list[float] = []
        self.row_le: list[float] = []  # activity must stay <= this
        self.row_ge: list[float] = []  # activity must stay >= this
        self.min_act: list[float] = []
        self.max_act: list[float] = []
        # Per variable: its (row, pos) and (row, neg) parts, and per value
        # the rows whose slack that value shrinks.  Only those rows can
        # force anything new, so only they are queued.
        occ_pos: list[list[tuple[int, float]]] = [[] for _ in self.variables]
        occ_neg: list[list[tuple[int, float]]] = [[] for _ in self.variables]
        wake: tuple[list[list[int]], list[list[int]]] = (
            [[] for _ in self.variables],
            [[] for _ in self.variables],
        )
        for row, constraint in enumerate(problem.constraints):
            terms: dict[int, list[float]] = {}
            for var, coeff in constraint.coeffs:
                if coeff:
                    term = terms.setdefault(index[var], [0.0, 0.0])
                    if coeff > 0:
                        term[0] += coeff
                    else:
                        term[1] -= coeff
            bounded_le = constraint.sense != ">="
            bounded_ge = constraint.sense != "<="
            low = high = widest = 0.0
            for i, (pos, neg) in terms.items():
                if pos:
                    high += pos
                    occ_pos[i].append((row, pos))
                if neg:
                    low -= neg
                    occ_neg[i].append((row, neg))
                widest = max(widest, pos, neg)
                if (bounded_le and pos) or (bounded_ge and neg):
                    wake[1][i].append(row)
                if (bounded_le and neg) or (bounded_ge and pos):
                    wake[0][i].append(row)
            self.row_vars.append(list(terms))
            self.row_pos.append([pos for pos, _ in terms.values()])
            self.row_neg.append([neg for _, neg in terms.values()])
            self.row_widest.append(widest)
            self.row_le.append(constraint.rhs + _EPS if bounded_le else _INF)
            self.row_ge.append(constraint.rhs - _EPS if bounded_ge else -_INF)
            self.min_act.append(low)
            self.max_act.append(high)
        self.occ_pos, self.occ_neg, self.wake = occ_pos, occ_neg, wake
        self.queued = [False] * len(problem.constraints)

        # Choice groups keep their members exactly as written (repeats
        # included): the bound and the selection tie-break count them.
        self.choice_groups = [
            [index[var] for var, _ in constraint.coeffs]
            for constraint in problem.constraints
            if constraint.sense == "=="
            and constraint.rhs == 1.0
            and all(coeff == 1.0 for _, coeff in constraint.coeffs)
        ]
        # Variables whose (normalized) cost is negative: every one still
        # unassigned may yet lower the objective, so the lower bound must
        # charge them.  Repair instances have non-negative costs only, but
        # maximisation problems negate into this case.
        self.negative_vars = [i for i, cost in enumerate(self.cost) if cost < 0]

        # Search state: value per variable (-1 = free), the trail of
        # assigned indices and the cost after each trail prefix.
        self.value = [-1] * len(self.variables)
        self.trail: list[int] = []
        self.trail_cost: list[float] = [0]
        # ``best_cost`` lives in the normalized (minimisation) space; an
        # externally supplied incumbent bound is translated into it.
        self.bounded = upper_bound is not None
        if upper_bound is None:
            self.best_cost = _INF
        elif problem.minimize:
            self.best_cost = upper_bound
        else:
            self.best_cost = -upper_bound
        self.best_values: list[int] | None = None
        self.nodes = 0
        self.truncated = False

    # -- public ----------------------------------------------------------------

    def run(self) -> IlpSolution:
        if not self._propagate(range(len(self.row_vars))):
            # A propagation contradiction is a complete argument: it uses
            # neither the node limit nor the incumbent bound.
            raise InfeasibleError(
                "propagation found the root infeasible",
                proven=True,
                nodes_explored=self.nodes,
            )
        self._search()
        if self.best_values is None:
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
        values = dict(zip(self.variables, self.best_values))
        objective = self.problem.objective_value(values)
        return IlpSolution(
            values=values,
            objective=objective,
            optimal=not self.truncated,
            nodes_explored=self.nodes,
        )

    # -- trail -------------------------------------------------------------------

    def _assign(self, var: int, value: int) -> None:
        min_act, max_act = self.min_act, self.max_act
        if value:
            for row, pos in self.occ_pos[var]:
                min_act[row] += pos
            for row, neg in self.occ_neg[var]:
                max_act[row] -= neg
            cost = self.trail_cost[-1] + self.cost[var] if self.cost[var] else self.trail_cost[-1]
        else:
            for row, pos in self.occ_pos[var]:
                max_act[row] -= pos
            for row, neg in self.occ_neg[var]:
                min_act[row] += neg
            cost = self.trail_cost[-1]
        self.value[var] = value
        self.trail.append(var)
        self.trail_cost.append(cost)

    def _undo(self, mark: int) -> None:
        min_act, max_act, value, trail = self.min_act, self.max_act, self.value, self.trail
        while len(trail) > mark:
            var = trail.pop()
            if value[var]:
                for row, pos in self.occ_pos[var]:
                    min_act[row] -= pos
                for row, neg in self.occ_neg[var]:
                    max_act[row] += neg
            else:
                for row, pos in self.occ_pos[var]:
                    max_act[row] += pos
                for row, neg in self.occ_neg[var]:
                    min_act[row] -= neg
            value[var] = -1
        del self.trail_cost[mark + 1:]

    # -- propagation -------------------------------------------------------------

    def _propagate(self, rows: Iterable[int]) -> bool:
        """Fix forced variables; return ``False`` on contradiction.

        ``rows`` seeds the queue: the rows whose slack shrank since the last
        fixpoint (all rows at the root).
        """
        queued = self.queued
        queue = list(rows)
        for row in queue:
            queued[row] = True
        while queue:
            row = queue.pop()
            queued[row] = False
            if not self._force(row, queue):
                for row in queue:
                    queued[row] = False
                return False
        return True

    def _force(self, row: int, queue: list[int]) -> bool:
        """Check one row and fix the variables it forces; ``False`` if violated.

        The rows whose slack a forced assignment shrinks join the queue.
        """
        value, min_act, max_act, queued = self.value, self.min_act, self.max_act, self.queued
        le, ge = self.row_le[row], self.row_ge[row]
        slack_le = le - min_act[row]
        slack_ge = max_act[row] - ge
        if slack_le < 0 or slack_ge < 0:
            return False
        widest = self.row_widest[row]
        if widest <= slack_le and widest <= slack_ge:
            return True
        for var, pos, neg in zip(self.row_vars[row], self.row_pos[row], self.row_neg[row]):
            if value[var] >= 0:
                continue
            if neg > slack_le or pos > slack_ge:  # 0 does not fit
                if pos > slack_le or neg > slack_ge:  # nor does 1
                    return False
                forced = 1
            elif pos > slack_le or neg > slack_ge:  # 1 does not fit
                forced = 0
            else:
                continue
            self._assign(var, forced)
            for other in self.wake[forced][var]:
                if not queued[other]:
                    queued[other] = True
                    queue.append(other)
            slack_le = le - min_act[row]
            slack_ge = max_act[row] - ge
        return True

    # -- bounding -----------------------------------------------------------------

    def _lower_bound(self) -> float:
        value, cost = self.value, self.cost
        bound = self.trail_cost[-1]
        for var in self.negative_vars:
            if value[var] < 0:
                bound += cost[var]
        counted: set[int] = set()
        for members in self.choice_groups:
            available = []
            for var in members:
                state = value[var]
                if state == 1:
                    break
                if state < 0:
                    available.append(var)
            else:
                # Only charge groups whose available members are disjoint
                # from every group already charged: a shared variable set to
                # 1 could satisfy both groups at a single cost, so charging
                # the remaining members of an overlapping group would
                # overcharge (an inadmissible bound that prunes true optima).
                if not available or not counted.isdisjoint(available):
                    continue
                cheapest = min(cost[var] for var in available)
                if cheapest > 0:
                    bound += cheapest
                    counted.update(available)
        return bound

    # -- search -----------------------------------------------------------------

    def _select_variable(self) -> int | None:
        # Prefer a free variable from the tightest undecided choice group.
        value, cost = self.value, self.cost
        best_var: int | None = None
        best_key: tuple[int, float] | None = None
        for members in self.choice_groups:
            free = []
            for var in members:
                state = value[var]
                if state == 1:
                    break
                if state < 0:
                    free.append(var)
            else:
                for var in free:
                    key = (len(free), cost[var])
                    if best_key is None or key < best_key:
                        best_key = key
                        best_var = var
        if best_var is not None:
            return best_var
        for var, state in enumerate(value):
            if state < 0:
                return var
        return None

    def _search(self) -> None:
        self.nodes += 1
        if self.nodes >= self.node_limit:
            self.truncated = True
            return
        if self._lower_bound() >= self.best_cost:
            return
        variable = self._select_variable()
        if variable is None:
            # Every variable is fixed and every row passed its test when its
            # slack last shrank, so the assignment is feasible.
            cost = self.trail_cost[-1]
            if cost < self.best_cost:
                self.best_cost = cost
                self.best_values = list(self.value)
            return
        # Try the cheaper value first (for minimisation with non-negative
        # costs that is almost always 0, but selecting a repair variable to 1
        # is what satisfies choice groups, so order by resulting bound).
        order = (0, 1) if self.cost[variable] > 0 else (1, 0)
        for value in order:
            mark = len(self.trail)
            self._assign(variable, value)
            if self._propagate(self.wake[value][variable]):
                self._search()
            self._undo(mark)
