"""Structure analysis of repair ILPs: canonical fingerprints and the
assignment-degenerate form.

Two observations about the problems :func:`repro.core.repair._build_ilp`
emits motivate this module:

* **Redundancy.** MOOC corpora re-solve structurally identical programs, so
  the same ILP — up to variable and constraint insertion order — appears
  over and over.  :func:`problem_fingerprint` computes a canonical,
  hashable normal form (sorted variables, sorted non-zero objective
  coefficients, sorted constraints with sorted coefficient vectors) that is
  independent of construction order and of ``PYTHONHASHSEED``, suitable as
  a memo key for :class:`repro.ilp.fastpath.SolveCache`.

* **Degeneracy.** When no local-repair candidate carries an ω constraint
  (no implications — e.g. every site belongs to a fixed variable), the
  constraint system is exactly a family of "exactly one" choice groups in
  which each variable occurs at most twice.  Such a system is a min-cost
  *assignment*: 2-colour the group-intersection graph, treat the two
  colours as the sides of a bipartite graph, and every feasible selection
  is a perfect matching (variables in two groups are cross edges,
  variables in one group are slack edges).  :func:`analyze_assignment_form`
  recognizes this shape and :func:`solve_assignment` solves it exactly via
  :func:`repro.graphs.assignment.min_cost_perfect_matching` — no
  branch-and-bound nodes at all.

Any problem that does not match the degenerate shape is declined
(``analyze_assignment_form`` returns ``None``) and falls back to the
plain branch-and-bound solver; :func:`repro.ilp.fastpath.solve_fast` wires
the dispatch together.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..graphs.assignment import min_cost_perfect_matching
from .problem import IlpProblem, IlpSolution
from .solver import InfeasibleError

__all__ = [
    "AssignmentForm",
    "analyze_assignment_form",
    "problem_fingerprint",
    "solve_assignment",
]


def problem_fingerprint(problem: IlpProblem) -> tuple:
    """Canonical, hashable normal form of a 0-1 ILP.

    Two problems get the same fingerprint iff they have the same variable
    set, the same (non-zero) objective, the same optimisation sense and the
    same multiset of constraints — regardless of the order in which
    variables and constraints were added or coefficients listed, and
    independent of the process hash seed (everything is sorted, nothing
    iterates a set).  Constraint names are cosmetic and excluded.
    """
    objective = tuple(
        sorted((var, coeff) for var, coeff in problem.objective.items() if coeff)
    )
    constraints = tuple(
        sorted(
            (constraint.sense, constraint.rhs, tuple(sorted(constraint.coeffs)))
            for constraint in problem.constraints
        )
    )
    return (
        problem.minimize,
        tuple(sorted(problem.variables)),
        objective,
        constraints,
    )


@dataclass
class AssignmentForm:
    """A recognized assignment-degenerate problem, ready for matching.

    ``groups`` holds the member variables of every exactly-one constraint
    in declaration order; ``colors`` 2-colours the group-intersection graph
    (0 = left side, 1 = right side); ``var_groups`` maps each constrained
    variable to the one or two groups containing it.  ``infeasible`` is set
    when some group is empty (``sum([]) == 1`` — the marker
    :func:`repro.core.repair._build_ilp` emits for an unrepairable fixed
    site), which proves infeasibility outright.
    """

    infeasible: bool
    groups: list[tuple[str, ...]]
    colors: list[int]
    var_groups: dict[str, tuple[int, ...]]


def analyze_assignment_form(problem: IlpProblem) -> AssignmentForm | None:
    """Recognize the min-cost assignment shape, or return ``None``.

    The shape requires every constraint to be an exactly-one choice group
    (sense ``==``, right-hand side 1, all coefficients 1, no repeated
    variable), every variable to occur in at most two groups, and the
    group-intersection graph to be bipartite.  Implications (``>=``
    constraints) or any other row shape decline to branch-and-bound.
    """
    groups: list[tuple[str, ...]] = []
    infeasible = False
    for constraint in problem.constraints:
        if constraint.sense != "==" or constraint.rhs != 1.0:
            return None
        if any(coeff != 1.0 for _, coeff in constraint.coeffs):
            return None
        members = tuple(var for var, _ in constraint.coeffs)
        if len(set(members)) != len(members):
            return None
        if not members:
            infeasible = True
        groups.append(members)

    var_groups: dict[str, list[int]] = {}
    for index, members in enumerate(groups):
        for var in members:
            var_groups.setdefault(var, []).append(index)
    if any(len(indices) > 2 for indices in var_groups.values()):
        return None

    adjacency: list[list[int]] = [[] for _ in groups]
    for indices in var_groups.values():
        if len(indices) == 2:
            a, b = indices
            adjacency[a].append(b)
            adjacency[b].append(a)
    colors = [-1] * len(groups)
    for root in range(len(groups)):
        if colors[root] != -1:
            continue
        colors[root] = 0
        queue: deque[int] = deque([root])
        while queue:
            node = queue.popleft()
            for other in adjacency[node]:
                if colors[other] == -1:
                    colors[other] = 1 - colors[node]
                    queue.append(other)
                elif colors[other] == colors[node]:
                    return None  # odd cycle: not an assignment problem

    return AssignmentForm(
        infeasible=infeasible,
        groups=groups,
        colors=colors,
        var_groups={var: tuple(indices) for var, indices in var_groups.items()},
    )


def solve_assignment(problem: IlpProblem, form: AssignmentForm) -> IlpSolution:
    """Solve a recognized assignment-degenerate problem exactly.

    Reduction: groups coloured 0 become left vertices and groups coloured 1
    right vertices.  A variable in two groups is a cross edge (selecting it
    satisfies both); a variable in one group is an edge to that group's
    private slack vertex (the group is satisfied alone); slack vertices pair
    off among themselves at zero cost, padding the two sides to equal size.
    Parallel variables between the same pair of vertices keep only the
    cheapest (swapping any selection to the cheapest parallel variable
    preserves feasibility), so a minimum-cost perfect matching is exactly an
    optimal selection.  Unconstrained variables are set to 1 iff that
    improves the objective.

    Raises :class:`InfeasibleError` with ``proven=True`` when no perfect
    matching exists (or a group is empty): both arguments are complete, so
    the verdict is cacheable.  The returned solution always carries
    ``optimal=True`` and ``nodes_explored=0``.
    """
    if form.infeasible:
        raise InfeasibleError(
            "an empty choice group admits no assignment", proven=True
        )
    minimize = problem.minimize

    def normal_cost(var: str) -> float:
        coeff = problem.objective.get(var, 0.0)
        return coeff if minimize else -coeff

    values = {var: 0 for var in problem.variables}
    for var in problem.variables:
        if var not in form.var_groups and normal_cost(var) < 0:
            values[var] = 1

    left = [index for index, color in enumerate(form.colors) if color == 0]
    right = [index for index, color in enumerate(form.colors) if color == 1]
    declaration_order = {var: index for index, var in enumerate(problem.variables)}

    # Cheapest variable per vertex pair; ties broken by declaration order so
    # the selected assignment is deterministic.
    chooser: dict[tuple, tuple[float, int, str]] = {}

    def offer(left_vertex: tuple, right_vertex: tuple, var: str) -> None:
        key = (left_vertex, right_vertex)
        entry = (normal_cost(var), declaration_order[var], var)
        if key not in chooser or entry < chooser[key]:
            chooser[key] = entry

    for var, indices in form.var_groups.items():
        if len(indices) == 2:
            a, b = indices
            if form.colors[a] == 0:
                offer(("group", a), ("group", b), var)
            else:
                offer(("group", b), ("group", a), var)
        else:
            (group,) = indices
            if form.colors[group] == 0:
                offer(("group", group), ("slack", group), var)
            else:
                offer(("slack", group), ("group", group), var)

    left_vertices = [("group", index) for index in left]
    left_vertices += [("slack", index) for index in right]
    right_vertices = [("group", index) for index in right]
    right_vertices += [("slack", index) for index in left]
    edges: dict[tuple, float] = {key: entry[0] for key, entry in chooser.items()}
    for i in right:
        for j in left:
            edges[(("slack", i), ("slack", j))] = 0.0

    result = min_cost_perfect_matching(left_vertices, right_vertices, edges)
    if result is None:
        raise InfeasibleError(
            "the choice groups admit no consistent selection", proven=True
        )
    matching, _ = result
    for left_vertex, right_vertex in matching.items():
        if left_vertex[0] == "slack" and right_vertex[0] == "slack":
            continue
        values[chooser[(left_vertex, right_vertex)][2]] = 1

    return IlpSolution(
        values=values,
        objective=problem.objective_value(values),
        optimal=True,
        nodes_explored=0,
    )
