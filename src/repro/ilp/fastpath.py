"""The solver fast path: solve memoization and degenerate dispatch.

Plain branch-and-bound, :func:`repro.ilp.solver.solve` (node-identical to
the executable specification :func:`repro.ilp.reference.solve_reference`),
is the baseline; :func:`solve_fast` is the entry point the repair pipeline
actually calls.  It layers three accelerations on top of the plain solver,
each of which is objective-identical to it by construction:

1. **Memoization** (:class:`SolveCache`).  Problems are keyed by the
   canonical fingerprint of :func:`repro.ilp.structure.problem_fingerprint`
   — identical formulations built in different orders share one entry.
   Only *unconditional* verdicts are stored: optimal solutions
   (``optimal=True``) and proven infeasibility
   (:class:`~repro.ilp.solver.InfeasibleError` with ``proven=True``).
   Node-limit-truncated incumbents and bound-restricted misses are passed
   through uncached, so a cached answer is valid under any later
   ``upper_bound``.

2. **Degenerate dispatch.**  Problems recognized by
   :func:`repro.ilp.structure.analyze_assignment_form` as pure min-cost
   assignments are solved by
   :func:`repro.graphs.assignment.min_cost_perfect_matching` — zero
   branch-and-bound nodes.  Dispatch is *unconditional*: it happens whether
   or not a cache is attached, so repair outcomes never depend on cache
   configuration (the differential tests in ``tests/test_ilp_fastpath.py``
   rely on this).

3. **Warm starts.**  An ``upper_bound`` (the best repair cost found so far
   in :func:`repro.core.repair.find_best_repair`) is forwarded to
   branch-and-bound as the initial incumbent.  A solve that cannot beat the
   bound returns ``None`` instead of raising, which callers treat exactly
   like the documented ``cost_bound`` contract: a repair at least as costly
   as the current best could never be selected anyway.

Counters (hits, misses, degenerate dispatches, branch-and-bound fallbacks,
nodes explored) surface through ``batch --profile`` and the service stats
endpoint, next to the TED and compile cache counters.
"""

from __future__ import annotations

import threading

from ..counters import SUM, Counters
from .problem import IlpProblem, IlpSolution
from .solver import InfeasibleError, solve
from .structure import analyze_assignment_form, problem_fingerprint, solve_assignment

__all__ = ["SolveCache", "SolveCounters", "solve_fast"]

#: Cache sentinel: the problem was *proven* infeasible.
_INFEASIBLE = object()
#: Lookup sentinel: no cached entry.
_MISS = object()


class SolveCounters(Counters):
    """The :class:`SolveCache` counters (see its docstring)."""

    FIELDS = dict.fromkeys(
        ("hits", "misses", "degenerate_dispatches", "bnb_fallbacks", "nodes_explored"), SUM
    )


class SolveCache:
    """Memo table and counters for ILP solves.

    One instance is owned by :class:`repro.engine.cache.RepairCaches`
    (created in its ``__post_init__`` alongside the TED and compile caches)
    and shared by every batch worker; all methods are lock-guarded.
    ``enabled=False`` turns every lookup into a miss (nothing is stored)
    while the counters keep counting, mirroring
    :class:`repro.ted.TedCache` — that is how the differential tests and
    the solver benchmark measure what the fast path avoids.

    Counters (monotonic, in ``stats``, a :class:`SolveCounters` sharing the
    table lock):

    * ``hits`` / ``misses`` — fingerprint lookups answered / not answered
      from the table;
    * ``degenerate_dispatches`` — solves routed to the min-cost assignment
      solver instead of branch-and-bound;
    * ``bnb_fallbacks`` — solves that did run branch-and-bound;
    * ``nodes_explored`` — total branch-and-bound nodes across fallbacks
      (degenerate dispatches and cache hits contribute zero).

    The table is size-bounded: at ``max_entries`` it simply stops storing
    (existing keys may still be refreshed), so a long-lived service cannot
    grow it without bound while hit/miss accounting stays deterministic.
    """

    def __init__(self, enabled: bool = True, max_entries: int = 1 << 14) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._table: dict[tuple, object] = {}
        self.stats = SolveCounters(lock=self._lock)

    # -- lookup/store ----------------------------------------------------------

    def key_for(self, problem: IlpProblem) -> tuple | None:
        """Fingerprint ``problem``, or ``None`` when caching is disabled."""
        return problem_fingerprint(problem) if self.enabled else None

    def lookup(self, key: tuple | None) -> object:
        """Return the stored verdict for ``key`` or the miss sentinel."""
        with self._lock:
            if key is not None and key in self._table:
                self.stats.add_locked("hits")
                return self._table[key]
            self.stats.add_locked("misses")
            return _MISS

    def store(self, key: tuple | None, entry: object) -> None:
        if key is None:
            return
        with self._lock:
            if len(self._table) < self.max_entries or key in self._table:
                self._table[key] = entry

    # -- maintenance -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Snapshot of the counters, for reports and benchmarks."""
        return self.stats.as_dict()

    def entry_counts(self) -> dict[str, int]:
        with self._lock:
            return {"solves": len(self._table)}

    def clear(self) -> None:
        """Drop memoized entries (counters are preserved)."""
        with self._lock:
            self._table.clear()


def _beats_bound(problem: IlpProblem, objective: float, bound: float) -> bool:
    return objective < bound if problem.minimize else objective > bound


def _copy(solution: IlpSolution, nodes_explored: int) -> IlpSolution:
    # Hand out a private values dict so neither the cache entry nor other
    # consumers of the same fingerprint can be mutated through a result.
    return IlpSolution(
        values=dict(solution.values),
        objective=solution.objective,
        optimal=solution.optimal,
        nodes_explored=nodes_explored,
    )


def solve_fast(
    problem: IlpProblem,
    *,
    node_limit: int = 200_000,
    cache: SolveCache | None = None,
    upper_bound: float | None = None,
) -> IlpSolution | None:
    """Solve a 0-1 ILP through the fast path.

    Objective-identical to :func:`repro.ilp.solver.solve` in every case
    (``tests/test_ilp_fastpath.py`` asserts it property-style), with three
    shortcuts: a memo lookup by canonical fingerprint, exact min-cost
    assignment dispatch for degenerate problems, and incumbent warm-starting
    of branch-and-bound.

    Args:
        problem: The 0-1 program to solve.
        node_limit: Branch-and-bound node budget (fallback path only).
        cache: Optional :class:`SolveCache`; degenerate dispatch happens
            with or without it.
        upper_bound: Optional incumbent objective.  When given, only a
            solution strictly better than the bound is returned; ``None``
            means no such solution exists (which does *not* prove the
            problem infeasible).

    Returns:
        The solution, or ``None`` when ``upper_bound`` is set and cannot be
        beaten (including unproven infeasibility under the bound or the
        node limit).

    Raises:
        InfeasibleError: Proven infeasibility (always), or unproven
            (node-limit truncation with no incumbent) when no
            ``upper_bound`` was supplied — mirroring the plain solver.
    """
    key: tuple | None = None
    if cache is not None:
        key = cache.key_for(problem)
        entry = cache.lookup(key)
        if entry is not _MISS:
            if entry is _INFEASIBLE:
                raise InfeasibleError(
                    "memoized verdict: no feasible assignment exists", proven=True
                )
            assert isinstance(entry, IlpSolution)
            if upper_bound is not None and not _beats_bound(
                problem, entry.objective, upper_bound
            ):
                return None
            return _copy(entry, nodes_explored=0)

    form = analyze_assignment_form(problem)
    if form is not None:
        if cache is not None:
            cache.stats.add("degenerate_dispatches")
        try:
            solution = solve_assignment(problem, form)
        except InfeasibleError:
            if cache is not None:
                cache.store(key, _INFEASIBLE)
            raise
        if cache is not None:
            cache.store(key, _copy(solution, solution.nodes_explored))
        if upper_bound is not None and not _beats_bound(
            problem, solution.objective, upper_bound
        ):
            return None
        return solution

    if cache is not None:
        cache.stats.add("bnb_fallbacks")
    try:
        solution = solve(problem, node_limit=node_limit, upper_bound=upper_bound)
    except InfeasibleError as error:
        if cache is not None:
            cache.stats.add("nodes_explored", error.nodes_explored)
            if error.proven:
                cache.store(key, _INFEASIBLE)
        if not error.proven and upper_bound is not None:
            return None
        raise
    if cache is not None:
        cache.stats.add("nodes_explored", solution.nodes_explored)
        if solution.optimal:
            # An optimal solution is the global optimum even when found
            # under an upper bound: warm-start pruning only ever discards
            # completions at least as costly as the incumbent.
            cache.store(key, _copy(solution, solution.nodes_explored))
    return solution
