"""One-time compilation of expressions to Python closures (Def. 3.4 fast path).

:func:`repro.interpreter.evaluator.evaluate` re-walks an ``Expr`` tree on
every evaluation: per node it pays an ``isinstance`` dispatch, an operation
name comparison, an argument list build and a library lookup.  Clustering
evaluates every correct program on every case, candidate screening
re-evaluates candidate and reference expressions on every trace visit, and a
warm service request repeats all of it — the same trees, walked millions of
times.

:func:`compile_expr` walks a tree **once** and returns a closure
``fn(memory) -> value`` with all dispatch decided at compile time:

* variables close over their name (one ``memory.get``);
* constants close over their frozen value (list-bearing constants still
  return a fresh copy per call, preserving :func:`~repro.interpreter.values.\
freeze_value`'s snapshot guarantee);
* ``And``/``Or`` short-circuit and return the deciding *operand* (not a
  bool), exactly like Python and :func:`evaluate`;
* ``ite`` evaluates its condition first and only the taken branch;
* every other operation resolves its library function at compile time,
  evaluates arguments left to right with first-``UNDEF``-wins propagation,
  and maps any raised exception to ⊥.

Compiled closures are pure functions of the memory mapping passed in, safe
to share between threads and to cache forever.  :class:`CompileCache`
memoizes them per expression — keyed on structural equality, so with
:func:`repro.model.expr.intern_expr` in play (pools, candidates and cluster
representatives all intern) the cache is global across pools, candidates and
clusters, and a lookup is one dict probe on a cached hash.  The semantics
are *enforced* to match the interpreter: ``tests/test_exec_fastpath.py``
asserts compiled == interpreted on random programs and memories, and
``benchmarks/test_exec_throughput.py`` asserts field-identical traces and
repair outcomes.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

from ..counters import SUM, Counters
from ..model.expr import Const, Expr, Op, Var
from .libfuncs import lookup
from .values import UNDEF, freeze_value, is_undef

__all__ = [
    "CompiledExpr", "CompileCache", "CompileCounters", "compile_expr", "default_compile_cache"
]

#: A compiled expression: memory mapping → value in the computation domain.
CompiledExpr = Callable[[Mapping[str, object]], object]


def _contains_list(value: object) -> bool:
    if isinstance(value, list):
        return True
    if isinstance(value, tuple):
        return any(_contains_list(item) for item in value)
    return False


def _undef(_memory: Mapping[str, object]) -> object:
    return UNDEF


def _compile_node(expr: Expr, recurse: Callable[[Expr], CompiledExpr]) -> CompiledExpr:
    """Compile one node, using ``recurse`` for sub-expressions."""
    if isinstance(expr, Var):
        name = expr.name

        def eval_var(memory: Mapping[str, object], _name=name) -> object:
            return memory.get(_name, UNDEF)

        return eval_var

    if isinstance(expr, Const):
        frozen = freeze_value(expr.value)
        if _contains_list(frozen):
            # Mutable payload: hand out a fresh snapshot per evaluation so
            # two trace steps can never alias one list object, exactly as
            # the interpreter does.
            def eval_const_list(_memory: Mapping[str, object], _v=frozen) -> object:
                return freeze_value(_v)

            return eval_const_list

        def eval_const(_memory: Mapping[str, object], _v=frozen) -> object:
            return _v

        return eval_const

    if not isinstance(expr, Op):  # pragma: no cover - defensive, mirrors evaluate
        return _undef

    name = expr.name
    args = expr.args

    if name == "And" and len(args) == 2:
        left, right = recurse(args[0]), recurse(args[1])

        def eval_and(memory: Mapping[str, object]) -> object:
            value = left(memory)
            if is_undef(value):
                return UNDEF
            if not value:
                return value
            return right(memory)

        return eval_and

    if name == "Or" and len(args) == 2:
        left, right = recurse(args[0]), recurse(args[1])

        def eval_or(memory: Mapping[str, object]) -> object:
            value = left(memory)
            if is_undef(value):
                return UNDEF
            if value:
                return value
            return right(memory)

        return eval_or

    if name == "ite" and len(args) == 3:
        cond, then, other = recurse(args[0]), recurse(args[1]), recurse(args[2])

        def eval_ite(memory: Mapping[str, object]) -> object:
            value = cond(memory)
            if is_undef(value):
                return UNDEF
            return then(memory) if value else other(memory)

        return eval_ite

    fn = lookup(name)
    compiled_args = tuple(recurse(arg) for arg in args)

    if fn is None:
        # Unknown at compile time.  The registry is an open API
        # (libfuncs.register may add operations later in a long-lived
        # process), so re-resolve per evaluation instead of baking in ⊥ —
        # a later registration then behaves exactly like the interpreter.
        # Known operations resolve once; *replacing* a registration
        # requires clearing compile caches.
        def eval_unknown_op(memory: Mapping[str, object]) -> object:
            values = []
            for arg in compiled_args:
                value = arg(memory)
                if is_undef(value):
                    return UNDEF
                values.append(value)
            late = lookup(name)
            if late is None:
                return UNDEF
            try:
                return late(*values)
            except Exception:  # noqa: BLE001 - student code errors map to ⊥
                return UNDEF

        return eval_unknown_op

    def eval_op(memory: Mapping[str, object]) -> object:
        values = []
        for arg in compiled_args:
            value = arg(memory)
            if is_undef(value):
                return UNDEF
            values.append(value)
        try:
            return fn(*values)
        except Exception:  # noqa: BLE001 - student code errors map to ⊥
            return UNDEF

    return eval_op


def compile_expr(expr: Expr) -> CompiledExpr:
    """Compile ``expr`` into a closure, without caching.

    Equivalent to ``lambda memory: evaluate(expr, memory)`` for every memory
    (the truthiness tests above are exact: ``UNDEF`` is handled explicitly
    and ``bool(value)`` is what :func:`~repro.interpreter.evaluator.truthy`
    computes for defined values).  Prefer :meth:`CompileCache.fn` — or the
    module default via :func:`default_compile_cache` — so identical
    expressions compile once.
    """
    return _compile_node(expr, compile_expr)


class CompileCounters(Counters):
    """The :class:`CompileCache` counters (see its docstring)."""

    FIELDS = dict.fromkeys(("hits", "misses", "nodes_compiled"), SUM)


class CompileCache:
    """Memoized expression compiler with hit/miss counters.

    One instance is owned by :class:`repro.engine.cache.RepairCaches`
    (sharing its ``enabled`` flag, so uncached baselines also measure
    uncached compilation) and shared by every batch worker; a module-level
    default (:func:`default_compile_cache`) serves the executor and other
    direct callers.  Keys are expressions themselves — they hash by cached
    structural hash — so interned expressions resolve in O(1) and even
    non-interned structural duplicates share one closure.

    Counters (monotonic, in ``stats``, a :class:`CompileCounters`):

    * ``hits`` — closures answered from the memo;
    * ``misses`` — top-level requests that had to compile (one per
      distinct tree while the table holds; with ``enabled=False``, one per
      request);
    * ``nodes_compiled`` — AST nodes *actually* compiled: a subtree
      already in the memo is returned without being re-walked and is not
      re-counted, so this is exactly the tree-walk work performed (and the
      work the memo avoided re-paying).

    Thread safety follows the established cache idiom (see
    :class:`repro.ted.zhang_shasha.TedCache`): table reads and writes are
    single GIL-atomic dict operations with ``setdefault`` keeping one
    winner per key, so concurrent workers are always *correct* — but two
    workers racing on the same uncompiled expression may both count a miss
    and compile twice (one result is discarded).  As with the other cache
    counters, exact counter values are therefore only deterministic for
    single-worker runs, which is what the committed benchmark artifacts
    use.

    The table is size-bounded like the other fast-path memos: at
    ``max_entries`` it is flushed wholesale (closures already handed out
    stay valid), so a long-lived engine cannot grow it forever.
    """

    def __init__(self, enabled: bool = True, max_entries: int = 1 << 16) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self._fns: dict[Expr, CompiledExpr] = {}
        self._lock = threading.Lock()
        self.stats = CompileCounters(lock=self._lock)

    def fn(self, expr: Expr) -> CompiledExpr:
        """Return the (memoized) compiled form of ``expr``."""
        if self.enabled:
            compiled = self._fns.get(expr)
            if compiled is not None:
                self.stats.add("hits")
                return compiled
        self.stats.add("misses")
        return self._subfn(expr)

    def _subfn(self, expr: Expr) -> CompiledExpr:
        """Recursion hook: every node, root or subtree, goes through here.

        Interned trees share sub-expression objects, so the closure of a
        shared subtree is compiled once and referenced by every parent —
        without counting sub-lookups as top-level hits/misses.  Nodes are
        counted where they are actually compiled, so ``nodes_compiled``
        stays exact when parts of a tree come from the memo.
        """
        if self.enabled:
            compiled = self._fns.get(expr)
            if compiled is not None:
                return compiled
        self.stats.add("nodes_compiled")
        compiled = _compile_node(expr, self._subfn)
        if self.enabled:
            if len(self._fns) >= self.max_entries:
                self._fns.clear()
            # setdefault keeps one winner under concurrent compilation.
            compiled = self._fns.setdefault(expr, compiled)
        return compiled

    # -- reports and maintenance ----------------------------------------------

    def counters(self) -> dict[str, int]:
        """Deterministic counters for reports (no timings)."""
        return self.stats.as_dict()

    def entry_counts(self) -> dict[str, int]:
        return {"compiled_exprs": len(self._fns)}

    def clear(self) -> None:
        """Drop all memoized closures (counters are preserved)."""
        with self._lock:
            self._fns.clear()


#: Process-wide default cache used when no engine-owned cache is threaded in
#: (the executor's default, direct ``expressions_match`` calls, tests).
_DEFAULT_CACHE = CompileCache()


def default_compile_cache() -> CompileCache:
    """The process-wide default :class:`CompileCache`."""
    return _DEFAULT_CACHE
