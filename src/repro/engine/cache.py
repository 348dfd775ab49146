"""Memoization layer shared by the pipeline and the batch engine.

MOOC dumps are highly redundant: students resubmit unchanged code, copy each
other, and converge on the same handful of mistakes, so a naive loop over a
corpus re-executes identical programs and re-matches identical control-flow
graphs thousands of times.  This module provides :class:`RepairCaches`, one
object bundling three memo tables that remove that redundancy:

* a **trace/correctness cache** — executions of a program on a case set
  (Def. 3.5 traces, and the correctness predicate of §1, footnote 1) are
  keyed on :meth:`repro.model.program.Program.structure_key` plus a
  canonical key of the case set, so syntactically identical attempts run
  each test case exactly once across a whole batch;
* a **structural-match cache** — the location bijection of Def. 4.1 between
  an attempt and a cluster representative is computed at most once per
  (attempt, representative) pair, and shared between the pipeline's gate
  check and the per-cluster search of
  :func:`repro.core.repair.find_best_repair`;
* a **repair memo** — the full outcome of the cluster search for an attempt
  (status, selected :class:`~repro.core.repair.Repair`, feedback) keyed on
  the attempt fingerprint plus a pipeline-supplied context (pipeline
  identity, clustering version, budget, source positions), so duplicate
  attempts skip the ILP entirely; see
  :meth:`RepairCaches.repair_outcome` for what is deliberately *not*
  cached.

It additionally owns the three fast-path memos and threads them into the
layers that use them: a :class:`repro.ted.TedCache` (annotations + edit
distances, candidate costing), a
:class:`repro.interpreter.compile.CompileCache` (compiled expression
closures, trace execution and candidate screening) and a
:class:`repro.ilp.SolveCache` (ILP solutions keyed by canonical problem
fingerprint, threaded into :func:`repro.core.repair.repair_against_cluster`
via :func:`repro.ilp.solve_fast`).  All cache-routed executions run under
the profiler's ``exec`` phase; solves run under ``ilp``.

All tables are guarded by a single lock, making one :class:`RepairCaches`
instance safe to share across the worker threads of
:class:`repro.engine.batch.BatchRepairEngine`.  Constructing the caches with
``enabled=False`` turns every lookup into a miss without storing anything,
which is how the uncached baseline of ``benchmarks/test_batch_throughput.py``
is measured.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, MutableMapping, Sequence

from ..clusterstore.fingerprint import Fingerprint, program_fingerprint
from ..counters import SUM, Counters, hit_rate
from ..core.inputs import InputCase, program_traces, trace_passes_case
from ..core.inputs import is_correct as _is_correct_uncached
from ..core.matching import structural_match
from ..core.profile import PhaseProfiler, profiled
from ..ilp.fastpath import SolveCache
from ..interpreter.compile import CompileCache
from ..model.program import Program
from ..model.trace import Trace
from ..retrieval import RetrievalStats
from ..ted import TedCache

__all__ = ["CacheStats", "RepairCaches", "case_set_key", "freeze_key"]


def freeze_key(value: object) -> object:
    """Convert ``value`` into an equivalent hashable form.

    Test-case payloads may contain lists and dicts (e.g. the ``derivatives``
    problem passes coefficient lists); cache keys must be hashable, so
    containers are converted recursively: lists/tuples become tuples, sets
    become sorted tuples, dicts become sorted item tuples.  Scalars pass
    through unchanged.
    """
    if isinstance(value, (list, tuple)):
        return tuple(freeze_key(item) for item in value)
    if isinstance(value, set):
        return tuple(sorted((freeze_key(item) for item in value), key=repr))
    if isinstance(value, dict):
        return tuple(
            (freeze_key(k), freeze_key(v)) for k, v in sorted(value.items(), key=repr)
        )
    return value


def _case_key(case: InputCase) -> tuple:
    return (
        freeze_key(case.args),
        freeze_key(case.stdin),
        case.checks_return(),
        freeze_key(case.expected_return) if case.checks_return() else None,
        case.checks_output(),
        freeze_key(case.expected_output) if case.checks_output() else None,
    )


def case_set_key(cases: Sequence[InputCase]) -> tuple:
    """Return a hashable canonical key for an ordered case set.

    Order matters: traces are cached as a list parallel to ``cases``, so two
    case sets with the same members in different orders get distinct keys.
    """
    return tuple(_case_key(case) for case in cases)


class CacheStats(Counters):
    """Hit/miss counters for the three memo tables, with derived hit rates.

    ``trace`` counts trace/correctness lookups, ``match`` counts
    structural-match lookups, ``repair`` counts whole-outcome lookups.  A
    lookup with caching disabled counts as a miss, so hit rates remain
    comparable between cached and uncached runs.  The owning
    :class:`RepairCaches` shares its lock with these counters.
    """

    FIELDS = {
        "trace_hits": SUM,
        "trace_misses": SUM,
        "trace_hit_rate": hit_rate("trace_hits", "trace_misses"),
        "match_hits": SUM,
        "match_misses": SUM,
        "match_hit_rate": hit_rate("match_hits", "match_misses"),
        "repair_hits": SUM,
        "repair_misses": SUM,
        "repair_hit_rate": hit_rate("repair_hits", "repair_misses"),
    }


@dataclass
class RepairCaches:
    """Shared memoization for traces, correctness, matching and repairs.

    Args:
        enabled: When ``False`` every lookup misses and nothing is stored;
            computations still run, making this the switch for uncached
            baselines and for callers that mutate programs in place.

    One instance is owned by each :class:`repro.core.pipeline.Clara` and is
    shared by every worker thread of a batch run.  All public methods are
    thread-safe.
    """

    enabled: bool = True
    #: Hit/miss counters; created in ``__post_init__`` on this cache's lock,
    #: so an increment made under that lock takes no second one.
    stats: CacheStats = field(init=False)
    #: Tree-edit-distance memo (annotations + pair distances) threaded into
    #: candidate generation by :func:`repro.core.repair.find_best_repair`.
    #: Created in ``__post_init__`` so its ``enabled`` flag follows the
    #: caches' — an uncached baseline also measures uncached TED.
    ted: TedCache | None = None
    #: Compiled-expression memo (closures per interned expression, see
    #: :mod:`repro.interpreter.compile`) threaded into trace execution and
    #: candidate screening.  Created in ``__post_init__``; its ``enabled``
    #: flag follows the caches' so uncached baselines recompile per use.
    compiled: CompileCache | None = None
    #: ILP solve memo (optimal solutions and proven-infeasible verdicts per
    #: canonical problem fingerprint, see :mod:`repro.ilp.fastpath`)
    #: threaded into the repair selection solve.  Created in
    #: ``__post_init__``; its ``enabled`` flag follows the caches' so
    #: uncached baselines re-solve every instance.
    solve: SolveCache | None = None
    #: Nearest-cluster prefilter counters (:mod:`repro.retrieval`), filled
    #: by the pipeline's structural gate and surfaced through ``batch
    #: --profile`` and the service ``stats`` op.  Counters, not a cache:
    #: they accumulate regardless of ``enabled`` (disabling the caches
    #: must not silently disable prefilter accounting).
    retrieval: RetrievalStats | None = None
    #: Optional per-phase profiler (``repro-clara batch --profile``); when
    #: attached, parse/match/candidate-gen/TED/ILP work is timed and counted.
    profiler: PhaseProfiler | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    _program_keys: MutableMapping[Program, tuple] = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )
    _traces: dict[tuple, list[Trace]] = field(default_factory=dict, init=False, repr=False)
    _correct: dict[tuple, bool] = field(default_factory=dict, init=False, repr=False)
    _matches: dict[tuple, dict[int, int] | None] = field(default_factory=dict, init=False, repr=False)
    _fingerprints: dict[tuple, Fingerprint] = field(default_factory=dict, init=False, repr=False)
    _repairs: dict[tuple, tuple] = field(default_factory=dict, init=False, repr=False)
    #: Single-flight guard: keys whose repair is currently being computed,
    #: mapped to an event concurrent duplicates wait on.
    _repair_inflight: dict[tuple, threading.Event] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.stats = CacheStats(lock=self._lock)
        if self.ted is None:
            self.ted = TedCache(enabled=self.enabled)
        if self.compiled is None:
            self.compiled = CompileCache(enabled=self.enabled)
        if self.solve is None:
            self.solve = SolveCache(enabled=self.enabled)
        if self.retrieval is None:
            self.retrieval = RetrievalStats()

    # -- keys ------------------------------------------------------------------

    def program_key(self, program: Program) -> tuple:
        """Return ``program.structure_key()``, memoized per program object.

        Programs hash by identity; the memo is a ``WeakKeyDictionary`` so it
        never outlives the programs themselves — a long-lived engine grading
        an unbounded submission stream does not pin every parsed attempt in
        memory.  Callers that mutate a program after keying it must bypass
        the caches (see ``enabled``).
        """
        if not self.enabled:
            return program.structure_key()
        with self._lock:
            key = self._program_keys.get(program)
        if key is None:
            # Fingerprinting walks the whole program; doing it outside the
            # lock keeps other workers from serializing on it.  A racing
            # duplicate computation is benign: setdefault keeps one winner.
            key = program.structure_key()
            with self._lock:
                key = self._program_keys.setdefault(program, key)
        return key

    # -- traces and correctness -------------------------------------------------

    def traces(self, program: Program, cases: Sequence[InputCase]) -> list[Trace]:
        """Execute ``program`` on ``cases`` (Def. 3.5), memoized.

        Returns the same list object on a hit; callers must treat it as
        immutable.  Only default execution limits are supported — callers
        needing custom :class:`~repro.interpreter.executor.ExecutionLimits`
        should call :func:`repro.core.inputs.program_traces` directly.
        """
        if not self.enabled:
            self.stats.add("trace_misses")
            return self._execute(program, cases)
        key = (self.program_key(program), case_set_key(cases))
        with self._lock:
            cached = self._traces.get(key)
            if cached is not None:
                self.stats.add_locked("trace_hits")
                return cached
            self.stats.add_locked("trace_misses")
        traces = self._execute(program, cases)
        with self._lock:
            self._traces.setdefault(key, traces)
        return traces

    def _execute(self, program: Program, cases: Sequence[InputCase]) -> list[Trace]:
        """Run the compiled executor, attributed to the ``exec`` phase.

        All engine-routed executions funnel through here, so ``batch
        --profile`` sees execution time under ``exec`` and the number of
        location steps taken under the ``exec_steps`` counter.
        """
        with profiled(self.profiler, "exec"):
            traces = program_traces(program, cases, compile_cache=self.compiled)
        if self.profiler is not None:
            self.profiler.count("exec_steps", sum(len(trace) for trace in traces))
        return traces

    def is_correct(self, program: Program, cases: Sequence[InputCase]) -> bool:
        """Correctness predicate (§1, footnote 1) on top of cached traces.

        Equivalent to :func:`repro.core.inputs.is_correct`; on a miss it
        executes *all* cases (to populate the trace cache) instead of
        stopping at the first failure.
        """
        if not self.enabled:
            self.stats.add("trace_misses")
            # No trace cache to populate, so use the short-circuiting core
            # predicate — the pre-engine behaviour uncached baselines reproduce.
            return _is_correct_uncached(program, cases, compile_cache=self.compiled)
        key = (self.program_key(program), case_set_key(cases))
        with self._lock:
            if key in self._correct:
                self.stats.add_locked("trace_hits")
                return self._correct[key]
        traces = self.traces(program, cases)
        verdict = all(
            trace_passes_case(trace, case) for trace, case in zip(traces, cases)
        )
        with self._lock:
            self._correct[key] = verdict
        return verdict

    def fingerprint(
        self,
        program: Program,
        cases: Sequence[InputCase],
        traces: Sequence[Trace] | None = None,
    ) -> Fingerprint:
        """Matching-invariant fingerprint of ``program`` on ``cases``, memoized.

        Used by pruned clustering (:func:`repro.core.clustering.cluster_programs`)
        to bucket programs; a duplicate correct solution is fingerprinted
        once per case set.  ``traces`` may be passed when the caller already
        executed the program (clustering does), avoiding a trace lookup.
        """
        if not self.enabled:
            if traces is None:
                traces = self.traces(program, cases)
            return program_fingerprint(program, traces)
        key = (self.program_key(program), case_set_key(cases))
        with self._lock:
            cached = self._fingerprints.get(key)
            if cached is not None:
                return cached
        if traces is None:
            traces = self.traces(program, cases)
        fingerprint = program_fingerprint(program, traces)
        with self._lock:
            fingerprint = self._fingerprints.setdefault(key, fingerprint)
        return fingerprint

    # -- structural matching ------------------------------------------------------

    def structural_match(self, query: Program, base: Program) -> dict[int, int] | None:
        """Location bijection of Def. 4.1, memoized per (query, base) pair.

        This is the single entry point used both by the pipeline's
        "any cluster with the same control flow?" gate and by the repair
        search, so each (attempt, representative) pair is matched exactly
        once.  The returned mapping is shared on hits and must not be
        mutated.
        """
        if not self.enabled:
            self.stats.add("match_misses")
            with profiled(self.profiler, "match"):
                return structural_match(query, base)
        key = (self.program_key(query), self.program_key(base))
        with self._lock:
            if key in self._matches:
                self.stats.add_locked("match_hits")
                return self._matches[key]
            self.stats.add_locked("match_misses")
        with profiled(self.profiler, "match"):
            result = structural_match(query, base)
        with self._lock:
            self._matches.setdefault(key, result)
        return result

    # -- whole-repair memo ---------------------------------------------------------

    def repair_outcome(
        self,
        program: Program,
        context_key: tuple,
        compute: Callable[[], tuple],
        store_if: Callable[[tuple], bool] | None = None,
    ) -> tuple:
        """Memoize the cluster-search outcome for one attempt.

        Args:
            program: The parsed incorrect attempt.
            context_key: Everything besides the program's structure that
                determines the result.  The owning pipeline passes its
                identity token (one cache may serve several pipelines), its
                clustering version, solver name, budget, feedback threshold
                and the attempt's source-position signature (line numbers
                feed into feedback, but are deliberately absent from
                ``structure_key``).
            compute: Zero-argument callable producing the value on a miss.
            store_if: Optional predicate over the computed value; when it
                returns ``False`` the value is passed through but *not*
                memoized.  The pipeline uses this to keep load-dependent
                ``timeout`` outcomes from becoming sticky for all future
                duplicates of an attempt.

        The cached value is whatever ``compute`` returns (the pipeline stores
        ``(status, repair, feedback, detail)``); duplicate attempts therefore
        share ``Repair``/``Feedback`` objects, which are treated as immutable
        after construction.

        Lookups are *single-flight*: when worker threads hit the same key
        concurrently, one computes while the rest wait for its result, so a
        burst of identical submissions costs one ILP solve rather than one
        per worker.  If the computing thread raises (or declines to store),
        a waiter takes over.
        """
        if not self.enabled:
            self.stats.add("repair_misses")
            return compute()
        key = (self.program_key(program), context_key)
        while True:
            with self._lock:
                if key in self._repairs:
                    self.stats.add_locked("repair_hits")
                    return self._repairs[key]
                event = self._repair_inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._repair_inflight[key] = event
                    self.stats.add_locked("repair_misses")
                    break
            # Another thread owns the computation; wait, then re-check (the
            # owner may have failed, in which case this thread takes over).
            event.wait()
        try:
            value = compute()
            if store_if is None or store_if(value):
                with self._lock:
                    self._repairs[key] = value
            return value
        finally:
            with self._lock:
                self._repair_inflight.pop(key, None)
            event.set()

    # -- maintenance ---------------------------------------------------------------

    def drop_repair_memos(self, token: object) -> int:
        """Evict memoized repair outcomes belonging to one pipeline identity.

        ``token`` is a pipeline's memo token (the first element of every
        repair ``context_key`` it stores).  Called when a pipeline is
        retired — e.g. a service hot reload replacing one generation of
        engine with the next — so a long-lived shared cache does not
        accumulate unreachable entries for pipelines that no longer exist.
        Returns the number of entries evicted.
        """
        with self._lock:
            dead = [key for key in self._repairs if key[1][0] is token]
            for key in dead:
                del self._repairs[key]
            return len(dead)

    def clear(self) -> None:
        """Drop all cached entries (counters are preserved)."""
        with self._lock:
            self._program_keys.clear()
            self._traces.clear()
            self._correct.clear()
            self._matches.clear()
            self._fingerprints.clear()
            self._repairs.clear()
        self.ted.clear()
        self.compiled.clear()
        self.solve.clear()

    def entry_counts(self) -> dict[str, int]:
        """Number of stored entries per table (for reports and debugging)."""
        with self._lock:
            counts = {
                "traces": len(self._traces),
                "correct": len(self._correct),
                "matches": len(self._matches),
                "fingerprints": len(self._fingerprints),
                "repairs": len(self._repairs),
            }
        counts.update(self.ted.entry_counts())
        counts.update(self.compiled.entry_counts())
        counts.update(self.solve.entry_counts())
        return counts
