"""Per-phase profiling of the repair pipeline (``repro-clara batch --profile``).

A :class:`PhaseProfiler` accumulates wall-clock time and call counts per
pipeline phase — ``parse``, ``exec``, ``match``, ``candidate_gen``, ``ted``
and ``ilp`` — across every attempt of a batch run.  The ``exec`` phase
covers Def. 3.5 trace execution (the compiled fast path of
:mod:`repro.interpreter`); its companion ``exec_steps`` counter records how
many location steps those executions took.  The ``ilp`` phase covers repair
selection solves (:func:`repro.ilp.solve_fast`), with counter-only
companions ``ilp_solves`` (solves that produced a solution), ``ilp_nodes``
(branch-and-bound nodes those solves explored — zero for memo hits and
degenerate assignment dispatches) and ``candidates_generated`` (indicator
variables handed to the solver).  It is attached to the
pipeline's :class:`repro.engine.cache.RepairCaches` (``caches.profiler``)
and threaded from there into the repair core, so instrumentation costs
nothing when no profiler is attached (the common case): every hook goes
through :func:`profiled`, which is a no-op for ``profiler=None``.

Counters are deterministic for a given corpus and single-worker run, which
is what the CI fast-tests exercise; timings are machine-dependent and only
ever written to the gitignored ``results/local/``.

The two accumulators are :class:`repro.counters.OpenCounters` —
:class:`PhaseCalls` and :class:`PhaseSeconds`, sharing one lock — so the
process-parallel batch engine (:mod:`repro.engine.parallel`) folds
per-worker :meth:`PhaseProfiler.as_dict` payloads with
:func:`repro.counters.fold` over :data:`PHASE_REPORT`, and the merged
*counters* equal the single-process run exactly.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from ..counters import OpenCounters

__all__ = ["PhaseProfiler", "PhaseCalls", "PhaseSeconds", "PHASE_REPORT", "profiled", "PHASES"]

#: Canonical phase order for reports.
PHASES = ("parse", "exec", "match", "candidate_gen", "ted", "ilp")


def _phase_order(names) -> list[str]:
    return [p for p in PHASES if p in names] + sorted(set(names) - set(PHASES))


class PhaseCalls(OpenCounters):
    """Call counts per phase, canonical phases first (deterministic)."""

    @classmethod
    def render(cls, values: dict) -> dict:
        return {phase: values[phase] for phase in _phase_order(values)}


class PhaseSeconds(OpenCounters):
    """Wall-clock seconds per phase, rounded to 6 decimals in reports."""

    @classmethod
    def render(cls, values: dict) -> dict:
        return {phase: round(values[phase], 6) for phase in _phase_order(values)}


#: The parts of :meth:`PhaseProfiler.as_dict`, for :func:`repro.counters.fold`.
PHASE_REPORT = {"counters": PhaseCalls, "timings": PhaseSeconds}


class PhaseProfiler:
    """Thread-safe accumulator of per-phase timings and call counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls = PhaseCalls(lock=self._lock)
        self._seconds = PhaseSeconds(lock=self._lock)

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Record ``seconds`` of work (and ``calls`` invocations) for a phase."""
        with self._lock:
            self._seconds.add_locked(phase, seconds)
            self._calls.add_locked(phase, calls)

    def count(self, phase: str, calls: int = 1) -> None:
        """Record invocations without timing (counter-only instrumentation).

        Counter-only phases (e.g. ``exec_steps``) never appear in
        :meth:`timings`, so reports don't list spurious 0-second phases.
        """
        self._calls.add(phase, calls)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block of work under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    # -- reports ---------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Timing-free call counts per phase (deterministic for a corpus)."""
        return self._calls.as_dict()

    def timings(self) -> dict[str, float]:
        """Accumulated wall-clock seconds per phase (machine-dependent)."""
        return self._seconds.as_dict()

    def as_dict(self) -> dict:
        """``{"counters": {...}, "timings": {...}}`` for JSON reports."""
        return {"counters": self.counters(), "timings": self.timings()}


@contextmanager
def profiled(profiler: PhaseProfiler | None, name: str) -> Iterator[None]:
    """Time a block under ``name`` when a profiler is attached; else no-op."""
    if profiler is None:
        yield
        return
    with profiler.phase(name):
        yield
