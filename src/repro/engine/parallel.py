"""Process-parallel batch repair with deterministic counter merging.

:class:`repro.engine.batch.BatchRepairEngine` repairs a corpus on the
calling thread, so on one core.  :class:`ProcessBatchEngine` is the
multi-core path — processes are the only parallelism — behind ``batch
--processes N``: it shards a corpus across N worker processes, each
running :func:`repro.engine.worker.run_shard`, which opens the cluster
store header-only with its own shared-nothing
:class:`~repro.engine.cache.RepairCaches` and repairs its shard
single-threaded, streaming per-attempt records back over a pipe.  The
parent merges the shard streams into one
:class:`~repro.engine.batch.BatchReport` in submission order and folds
every per-worker counter section by commutative sum, so ``--profile``
output is byte-stable regardless of process count.

Workers are plain ``fork`` children of the calling process, started by
each ``run`` and reaped before it returns.  A child starts with everything
the caller has imported — :mod:`repro.engine.worker` imports the pipeline
at module top — so no interpreter start and no import is paid per shard,
and it runs exactly the code the caller runs (its ``sys.path``, its copy
of ``repro``), with no ``__main__`` guard needed and its peak RSS counted
in the caller's ``RUSAGE_CHILDREN``.  The one caveat is threads: ``fork``
copies only the calling thread, so a lock another thread of the caller
holds at that moment stays held in the child.  The worker only uses
objects it creates itself (pipeline, caches, store handle, pipe), and
Python 3.12+ warns (``DeprecationWarning``) when a multi-threaded process
forks; the CLI, ``perfbench`` and the tests call ``run`` with no other
thread running.

Why the merged counters *equal* a single-process run (not merely sum to
something plausible): shards are planned by **CFG-skeleton digest**
(:func:`shard_key`).  Two attempts land on the same worker whenever their
skeletons are equal, i.e. whenever they are structurally matchable at all
(Def. 4.1) — so every trace/match/repair memo key, every structural-match
probe and every store segment a worker touches is local to the skeleton
classes it owns.  Duplicate attempts hit the same warm cache they would
have hit in one process; a segment pages in on exactly one worker, namely
the one owning its skeleton; no cache entry or match that a single
process would have shared is ever split across two processes.  Folding
per-shard counters with the :mod:`repro.counters` algebra therefore
reproduces the single-process values exactly for every section built from
class-local work.  The expression-level memos *can* legitimately share
entries across skeleton classes (the same sub-expression appears in two
shapes), so their sections are merged by the same sum but carry no
identity guarantee.  :data:`COUNTER_SECTIONS` is the one table saying
which section is which; this merge, ``batch --profile``, the tests, the
benchmark and ``tools/parallel_smoke.py`` all read it.

Determinism also does not depend on ``PYTHONHASHSEED``: shard planning
uses SHA-256 skeleton digests and CRC-32 of the source bytes (for
unparseable attempts) with first-appearance round-robin assignment, and
each worker is single-threaded, so per-shard record streams and counters
are reproducible run to run.

A worker that dies mid-shard (crash, OOM kill) does not hang the merge:
its already-streamed records are kept, and every unanswered attempt of
that shard is reported as a structured ``internal-error`` record naming
the shard and exit code, plus the worker's ``{"error"}`` message when it
failed with an exception rather than dying.  The dead worker's final
counters frame is simply absent from the merge.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..clusterstore.segments import StorePaging, skeleton_digest
from ..clusterstore.store import StoreHeader, read_store_header
from ..core.profile import PHASE_REPORT
from ..counters import OpenCounters, fold
from ..ilp.fastpath import SolveCounters
from ..interpreter.compile import CompileCounters
from ..retrieval.index import RetrievalStats
from ..ted.zhang_shasha import TedCounters
from .batch import BatchAttempt, BatchRecord, BatchRepairEngine, BatchReport
from .cache import CacheStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.pipeline import RepairOutcome

__all__ = [
    "COUNTER_SECTIONS",
    "ProcessBatchEngine",
    "counter_sections",
    "identity_sections",
    "shard_key",
    "shard_plan",
]

#: Environment variable for fault-injection tests: ``"<shard>:<after>"``
#: makes the worker owning that shard hard-exit (``os._exit``) after
#: streaming ``after`` records, exercising the parent's crash-fill path.
#: Read by the parent at each ``run`` and passed to the shard.
CRASH_ENV = "REPRO_BATCH_WORKER_CRASH"

#: Exit code the crash hook uses; distinctive enough that a test can tell
#: an injected crash from a worker error (1).
CRASH_EXIT_CODE = 23


def _crash_hook() -> tuple[int | None, int | None]:
    """``(shard, after)`` from :data:`CRASH_ENV`; ``(None, None)`` if unset."""
    shard, _, after = os.environ.get(CRASH_ENV, "").partition(":")
    try:
        return int(shard), int(after)
    except ValueError:
        return None, None


# -- shard planning ----------------------------------------------------------------


def shard_key(source: str, *, language: str, entry: str | None) -> str:
    """Deterministic equivalence-class key for shard planning.

    Parseable attempts key on their CFG-skeleton digest — the necessary
    condition for structural matching (Def. 4.1), hence the boundary along
    which caches and store segments partition.  Unparseable attempts can
    never share cache entries beyond the parse itself, so they key on a
    CRC-32 of their bytes, which keeps byte-identical duplicates together
    (one parse failure per distinct source, same as a single process).
    Stable across processes, platforms and ``PYTHONHASHSEED``.
    """
    from ..frontend import parse_source

    try:
        program = parse_source(source, language=language, entry=entry)
    except Exception:  # noqa: BLE001 - any frontend failure → content key
        return "unparsed:%08x" % (zlib.crc32(source.encode("utf-8")) & 0xFFFFFFFF)
    return "skeleton:" + skeleton_digest(program)


def shard_plan(
    attempts: Sequence[BatchAttempt],
    processes: int,
    *,
    language: str,
    entry: str | None,
) -> list[list[int]]:
    """Partition attempt indices into ``processes`` skeleton-aligned shards.

    Every attempt of one equivalence class (equal :func:`shard_key`) lands
    on one shard; classes are dealt round-robin in first-appearance order,
    which balances class counts without consulting anything
    nondeterministic.  Some shards may be empty when there are fewer
    classes than processes.  Thread safety: pure function.
    """
    assignment: dict[str, int] = {}
    shards: list[list[int]] = [[] for _ in range(processes)]
    for index, attempt in enumerate(attempts):
        key = shard_key(attempt.source, language=language, entry=entry)
        if key not in assignment:
            assignment[key] = len(assignment) % processes
        shards[assignment[key]].append(index)
    return shards


# -- counter sections ----------------------------------------------------------------


@dataclass(frozen=True)
class CounterSection:
    """One section of a ``batch --profile`` report and how workers merge it."""

    name: str
    #: The section's counter schema (a mapping of parts for ``phases``).
    schema: object
    #: Whether the merged value must *equal* the single-process value
    #: (class-local work) rather than merely be the sum over workers.
    identical: bool
    #: The part of the section that identity covers (``None``: all of it).
    view: str | None = None


#: Every section of :meth:`repro.core.pipeline.Clara.counters_payload`
#: plus the run's ``cache`` counters (``BatchReport.cache_stats``), in
#: report order.  Phase *timings* are machine-dependent, so only the phase
#: counters carry the identity guarantee.
COUNTER_SECTIONS = (
    CounterSection("phases", PHASE_REPORT, identical=True, view="counters"),
    CounterSection("ted", TedCounters, identical=False),
    CounterSection("compile", CompileCounters, identical=False),
    CounterSection("solve", SolveCounters, identical=False),
    CounterSection("cache", CacheStats, identical=True),
    CounterSection("cache_entries", OpenCounters, identical=False),
    CounterSection("store_paging", StorePaging, identical=True),
    CounterSection("retrieval", RetrievalStats, identical=True),
)


def counter_sections(payload: dict, cache_stats: CacheStats) -> dict:
    """Every :data:`COUNTER_SECTIONS` section, in table order.

    ``payload`` is a ``counters_payload()`` dict (or a merged
    ``BatchReport.profile``); ``cache_stats`` supplies the ``cache`` section.
    """
    sections = dict(payload, cache=cache_stats.as_dict())
    return {section.name: sections[section.name] for section in COUNTER_SECTIONS}


def identity_sections(payload: dict, cache_stats: CacheStats) -> dict:
    """The sections whose merged value must equal a single-process run."""
    sections = counter_sections(payload, cache_stats)
    return {
        section.name: (
            sections[section.name][section.view] if section.view else sections[section.name]
        )
        for section in COUNTER_SECTIONS
        if section.identical
    }


# -- the engine ----------------------------------------------------------------------


@dataclass
class _ShardResult:
    """What one worker sent: records by index, final frame, exit code."""

    records: dict[int, BatchRecord] = field(default_factory=dict)
    counters: dict | None = None
    error: str = ""
    exit_code: int | None = None


class ProcessBatchEngine:
    """Shard a corpus across worker processes; merge one deterministic report.

    Built by ``BatchRepairEngine.from_store(..., processes=N)`` (the
    ``batch --processes N`` path).  Each worker process rebuilds its
    pipeline from the dataset registry (the store header's ``problem``
    name), opens the store header-only, and repairs its skeleton-aligned
    shard single-threaded — per-shard counters are therefore deterministic,
    which is what lets the merged ``--profile`` payload be committed and
    asserted byte-identical to a single-process run (see the module
    docstring for the argument, and ``results/parallel_batch.json`` for
    the committed evidence).

    Args:
        clusters_path: A current-format cluster store whose header names a
            registered problem (workers look it up to rebuild test cases).
        processes: Worker-process count (>= 1); also the reported
            ``BatchReport.workers``.  Shards left empty by the planner
            start no process.
        budget: Per-attempt wall-clock budget forwarded to every worker.
        profile: Attach a :class:`~repro.core.profile.PhaseProfiler` in
            every worker and merge the payloads (``batch --profile``).
        retrieval_prefilter: Forwarded pipeline configuration
            (:class:`repro.core.pipeline.Clara`).
        language: When given, validated against the store header up front
            so a mismatch fails in the parent, not N times in workers.

    Differences from the in-process engine, by construction: the
    ``outcomes`` on the returned report carry status/detail/elapsed only —
    repaired programs and feedback *objects* do not cross the process
    boundary (the feedback *messages* are on the records, which is what
    the CLI and JSONL serialisation use).  Callers needing live
    ``RepairOutcome.repair`` objects want the in-process engine.

    Thread safety: one ``run`` at a time per engine instance, with no
    other thread of the caller running (``run`` forks; see the module
    docstring); the workers it forks share nothing with the caller.

    Raises:
        ClusterStoreError: Unreadable or non-store ``clusters_path``.
        ValueError: Store names no problem, or its language contradicts
            ``language``.
    """

    def __init__(
        self,
        clusters_path: str | Path,
        *,
        processes: int,
        budget: float | None = None,
        profile: bool = False,
        retrieval_prefilter: bool = True,
        language: str | None = None,
    ) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.clusters_path = Path(clusters_path)
        self.header: StoreHeader = read_store_header(self.clusters_path)
        if not self.header.problem:
            raise ValueError(
                f"store {self.clusters_path} names no problem; process workers "
                "rebuild their pipelines from the dataset registry and need one"
            )
        if language is not None and self.header.language != language:
            raise ValueError(
                f"store {self.clusters_path} holds {self.header.language!r} "
                f"clusters but the pipeline is configured for {language!r}"
            )
        self.processes = processes
        self.budget = budget
        self.profile = profile
        self.retrieval_prefilter = retrieval_prefilter

    # -- public API --------------------------------------------------------------

    def run(
        self,
        attempts: Iterable[str | BatchAttempt],
        *,
        budget: float | None = None,
    ) -> BatchReport:
        """Repair every attempt across the worker fleet; one merged report.

        Accepts the same corpus shapes as
        :meth:`repro.engine.batch.BatchRepairEngine.run` and returns
        records in submission order regardless of which worker finished
        first.  The merged counter sections are attached as
        ``report.profile`` (the :meth:`repro.core.pipeline.Clara.counters_payload`
        shape); ``report.cache_stats`` carries the summed trace/match/repair
        counters.
        """
        items = BatchRepairEngine._normalise(attempts)
        effective_budget = self.budget if budget is None else budget
        started = time.perf_counter()
        if not items:
            return BatchReport(
                records=[],
                outcomes=[],
                wall_time=time.perf_counter() - started,
                workers=self.processes,
                cache_stats=CacheStats(),
            )
        shards = shard_plan(
            items,
            self.processes,
            language=self.header.language,
            entry=self.header.entry,
        )
        from .worker import run_shard

        context = multiprocessing.get_context("fork")
        crash_shard, crash_after = _crash_hook()
        results = [_ShardResult() for _ in shards]
        live: dict[Connection, tuple[multiprocessing.Process, _ShardResult]] = {}
        for shard_index, member_indices in enumerate(shards):
            if not member_indices:
                continue
            result = results[shard_index]
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=run_shard,
                args=(
                    sender,
                    str(self.clusters_path),
                    [(i, items[i].attempt_id, items[i].source) for i in member_indices],
                ),
                kwargs=dict(
                    budget=effective_budget,
                    profile=self.profile,
                    prefilter=self.retrieval_prefilter,
                    crash_after=crash_after if shard_index == crash_shard else None,
                ),
                name=f"batch-shard-{shard_index}",
                daemon=True,
            )
            try:
                process.start()
            except OSError as exc:  # fork failed: process or fd limits
                result.exit_code = -1
                result.error = f"start failed: {exc}"
                receiver.close()
                continue
            finally:
                sender.close()
            live[receiver] = (process, result)
        while live:
            for receiver in wait(list(live)):
                process, result = live[receiver]
                try:
                    frame = receiver.recv()
                except (EOFError, OSError):  # the worker exited or died
                    receiver.close()
                    del live[receiver]
                    process.join()
                    result.exit_code = process.exitcode
                    continue
                if "record" in frame:
                    result.records[frame["id"]] = BatchRecord(**frame["record"])
                elif "counters" in frame:
                    result.counters = frame["counters"]
                else:
                    result.error = frame["error"]
        return self._merge(items, shards, results, time.perf_counter() - started)

    # -- merging ---------------------------------------------------------------------

    def _merge(
        self,
        items: list[BatchAttempt],
        shards: list[list[int]],
        results: list[_ShardResult],
        wall_time: float,
    ) -> BatchReport:
        from ..core.pipeline import RepairOutcome, RepairStatus

        records: list[BatchRecord | None] = [None] * len(items)
        for shard_index, member_indices in enumerate(shards):
            result = results[shard_index]
            for index in member_indices:
                record = result.records.get(index)
                if record is None:
                    detail = (
                        f"worker process for shard {shard_index} exited with "
                        f"code {result.exit_code} before repairing this attempt"
                    )
                    if result.error:
                        detail += f" (error: {result.error[:200]})"
                    record = BatchRecord(
                        attempt_id=items[index].attempt_id,
                        status=RepairStatus.INTERNAL_ERROR,
                        elapsed=0.0,
                        detail=detail,
                    )
                records[index] = record

        frames = [result.counters for result in results if result.counters]
        cache_stats = CacheStats()
        profile: dict | None = None
        if frames:
            profile = {
                section.name: fold(section.schema, [frame[section.name] for frame in frames])
                for section in COUNTER_SECTIONS
            }
            cache_stats = CacheStats.from_dict(profile.pop("cache"))

        final_records = [record for record in records if record is not None]
        outcomes: list[RepairOutcome] = [
            RepairOutcome(
                status=record.status, elapsed=record.elapsed, detail=record.detail
            )
            for record in final_records
        ]
        return BatchReport(
            records=final_records,
            outcomes=outcomes,
            wall_time=wall_time,
            workers=self.processes,
            cache_stats=cache_stats,
            profile=profile,
        )
