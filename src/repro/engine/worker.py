"""Batch shard worker: repair one shard in a forked child, stream frames back.

:class:`repro.engine.parallel.ProcessBatchEngine` forks one child per
non-empty shard and calls :func:`run_shard` there.  The frames are
pickled dicts sent over a ``multiprocessing``
:class:`~multiprocessing.connection.Connection`:

* one ``{"id", "record"}`` frame per attempt as soon as it is repaired
  (``record`` is :meth:`repro.engine.batch.BatchRecord.to_json`), so a
  crashed worker loses only unfinished attempts;
* then one final ``{"counters"}`` frame carrying every section of
  :data:`repro.engine.parallel.COUNTER_SECTIONS`: the pipeline's
  :meth:`repro.core.pipeline.Clara.counters_payload` plus the accumulated
  trace/match/repair cache delta;
* or, if the shard fails, one final ``{"error": "<Type>: <message>"}``
  frame, after which the child exits with code 1; the parent attaches the
  message to the shard's crash-fill records.  The traceback goes to the
  worker's stderr, which it shares with the parent.

The worker rebuilds its pipeline from the dataset registry (the store
header names the problem), opens the store **header-only** and repairs
single-threaded — so its counters are deterministic for its shard, the
property the parent's merge rests on.

The pipeline modules are imported at module top: the parent imports this
module before it forks, so every child starts with them already imported.
"""

from __future__ import annotations

import os
import traceback

from ..clusterstore.store import read_store_header
from ..core.pipeline import Clara
from ..core.profile import PhaseProfiler
from ..datasets.problems import get_problem
from .batch import BatchAttempt, BatchRepairEngine
from .cache import CacheStats, RepairCaches
from .parallel import CRASH_EXIT_CODE, counter_sections

__all__ = ["run_shard"]


def run_shard(
    conn,
    store: str,
    attempts: list[tuple[int, str, str]],
    *,
    budget: float | None,
    profile: bool,
    prefilter: bool,
    crash_after: int | None,
) -> None:
    """Repair ``(id, attempt_id, source)`` attempts; send frames on ``conn``.

    ``crash_after`` is the fault-injection hook: hard-exit with
    :data:`~repro.engine.parallel.CRASH_EXIT_CODE` after sending that many
    records, with no cleanup and no final frame.
    """
    try:
        header = read_store_header(store)
        if not header.problem:
            raise ValueError(f"store {store} names no problem")
        spec = get_problem(header.problem)
        clara = Clara(
            cases=spec.cases,
            language=spec.language,
            entry=spec.entry,
            retrieval_prefilter=prefilter,
            caches=RepairCaches(profiler=PhaseProfiler() if profile else None),
        )
        engine = BatchRepairEngine.from_store(store, clara, budget=budget)
        cache_total = CacheStats()
        for emitted, (index, attempt_id, source) in enumerate(attempts, start=1):
            report = engine.run([BatchAttempt(attempt_id=attempt_id, source=source)])
            cache_total = cache_total.merge(report.cache_stats)
            conn.send({"id": index, "record": report.records[0].to_json()})
            if crash_after is not None and emitted >= crash_after:
                os._exit(CRASH_EXIT_CODE)
        conn.send({"counters": counter_sections(clara.counters_payload(), cache_total)})
    except Exception as exc:  # noqa: BLE001 - reported to the parent, then exit 1
        traceback.print_exc()
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        raise SystemExit(1) from None
