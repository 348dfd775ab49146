"""Batch worker subprocess: repair one shard, stream NDJSON records back.

Spawned by :class:`repro.engine.parallel.ProcessBatchEngine` as
``python -m repro.engine.worker --store ... --shard N``.  The protocol is
newline-delimited JSON over the standard pipes, both ends explicitly
UTF-8:

* stdin — one ``{"id", "attempt_id", "source"}`` object per attempt of
  this shard, then EOF;
* stdout — one ``{"id", "record"}`` object per attempt as soon as it is
  repaired (``record`` is :meth:`repro.engine.batch.BatchRecord.to_json`),
  flushed per line so a crashed worker loses only unfinished attempts;
  then one final ``{"counters"}`` frame carrying every section of
  :data:`repro.engine.parallel.COUNTER_SECTIONS`: the pipeline's
  :meth:`repro.core.pipeline.Clara.counters_payload` plus the accumulated
  trace/match/repair cache delta.

The worker rebuilds its pipeline from the dataset registry (the store
header names the problem), opens the store **header-only** and repairs
single-threaded — so its counters are deterministic for its shard, the
property the parent's merge rests on.  Tracebacks go to stderr, which the
parent attaches to crash-fill records.

Fault injection: ``REPRO_BATCH_WORKER_CRASH=<shard>:<after>`` makes the
worker owning ``<shard>`` hard-exit with code 23 after streaming
``<after>`` records — the hook behind the crash-surfacing tests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["main"]


def _crash_after(shard: int) -> int | None:
    """Records to emit before hard-exiting, per the fault-injection env var."""
    from .parallel import CRASH_ENV

    spec = os.environ.get(CRASH_ENV, "")
    if not spec:
        return None
    crash_shard, _, after = spec.partition(":")
    try:
        if int(crash_shard) != shard:
            return None
        return int(after)
    except ValueError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.engine.worker",
        description="Repair one shard of a process-parallel batch run.",
    )
    parser.add_argument("--store", required=True, help="cluster store path")
    parser.add_argument(
        "--shard", type=int, required=True, help="shard index (for diagnostics)"
    )
    parser.add_argument(
        "--budget", type=float, default=None, help="per-attempt budget in seconds"
    )
    parser.add_argument(
        "--top-k", type=int, default=None, help="retrieval prefilter head size"
    )
    parser.add_argument(
        "--profile", action="store_true", help="attach a per-phase profiler"
    )
    parser.add_argument(
        "--no-prefilter", action="store_true", help="disable the retrieval prefilter"
    )
    args = parser.parse_args(argv)

    # The protocol is UTF-8 on both pipes regardless of locale: attempt
    # sources and failure details may carry non-ASCII text.
    sys.stdin.reconfigure(encoding="utf-8")
    sys.stdout.reconfigure(encoding="utf-8")

    from ..clusterstore.store import read_store_header
    from ..core.pipeline import Clara
    from ..core.profile import PhaseProfiler
    from ..datasets.problems import get_problem
    from ..retrieval.index import DEFAULT_TOP_K
    from .batch import BatchAttempt, BatchRepairEngine
    from .cache import CacheStats, RepairCaches
    from .parallel import counter_sections

    header = read_store_header(args.store)
    if not header.problem:
        print(f"store {args.store} names no problem", file=sys.stderr)
        return 2
    spec = get_problem(header.problem)
    caches = RepairCaches(
        profiler=PhaseProfiler() if args.profile else None,
    )
    clara = Clara(
        cases=spec.cases,
        language=spec.language,
        entry=spec.entry,
        retrieval_prefilter=not args.no_prefilter,
        retrieval_top_k=DEFAULT_TOP_K if args.top_k is None else args.top_k,
        caches=caches,
    )
    engine = BatchRepairEngine.from_store(
        args.store, clara, workers=1, budget=args.budget
    )

    crash_after = _crash_after(args.shard)
    cache_total = CacheStats()
    emitted = 0
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        report = engine.run(
            [BatchAttempt(attempt_id=request["attempt_id"], source=request["source"])]
        )
        cache_total = cache_total.merge(report.cache_stats)
        print(
            json.dumps({"id": request["id"], "record": report.records[0].to_json()}),
            flush=True,
        )
        emitted += 1
        if crash_after is not None and emitted >= crash_after:
            # Simulate a hard death (no cleanup, no final frame) so tests
            # exercise the parent's crash-fill path, not a graceful exit.
            os._exit(23)
    counters = counter_sections(clara.counters_payload(), cache_total)
    print(json.dumps({"counters": counters}), flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
