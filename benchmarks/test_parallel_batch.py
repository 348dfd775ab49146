"""Benchmark E11 — process-parallel batch repair with counter-identity evidence.

``batch --processes N`` shards a corpus across worker subprocesses by
CFG-skeleton digest and merges the per-shard streams
(:mod:`repro.engine.parallel`).  The claim this benchmark commits evidence
for: the merged report rows and the class-local counter sections — phase
counters, trace/match/repair cache counters, retrieval counters, store
paging — are **equal** to a single-process run for N ∈ {1, 2, 4}, on a
corpus spanning two skeleton families.  The expression-level TED/compile
memo counters carry no such guarantee (one process can share entries
across skeleton classes) and are recorded as summed-only.

Deterministic identity evidence goes to ``results/parallel_batch.json``
(timing-free, byte-stable across ``PYTHONHASHSEED`` — the tier-1 CI job
regenerates and diffs it); wall-clock timings per process count go to the
gitignored ``results/local/parallel_batch_timings.json``.  The benchmarked
unit is one cold two-process run over a two-family attempt pair.
"""

from __future__ import annotations

import json
import time

from repro import Clara
from repro.core.profile import PhaseProfiler
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchAttempt, BatchRepairEngine, ProcessBatchEngine
from repro.engine.cache import RepairCaches
from repro.engine.parallel import COUNTER_SECTIONS, identity_sections

from conftest import bench_scale

#: Correct two-loop strategy: a second CFG-skeleton family, so the shard
#: planner has real classes to distribute.
TWO_LOOP = (
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(i*poly[i]))\n"
    "    result = []\n"
    "    for j in range(1, len(new)):\n"
    "        result.append(new[j])\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

TWO_LOOP_BROKEN = TWO_LOOP.replace("float(i*poly[i])", "float(poly[i])")

PROCESS_COUNTS = (1, 2, 4)


def _build_store(tmp_path):
    correct, incorrect = bench_scale()
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, max(2 * correct, 30), incorrect, seed=2018)
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    clara.add_correct_sources(list(corpus.correct_sources) + [TWO_LOOP])
    path = clara.save_clusters(tmp_path / "derivatives.json", problem="derivatives")
    attempts = [
        BatchAttempt(f"attempt-{index}", source)
        for index, source in enumerate(corpus.incorrect_sources)
    ]
    # A duplicate (warm-cache path) and the second skeleton family.
    attempts.append(BatchAttempt("duplicate-0", attempts[0].source))
    attempts.append(BatchAttempt("two-loop", TWO_LOOP_BROKEN))
    return problem, path, attempts


def _rows(report):
    return [
        [r.attempt_id, r.status, r.cost, r.relative_size, r.num_modified, r.feedback]
        for r in report.records
    ]


def test_parallel_batch(benchmark, results_dir, local_results_dir, tmp_path):
    problem, path, attempts = _build_store(tmp_path)

    # Single-process baseline: one in-process engine, one thread.
    clara = Clara(
        cases=problem.cases,
        language=problem.language,
        entry=problem.entry,
        caches=RepairCaches(profiler=PhaseProfiler()),
    )
    engine = BatchRepairEngine.from_store(path, clara, workers=1)
    baseline_started = time.perf_counter()
    baseline = engine.run(attempts)
    baseline_time = time.perf_counter() - baseline_started
    expected_sections = identity_sections(clara.counters_payload(), baseline.cache_stats)
    expected_rows = _rows(baseline)

    timings = {"single_process": round(baseline_time, 4)}
    identical: dict[str, bool] = {}
    for processes in PROCESS_COUNTS:
        run_started = time.perf_counter()
        report = ProcessBatchEngine(path, processes=processes, profile=True).run(
            attempts
        )
        timings[f"processes_{processes}"] = round(time.perf_counter() - run_started, 4)
        assert _rows(report) == expected_rows, (
            f"report rows diverged from the single-process run at "
            f"{processes} processes"
        )
        merged = identity_sections(report.profile, report.cache_stats)
        for section in expected_sections:
            same = merged[section] == expected_sections[section]
            identical[section] = identical.get(section, True) and same
            assert same, (
                f"{section} counters diverged at {processes} processes:\n"
                f"  single : {expected_sections[section]}\n"
                f"  merged : {merged[section]}"
            )

    correct, _incorrect = bench_scale()
    payload = {
        "problem": "derivatives",
        "correct_pool": max(2 * correct, 30) + 1,
        "attempts": len(attempts),
        "process_counts": list(PROCESS_COUNTS),
        "counters_identical_to_single_process": identical,
        "sections": expected_sections,
        "summed_only_sections": [s.name for s in COUNTER_SECTIONS if not s.identical],
        "statuses": baseline.status_histogram(),
    }
    (results_dir / "parallel_batch.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (local_results_dir / "parallel_batch_timings.json").write_text(
        json.dumps(timings, indent=2) + "\n", encoding="utf-8"
    )
    print("\n" + json.dumps(payload, indent=2, sort_keys=True))

    # Benchmarked unit: one cold two-process run over a two-family pair —
    # dominated by worker spawn + warm-up, the fixed cost --processes pays.
    pair = [attempts[0], BatchAttempt("two-loop-unit", TWO_LOOP_BROKEN)]

    def cold_two_process_run():
        report = ProcessBatchEngine(path, processes=2).run(pair)
        return [record.status for record in report.records]

    assert benchmark.pedantic(cold_two_process_run, rounds=1, iterations=1) == [
        expected_rows[0][1],
        "repaired",
    ]
