"""Benchmark — the resident service's warm path vs its cold first pass.

Drives a :class:`repro.service.RepairService` (no TCP — the transport adds
nothing deterministic) through the same duplicate-heavy request stream
twice over one warm per-problem engine:

* the **cold pass**: every unique attempt pays parse, execution, matching,
  TED and the ILP — the cost a batch CLI pays on *every* invocation;
* the **warm pass**: the identical stream again — the steady state of a
  long-lived daemon, where every repair is a memo hit and zero new TED DPs
  run (the service-level restatement of the PR-1..3 cache guarantees).

Statuses must be identical between the passes, the warm pass must run zero
TED DPs and re-miss nothing in the repair memo.  Deterministic counters are
committed to ``results/service_throughput.json``; wall-clock request rates
go to the gitignored ``results/local/service_throughput_timings.json``.
The benchmarked unit is one warm request end to end (admission, dispatch,
memo hit, response assembly).
"""

from __future__ import annotations

import asyncio
import json
import time

from repro import Clara
from repro.datasets import generate_corpus, get_problem
from repro.service import RepairService

#: Each unique incorrect attempt appears this many times per pass,
#: emulating resubmissions while students iterate.
DUPLICATION = 4


def _request_lines(sources):
    return [
        json.dumps(
            {"op": "repair", "problem": "derivatives", "source": source, "id": index}
        )
        for index, source in enumerate(sources)
    ]


def _drive(service, lines):
    """Send all requests sequentially on one event loop (deterministic
    counters need single-flight execution; concurrency is measured by the
    engine benchmark, not here)."""

    async def run():
        return [await service.handle_line(line) for line in lines]

    return asyncio.run(run())


def test_service_throughput(benchmark, results_dir, local_results_dir, tmp_path):
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 12, 6, seed=2018)
    store_path = tmp_path / "derivatives.json"
    builder = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    builder.add_correct_sources(corpus.correct_sources)
    builder.save_clusters(store_path, problem=problem.name)

    service = RepairService(workers=1)
    runtime = service.add_problem(store_path)
    lines = _request_lines(list(corpus.incorrect_sources) * DUPLICATION)

    def drive_pass():
        """One pass over ``lines``: responses, seconds, cache and TED deltas."""
        counters = (runtime.caches.stats, runtime.caches.ted.stats)
        before = [stats.snapshot() for stats in counters]
        started = time.perf_counter()
        responses = _drive(service, lines)
        elapsed = time.perf_counter() - started
        cache, ted = (
            stats.snapshot().diff(old).as_dict() for stats, old in zip(counters, before)
        )
        return responses, elapsed, cache, ted

    cold_responses, cold_time, cold_cache, cold_ted = drive_pass()
    warm_responses, warm_time, warm_cache, warm_ted = drive_pass()

    # The daemon's reason to exist: the second pass is pure memo traffic.
    assert [r["status"] for r in warm_responses] == [r["status"] for r in cold_responses]
    assert all(response["ok"] for response in cold_responses)
    assert cold_ted["dp_runs"] > 0
    assert warm_ted["dp_runs"] == 0, f"warm pass ran {warm_ted['dp_runs']} TED DPs"
    assert warm_cache["repair_misses"] == 0
    assert warm_cache["repair_hits"] == len(lines)

    histogram: dict[str, int] = {}
    for response in cold_responses:
        histogram[response["status"]] = histogram.get(response["status"], 0) + 1

    payload = {
        "problem": problem.name,
        "requests_per_pass": len(lines),
        "unique_attempts": len(corpus.incorrect_sources),
        "duplication": DUPLICATION,
        "clusters": runtime.snapshot().engine.clara.cluster_count,
        "store_revision": runtime.revision,
        "status_histogram": dict(sorted(histogram.items())),
        "cold": {"cache": cold_cache, "ted": cold_ted},
        "warm": {"cache": warm_cache, "ted": warm_ted},
    }
    (results_dir / "service_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print("\n" + json.dumps(payload, indent=2))

    timings = {
        "cold_seconds": round(cold_time, 6),
        "warm_seconds": round(warm_time, 6),
        "cold_requests_per_second": round(len(lines) / cold_time, 3) if cold_time else None,
        "warm_requests_per_second": round(len(lines) / warm_time, 3) if warm_time else None,
    }
    (local_results_dir / "service_throughput_timings.json").write_text(
        json.dumps(timings, indent=2) + "\n"
    )

    # Steady-state benchmarked unit: one warm request through the service.
    line = lines[0]
    benchmark(lambda: asyncio.run(service.handle_line(line)))
    service.close()
