"""Soak benchmark — the fleet under a deterministic fault barrage.

Drives a two-worker :class:`~repro.fleet.FleetService` through a fixed
request stream per problem while a :class:`~repro.fleet.faults.FaultPlan`
injects every supervised failure mode at known coordinates:

* worker 0 **crashes** mid-request on its 4th repair (first incarnation),
* worker 0 **hangs** on the 8th request overall (5th repair of the second
  incarnation) until the watchdog's 0.5 s kill deadline fires,
* worker 1 answers one request through a short **delay** (slow but alive —
  no death, no counters).

Faults key on (worker, incarnation, op ordinal) — never wall-clock — and
each problem's stream is driven sequentially (concurrency only *across*
shards), so the recovery counters are identical on every run and the
committed artifact ``results/fleet_soak.json`` is byte-stable.  The soak
asserts the fleet's core invariant: **zero lost requests** — every
submitted request resolves to a repair or a structured response, with the
crashed and killed requests retried to success on the respawn.

Wall-clock timings (soak duration, recovery latency) are machine-dependent
and go to the gitignored ``results/local/fleet_soak_timings.json``.  The
benchmarked unit is one warm repair end to end through the router → pipe →
worker → memo-hit path.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro import Clara
from repro.datasets import generate_corpus, get_problem
from repro.fleet import BackoffPolicy, Fault, FaultPlan, FleetService

PROBLEMS = ("derivatives", "oddTuples")

#: Each unique incorrect attempt appears this many times per problem stream.
DUPLICATION = 4

#: Hard processing bound before a hung worker is killed.  Far above any
#: real repair in this workload (cold repairs run well under a second, and
#: a retried request pays the cold cost again on its fresh respawn) so the
#: only kill is the injected hang — a legitimate slow repair being killed
#: would make the counters machine-dependent.
KILL_AFTER = 5.0

FAULTS = FaultPlan(
    (
        # 4th repair of worker 0's first incarnation: die mid-request.
        Fault(action="crash", request=3, worker=0, incarnation=0),
        # 5th repair of the respawn (the retried request is its ordinal 0):
        # wedge until the watchdog's KILL_AFTER deadline fires.
        Fault(action="hang", request=4, worker=0, incarnation=1, seconds=3600.0),
        # Worker 1 answers its 3rd repair slowly but stays healthy.
        Fault(action="delay", request=2, worker=1, seconds=0.05),
    )
)

#: The exact recovery ledger the fault plan must produce: the crash and the
#: kill each cost one death + one restart + one retried request; the delay
#: costs nothing.  Asserted, which is what keeps the artifact byte-stable.
EXPECTED_TOTALS = {"crashes": 2, "kills": 1, "restarts": 2, "retries": 2, "shed": 0}


def _build_store(tmp_path, name, corpus):
    spec = get_problem(name)
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.add_correct_sources(corpus.correct_sources)
    return clara.save_clusters(tmp_path / f"{name}.json", problem=name)


def test_fleet_soak(benchmark, results_dir, local_results_dir, tmp_path):
    corpora = {
        name: generate_corpus(get_problem(name), 12, 3, seed=2018) for name in PROBLEMS
    }
    stores = [_build_store(tmp_path, name, corpora[name]) for name in PROBLEMS]
    plan_path = FAULTS.save(tmp_path / "plan.json")

    fleet = FleetService(
        stores,
        fleet_size=2,
        fault_plan_path=plan_path,
        kill_after=KILL_AFTER,
        # Heartbeats are wall-clock-driven; off, so ordinals stay exact.
        heartbeat_interval=None,
        backoff=BackoffPolicy(base=0.05, factor=2.0, max_strikes=3),
    )
    assert fleet.wait_ready(60), "fleet did not reach serving"

    streams = {
        name: [
            json.dumps(
                {"op": "repair", "problem": name, "source": source, "id": f"{name}-{index}"}
            )
            for index, source in enumerate(list(corpora[name].incorrect_sources) * DUPLICATION)
        ]
        for name in PROBLEMS
    }

    async def drive(lines):
        # Sequential per problem: each worker sees its shard's stream in a
        # deterministic order (the fleet's concurrency is across shards).
        return [await fleet.handle_line(line) for line in lines]

    async def soak():
        results = await asyncio.gather(*(drive(streams[name]) for name in PROBLEMS))
        return dict(zip(PROBLEMS, results))

    started = time.perf_counter()
    responses = asyncio.run(soak())
    soak_seconds = time.perf_counter() - started

    # Zero lost requests: every line submitted came back as a repair or a
    # structured response — across a crash, a hang + kill and two respawns.
    histograms = {}
    for name in PROBLEMS:
        assert len(responses[name]) == len(streams[name])
        assert [r.get("id") for r in responses[name]] == [
            f"{name}-{index}" for index in range(len(streams[name]))
        ]
        assert all(r["ok"] for r in responses[name]), (
            f"{name}: lost or failed requests: "
            f"{[r for r in responses[name] if not r['ok']]}"
        )
        histogram: dict[str, int] = {}
        for response in responses[name]:
            histogram[response["status"]] = histogram.get(response["status"], 0) + 1
        histograms[name] = dict(sorted(histogram.items()))

    totals = fleet.fleet_counters()
    served = totals.pop("served")
    assert served == sum(len(lines) for lines in streams.values())
    assert totals == EXPECTED_TOTALS, totals
    shards = {
        str(shard): {
            "problems": fleet._shard_problems[shard],
            "incarnation": supervisor.incarnation,
            "state": supervisor.state,
            "counters": supervisor.counters.as_dict(),
        }
        for shard, supervisor in enumerate(fleet.supervisors)
    }
    assert shards["0"]["incarnation"] == 2  # crash respawn + kill respawn
    assert shards["1"]["incarnation"] == 0  # delays are not deaths

    payload = {
        "problems": list(PROBLEMS),
        "fleet_size": fleet.fleet_size,
        "requests_per_problem": {
            name: len(streams[name]) for name in PROBLEMS
        },
        "kill_after_seconds": KILL_AFTER,
        "faults": FAULTS.to_json(),
        "status_histograms": histograms,
        "recovery": {"totals": {**EXPECTED_TOTALS, "served": served}, "shards": shards},
        "invariant": "zero lost requests: every submitted request resolved",
    }
    (results_dir / "fleet_soak.json").write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + json.dumps(payload, indent=2))

    timings = {
        "soak_seconds": round(soak_seconds, 6),
        "requests_per_second": (
            round(served / soak_seconds, 3) if soak_seconds else None
        ),
    }
    (local_results_dir / "fleet_soak_timings.json").write_text(
        json.dumps(timings, indent=2) + "\n"
    )

    # Steady state: one warm repair through router, pipe and worker memo.
    warm_line = streams["oddTuples"][0]
    benchmark(lambda: asyncio.run(fleet.handle_line(warm_line)))
    fleet.close()
