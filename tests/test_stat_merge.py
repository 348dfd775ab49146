"""Law suite for the one counter algebra (:mod:`repro.counters`).

The process-parallel batch engine folds per-worker counter payloads into
one report, the fleet folds per-shard snapshots into its totals, and the
batch engine diffs snapshots to isolate one run.  The laws those rest on —
commutativity, a fresh instance as the identity, diff as merge's inverse, a
visible negative residue, the from_dict/as_dict round trip and tolerance of
missing sections — are checked here once, parametrised over every declared
schema.  Schema-specific examples follow: the profiler's two accumulators,
the cache hit rates and the store-paging totals that workers must agree on.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.clusterstore.segments import StorePaging
from repro.core.pipeline import Clara
from repro.core.profile import PHASE_REPORT, PhaseCalls, PhaseProfiler, PhaseSeconds
from repro.counters import AGREE, SUM, OpenCounters, fold
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchAttempt, BatchRepairEngine
from repro.engine.cache import CacheStats, RepairCaches
from repro.engine.parallel import COUNTER_SECTIONS, counter_sections
from repro.fleet.supervisor import ShardCounters
from repro.retrieval.index import RetrievalStats
from repro.service.service import ServiceStats


def _schemas_of(schema) -> list:
    return list(schema.values()) if isinstance(schema, dict) else [schema]


#: Every declared schema: each section of the table, plus the service and
#: fleet counters that are merged outside the process batch.
SCHEMAS = sorted(
    {kind for section in COUNTER_SECTIONS for kind in _schemas_of(section.schema)}
    | {ServiceStats, ShardCounters},
    key=lambda kind: kind.__name__,
)


def _sample(schema, seed: int):
    """A populated instance: distinct sums, one value every worker agrees on."""
    if issubclass(schema, OpenCounters):
        scale = 0.25 if schema is PhaseSeconds else 1  # exact binary fractions
        keys = ("parse", "exec", f"only_{seed}")
        return schema(**{key: scale * (seed + index) for index, key in enumerate(keys)})
    stored = [name for name, kind in schema.FIELDS.items() if kind in (SUM, AGREE)]
    return schema(
        **{
            name: 7 if schema.FIELDS[name] == AGREE else seed + index
            for index, name in enumerate(stored)
        }
    )


def _summed(schema, report: dict) -> list[str]:
    """The keys of ``report`` that are plain sums (not agreed, not derived)."""
    if issubclass(schema, OpenCounters):
        return list(report)
    return [name for name in report if schema.FIELDS[name] == SUM]


def _pair(schema):
    return _sample(schema, 1), _sample(schema, 5)


laws = pytest.mark.parametrize("schema", SCHEMAS, ids=lambda kind: kind.__name__)


# -- the laws, for every declared schema ------------------------------------------


@laws
def test_merge_is_commutative(schema):
    a, b = _pair(schema)
    assert a.merge(b).as_dict() == b.merge(a).as_dict()


@laws
def test_fresh_instance_is_the_merge_identity(schema):
    a, _ = _pair(schema)
    assert a.merge(schema()).as_dict() == a.as_dict()
    assert schema().merge(a).as_dict() == a.as_dict()


@laws
def test_diff_inverts_merge(schema):
    a, b = _pair(schema)
    assert a.merge(b).diff(b).as_dict() == a.as_dict()


@laws
def test_diff_keeps_a_negative_residue_visible(schema):
    a, b = _pair(schema)
    residue = a.diff(a.merge(b)).as_dict()
    expected = b.as_dict()
    for name in _summed(schema, expected):
        assert residue[name] == -expected[name]


@laws
def test_from_dict_inverts_as_dict(schema):
    a, _ = _pair(schema)
    assert schema.from_dict(a.as_dict()).as_dict() == a.as_dict()


@laws
def test_missing_sections_read_as_fresh(schema):
    a, _ = _pair(schema)
    assert schema.from_dict({}).as_dict() == schema().as_dict()
    assert schema.from_dict(None).as_dict() == schema().as_dict()
    assert fold(schema, [None, a.as_dict(), None]) == a.as_dict()
    assert fold(schema, [None, None]) is None


@laws
def test_operands_are_not_mutated_and_snapshots_are_copies(schema):
    a, b = _pair(schema)
    before_a, before_b = a.as_dict(), b.as_dict()
    a.merge(b)
    a.diff(b)
    assert (a.as_dict(), b.as_dict()) == (before_a, before_b)
    frozen = a.snapshot()
    a.add(_summed(schema, before_a)[0], 3)
    assert frozen.as_dict() == before_a != a.as_dict()


def test_concurrent_increments_are_not_lost():
    """More threads than cores hammer one counter set through both
    increment paths (own lock, and a lock the caller already holds) and
    one profiler; a lost read-modify-write would break the totals."""
    shared = threading.Lock()
    stats = CacheStats(lock=shared)
    profiler = PhaseProfiler()
    threads, rounds = 16, 2000

    def hammer():
        for _ in range(rounds):
            stats.add("trace_hits")
            with shared:
                stats.add_locked("trace_misses", 2)
            profiler.add("exec", 0.5)
            profiler.count("exec_steps", 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    total = threads * rounds
    assert (stats.trace_hits, stats.trace_misses) == (total, 2 * total)
    assert profiler.counters() == {"exec": total, "exec_steps": 3 * total}
    assert profiler.timings() == {"exec": 0.5 * total}


def test_section_table_covers_a_real_counters_payload(tmp_path):
    """One worker's payload folds to itself, section by section, and the
    table names exactly the payload's sections plus the run's ``cache``."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 6, 2, seed=2018)
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    clara.add_correct_sources(corpus.correct_sources)
    path = clara.save_clusters(tmp_path / "derivatives.json", problem="derivatives")
    clara = Clara(
        cases=problem.cases,
        language=problem.language,
        entry=problem.entry,
        caches=RepairCaches(profiler=PhaseProfiler()),
    )
    engine = BatchRepairEngine.from_store(path, clara, workers=1)
    report = engine.run([BatchAttempt("a", source) for source in corpus.incorrect_sources])
    payload = clara.counters_payload()
    assert set(payload) | {"cache"} == {section.name for section in COUNTER_SECTIONS}
    sections = counter_sections(payload, report.cache_stats)
    assert sections["store_paging"] is not None
    for section in COUNTER_SECTIONS:
        assert fold(section.schema, [sections[section.name]]) == sections[section.name]


# -- the profiler's two accumulators ------------------------------------------------


def _profiler(**phases: int) -> PhaseProfiler:
    profiler = PhaseProfiler()
    for phase, calls in phases.items():
        profiler.add(phase, seconds=0.25 * calls, calls=calls)
    return profiler


def _split(profiler: PhaseProfiler) -> tuple[PhaseCalls, PhaseSeconds]:
    return PhaseCalls.from_dict(profiler.counters()), PhaseSeconds.from_dict(profiler.timings())


def test_profiler_merge_sums_counters_and_timings():
    a = _profiler(parse=2, exec=5)
    b = _profiler(exec=3, ilp=1)
    merged = fold(PHASE_REPORT, [a.as_dict(), b.as_dict()])
    assert merged["counters"] == {"parse": 2, "exec": 8, "ilp": 1}
    assert merged["timings"] == {"parse": 0.5, "exec": 2.0, "ilp": 0.25}
    # Neither operand is mutated.
    assert a.counters() == {"parse": 2, "exec": 5}
    assert b.counters() == {"exec": 3, "ilp": 1}


def test_profiler_merge_is_commutative_with_empty_identity():
    a = _profiler(parse=2, ted=7)
    b = _profiler(ted=1, match=4)
    assert fold(PHASE_REPORT, [a.as_dict(), b.as_dict()]) == fold(
        PHASE_REPORT, [b.as_dict(), a.as_dict()]
    )
    assert fold(PHASE_REPORT, [a.as_dict(), PhaseProfiler().as_dict()]) == a.as_dict()
    assert fold(PHASE_REPORT, [PhaseProfiler().as_dict(), a.as_dict()]) == a.as_dict()


def test_profiler_diff_inverts_merge():
    a = _profiler(parse=2, exec=5)
    b = _profiler(exec=3, ilp=1)  # ilp is a phase only b knows
    for mine, theirs in zip(_split(a), _split(b)):
        assert mine.merge(theirs).diff(theirs).as_dict() == mine.as_dict()


def test_profiler_diff_keeps_negative_residue_visible():
    calls_a, _ = _split(_profiler(exec=1))
    calls_b, _ = _split(_profiler(exec=3))
    assert calls_a.diff(calls_b).as_dict() == {"exec": -2}


def test_profiler_counter_only_phases_survive_the_round_trip():
    profiler = PhaseProfiler()
    profiler.add("exec", seconds=0.5, calls=2)
    profiler.count("exec_steps", 40)  # counted, never timed
    rebuilt = fold(PHASE_REPORT, [profiler.as_dict()])
    assert rebuilt == profiler.as_dict()
    assert "exec_steps" not in rebuilt["timings"]


def test_profiler_from_dict_tolerates_missing_sections():
    assert fold(PHASE_REPORT, [{}]) == {"counters": {}, "timings": {}}


# -- CacheStats ----------------------------------------------------------------------


def test_cache_stats_merge_and_diff_are_fieldwise():
    a = CacheStats(trace_hits=3, trace_misses=1, match_hits=5, repair_misses=2)
    b = CacheStats(trace_hits=1, match_misses=4, repair_hits=6, repair_misses=1)
    merged = a.merge(b)
    # as_dict also carries derived hit rates; comparing whole dicts checks
    # those recompute consistently from the summed counters.
    assert merged.as_dict() == CacheStats(
        trace_hits=4,
        trace_misses=1,
        match_hits=5,
        match_misses=4,
        repair_hits=6,
        repair_misses=3,
    ).as_dict()
    assert merged.diff(b).as_dict() == a.as_dict()
    assert a.merge(b).as_dict() == b.merge(a).as_dict()
    assert a.merge(CacheStats()).as_dict() == a.as_dict()


def test_cache_stats_from_dict_round_trips():
    stats = CacheStats(trace_hits=7, match_misses=2, repair_hits=1)
    assert CacheStats.from_dict(stats.as_dict()).as_dict() == stats.as_dict()
    assert CacheStats.from_dict({}).as_dict() == CacheStats().as_dict()


# -- RetrievalStats ------------------------------------------------------------------


def test_retrieval_stats_merge_and_diff_are_fieldwise():
    a = RetrievalStats(candidates_ranked=10, matches_attempted=4, fallbacks=1)
    b = RetrievalStats(candidates_ranked=5, matches_skipped=6)
    merged = a.merge(b)
    assert merged.as_dict() == {
        "candidates_ranked": 15,
        "matches_attempted": 4,
        "matches_skipped": 6,
        "fallbacks": 1,
    }
    assert merged.diff(b).as_dict() == a.as_dict()
    assert a.merge(b).as_dict() == b.merge(a).as_dict()
    assert a.merge(RetrievalStats()).as_dict() == a.as_dict()


def test_retrieval_stats_from_dict_round_trips():
    stats = RetrievalStats(matches_attempted=9, fallbacks=2)
    assert RetrievalStats.from_dict(stats.as_dict()).as_dict() == stats.as_dict()
    assert RetrievalStats.from_dict({}).as_dict() == RetrievalStats().as_dict()


def test_snapshots_are_independent_copies():
    stats = RetrievalStats(candidates_ranked=1)
    frozen = stats.snapshot()
    stats.add("candidates_ranked", 5)
    assert frozen.candidates_ranked == 1
    assert stats.candidates_ranked == 6


# -- store paging: totals agree, loads sum --------------------------------------------


def test_merge_store_paging_sums_loads_and_checks_totals():
    merged = fold(
        StorePaging,
        [
            {
                "segments_total": 4,
                "segments_loaded": 1,
                "segments_skipped": 3,
                "clusters_total": 6,
                "clusters_loaded": 2,
            },
            None,  # a worker without a lazy store reports nothing
            {
                "segments_total": 4,
                "segments_loaded": 2,
                "segments_skipped": 2,
                "clusters_total": 6,
                "clusters_loaded": 3,
            },
        ],
    )
    assert merged == {
        "segments_total": 4,
        "segments_loaded": 3,
        "segments_skipped": 1,
        "clusters_total": 6,
        "clusters_loaded": 5,
    }
    assert fold(StorePaging, [None, None]) is None
    with pytest.raises(ValueError, match="disagree"):
        fold(
            StorePaging,
            [
                {"segments_total": 4, "segments_loaded": 0, "clusters_total": 6,
                 "clusters_loaded": 0, "segments_skipped": 4},
                {"segments_total": 5, "segments_loaded": 0, "clusters_total": 6,
                 "clusters_loaded": 0, "segments_skipped": 5},
            ],
        )
