"""Process-parallel batch engine: differential, determinism and crash tests.

The contract under test (:mod:`repro.engine.parallel`): sharding a corpus
across worker subprocesses by CFG-skeleton digest and merging the shard
streams yields a report *field-identical* to the in-process engine, and
merged ``--profile`` counter sections — phase counters, trace/match/repair
cache counters, retrieval counters, store paging — *equal* to a
single-process run, independent of process count and ``PYTHONHASHSEED``.
A worker that dies mid-shard surfaces structured ``internal-error``
records instead of hanging the merge.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.clusterstore.store import ClusterStoreError, read_store_header
from repro.core.pipeline import Clara
from repro.core.profile import PhaseProfiler
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchAttempt, BatchRepairEngine, ProcessBatchEngine
from repro.engine.cache import RepairCaches
from repro.engine.parallel import CRASH_ENV, identity_sections, shard_key, shard_plan

from helpers.differential import report_rows

#: A correct two-loop derivatives solution — a CFG shape the generated pool
#: never emits, giving the store a second skeleton family so multi-process
#: runs actually split work.
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

SINGLE_LOOP_BROKEN = (
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for e in range(len(poly)):\n"
    "        result.append(float(poly[e]*e))\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

#: Non-ASCII identifiers and comments must round-trip the worker pipes.
NON_ASCII = (
    "def computeDeriv(poly):\n"
    "    # dérivée du polynôme\n"
    "    rés = []\n"
    "    for i in range(len(poly)):\n"
    "        rés.append(float(i*poly[i]))\n"
    "    if rés == []:\n"
    "        return [0.0]\n"
    "    return rés\n"
)

UNPARSEABLE = "def computeDeriv(poly:\n    return\n"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A derivatives store with two skeleton families, plus its test corpus."""
    problem = get_problem("derivatives")
    corpus = generate_corpus(problem, 8, 0, seed=2018)
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    clara.add_correct_sources(list(corpus.correct_sources) + [TWO_LOOP])
    path = clara.save_clusters(
        tmp_path_factory.mktemp("parallel") / "derivatives.json",
        problem="derivatives",
    )
    attempts = [
        BatchAttempt("single-a", SINGLE_LOOP_BROKEN),
        BatchAttempt("single-b", SINGLE_LOOP_BROKEN),  # duplicate: cache hit
        BatchAttempt("two-loop", TWO_LOOP_BROKEN),
        BatchAttempt("non-ascii", NON_ASCII),
        BatchAttempt("unparseable", UNPARSEABLE),
    ]
    return problem, path, attempts


def _single_process_run(problem, path, attempts):
    """The baseline: one in-process engine, profiler attached."""
    clara = Clara(
        cases=problem.cases,
        language=problem.language,
        entry=problem.entry,
        caches=RepairCaches(profiler=PhaseProfiler()),
    )
    engine = BatchRepairEngine.from_store(path, clara)
    report = engine.run(attempts)
    return report, clara.counters_payload()


# -- differential: process engine vs the in-process engine ---------------------------


def test_process_report_matches_sequential(store):
    problem, path, attempts = store
    baseline, _ = _single_process_run(problem, path, attempts)

    process_report = ProcessBatchEngine(path, processes=2).run(attempts)

    assert report_rows(process_report) == report_rows(baseline)
    assert [r.attempt_id for r in process_report.records] == [
        a.attempt_id for a in attempts
    ]
    assert process_report.workers == 2
    # Detail strings (parse-error text etc.) also survive the pipe.
    assert [r.detail for r in process_report.records] == [
        r.detail for r in baseline.records
    ]


def test_counter_sections_identical_across_process_counts(store):
    problem, path, attempts = store
    baseline_report, baseline_payload = _single_process_run(problem, path, attempts)
    expected = identity_sections(baseline_payload, baseline_report.cache_stats)

    for processes in (1, 2, 4):
        report = ProcessBatchEngine(path, processes=processes, profile=True).run(
            attempts
        )
        assert report.profile is not None
        merged = identity_sections(report.profile, report.cache_stats)
        assert merged == expected, f"counter sections diverged at {processes} processes"
        # The sum-merged sections without an identity guarantee still exist
        # and carry sane totals.
        assert report.profile["solve"]["misses"] == baseline_payload["solve"]["misses"]


def test_empty_corpus_spawns_nothing(store):
    _problem, path, _attempts = store
    report = ProcessBatchEngine(path, processes=4).run([])
    assert report.records == [] and report.outcomes == []
    assert report.workers == 4


# -- shard planning ------------------------------------------------------------------


def test_shard_plan_colocates_skeleton_classes():
    items = [
        BatchAttempt("a", SINGLE_LOOP_BROKEN),
        BatchAttempt("b", TWO_LOOP_BROKEN),
        BatchAttempt("c", SINGLE_LOOP_BROKEN),  # duplicate of a's class
        BatchAttempt("d", NON_ASCII),  # same skeleton as SINGLE_LOOP_BROKEN
    ]
    shards = shard_plan(items, 2, language="python", entry=None)
    # First-appearance round-robin: class(single-loop) -> shard 0,
    # class(two-loop) -> shard 1.  NON_ASCII shares the single-loop skeleton.
    assert shards == [[0, 2, 3], [1]]


def test_shard_plan_groups_unparseable_duplicates_by_content():
    items = [
        BatchAttempt("a", UNPARSEABLE),
        BatchAttempt("b", UNPARSEABLE),
        BatchAttempt("c", "def g(:\n  pass\n"),
    ]
    key_a = shard_key(items[0].source, language="python", entry=None)
    key_c = shard_key(items[2].source, language="python", entry=None)
    assert key_a.startswith("unparsed:") and key_c.startswith("unparsed:")
    assert key_a != key_c
    shards = shard_plan(items, 2, language="python", entry=None)
    assert shards == [[0, 1], [2]]


# -- constructor validation ----------------------------------------------------------


def test_process_engine_rejects_anonymous_store(tmp_path):
    problem = get_problem("derivatives")
    clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
    clara.add_correct_sources([TWO_LOOP])
    path = clara.save_clusters(tmp_path / "anon.json")  # no problem name
    with pytest.raises(ValueError, match="names no problem"):
        ProcessBatchEngine(path, processes=2)


def test_process_engine_rejects_language_mismatch(store):
    _problem, path, _attempts = store
    with pytest.raises(ValueError, match="configured for 'c'"):
        ProcessBatchEngine(path, processes=2, language="c")


def test_process_engine_rejects_bad_process_count(store):
    _problem, path, _attempts = store
    with pytest.raises(ValueError, match="processes must be >= 1"):
        ProcessBatchEngine(path, processes=0)


# -- crash surfacing -----------------------------------------------------------------


def test_worker_crash_surfaces_internal_error_records(store, monkeypatch):
    problem, path, attempts = store
    baseline, _ = _single_process_run(problem, path, attempts)
    shards = shard_plan(attempts, 2, language=problem.language, entry=problem.entry)

    # Kill the shard-0 worker after its first record.
    monkeypatch.setenv(CRASH_ENV, "0:1")
    report = ProcessBatchEngine(path, processes=2).run(attempts)

    assert len(report.records) == len(attempts)
    survived, filled = shards[0][:1], shards[0][1:]
    # The record streamed before the crash is kept verbatim.
    for index in survived:
        assert report.records[index].status == baseline.records[index].status
    # Every unanswered attempt of the dead shard is a structured error
    # naming the shard and the exit code — the merge never hangs.
    assert filled, "crash test needs a shard with more than one attempt"
    for index in filled:
        record = report.records[index]
        assert record.status == "internal-error"
        assert "shard 0" in record.detail
        assert "code 23" in record.detail
    # The healthy shard is untouched.
    for index in shards[1]:
        assert report.records[index].status == baseline.records[index].status


def test_worker_error_message_reaches_crash_fill_records(store, tmp_path, monkeypatch):
    problem, path, attempts = store
    # A relative store path keeps the error message short enough to be
    # carried whole on every record.
    monkeypatch.chdir(tmp_path)
    shutil.copy(path, "store.json")
    engine = ProcessBatchEngine("store.json", processes=2)
    os.remove("store.json")
    with pytest.raises(ClusterStoreError) as info:
        read_store_header("store.json")
    message = str(info.value)

    report = engine.run(attempts)

    shards = shard_plan(attempts, 2, language=problem.language, entry=problem.entry)
    assert len(report.records) == len(attempts)
    for shard_index, member_indices in enumerate(shards):
        for index in member_indices:
            record = report.records[index]
            assert record.status == "internal-error"
            assert f"shard {shard_index}" in record.detail
            assert message in record.detail


def test_crash_hook_is_read_at_each_run(store, monkeypatch):
    _problem, path, attempts = store
    engine = ProcessBatchEngine(path, processes=2)
    # A clean run first: the hook must be read at each run, not once per
    # process or engine.
    clean = engine.run(attempts)
    assert "internal-error" not in [r.status for r in clean.records]

    monkeypatch.setenv(CRASH_ENV, "0:1")
    crashed = engine.run(attempts)
    assert any("code 23" in r.detail for r in crashed.records)

    monkeypatch.delenv(CRASH_ENV)
    again = engine.run(attempts)
    assert [r.status for r in again.records] == [r.status for r in clean.records]


# -- PYTHONHASHSEED independence -----------------------------------------------------

_DETERMINISM_SCRIPT = r"""
import json, sys
from repro.core.pipeline import Clara
from repro.datasets import generate_corpus, get_problem
from repro.engine import BatchAttempt, ProcessBatchEngine
from repro.engine.parallel import identity_sections

two_loop = @TWO_LOOP@
attempts = [
    BatchAttempt("s", @SINGLE@),
    BatchAttempt("t", two_loop.replace("float(i*poly[i])", "float(poly[i])")),
]
problem = get_problem("derivatives")
corpus = generate_corpus(problem, 6, 0, seed=2018)
clara = Clara(cases=problem.cases, language=problem.language, entry=problem.entry)
clara.add_correct_sources(list(corpus.correct_sources) + [two_loop])
path = clara.save_clusters(sys.argv[1] + "/store.json", problem="derivatives")
report = ProcessBatchEngine(path, processes=2, profile=True).run(attempts)
rows = [
    [r.attempt_id, r.status, r.cost, r.relative_size, r.num_modified, r.feedback]
    for r in report.records
]
sections = identity_sections(report.profile, report.cache_stats)
print(json.dumps({"rows": rows, "sections": sections}, sort_keys=True))
"""


def test_merged_counters_are_hashseed_independent(tmp_path):
    script = _DETERMINISM_SCRIPT.replace("@TWO_LOOP@", repr(TWO_LOOP)).replace(
        "@SINGLE@", repr(SINGLE_LOOP_BROKEN)
    )
    outputs = []
    for seed in ("0", "101"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        work = tmp_path / f"seed-{seed}"
        work.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", script, str(work)],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env=env,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.strip().splitlines()[-1])
    assert outputs[0] == outputs[1], "merged output varies with PYTHONHASHSEED"
