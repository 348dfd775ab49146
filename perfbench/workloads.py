"""The four seeded workloads: inputs, set-up, timed runs, checks, traced runs.

Every workload runs the program only through its public entry points.
Inputs come from ``generate_corpus`` at the workload's recorded corpus
seed (``workloads.json``); the run's ``--seed`` draws the order of the
attempts and, for ``interactive``, the request mix and arrival schedule.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import (
    Request,
    count_outcomes,
    generator_lag,
    harrell_davis,
    is_failed,
    open_loop_latencies,
    tail_percentile,
)
from tracer import Tracer

from repro.clusterstore.store import ClusterStore
from repro.core.inputs import trace_passes_case
from repro.core.pipeline import Clara
from repro.core.profile import PhaseProfiler
from repro.datasets import generate_corpus, get_problem
from repro.engine import RepairCaches
from repro.engine.batch import BatchAttempt, BatchRepairEngine
from repro.engine.parallel import ProcessBatchEngine, shard_plan
from repro.interpreter import execute_interpreted
from repro.service import RepairService

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = json.loads((HERE / "workloads.json").read_text())
EXPECTED_DIR = HERE / "expected"

#: How many times set-up is repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 9

#: Record fields that must match across engines and against the expected file.
RECORD_FIELDS = ("status", "detail", "cost", "relative_size", "num_modified", "feedback")

REPAIRED = "repaired"


class CheckFailed(Exception):
    """An output did not match what the program must produce."""


@dataclass
class Sample:
    """One timed operation (an attempt, a request or an add)."""

    latency: float
    status: str
    failed: bool = False
    #: Counted by ``repaired_ratio``: a repair, or for ingest an accepted add.
    useful: bool = False


@dataclass
class Result:
    """What a timed run measured."""

    samples: list[Sample] = field(default_factory=list)
    busy_s: float = 0.0  # wall time of the measured work, set-up excluded
    pass_tails: list[tuple[float, float, int]] = field(default_factory=list)
    on_time: int = 0
    notes: list[str] = field(default_factory=list)

    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
        attempted = len(self.samples)
        failed = sum(1 for s in self.samples if s.failed)
        latencies = [s.latency for s in self.samples]
        return {
            "setup_s": setup_s,
            "throughput_per_s": attempted / self.busy_s,
            "latency_p50_s": harrell_davis(latencies, 0.5),
            "latency_tail_s": statistics.median(t[1] for t in self.pass_tails),
            "repaired_ratio": sum(1 for s in self.samples if s.useful) / attempted,
            "success_ratio": (attempted - failed) / attempted,
            "on_time_ratio": self.on_time / attempted,
            "peak_rss_mb": peak_rss_mb,
        }

    def room_for_pass(self, started: float, seconds: float) -> bool:
        """Whether another pass of the mean length so far still ends within
        ``seconds`` of ``started``; always true before the first pass."""
        if not self.pass_tails:
            return True
        elapsed = time.perf_counter() - started
        return elapsed * (1 + 1 / len(self.pass_tails)) <= seconds

    def add_pass(self, samples: list[Sample], busy_s: float, limit_s: float) -> None:
        self.samples.extend(samples)
        self.busy_s += busy_s
        self.pass_tails.append(tail_percentile([s.latency for s in samples]))
        self.notes.append(f"pass {len(self.pass_tails)}: {len(samples)} operations in {busy_s:.4f} s, "
                          f"p50 {harrell_davis([s.latency for s in samples], 0.5):.6f} s")
        self.on_time += sum(1 for s in samples if not s.failed and s.latency <= limit_s)


def _record_fields(record) -> dict:
    return {name: getattr(record, name) for name in RECORD_FIELDS}


def _response_fields(response: dict) -> dict:
    return {name: response.get(name) for name in RECORD_FIELDS}


def _diff(expected: dict, actual: dict) -> str:
    return ", ".join(
        f"{k}: expected {expected.get(k)!r}, got {actual.get(k)!r}"
        for k in RECORD_FIELDS
        if expected.get(k) != actual.get(k)
    )


def load_expected(name: str, corpus_seed: int) -> dict | None:
    """Expected record fields by attempt key, or ``None`` when not recorded."""
    path = EXPECTED_DIR / f"{name}-{corpus_seed}.json"
    return json.loads(path.read_text())["records"] if path.exists() else None


def check_repaired_program(outcome, cases) -> None:
    """Re-run a repaired program on every case with the reference interpreter."""
    program = outcome.repair.repaired_program
    if program is None:
        raise CheckFailed("repaired outcome carries no repaired program")
    for case in cases:
        trace = execute_interpreted(program, case.memory_for(program))
        if not trace_passes_case(trace, case):
            raise CheckFailed(f"repaired program fails case {case.describe()}")


# -- shared corpus building ----------------------------------------------------------


@dataclass
class Problem:
    name: str
    spec: object
    correct: list[str]
    incorrect: list[str]
    store: Path | None = None


def draw_problems(cfg: dict, corpus_seed: int, *, n_incorrect: int | None = None) -> list[Problem]:
    problems = []
    for name in cfg["problems"]:
        spec = get_problem(name)
        corpus = generate_corpus(
            spec, cfg["n_correct"], cfg.get("n_incorrect", 0) if n_incorrect is None else n_incorrect,
            seed=corpus_seed,
        )
        problems.append(
            Problem(name, spec, corpus.correct_sources,
                    list(dict.fromkeys(corpus.incorrect_sources)))
        )
    return problems


def build_store(problem: Problem, sources: list[str], path: Path) -> Path:
    spec = problem.spec
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
    clara.add_correct_sources(sources)
    return clara.save_clusters(path, problem=problem.name)


def repair_in_process(problem: Problem, items: list[BatchAttempt],
                      profiler: PhaseProfiler | None = None, counters: "Counters | None" = None):
    """One cold ``BatchRepairEngine`` run over the problem's store."""
    spec = problem.spec
    caches = RepairCaches(profiler=profiler)
    clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry, caches=caches)
    engine = BatchRepairEngine.from_store(problem.store, clara, workers=1)
    report = engine.run(items)
    if counters is not None:
        counters.add(caches, clara.store_paging())
    return report


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- layer wiring ------------------------------------------------------------------

#: (caller-side name, layer).  Each name is what the calling module looks up,
#: so the wrapper sees exactly the calls the program makes through it.
LAYER_SITES = (
    ("repro.core.pipeline:parse_source", "frontend"),
    ("repro.frontend:parse_source", "frontend"),
    ("repro.engine.cache:program_traces", "interpreter"),
    ("repro.core.clustering:program_traces", "interpreter"),
    ("repro.clusterstore.store:program_traces", "interpreter"),
    ("repro.engine.cache:structural_match", "core.matching"),
    ("repro.core.clustering:find_matching", "core.matching"),
    ("repro.clusterstore.store:find_matching", "core.matching"),
    ("repro.core.pipeline:cluster_programs", "core.clustering"),
    ("repro.core.pipeline:ranked_candidates", "retrieval"),
    ("repro.core.pipeline:feature_vector", "retrieval"),
    ("repro.core.pipeline:find_best_repair", "core.repair"),
    ("repro.core.repair:repair_against_cluster", "core.repair"),
    ("repro.core.repair:generate_local_repairs", "core.localrepair"),
    ("repro.core.localrepair:expr_edit_distance", "ted"),
    ("repro.core.repair:solve_fast", "ilp"),
    ("repro.core.pipeline:generate_feedback", "core.feedback"),
    ("repro.engine.cache:RepairCaches.traces", "engine.cache"),
    ("repro.engine.cache:RepairCaches.is_correct", "engine.cache"),
    ("repro.engine.cache:RepairCaches.structural_match", "engine.cache"),
    ("repro.engine.cache:RepairCaches.repair_outcome", "engine.cache"),
    ("repro.engine.batch:BatchRepairEngine.run", "engine.batch"),
    ("repro.clusterstore.store:save_clusters", "clusterstore"),
    ("repro.clusterstore.store:open_lazy", "clusterstore"),
    ("repro.clusterstore.store:LazyStoredClustering.clusters_for_program", "clusterstore"),
    ("repro.clusterstore.store:ClusterStore.open_indexed", "clusterstore"),
    ("repro.clusterstore.store:ClusterStore.add_correct_source", "clusterstore"),
    ("repro.clusterstore.store:ClusterStore.save", "clusterstore"),
    ("repro.service.service:RepairService.handle_line", "service"),
)
#: Sites whose return values the checks read.
KEEP_RESULTS = {"repro.core.repair:solve_fast", "repro.core.repair:generate_local_repairs"}

SITE_PARSE = "repro.core.pipeline:parse_source"
SITE_EXEC = "repro.engine.cache:program_traces"
SITE_MATCH = "repro.engine.cache:structural_match"
SITE_TED = "repro.core.localrepair:expr_edit_distance"
SITE_ILP = "repro.core.repair:solve_fast"
SITE_CANDIDATES = "repro.core.repair:generate_local_repairs"
SITES_SAVE = ("repro.clusterstore.store:save_clusters", "repro.clusterstore.store:ClusterStore.save")
SITES_OPEN = (
    "repro.clusterstore.store:open_lazy",
    "repro.clusterstore.store:LazyStoredClustering.clusters_for_program",
    "repro.clusterstore.store:ClusterStore.open_indexed",
)
SITE_ADD = "repro.clusterstore.store:ClusterStore.add_correct_source"

def install_layers() -> Tracer:
    tracer = Tracer()
    for site, layer in LAYER_SITES:
        tracer.wrap(site, layer, keep=site in KEEP_RESULTS)
    return tracer


@dataclass
class Counters:
    """The program's own counters, summed over every cache of a traced run."""

    phases: dict[str, int] = field(default_factory=dict)
    solve: dict[str, int] = field(default_factory=dict)
    ted: dict[str, int] = field(default_factory=dict)
    cache: dict[str, int] = field(default_factory=dict)
    retrieval: dict[str, int] = field(default_factory=dict)
    paging: dict[str, int] = field(default_factory=dict)

    def add(self, caches: RepairCaches, paging: dict | None = None) -> None:
        """Sum one cache set's counters in; the shared profiler is read once,
        by :meth:`read_profiler`."""
        sections = (
            (self.solve, caches.solve.counters()),
            (self.ted, caches.ted.counters()),
            (self.cache, caches.stats.as_dict()),
            (self.retrieval, caches.retrieval.as_dict()),
            (self.paging, paging or {}),
        )
        for total, part in sections:
            for key, value in part.items():
                if isinstance(value, int):
                    total[key] = total.get(key, 0) + value

    def read_profiler(self, profiler: PhaseProfiler) -> None:
        self.phases = profiler.counters()


def cross_check(tracer: Tracer, counters: Counters) -> list[str]:
    """Wrapper call counts against the program's counters, same run.

    Returns the lines describing each comparison; raises on any mismatch,
    which is how a call site the wrappers missed shows up.
    """
    def calls(site: str) -> int:
        return len(tracer.select(scope="run", site=site))

    ilp_spans = tracer.select(scope="run", site=SITE_ILP)
    returned = [s.result for s in ilp_spans if s.error is None and s.result is not None]
    pairs = [
        ("parse", calls(SITE_PARSE), counters.phases.get("parse", 0)),
        ("exec", calls(SITE_EXEC), counters.phases.get("exec", 0)),
        ("match", calls(SITE_MATCH), counters.phases.get("match", 0)),
        ("ted", calls(SITE_TED), counters.phases.get("ted", 0)),
        ("ilp", len(ilp_spans), counters.phases.get("ilp", 0)),
        ("ilp_nodes", sum(s.nodes_explored for s in returned), counters.phases.get("ilp_nodes", 0)),
        ("solve.hits+misses", len(ilp_spans),
         counters.solve.get("hits", 0) + counters.solve.get("misses", 0)),
        ("candidates_generated",
         sum(sum(len(v) for v in s.result.values())
             for s in tracer.select(scope="run", site=SITE_CANDIDATES) if s.result is not None),
         counters.phases.get("candidates_generated", 0)),
    ]
    lines = []
    bad = []
    for name, seen, counted in pairs:
        lines.append(f"cross-check {name}: wrappers {seen} == program {counted}")
        if seen != counted:
            bad.append(f"{name}: wrappers saw {seen}, program counted {counted}")
    if bad:
        raise CheckFailed("trace cross-check failed: " + "; ".join(bad))
    return lines


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: Counters, e2e_s: float, untraced_s: float,
                  traced_s: float) -> tuple[dict[str, float], list[str]]:
    """The per-layer ledger as ``<layer>.<metric>`` values plus report lines."""
    ledger = tracer.ledger()

    def self_s(layer: str) -> float:
        return ledger.get(layer, {}).get("self_s", 0.0)

    def count(layer: str) -> int:
        return int(ledger.get(layer, {}).get("calls", 0))

    def inclusive(sites) -> float:
        return sum(s.duration for site in sites for s in tracer.select(site=site))

    ilp_spans = tracer.select(layer="ilp")
    nodes = 0
    for span in ilp_spans:
        if span.result is not None:
            nodes += span.result.nodes_explored
        elif span.error is not None:
            nodes += getattr(span.error, "nodes_explored", 0)
    ted = counters.ted
    ted_lookups = sum(ted.get(k, 0) for k in ("dp_runs", "memo_hits", "lb_prunes", "trivial_hits"))
    cache = counters.cache
    attributed = sum(row["self_s"] for row in ledger.values())
    metrics = {
        "ilp.calls": len(ilp_spans),
        "ilp.self_s": self_s("ilp"),
        "ilp.nodes": nodes,
        "ilp.max_solve_s": max((s.duration for s in ilp_spans), default=0.0),
        "ted.calls": count("ted"),
        "ted.self_s": self_s("ted"),
        "ted.memo_hit_ratio": _ratio(ted.get("memo_hits", 0), ted_lookups),
        "core.localrepair.self_s": self_s("core.localrepair"),
        "core.localrepair.candidates": counters.phases.get("candidates_generated", 0),
        "interpreter.calls": count("interpreter"),
        "interpreter.self_s": self_s("interpreter"),
        "core.matching.calls": count("core.matching"),
        "core.matching.self_s": self_s("core.matching"),
        "core.clustering.self_s": self_s("core.clustering"),
        "frontend.self_s": self_s("frontend"),
        "engine.cache.self_s": self_s("engine.cache"),
        "engine.cache.trace_hit_ratio": _ratio(
            cache.get("trace_hits", 0), cache.get("trace_hits", 0) + cache.get("trace_misses", 0)),
        "engine.cache.repair_hit_ratio": _ratio(
            cache.get("repair_hits", 0), cache.get("repair_hits", 0) + cache.get("repair_misses", 0)),
        "retrieval.self_s": self_s("retrieval"),
        "retrieval.match_ratio": _ratio(
            counters.retrieval.get("matches_attempted", 0),
            counters.retrieval.get("candidates_ranked", 0)),
        "core.repair.self_s": self_s("core.repair"),
        "core.repair.clusters_tried": len(
            tracer.select(site="repro.core.repair:repair_against_cluster")),
        "core.feedback.self_s": self_s("core.feedback"),
        "engine.batch.self_s": self_s("engine.batch"),
        "clusterstore.save_s": inclusive(SITES_SAVE),
        "clusterstore.open_s": inclusive(SITES_OPEN),
        "clusterstore.add_s": inclusive((SITE_ADD,)),
        "clusterstore.segments_loaded_ratio": _ratio(
            counters.paging.get("segments_loaded", 0), counters.paging.get("segments_total", 0)),
        "service.self_s": self_s("service"),
        "unattributed_s": e2e_s - attributed,
        "trace_overhead_ratio": traced_s / untraced_s - 1.0,
    }
    lines = [f"ledger (traced end-to-end {e2e_s:.4f} s):"]
    for layer in dict.fromkeys(layer for _, layer in LAYER_SITES):
        if layer in ledger:
            row = ledger[layer]
            lines.append(f"  {layer:<18} calls {int(row['calls']):>9}  self {row['self_s']:10.4f} s"
                         f"  {100 * row['self_s'] / e2e_s:5.1f}%")
    unattributed = e2e_s - attributed
    lines.append(f"  {'unattributed':<18} {'':>15}  self {unattributed:10.4f} s"
                 f"  {100 * unattributed / e2e_s:5.1f}%")
    lines.append(f"  layer self times {attributed:.4f} s + unattributed {unattributed:.4f} s"
                 f" = traced end-to-end {e2e_s:.4f} s")
    if unattributed < 0:
        # Spans outside the timed window would make the ledger overcount.
        raise CheckFailed(f"layer self times exceed the traced end-to-end time by {-unattributed} s")
    return metrics, lines


# -- regrade and regrade-2p ----------------------------------------------------------


class Regrade:
    """Cold regrade of the Python MOOC problems through the batch engine."""

    name = "regrade"

    def __init__(self, cfg: dict, corpus_seed: int, work: Path) -> None:
        self.cfg = cfg
        self.corpus_seed = corpus_seed
        self.work = work
        self.problems: list[Problem] = []
        self.expected = load_expected("regrade", corpus_seed)

    def make_inputs(self) -> None:
        self.problems = draw_problems(self.cfg, self.corpus_seed)

    def build(self, index: int) -> None:
        root = fresh_dir(self.work / f"stores-{index}")
        for problem in self.problems:
            problem.store = build_store(problem, problem.correct, root / f"{problem.name}.json")

    def setup(self, index: int) -> None:
        self.make_inputs()
        self.build(index)

    def attempts(self, problem: Problem, rng: random.Random) -> list[BatchAttempt]:
        items = [BatchAttempt(f"{problem.name}/{i}", src) for i, src in enumerate(problem.incorrect)]
        rng.shuffle(items)
        return items

    def ordered(self, rng: random.Random) -> list[Problem]:
        problems = list(self.problems)
        rng.shuffle(problems)
        return problems

    def check_records(self, items, records, outcomes=None, cases=None) -> None:
        if self.expected is None:
            raise CheckFailed(f"no expected file for corpus seed {self.corpus_seed}")
        for i, (item, record) in enumerate(zip(items, records)):
            want = self.expected.get(item.attempt_id)
            got = _record_fields(record)
            if want is None or want != json.loads(json.dumps(got)):
                raise CheckFailed(f"{item.attempt_id}: {_diff(want or {}, got)}")
            if record.status in ("timeout", "internal-error"):
                raise CheckFailed(f"{item.attempt_id}: {record.status} {record.detail}")
            if outcomes is not None and record.status == REPAIRED:
                check_repaired_program(outcomes[i], cases)

    def inprocess_pass(self, rng: random.Random) -> tuple[list[Sample], float, list]:
        samples, busy, reports = [], 0.0, []
        for problem in self.ordered(rng):
            items = self.attempts(problem, rng)
            started = time.perf_counter()
            report = repair_in_process(problem, items)
            busy += time.perf_counter() - started
            self.check_records(items, report.records, report.outcomes, problem.spec.cases)
            samples += [Sample(r.elapsed, r.status, useful=r.status == REPAIRED)
                        for r in report.records]
            reports.append((problem, items, report))
        return samples, busy, reports

    one_pass = inprocess_pass

    def run(self, seconds: float, rng: random.Random) -> Result:
        result = Result()
        started = time.perf_counter()
        while result.room_for_pass(started, seconds):
            samples, busy, _ = self.one_pass(rng)
            result.add_pass(samples, busy, self.cfg["latency_limit_s"])
        return result

    def traced_ledger(self, rng: random.Random):
        """An untraced in-process pass, then set-up and the same pass traced.

        Returns the ledger metrics, report lines, the untraced pass time and
        the untraced pass's reports.
        """
        state = rng.getstate()
        _, untraced_s, reports = self.inprocess_pass(rng)
        tracer = install_layers()
        try:
            tracer.scope = "setup"
            started = time.perf_counter()
            self.build(99)
            setup_s = time.perf_counter() - started
            tracer.scope = "run"
            rng.setstate(state)
            counters = Counters()
            profiler = PhaseProfiler()
            traced_s = 0.0
            for problem in self.ordered(rng):
                items = self.attempts(problem, rng)
                started = time.perf_counter()
                report = repair_in_process(problem, items, profiler, counters)
                traced_s += time.perf_counter() - started
                self.check_records(items, report.records)
        finally:
            tracer.restore()
        counters.read_profiler(profiler)
        lines = cross_check(tracer, counters)
        metrics, ledger_lines = layer_metrics(tracer, counters, setup_s + traced_s,
                                              untraced_s, traced_s)
        metrics["clusterstore.bytes_written"] = store_bytes(self.work / "stores-99")
        return metrics, lines + ledger_lines, untraced_s, reports

    def traced(self, seconds: float, rng: random.Random) -> tuple[dict[str, float], list[str], int]:
        metrics, lines, _, reports = self.traced_ledger(rng)
        return metrics, lines, sum(len(items) for _, items, _ in reports)


class RegradeParallel(Regrade):
    """The same regrade through ``ProcessBatchEngine`` (``batch --processes 2``)."""

    name = "regrade-2p"

    def one_pass(self, rng: random.Random) -> tuple[list[Sample], float, list]:
        samples, busy, reports = [], 0.0, []
        for problem in self.ordered(rng):
            items = self.attempts(problem, rng)
            started = time.perf_counter()
            engine = ProcessBatchEngine(problem.store, processes=self.cfg["processes"])
            report = engine.run(items)
            busy += time.perf_counter() - started
            # Field-equal to the in-process records of the expected file.
            self.check_records(items, report.records)
            samples += [Sample(r.elapsed, r.status, useful=r.status == REPAIRED)
                        for r in report.records]
            reports.append((problem, items, report))
        return samples, busy, reports

    def traced(self, seconds: float, rng: random.Random) -> tuple[dict[str, float], list[str], int]:
        """Parent-side numbers from a process pass; the child side replayed
        in-process and traced."""
        state = rng.getstate()
        _, parallel_s, reports = self.one_pass(rng)
        processes = self.cfg["processes"]
        overhead = 0.0
        imbalance = []
        for problem, items, report in reports:
            spec = problem.spec
            shards = shard_plan(items, processes, language=spec.language, entry=spec.entry)
            busy = [sum(report.records[i].elapsed for i in shard) for shard in shards]
            overhead += report.wall_time - max(busy)
            mean = statistics.fmean(busy)
            imbalance.append(max(busy) / mean if mean else 0.0)
        rng.setstate(state)
        metrics, lines, inprocess_s, replays = self.traced_ledger(rng)
        for (_, items, report), (_, _, replay) in zip(reports, replays):
            for item, a, b in zip(items, report.records, replay.records):
                if _record_fields(a) != _record_fields(b):
                    raise CheckFailed(f"{item.attempt_id}: process run differs from in-process: "
                                      f"{_diff(_record_fields(b), _record_fields(a))}")
        metrics["engine.parallel.overhead_s"] = overhead
        metrics["engine.parallel.shard_imbalance"] = statistics.fmean(imbalance)
        metrics["engine.parallel.efficiency"] = inprocess_s / (processes * parallel_s)
        lines.append(f"engine.parallel: {processes} processes, wall {parallel_s:.4f} s, "
                     f"in-process {inprocess_s:.4f} s")
        return metrics, lines, sum(len(items) for _, items, _ in reports)


# -- interactive -------------------------------------------------------------------


def broken_source(source: str) -> str:
    """A deterministic parse error: the attempt cut off mid-way."""
    return source[: len(source) // 2] + "\n)(\n"


class OpenLoop:
    """One client process with a few connections, sending on a schedule.

    Each request goes out when due on the connection with the fewest
    replies outstanding, whether or not earlier replies have arrived.  The
    server answers each connection in order, so a reply stalled behind a
    long repair delays the later requests of its connection; latency is
    measured from the due time, which charges them for that wait.
    """

    def __init__(self, address: tuple[str, int], connections: int) -> None:
        self.address = address
        self.connections = connections

    def run(self, schedule: list[tuple[float, str]], timeout_s: float):
        """``schedule`` is ``(offset_s, line)``; returns (requests, responses)."""
        n = len(schedule)
        lock = threading.Lock()
        done = threading.Event()
        due = [0.0] * n
        sent = [0.0] * n
        answered: list[float | None] = [None] * n
        responses: list[dict | None] = [None] * n
        remaining = [n]
        socks = [socket.create_connection(self.address, timeout=None) for _ in range(self.connections)]
        for sock in socks:
            # Requests are single small writes that must leave when due.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        fifos: list[list[int]] = [[] for _ in socks]

        def read(index: int) -> None:
            stream = socks[index].makefile("rb")
            for raw in stream:
                now = time.perf_counter()
                with lock:
                    request = fifos[index].pop(0)
                    answered[request] = now
                    responses[request] = json.loads(raw)
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        done.set()

        readers = [threading.Thread(target=read, args=(i,), daemon=True) for i in range(len(socks))]
        for reader in readers:
            reader.start()
        try:
            start = time.perf_counter() + 0.05
            for index, (offset, line) in enumerate(schedule):
                due[index] = start + offset
                delay = due[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    conn = min(range(len(socks)), key=lambda c: (len(fifos[c]), c))
                    fifos[conn].append(index)
                    sent[index] = time.perf_counter()
                socks[conn].sendall(line.encode("utf-8") + b"\n")
            if n:
                done.wait(timeout_s)
        finally:
            for sock in socks:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()
            for reader in readers:
                reader.join(5)
        requests = [
            Request(
                due[i], sent[i], answered[i],
                status=(responses[i] or {}).get("status"),
                error=responses[i] is not None and not responses[i].get("ok", False),
            )
            for i in range(n)
        ]
        return requests, responses


class Server:
    """``repro-clara serve --fleet N`` as a subprocess of this benchmark."""

    def __init__(self, stores: list[Path], cfg: dict, work: Path) -> None:
        self.ready = work / "ready"
        self.ready.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "repro.cli", "serve"]
        for store in stores:
            cmd += ["--clusters", str(store)]
        cmd += ["--fleet", str(cfg["fleet"]), "--workers", str(cfg["threads_per_worker"]),
                "--port", "0", "--ready-file", str(self.ready)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = open(work / "serve.log", "ab")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT, start_new_session=True)
        deadline = time.monotonic() + 120
        while not self.ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server did not become ready; see serve.log")
            time.sleep(0.01)
        host, port = self.ready.read_text().split()
        self.address = (host, int(port))

    def request(self, payload: dict) -> dict:
        with socket.create_connection(self.address, timeout=60) as sock:
            sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
            return json.loads(sock.makefile("rb").readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"})
                self.proc.wait(30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.log.close()


class Interactive:
    """Open-loop repair requests against the fleet over the C stores."""

    name = "interactive"

    def __init__(self, cfg: dict, corpus_seed: int, work: Path) -> None:
        self.cfg = cfg
        self.corpus_seed = corpus_seed
        self.work = work
        self.server: Server | None = None
        self.problems: list[Problem] = []
        self.pool: dict[str, tuple[Problem, str]] = {}
        self.expected = load_expected("interactive", corpus_seed)

    def make_inputs(self) -> None:
        self.problems = draw_problems(self.cfg, self.corpus_seed)
        self.pool = {}
        for p in self.problems:
            for i, src in enumerate(p.incorrect):
                self.pool[f"{p.name}/warm{i}"] = (p, src)
            for i, src in enumerate(p.correct[:1]):
                self.pool[f"{p.name}/correct{i}"] = (p, src)
            self.pool[f"{p.name}/parse0"] = (p, broken_source(p.incorrect[0]))

    def build_stores(self, index: int) -> None:
        root = fresh_dir(self.work / f"stores-{index}")
        for problem in self.problems:
            problem.store = build_store(problem, problem.correct, root / f"{problem.name}.json")

    def setup(self, index: int) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.make_inputs()
        self.build_stores(index)
        self.server = Server([p.store for p in self.problems], self.cfg, self.work)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def line(self, index: int, key: str) -> str:
        """The request line for ``key``; ``<warm key>+<k>`` is that attempt
        resubmitted with ``k`` blank lines on top."""
        base, _, shift = key.partition("+")
        problem, source = self.pool[base]
        source = "\n" * int(shift or 0) + source
        return json.dumps({"op": "repair", "problem": problem.name, "source": source,
                           "id": index, "deadline": self.cfg["deadline_s"]})

    def warm_keys(self) -> list[str]:
        return [k for k in self.pool if "/warm" in k]

    def schedule(self, answered: dict[str, str], seconds: float,
                 rng: random.Random) -> list[tuple[float, str]]:
        """The seeded ``(offset_s, key)`` schedule.

        The mix is a fixed multiset, so every seed asks for the same work.
        A ``shifted_share`` of the requests are attempts repaired during
        warm-up, dealt in turn, each resubmitted with a unique number of
        leading blank lines: the edit-and-resubmit case, a repair-memo
        miss in which parse, candidate generation and the solver run again
        (the solver answering from its memo).  Every already-correct and
        parse-error submission is sent once, and the rest are verbatim
        resubmissions of the warm-up attempts (repair-memo hits), dealt in
        turn.  The seed draws the order and the arrival times: ``n``
        points uniform over the window, which is a Poisson stream
        conditioned on its count.
        """
        cfg = self.cfg
        n = round(cfg["rate_per_s"] * seconds)
        repaired = sorted(k for k, status in answered.items() if status == REPAIRED)
        shifted = round(cfg["shifted_share"] * n)
        keys = [f"{repaired[i % len(repaired)]}+{i + 1}" for i in range(shifted)]
        keys += [k for k in self.pool if "/correct" in k or "/parse" in k]
        resubmit = sorted(answered)
        keys += [resubmit[i % len(resubmit)] for i in range(max(0, n - len(keys)))]
        rng.shuffle(keys)
        offsets = sorted(rng.uniform(0.0, seconds) for _ in keys)
        return list(zip(offsets, keys))

    def check_response(self, key: str, response: dict | None) -> None:
        """Match against the expected file; a shifted resubmission must get
        the same repair as its base attempt (only feedback line numbers move)."""
        if response is None or not response.get("ok") or response.get("status") == "timeout":
            return  # failures are counted, not compared
        base, _, shift = key.partition("+")
        want = dict(self.expected.get(base) or {})
        got = json.loads(json.dumps(_response_fields(response)))
        if shift:
            for name in ("detail", "feedback"):
                want.pop(name, None)
                got.pop(name, None)
        if want != got:
            raise CheckFailed(f"{key}: {_diff(want, got)}")

    def fleet_run(self, seconds: float, rng: random.Random):
        if self.expected is None:
            raise CheckFailed(f"no expected file for corpus seed {self.corpus_seed}")
        client = OpenLoop(self.server.address, self.cfg["connections"])
        warm = self.warm_keys()
        requests, responses = client.run(
            [(0.0, self.line(i, k)) for i, k in enumerate(warm)], timeout_s=150)
        for key, response in zip(warm, responses):
            self.check_response(key, response)
        answered = {k: r.status for k, r in zip(warm, requests) if not is_failed(r)}
        if not answered:
            raise CheckFailed("no warm-up request was answered")
        schedule = self.schedule(answered, seconds, rng)
        keys = [key for _, key in schedule]
        requests, responses = client.run(
            [(off, self.line(i, k)) for i, (off, k) in enumerate(schedule)],
            timeout_s=seconds + 150)
        for key, response in zip(keys, responses):
            self.check_response(key, response)
        return warm, keys, requests, responses

    def run(self, seconds: float, rng: random.Random) -> Result:
        _, _, requests, _ = self.fleet_run(seconds, rng)
        result = Result()
        latencies = open_loop_latencies(requests)
        samples = [
            Sample(r.answered - r.due if r.answered is not None else float("inf"),
                   r.status or "error", failed=is_failed(r), useful=r.status == REPAIRED)
            for r in requests
        ]
        first = min(r.due for r in requests)
        last = max(r.answered for r in requests if r.answered is not None)
        result.samples = samples
        result.busy_s = last - first
        result.pass_tails.append(tail_percentile(latencies))
        _, result.on_time = count_outcomes(requests, self.cfg["latency_limit_s"])
        lag = generator_lag(requests)
        result.notes.append(f"generator lag: median {statistics.median(lag):.6f} s, "
                            f"max {max(lag):.6f} s over {len(lag)} requests")
        return result

    def traced(self, seconds: float, rng: random.Random) -> tuple[dict[str, float], list[str], int]:
        """Parent-side numbers from the fleet; the worker side replayed
        in-process through ``RepairService.handle_line`` and traced."""
        warm, keys, requests, responses = self.fleet_run(seconds, rng)
        hops = [
            (r.answered - r.sent) - resp["elapsed"]
            for r, resp in zip(requests, responses)
            if resp is not None and "elapsed" in resp
        ]
        stats = self.server.request({"op": "stats", "id": "stats"})
        services = [w.get("service", {}) for w in stats.get("workers", {}).values()]
        fleet_metrics = {
            "service.deadline_timeouts": sum(s.get("deadline_timeouts", 0) for s in services),
            "service.rejected_overload": sum(s.get("rejected_overload", 0) for s in services),
            "fleet.hop_s": statistics.median(hops),
            "fleet.restarts": stats.get("fleet", {}).get("totals", {}).get("restarts", 0),
            "generator.lag_s": max(generator_lag(requests)),
        }
        self.close()

        lines_in = [self.line(i, k) for i, k in enumerate(warm)]
        lines_run = [self.line(i, k) for i, k in enumerate(keys)]

        async def replay(service, lines):
            out = []
            for line in lines:
                out.append(await service.handle_line(line))
            return out

        def new_service() -> RepairService:
            service = RepairService(queue_size=64, workers=1,
                                    default_deadline=self.cfg["deadline_s"])
            for problem in self.problems:
                service.add_problem(problem.store)
            return service

        service = new_service()
        started = time.perf_counter()
        asyncio.run(replay(service, lines_in))
        untraced_s = time.perf_counter() - started
        service.close()

        tracer = install_layers()
        try:
            tracer.scope = "setup"
            started = time.perf_counter()
            self.build_stores(99)
            service = new_service()
            setup_s = time.perf_counter() - started
            profiler = PhaseProfiler()
            for runtime in service.problems():
                runtime.caches.profiler = profiler
            tracer.scope = "run"
            started = time.perf_counter()
            asyncio.run(replay(service, lines_in))
            traced_warm_s = time.perf_counter() - started
            replayed = asyncio.run(replay(service, lines_run))
            traced_s = time.perf_counter() - started
        finally:
            tracer.restore()
        counters = Counters()
        for runtime in service.problems():
            counters.add(runtime.caches, runtime.snapshot().engine.clara.store_paging())
        counters.read_profiler(profiler)
        service.close()
        for key, fleet_response, local in zip(keys, responses, replayed):
            if fleet_response is None or fleet_response.get("status") == "timeout":
                continue
            if _response_fields(fleet_response) != _response_fields(local):
                raise CheckFailed(f"{key}: fleet response differs from the in-process replay: "
                                  f"{_diff(_response_fields(local), _response_fields(fleet_response))}")
        lines = cross_check(tracer, counters)
        # Overhead from the warm-up replay, the part both replays share.
        metrics, ledger_lines = layer_metrics(tracer, counters, setup_s + traced_s,
                                              untraced_s, traced_warm_s)
        metrics.update(fleet_metrics)
        metrics["clusterstore.bytes_written"] = store_bytes(self.work / "stores-99")
        lines.append(f"fleet hop median over {len(hops)} repairs; generator lag max over "
                     f"{len(requests)} requests")
        return metrics, lines + ledger_lines, len(keys)


# -- ingest ------------------------------------------------------------------------


def written_files(root: Path) -> dict[Path, tuple[int, int, int]]:
    """(inode, mtime_ns, size) of every file under a store's directory."""
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[path] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def bytes_written(before: dict, after: dict) -> int:
    return sum(meta[2] for path, meta in after.items() if before.get(path) != meta)


def store_bytes(root: Path) -> int:
    return sum(meta[2] for meta in written_files(root).values())


class Ingest:
    """Stream correct submissions into indexed stores, saving after each add."""

    name = "ingest"

    def __init__(self, cfg: dict, corpus_seed: int, work: Path) -> None:
        self.cfg = cfg
        self.corpus_seed = corpus_seed
        self.work = work
        self.problems: list[Problem] = []
        self.base: Path | None = None

    def make_inputs(self) -> None:
        self.problems = draw_problems(self.cfg, self.corpus_seed, n_incorrect=0)

    def build(self, index: int) -> None:
        self.base = fresh_dir(self.work / f"base-{index}")
        for problem in self.problems:
            half = len(problem.correct) // 2
            problem.store = build_store(problem, problem.correct[:half],
                                        self.base / f"{problem.name}.json")

    def setup(self, index: int) -> None:
        self.make_inputs()
        self.build(index)

    def plan(self, rng: random.Random) -> list[tuple[Problem, list[str]]]:
        problems = list(self.problems)
        rng.shuffle(problems)
        plan = []
        for problem in problems:
            stream = problem.correct[len(problem.correct) // 2:]
            rng.shuffle(stream)
            plan.append((problem, stream))
        return plan

    def rebuilt_sizes(self, plan) -> dict[str, list[int]]:
        """Cluster sizes of a full rebuild in the same order, the reference."""
        out = {}
        for problem, stream in plan:
            spec = problem.spec
            clara = Clara(cases=spec.cases, language=spec.language, entry=spec.entry)
            clara.add_correct_sources(problem.correct[: len(problem.correct) // 2] + stream)
            out[problem.name] = clara.cluster_sizes()
        return out

    def one_pass(self, plan, reference, index: int, tracer: Tracer | None = None,
                 counters: Counters | None = None):
        """Stream every planned add; returns (samples, busy seconds, bytes written).

        With a ``tracer``, bytes written are measured around each save and
        the reopen check runs with recording paused.
        """
        measure_bytes = tracer is not None
        target = self.work / f"pass-{index}"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.base, target)
        samples, busy, written = [], 0.0, 0
        for problem, stream in plan:
            spec = problem.spec
            path = target / f"{problem.name}.json"
            started = time.perf_counter()
            store = ClusterStore.open_indexed(path, spec.cases)
            busy += time.perf_counter() - started
            for source in stream:
                before = written_files(target) if measure_bytes else None
                started = time.perf_counter()
                outcome = store.add_correct_source(source)
                store.save()
                elapsed = time.perf_counter() - started
                busy += elapsed
                if measure_bytes:
                    written += bytes_written(before, written_files(target))
                if not outcome.accepted:
                    raise CheckFailed(f"{problem.name}: correct submission rejected: "
                                      f"{outcome.status} {outcome.detail}")
                samples.append(Sample(elapsed, outcome.status, useful=outcome.accepted))
            if counters is not None:
                for key, value in store.paging_counters().items():
                    counters.paging[key] = counters.paging.get(key, 0) + value
            scope = tracer.scope if tracer else None
            if tracer:
                tracer.scope = None
            reopened = ClusterStore.open(path, spec.cases)
            if tracer:
                tracer.scope = scope
            sizes = sorted((c.size for c in reopened.clusters), reverse=True)
            if sizes != reference[problem.name] or reopened.revision != len(stream):
                raise CheckFailed(f"{problem.name}: reopened store has sizes {sizes} at revision "
                                  f"{reopened.revision}, rebuild has {reference[problem.name]}")
        shutil.rmtree(target)
        return samples, busy, written

    def run(self, seconds: float, rng: random.Random) -> Result:
        plan = self.plan(rng)
        reference = self.rebuilt_sizes(plan)
        result = Result()
        started = time.perf_counter()
        index = 0
        while result.room_for_pass(started, seconds):
            samples, busy, _ = self.one_pass(plan, reference, index)
            result.add_pass(samples, busy, self.cfg["latency_limit_s"])
            index += 1
        return result

    def traced(self, seconds: float, rng: random.Random) -> tuple[dict[str, float], list[str], int]:
        plan = self.plan(rng)
        reference = self.rebuilt_sizes(plan)
        _, untraced_s, _ = self.one_pass(plan, reference, 0)
        tracer = install_layers()
        try:
            tracer.scope = "setup"
            started = time.perf_counter()
            self.build(99)
            setup_s = time.perf_counter() - started
            setup_bytes = sum(m[2] for m in written_files(self.base).values())
            tracer.scope = "run"
            counters = Counters()
            samples, traced_s, written = self.one_pass(plan, reference, 1, tracer, counters)
        finally:
            tracer.restore()
        adds = tracer.select(scope="run", site=SITE_ADD)
        accepted = sum(len(stream) for _, stream in plan)
        lines = [f"cross-check adds: wrappers {len(adds)} == revisions bumped {accepted}"]
        if len(adds) != accepted:
            raise CheckFailed(f"trace cross-check failed: {len(adds)} adds seen, {accepted} revisions")
        metrics, ledger_lines = layer_metrics(tracer, counters, setup_s + traced_s,
                                              untraced_s, traced_s)
        metrics["clusterstore.bytes_written"] = setup_bytes + written
        return metrics, lines + ledger_lines, len(samples)


WORKLOADS = {cls.name: cls for cls in (Regrade, RegradeParallel, Interactive, Ingest)}
