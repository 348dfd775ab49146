"""Clustering of correct student solutions (paper §4, Def. 4.7).

Clusters are the equivalence classes of the matching relation ``∼_I``.  The
clusterer processes correct programs one by one; on a match the program
joins the cluster and its expressions (translated into the representative's
variables via the matching witness) are added to the cluster's expression
pools ``E_C(ℓ, v)``, which the repair algorithm later draws from.

Scaling (``repro.clusterstore``): instead of attempting the full dynamic
matching of Fig. 4 against *every* existing representative — O(n × clusters)
expensive matches — programs are sharded into buckets by a cheap
matching-invariant fingerprint (control-flow skeleton + variable-arity +
output-trace signature, see :mod:`repro.clusterstore.fingerprint`).  Two
programs in different buckets can never match, so each program only runs
full matches against the representatives of its own bucket.  The final
clustering is *identical* to the exhaustive one (``prune=False``, kept as
the test oracle): clusters are merged deterministically in order of their
first member's original index, and members keep their original relative
order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from ..interpreter.compile import CompileCache
from ..interpreter.evaluator import evaluate
from ..model.expr import Expr, intern_expr
from ..model.program import Program
from ..model.trace import Trace
from ..ted import AnnotatedTree
from .inputs import InputCase, program_traces
from .matching import MatchResult, find_matching

if TYPE_CHECKING:  # pragma: no cover - engine imports core; annotation only
    from ..engine.cache import RepairCaches

__all__ = [
    "ClusterExpression",
    "PoolEntryIndex",
    "Cluster",
    "ClusteringResult",
    "ClusteringStats",
    "cluster_programs",
]


@dataclass(frozen=True)
class ClusterExpression:
    """An expression contributed to a pool, with provenance.

    Attributes:
        expr: The expression, already translated to range over the
            representative's variables.
        member_index: Index (within the cluster's ``members`` list) of the
            solution the expression came from.
    """

    expr: Expr
    member_index: int


@dataclass(frozen=True)
class PoolEntryIndex:
    """Precomputed per-pool-expression data consumed by the repair fast path.

    Everything candidate generation needs about a pool expression *besides*
    the expression itself: its size, the variables it mentions (drives the
    partial-relation enumeration), a stable shape digest (persisted by the
    cluster store for integrity/debugging), and its Zhang–Shasha annotation
    — from which the annotation of any variable *renaming* of the
    expression is derived in O(n) (:meth:`AnnotatedTree.rename_vars`),
    because renaming never changes tree shape.
    """

    shape_key: str
    size: int
    variables: tuple[str, ...]
    annotation: AnnotatedTree

    @classmethod
    def from_expr(cls, expr: Expr) -> "PoolEntryIndex":
        interned = intern_expr(expr)
        annotation = AnnotatedTree.from_expr(interned)
        digest = hashlib.sha256(
            repr(interned.structural_key()).encode()
        ).hexdigest()
        return cls(
            shape_key=digest,
            size=len(annotation),
            variables=tuple(sorted(interned.variables())),
            annotation=annotation,
        )


@dataclass
class Cluster:
    """One equivalence class of ``∼_I`` with its representative and pools."""

    cluster_id: int
    representative: Program
    representative_traces: list[Trace]
    members: list[Program] = field(default_factory=list)
    #: ``(loc_id, var) -> list of distinct expressions`` over representative
    #: variables (the paper's ``E_C(ℓ, v)``).
    expressions: dict[tuple[int, str], list[ClusterExpression]] = field(
        default_factory=dict
    )
    #: Hex digest of the members' shared fingerprint
    #: (:class:`repro.clusterstore.fingerprint.Fingerprint`), populated when
    #: clustering runs with pruning enabled and persisted by the cluster
    #: store.  Informational: matching never consults it.
    fingerprint_digest: str | None = None
    #: Runtime caches (never serialized, excluded from comparisons).  Lazily
    #: built, idempotent and derived purely from immutable inputs, so racing
    #: rebuilds by service request threads are benign duplicate work.
    _pool_indexes: dict[tuple[int, str], list[PoolEntryIndex]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _pre_state_cache: dict[int, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )
    _ref_value_cache: dict[tuple[int, str], tuple] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def size(self) -> int:
        return len(self.members)

    def expressions_for(self, loc_id: int, var: str) -> list[ClusterExpression]:
        return self.expressions.get((loc_id, var), [])

    def distinct_expression_count(self, loc_id: int, var: str) -> int:
        return len(self.expressions_for(loc_id, var))

    def add_member(self, program: Program, witness: MatchResult) -> None:
        """Add a member and merge its expressions into the pools.

        ``witness`` maps the member's variables/locations to the
        representative's.  Translated expressions are interned so identical
        expressions contributed by different members share one object (and
        one cached hash/annotation).
        """
        member_index = len(self.members)
        self.members.append(program)
        rename = dict(witness.variable_map)
        for member_loc, member_location in program.locations.items():
            rep_loc = witness.location_map[member_loc]
            for var, expr in member_location.updates.items():
                rep_var = rename.get(var, var)
                translated = intern_expr(expr.rename_vars(rename))
                key = (rep_loc, rep_var)
                pool = self.expressions.setdefault(key, [])
                if all(existing.expr != translated for existing in pool):
                    pool.append(ClusterExpression(translated, member_index))

    # -- fast-path indexes (see docs/ARCHITECTURE.md "Repair fast path") -------

    def pool_index_for(self, loc_id: int, var: str) -> list[PoolEntryIndex]:
        """Per-entry index of the pool at ``(loc_id, var)``, built lazily.

        Parallel to :meth:`expressions_for`.  A stale cache (the pool grew
        via :meth:`add_member`, or was filtered by the representative-only
        ablation) is detected by length — pool lists are append-or-replace,
        never mutated in place — and rebuilt.
        """
        key = (loc_id, var)
        pool = self.expressions.get(key, [])
        index = self._pool_indexes.get(key)
        if index is None or len(index) != len(pool):
            index = [PoolEntryIndex.from_expr(entry.expr) for entry in pool]
            self._pool_indexes[key] = index
        return index

    def build_pool_indexes(self) -> dict[tuple[int, str], list[PoolEntryIndex]]:
        """Materialize indexes for every pool (cluster-build/persist time)."""
        return {key: self.pool_index_for(*key) for key in self.expressions}

    def seed_pool_index(
        self, loc_id: int, var: str, index: list[PoolEntryIndex]
    ) -> None:
        """Install a precomputed pool index (used by the cluster-store loader)."""
        self._pool_indexes[(loc_id, var)] = index

    def reset_runtime_caches(self) -> None:
        """Drop lazily built indexes and value caches (pools changed)."""
        self._pool_indexes.clear()
        self._pre_state_cache.clear()
        self._ref_value_cache.clear()

    def reference_pre_states(self, loc_id: int) -> tuple:
        """Pre-states of every representative-trace visit to ``loc_id``.

        Visits come from each trace's per-location step index
        (:meth:`repro.model.trace.Trace.steps_at`) instead of a full scan.
        """
        states = self._pre_state_cache.get(loc_id)
        if states is None:
            states = tuple(
                step.pre
                for trace in self.representative_traces
                for step in trace.steps_at(loc_id)
            )
            self._pre_state_cache[loc_id] = states
        return states

    def reference_values(
        self, loc_id: int, var: str, *, compile_cache: CompileCache | None = None
    ) -> tuple:
        """Representative expression values at each visit to ``loc_id``.

        ``evaluate(representative.update_for(loc_id, var), pre)`` for every
        pre-state of :meth:`reference_pre_states` — hoisted out of the
        per-candidate matching loop of Def. 4.5, where it used to be
        recomputed identically for every candidate at a site.  With a
        ``compile_cache`` the expression is compiled once and the closure
        applied per pre-state; the values are identical either way (the two
        evaluators are semantics-equivalent by construction and by test),
        so the memoized tuple is shared between callers regardless of which
        path filled it.
        """
        key = (loc_id, var)
        values = self._ref_value_cache.get(key)
        if values is None:
            expr = self.representative.update_for(loc_id, var)
            if compile_cache is not None:
                fn = compile_cache.fn(expr)
                values = tuple(
                    fn(pre) for pre in self.reference_pre_states(loc_id)
                )
            else:
                values = tuple(
                    evaluate(expr, pre) for pre in self.reference_pre_states(loc_id)
                )
            self._ref_value_cache[key] = values
        return values

    def pool_signature(self) -> dict[tuple[int, str], list[tuple[str, int]]]:
        """Comparable view of the pools: rendered expression + provenance.

        Two clusters with equal signatures draw from identical expression
        pools; tests and benchmarks use this (via
        :meth:`ClusteringResult.signature`) to assert that pruned and
        persisted clusterings are *identical* to the exhaustive one.
        """
        return {
            key: [(str(entry.expr), entry.member_index) for entry in pool]
            for key, pool in self.expressions.items()
        }


@dataclass
class ClusteringStats:
    """Deterministic counters describing one clustering run.

    ``full_matches`` counts invocations of the full dynamic-matching
    procedure (Fig. 4) — the expensive step pruning exists to avoid.
    Comparing the counter between a pruned and an exhaustive run of the same
    corpus measures the saving (``benchmarks/test_clustering_scale.py``).
    """

    programs: int = 0
    clusters: int = 0
    full_matches: int = 0
    #: Number of distinct fingerprint buckets (1 when pruning is off).
    buckets: int = 0
    #: Bucket sizes in descending order.
    bucket_sizes: list[int] = field(default_factory=list)


@dataclass
class ClusteringResult:
    """Clusters plus per-program failure diagnostics."""

    clusters: list[Cluster]
    #: Programs that could not be clustered (index, reason).  Indices refer
    #: to the iterable passed to :func:`cluster_programs`; callers that
    #: filter their inputs first (``Clara.add_correct_sources``) translate
    #: them back to positions in the caller-supplied list.
    failures: list[tuple[int, str]] = field(default_factory=list)
    stats: ClusteringStats = field(default_factory=ClusteringStats)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    def total_members(self) -> int:
        return sum(cluster.size for cluster in self.clusters)

    def sorted_by_size(self) -> list[Cluster]:
        return sorted(self.clusters, key=lambda c: (-c.size, c.cluster_id))

    def signature(self) -> list[tuple[int, int, dict]]:
        """Order-sensitive comparable view of the whole clustering."""
        return [
            (cluster.cluster_id, cluster.size, cluster.pool_signature())
            for cluster in self.clusters
        ]


def _identity_witness(program: Program) -> MatchResult:
    return MatchResult(
        variable_map={v: v for v in program.variables},
        location_map={lid: lid for lid in program.location_ids()},
    )


def _canonical_order(program: Program) -> tuple[int, ...] | None:
    """Canonical location order, or ``None`` when not fully reachable."""
    order, _skeleton = program.cfg_skeleton()
    return order if len(order) == len(program.locations) else None


def _cluster_bucket(
    items: Sequence[tuple[int, Program, list[Trace]]],
    cases: Sequence[InputCase],
    *,
    shared_skeleton: bool = False,
    prefilter: bool = True,
) -> tuple[list[tuple[int, Cluster]], int]:
    """Cluster one fingerprint bucket sequentially.

    Returns ``(clusters, full_match_calls)`` where each cluster is tagged
    with its first member's original index (the deterministic merge key).
    Programs arrive in original order, so member order and
    first-match-wins semantics are exactly those of the exhaustive loop.

    With ``shared_skeleton`` (fingerprint buckets) every pair of fully
    reachable programs in the bucket is structurally matchable by
    construction, and the Def. 4.1 witness is the correspondence of their
    canonical CFG orders — it is handed to :func:`find_matching` so the
    lockstep structural walk runs zero times inside a bucket.

    With ``prefilter`` (default), existing clusters are *tried* in
    nearest-first feature-vector order (:mod:`repro.retrieval`) instead of
    creation order.  ``∼_I`` is an equivalence relation, so at most one
    cluster can accept any program — reordering a first-match-wins scan
    cannot change which cluster that is, it only lets the scan stop after
    ~1 full match instead of ~half the bucket.  ``full_match_calls`` still
    counts every :func:`find_matching` invocation actually made.
    """
    from ..retrieval import DEFAULT_TOP_K, cluster_feature_vector, feature_vector, ranked_candidates

    clusters: list[tuple[int, Cluster, tuple[int, ...] | None]] = []
    match_calls = 0
    for index, program, traces in items:
        order = _canonical_order(program) if shared_skeleton else None
        placed = False
        if prefilter and len(clusters) > 1:
            scan = ranked_candidates(
                feature_vector(program),
                clusters,
                lambda entry: cluster_feature_vector(entry[1]),
                top_k=DEFAULT_TOP_K,
            )
        else:
            scan = clusters
        for _, cluster, rep_order in scan:
            match_calls += 1
            location_map = (
                dict(zip(order, rep_order))
                if order is not None and rep_order is not None
                else None
            )
            witness = find_matching(
                program,
                cluster.representative,
                cases,
                query_traces=traces,
                base_traces=cluster.representative_traces,
                location_map=location_map,
            )
            if witness is not None:
                cluster.add_member(program, witness)
                placed = True
                break
        if placed:
            continue
        cluster = Cluster(
            cluster_id=-1,  # assigned by the deterministic merge
            representative=program,
            representative_traces=list(traces),
        )
        cluster.add_member(program, _identity_witness(program))
        clusters.append((index, cluster, order))
    return [(index, cluster) for index, cluster, _ in clusters], match_calls


def cluster_programs(
    programs: Iterable[Program],
    cases: Sequence[InputCase],
    *,
    prune: bool = True,
    caches: "RepairCaches | None" = None,
    prefilter: bool = True,
) -> ClusteringResult:
    """Cluster correct programs by dynamic equivalence.

    Programs are processed in order; each joins the first existing cluster
    it matches (``∼_I`` is an equivalence relation, so the first match is
    the only possible one up to symmetry).  Programs whose execution fails
    outright are reported in ``failures`` instead of silently dropped.

    Args:
        programs: Correct programs, already parsed.
        cases: Test inputs defining the matching relation ``∼_I``.
        prune: Index clusters by matching-invariant fingerprint and only
            attempt full matches within a program's own bucket.  The result
            is identical to the exhaustive ``prune=False`` path; the
            exhaustive path exists for cross-checking and measurement.
        caches: Optional :class:`repro.engine.cache.RepairCaches` through
            which program executions are routed, so a solution that also
            appears elsewhere in a batch is traced once.
        prefilter: Try existing clusters in nearest-first feature-vector
            order (:mod:`repro.retrieval`) instead of creation order.  The
            resulting clustering is identical either way (at most one
            cluster can match any program); only ``stats.full_matches``
            shrinks.  ``prefilter=False`` restores the creation-order scan
            for measurement.
    """
    stats = ClusteringStats()
    failures: list[tuple[int, str]] = []

    executed: list[tuple[int, Program, list[Trace]]] = []
    for index, program in enumerate(programs):
        stats.programs += 1
        try:
            if caches is not None:
                traces = caches.traces(program, cases)
            else:
                traces = program_traces(program, cases)
        except Exception as exc:  # noqa: BLE001 - defensive: report, don't crash
            failures.append((index, f"execution error: {exc}"))
            continue
        executed.append((index, program, traces))

    # Shard into fingerprint buckets (insertion order, so every bucket sees
    # its programs in original order).
    buckets: dict[object, list[tuple[int, Program, list[Trace]]]] = {}
    digests: dict[object, str | None] = {}
    if prune:
        from ..clusterstore.fingerprint import program_fingerprint

        for index, program, traces in executed:
            if caches is not None:
                fingerprint = caches.fingerprint(program, cases, traces=traces)
            else:
                fingerprint = program_fingerprint(program, traces)
            buckets.setdefault(fingerprint, []).append((index, program, traces))
            digests[fingerprint] = fingerprint.digest
    else:
        if executed:
            buckets[None] = executed
            digests[None] = None

    bucket_results = [
        _cluster_bucket(items, cases, shared_skeleton=prune, prefilter=prefilter)
        for items in buckets.values()
    ]

    # Deterministic merge: order clusters by first member's original index —
    # exactly the creation order of the exhaustive sequential loop.
    tagged: list[tuple[int, Cluster]] = []
    for (key, _items), (bucket_clusters, match_calls) in zip(
        buckets.items(), bucket_results
    ):
        stats.full_matches += match_calls
        for first_index, cluster in bucket_clusters:
            cluster.fingerprint_digest = digests[key]
            tagged.append((first_index, cluster))
    tagged.sort(key=lambda entry: entry[0])
    clusters = []
    for cluster_id, (_first, cluster) in enumerate(tagged):
        cluster.cluster_id = cluster_id
        clusters.append(cluster)

    stats.clusters = len(clusters)
    stats.buckets = len(buckets)
    stats.bucket_sizes = sorted((len(items) for items in buckets.values()), reverse=True)
    return ClusteringResult(clusters=clusters, failures=failures, stats=stats)
