"""repro — reproduction of Clara (PLDI 2018).

Automated clustering of correct student solutions and automated repair of
incorrect attempts for introductory programming assignments, following
Gulwani, Radiček and Zuleger, *Automated Clustering and Program Repair for
Introductory Programming Assignments*, PLDI 2018.

Public API highlights:

* :class:`repro.core.Clara` — the end-to-end pipeline (cluster + repair +
  feedback).
* :class:`repro.core.InputCase` — a test input with expected behaviour.
* :class:`repro.engine.BatchRepairEngine` — in-process corpus repair with
  shared trace/match/repair caching and aggregate reporting.
* :class:`repro.engine.ProcessBatchEngine` — the same corpus repair sharded
  across forked worker processes (multi-core) with deterministic counter
  merging.
* :class:`repro.service.RepairService` — the resident daemon: warm
  per-problem engines behind an asyncio NDJSON front door
  (``repro-clara serve``), with incremental
  :class:`repro.clusterstore.ClusterStore` updates and hot reload.
* :func:`repro.frontend.parse_source` — Python / mini-C front-ends.
* :mod:`repro.datasets` — the nine assignments of the paper with synthetic
  student attempts.
* :mod:`repro.evalharness` — experiment runners regenerating every table and
  figure of the evaluation section.
"""

from .core import (
    Clara,
    Feedback,
    InputCase,
    Repair,
    RepairOutcome,
    RepairStatus,
    cluster_programs,
    find_best_repair,
    generate_feedback,
    is_correct,
)
from .clusterstore import ClusterStore
from .engine import BatchRepairEngine, BatchReport, ProcessBatchEngine, RepairCaches
from .frontend import parse_source
from .service import RepairService, ServiceClient

__version__ = "1.2.0"

__all__ = [
    "BatchRepairEngine",
    "BatchReport",
    "Clara",
    "ClusterStore",
    "ProcessBatchEngine",
    "RepairService",
    "ServiceClient",
    "Feedback",
    "InputCase",
    "Repair",
    "RepairCaches",
    "RepairOutcome",
    "RepairStatus",
    "cluster_programs",
    "find_best_repair",
    "generate_feedback",
    "is_correct",
    "parse_source",
    "__version__",
]
