"""Record the expected per-attempt outcomes a workload is checked against.

The files are written once, at the commit that defines the benchmark, by
an in-process run whose repaired programs are each re-run on every test
case with the reference interpreter.  Later runs of any engine must
reproduce them field for field.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import (
    EXPECTED_DIR,
    CheckFailed,
    Interactive,
    Regrade,
    _record_fields,
    check_repaired_program,
    repair_in_process,
)

from repro.engine.batch import BatchAttempt


def _repair_all(problem, attempts: list[BatchAttempt]) -> dict[str, dict]:
    spec = problem.spec
    report = repair_in_process(problem, attempts)
    out = {}
    for item, record, outcome in zip(attempts, report.records, report.outcomes):
        if record.status in ("timeout", "internal-error"):
            raise CheckFailed(f"{item.attempt_id}: {record.status} {record.detail}")
        if record.status == "repaired":
            check_repaired_program(outcome, spec.cases)
        out[item.attempt_id] = _record_fields(record)
    return out


def record(workload) -> Path:
    if isinstance(workload, Regrade):
        name = "regrade"
        workload.setup(0)
        records = {}
        for problem in workload.problems:
            items = [BatchAttempt(f"{problem.name}/{i}", src)
                     for i, src in enumerate(problem.incorrect)]
            records.update(_repair_all(problem, items))
    elif isinstance(workload, Interactive):
        name = "interactive"
        workload.make_inputs()
        workload.build_stores(0)
        records = {}
        for problem in workload.problems:
            items = [BatchAttempt(key, source) for key, (owner, source) in workload.pool.items()
                     if owner is problem]
            records.update(_repair_all(problem, items))
        for key, fields in records.items():
            if "/parse" in key and fields["status"] != "parse-error":
                raise CheckFailed(f"{key}: meant as a parse error, got {fields['status']}")
    else:
        raise SystemExit(f"workload {workload.name} checks against a rebuild, not a file")
    path = EXPECTED_DIR / f"{name}-{workload.corpus_seed}.json"
    EXPECTED_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"corpus_seed": workload.corpus_seed, "records": records},
        indent=1, sort_keys=True) + "\n")
    return path
