#!/usr/bin/env python
"""Smoke-check ``batch --processes``: merged counters must equal one process.

Drives the real CLI end to end (the same entry points an operator uses):

1. ``cluster build`` a small derivatives store;
2. ``batch --processes 1 --workers 1 --profile`` over a smoke corpus that
   spans two CFG-skeleton families plus a duplicate and a non-ASCII
   attempt;
3. ``batch --processes 2 --profile`` over the same corpus;
4. assert the two runs' JSONL reports are identical modulo per-attempt
   wall-clock, and that the deterministic counter sections of
   ``results/local/batch_profile.json`` that
   :data:`repro.engine.parallel.COUNTER_SECTIONS` marks identical are
   *equal*.

Exit code 0 on identity, 1 with a section-by-section diff on divergence.
Used by the ``batch-parallel-smoke`` CI job and ``make
batch-parallel-smoke``; everything runs in a temp directory, nothing in
the repository is touched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.engine.parallel import COUNTER_SECTIONS  # noqa: E402

TWO_LOOP_BROKEN = (
    "def computeDeriv(poly):\n"
    "    new = []\n"
    "    for i in range(len(poly)):\n"
    "        new.append(float(poly[i]))\n"
    "    result = []\n"
    "    for j in range(1, len(new)):\n"
    "        result.append(new[j])\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

SINGLE_LOOP_BROKEN = (
    "def computeDeriv(poly):\n"
    "    result = []\n"
    "    for e in range(len(poly)):\n"
    "        result.append(float(poly[e]*e))\n"
    "    if result == []:\n"
    "        return [0.0]\n"
    "    return result\n"
)

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


def _cli(workdir: Path, *arguments: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *arguments],
        cwd=workdir,
        env=env,
        check=True,
    )


def _rows(report_path: Path) -> list[dict]:
    rows = []
    for line in report_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "summary" in record:
            continue
        record.pop("elapsed", None)
        rows.append(record)
    return rows


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="parallel-smoke-") as tmp:
        workdir = Path(tmp)
        store = workdir / "derivatives.json"
        _cli(workdir, "cluster", "build", "--problem", "derivatives",
             "--correct", "12", "--output", str(store))

        attempts = workdir / "attempts"
        attempts.mkdir()
        (attempts / "a-single.py").write_text(SINGLE_LOOP_BROKEN, encoding="utf-8")
        (attempts / "b-duplicate.py").write_text(SINGLE_LOOP_BROKEN, encoding="utf-8")
        (attempts / "c-two-loop.py").write_text(TWO_LOOP_BROKEN, encoding="utf-8")
        (attempts / "d-unicode.py").write_text(NON_ASCII, encoding="utf-8")

        profiles: dict[int, dict] = {}
        reports: dict[int, list[dict]] = {}
        for processes in (1, 2):
            report_path = workdir / f"report-p{processes}.jsonl"
            _cli(
                workdir, "batch",
                "--problem", "derivatives",
                "--attempts", str(attempts),
                "--clusters", str(store),
                "--workers", "1",
                "--processes", str(processes),
                "--profile",
                "--output", str(report_path),
            )
            payload = json.loads(
                (workdir / "results" / "local" / "batch_profile.json").read_text(
                    encoding="utf-8"
                )
            )
            profiles[processes] = payload
            reports[processes] = _rows(report_path)

        failures = []
        if reports[1] != reports[2]:
            failures.append(
                "JSONL report rows diverged:\n"
                f"  --processes 1: {json.dumps(reports[1])}\n"
                f"  --processes 2: {json.dumps(reports[2])}"
            )
        checked = [section for section in COUNTER_SECTIONS if section.identical]
        for section in checked:
            single, merged = (
                profiles[processes][section.name] for processes in (1, 2)
            )
            if section.view:
                single, merged = single[section.view], merged[section.view]
            if single != merged:
                failures.append(
                    f"profile section {section.name!r} diverged:\n"
                    f"  --processes 1: {json.dumps(single, sort_keys=True)}\n"
                    f"  --processes 2: {json.dumps(merged, sort_keys=True)}"
                )

        if failures:
            print("batch --processes smoke FAILED:", file=sys.stderr)
            for failure in failures:
                print(failure, file=sys.stderr)
            return 1
        names = ", ".join(section.name for section in checked)
        print(
            f"batch --processes smoke OK: {len(reports[1])} records and "
            f"counter sections [{names}] identical across 1 and 2 processes"
        )
        return 0


if __name__ == "__main__":
    sys.exit(main())
