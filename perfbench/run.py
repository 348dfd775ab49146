"""Benchmark entry point: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload regrade --seed 1 --seconds 10 --trace 0

``--trace 0`` times the run with tracing off and prints the end-to-end
metrics; ``--trace 1`` makes the separate traced run and prints the
per-layer ledger.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any correctness mismatch
prints ``"correct": false`` and exits 1.

``--workload all`` runs every workload of ``workloads.json`` (the gated
ones of ``BENCHMARK.json`` and the ones run by name) in turn, each in its
own process, and exits non-zero if any of them does.
``--record-expected`` regenerates the expected-outcome files under
``perfbench/expected/`` for the workload's corpus seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"



def metric_units(section: str) -> dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=None,
                        help="override the workload's recorded corpus seed "
                        "(e.g. its held-out seed)")
    parser.add_argument("--record-expected", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        if args.record_expected:
            print("error: record expected files one workload at a time", file=sys.stderr)
            return 2
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC.name}/ next to the benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    import expected
    import stats
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cfg = workloads.CONFIG[args.workload]
    corpus_seed = cfg["corpus_seed"] if args.corpus_seed is None else args.corpus_seed
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](cfg, corpus_seed, work)

    if args.record_expected:
        try:
            path = expected.record(workload)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"wrote {path.relative_to(ROOT)}")
        return 0

    units = metric_units("per_layer" if args.trace else "end_to_end")
    calibration_before = stats.calibrate()
    correct = True
    attempted = failed = 0
    metrics: dict[str, float] = {}
    lines: list[str] = []
    try:
        setups = []
        for index in range(workloads.SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup(index)
            setups.append(time.perf_counter() - started)
        setup_s = statistics.median(setups)
        lines.append("setup runs: " + ", ".join(f"{s:.4f} s" for s in setups))
        rng = random.Random(args.seed)
        if args.trace:
            layer, layer_lines, attempted = workload.traced(args.seconds, rng)
            lines += layer_lines
            # A layer the workload does not exercise reports 0.
            metrics = {name: float(layer.get(name, 0.0)) for name in units}
        else:
            result = workload.run(args.seconds, rng)
            attempted = len(result.samples)
            failed = sum(1 for s in result.samples if s.failed)
            metrics = result.end_to_end(setup_s, stats.peak_rss_mb())
            for pct, value, n in result.pass_tails:
                lines.append(f"tail: p{pct:.4g} = {value:.6f} s over {n} samples, "
                             f"{stats.MIN_BEYOND} beyond it")
            lines.append(f"samples: {attempted}, failed: {failed} "
                         f"(failed_ratio {failed / attempted:.6f})")
            lines += result.notes
    except workloads.CheckFailed as exc:
        correct = False
        lines.append(f"CORRECTNESS CHECK FAILED: {exc}")
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) - set(units) or (correct and set(units) - set(metrics)):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    # Read after the run: the ``git`` child it may fork must not count
    # towards ``peak_rss_mb``.
    machine = stats.machine_record(ROOT)
    machine.update(workload=args.workload, seed=args.seed, corpus_seed=corpus_seed,
                   seconds=args.seconds, trace=args.trace,
                   calibration_s={"before": calibration_before, "after": stats.calibrate()})

    print("machine: " + json.dumps(machine, sort_keys=True))
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    if not correct:
        print(json.dumps({"correct": False, "attempted": max(1, attempted),
                          "failed": max(1, attempted), "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corpus_seed is not None:
        flags += ["--corpus-seed", str(args.corpus_seed)]
    worst = 0
    for name in json.loads((HERE / "workloads.json").read_text()):
        print(f"== {name}", flush=True)
        command = [sys.executable, __file__, "--workload", name, *flags]
        worst = max(worst, subprocess.run(command).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
