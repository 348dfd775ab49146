"""Measurement helpers: percentiles, open-loop latency, failure counting,
and the machine record printed beside every run."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

#: Response statuses that count as failures (and so as late).
FAILED_STATUSES = frozenset({"timeout", "internal-error"})


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell–Davis estimate of the ``p``-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted average of all order statistics
    rather than the one or two nearest the rank.  Attempt latencies cluster
    by problem, so the samples next to a rank often sit on either side of a
    gap between clusters; the plain order statistic then jumps across the
    gap when one attempt runs a little faster or slower, while this
    estimate moves smoothly.  Each weight is the Beta mass of
    ``((i-1)/n, i/n]``, integrated by Simpson's rule.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 32  # even, per interval
    weights = []
    for i in range(n):
        lo, width = i / n, 1 / (n * steps)
        total = density(lo) + density(lo + steps * width)
        for k in range(1, steps):
            total += (4 if k % 2 else 2) * density(lo + k * width)
        weights.append(total * width / 3)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, n)`` for the highest percentile that has
    :data:`MIN_BEYOND` samples beyond it, out of ``n`` samples.

    That percentile is ``100 * (n - MIN_BEYOND) / n``, the rank of the
    ``MIN_BEYOND + 1``-th largest sample; its value is the
    :func:`harrell_davis` estimate.  Raises ``ValueError`` with
    ``MIN_BEYOND`` samples or fewer.
    """
    n = len(values)
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples cannot leave {MIN_BEYOND} beyond any percentile")
    pct = 100.0 * (n - MIN_BEYOND) / n
    return pct, harrell_davis(values, pct / 100.0), n


@dataclass(frozen=True)
class Request:
    """One open-loop request as the client saw it.

    ``due`` is when the schedule said to send it, ``sent`` when it was
    written, ``answered`` when its reply was read (``None``: never).
    """

    due: float
    sent: float
    answered: float | None
    status: str | None = None
    error: bool = False


def open_loop_latencies(requests: list[Request]) -> list[float]:
    """Latency of every answered request, measured from its *due* time.

    Timing from ``due`` rather than ``sent`` charges a request for the time
    it waited behind a stalled one, which a closed loop would hide.
    """
    return [r.answered - r.due for r in requests if r.answered is not None]


def generator_lag(requests: list[Request]) -> list[float]:
    """How late the generator sent each request."""
    return [r.sent - r.due for r in requests]


def is_failed(request: Request) -> bool:
    return (
        request.answered is None
        or request.error
        or request.status in FAILED_STATUSES
    )


def count_outcomes(requests: list[Request], limit_s: float) -> tuple[int, int]:
    """``(failed, on_time)``: failures never count as on time."""
    failed = sum(1 for r in requests if is_failed(r))
    on_time = sum(
        1 for r in requests if not is_failed(r) and r.answered - r.due <= limit_s
    )
    return failed, on_time


# -- machine record ---------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; informational only."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """SHA-256 over every ``.py`` file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_record(root: Path) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _revision(root),
        "src_digest": source_digest(root / "src"),
    }
