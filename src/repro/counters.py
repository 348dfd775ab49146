"""One counter algebra for every deterministic counter the reproduction reports.

A :class:`Counters` subclass declares its fields in ``FIELDS``, in report
order, each with a merge kind: :data:`SUM` (per-worker values add up),
:data:`AGREE` (every worker must report the same value, like the store
paging totals; unset is ``None``, so a fresh instance stays the merge
identity) or a function of the stored values (a derived field such as a
hit rate, computed by :meth:`~Counters.as_dict`).  :class:`OpenCounters`
is the open-keyed variant: any key, every key sums.

:meth:`~Counters.merge` is commutative with a fresh instance as identity
and raises :class:`ValueError` when an ``AGREE`` field differs;
:meth:`~Counters.diff` is its inverse (negative residues stay visible);
:meth:`~Counters.from_dict` inverts :meth:`~Counters.as_dict`; :func:`fold`
merges worker payloads.  :meth:`~Counters.add` is one lock acquisition plus
one add; a cache that already holds its own lock at the increment passes
that lock in (``lock=``) and calls :meth:`~Counters.add_locked` instead.
"""

from __future__ import annotations

import operator
import threading
from collections import defaultdict
from typing import Callable, ClassVar, Iterable, Mapping

__all__ = ["AGREE", "SUM", "Counters", "OpenCounters", "difference", "fold", "hit_rate"]

SUM = "sum"
AGREE = "agree"


def hit_rate(hits: str, misses: str) -> Callable[[dict], float]:
    """Derived field ``hits / (hits + misses)``, ``0.0`` before any lookup."""
    return lambda values: values[hits] / (values[hits] + values[misses] or 1)


def difference(total: str, part: str) -> Callable[[dict], int | None]:
    """Derived field ``total - part`` (``None`` while ``total`` is unset)."""
    return lambda values: None if values[total] is None else values[total] - values[part]


def _agree(name: str, mine: object, theirs: object) -> object:
    if mine is not None and theirs is not None and mine != theirs:
        raise ValueError(f"workers disagree on {name}: {mine} vs {theirs}")
    return theirs if mine is None else mine


class Counters:
    """Declared, lock-guarded counter fields (see the module docstring).

    Construct with keyword values (``CacheStats(trace_hits=3)``); field
    values, derived ones included, read as attributes (``stats.trace_hits``).
    """

    #: Field name -> :data:`SUM`, :data:`AGREE` or a derived-value function.
    FIELDS: ClassVar[dict[str, object]] = {}

    def __init__(self, *, lock: threading.Lock | None = None, **values: object) -> None:
        self.lock = threading.Lock() if lock is None else lock
        self._values = self._storage(values)

    @classmethod
    def _storage(cls, values: dict) -> dict:
        stored = {
            name: values.pop(name, None if kind == AGREE else 0)
            for name, kind in cls.FIELDS.items()
            if kind in (SUM, AGREE)
        }
        if values:
            raise TypeError(f"{cls.__name__} has no counters {sorted(values)}")
        return stored

    def __getattr__(self, name: str) -> object:
        values = self.__dict__.get("_values", {})
        if name in values:
            return values[name]
        kind = type(self).FIELDS.get(name)
        if callable(kind):
            return kind(values)
        raise AttributeError(name)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self._values)})"

    def add(self, name: str, delta: int | float = 1) -> None:
        with self.lock:
            self._values[name] += delta

    def add_locked(self, name: str, delta: int | float = 1) -> None:
        """:meth:`add` for a caller that already holds :attr:`lock`."""
        self._values[name] += delta

    def record(self, **deltas: int) -> None:
        """Add to several counters atomically (one lock acquisition)."""
        with self.lock:
            for name, delta in deltas.items():
                self._values[name] += delta

    def snapshot(self) -> Counters:
        """An independent copy of the current values, with its own lock."""
        with self.lock:
            return type(self)(**self._values)

    def as_dict(self) -> dict:
        with self.lock:
            values = dict(self._values)
        return self.render(values)

    @classmethod
    def render(cls, values: dict) -> dict:
        """The report dict for stored ``values`` (declared order, derived filled)."""
        return {
            name: kind(values) if callable(kind) else values[name]
            for name, kind in cls.FIELDS.items()
        }

    @classmethod
    def from_dict(cls, payload: Mapping | None) -> Counters:
        """Rebuild from an :meth:`as_dict` payload; missing fields read as fresh."""
        derived = {name for name, kind in cls.FIELDS.items() if callable(kind)}
        return cls(**{k: v for k, v in (payload or {}).items() if k not in derived})

    def merge(self, other: Counters) -> Counters:
        return self._combine(other, operator.add)

    def diff(self, other: Counters) -> Counters:
        return self._combine(other, operator.sub)

    def _combine(self, other: Counters, op: Callable) -> Counters:
        mine, theirs = self.snapshot()._values, other.snapshot()._values
        for name, value in theirs.items():
            if self.FIELDS.get(name) == AGREE:
                mine[name] = _agree(name, mine[name], value)
            else:
                mine[name] = op(mine[name], value)
        return type(self)(**mine)


class OpenCounters(Counters):
    """Open-keyed counters in insertion order; every key sums.

    :meth:`diff` drops keys that cancel to exactly zero, so it inverts
    :meth:`merge` even for keys only one operand knew.  Subclasses override
    :meth:`render` to order or round their report.
    """

    @classmethod
    def _storage(cls, values: dict) -> dict:
        return defaultdict(int, values)

    @classmethod
    def render(cls, values: dict) -> dict:
        return dict(values)

    def diff(self, other: Counters) -> OpenCounters:
        residue = super().diff(other)._values
        return type(self)(**{name: value for name, value in residue.items() if value != 0})


def fold(schema: type[Counters] | Mapping, payloads: Iterable[Mapping | None]) -> dict | None:
    """Merge worker ``as_dict`` payloads of one schema into one report dict.

    ``None`` marks a worker that did not report the section; the result is
    ``None`` when none did.  ``schema`` may be a mapping of part name to
    schema, for a report made of several counter sets (the profiler's
    ``{"counters": ..., "timings": ...}``); a missing part reads as empty.
    """
    reported = [payload for payload in payloads if payload is not None]
    if isinstance(schema, Mapping):
        return {
            part: fold(kind, [payload.get(part, {}) for payload in reported])
            for part, kind in schema.items()
        }
    if not reported:
        return None
    total = schema()
    for payload in reported:
        total = total.merge(schema.from_dict(payload))
    return total.as_dict()
