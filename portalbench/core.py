"""Shared machinery: timed rounds, latency samples, checks and the result.

A run is a sequence of **rounds**.  Every round starts from a fresh,
cold target (a new pool over a new state backend), so the
round's inputs alone fix the cache hits and the work done.  Rounds
repeat until the timed phase has lasted the requested seconds (and at
least :data:`MIN_ROUNDS` times, so set-up is measured several times).
Set-up is timed apart from the operations, :data:`SETUPS_PER_ROUND`
times a round; ``setup_s`` is the median over the run.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

__all__ = [
    "MIN_ROUNDS",
    "SETUPS_PER_ROUND",
    "TAIL_BEYOND",
    "WALL_LIMIT_S",
    "Recorder",
    "Checks",
    "machine_reference_ms",
    "percentile",
    "collect_garbage",
]

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Rounds every run makes at least, so set-up is measured several times
#: and every tail keeps ten samples beyond it.
MIN_ROUNDS = 3

#: Set-ups timed per round (the pool is stopped between them and the
#: last one serves the round): ``setup_s`` is the median of them all.
SETUPS_PER_ROUND = 5

#: No round starts after this much wall time; a run must end in 180 s.
WALL_LIMIT_S = 120.0


def collect_garbage() -> None:
    """Full collection, so one round's garbage is not paid by the next."""
    gc.collect()
    gc.collect()


def machine_reference_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the machine's speed now.

    A reference figure printed around the timed phase, not a metric: a
    slow run whose reference is slow too came from a slow moment of the
    machine, not from the program.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Recorder:
    """One round's operation latencies by kind, counts, failures and
    timed seconds (or several rounds', merged)."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.timed_s = 0.0
        self.target_s = 0.0
        self.logins = 0
        self.rows_appended = 0
        self.writes = 0
        self.write_s = 0.0

    def op(self, kind: str, seconds: float, ok: bool = True, detail: str = "") -> None:
        """One attempted operation and how long the target took."""
        self.attempted += 1
        self.target_s += seconds
        self.samples.setdefault(kind, []).append(seconds)
        if kind == "login":
            self.logins += 1
        if not ok:
            self.failed += 1
            key = f"{kind}:{detail}" if detail else kind
            self.failures[key] = self.failures.get(key, 0) + 1

    def write(self, seconds: float, rows: int, ok: bool = True, kind: str = "write") -> None:
        """A write call: ``write`` for a fact-append batch, another kind
        for member, feature and in-place updates.  Every write's time
        counts towards ingest."""
        self.op(kind, seconds, ok)
        self.writes += 1
        self.write_s += seconds
        self.rows_appended += rows

    @property
    def rate(self) -> float:
        """Operations per timed second."""
        return self.attempted / self.timed_s

    @classmethod
    def merge(cls, rounds: list["Recorder"]) -> "Recorder":
        merged = cls()
        for part in rounds:
            for kind, samples in part.samples.items():
                merged.samples.setdefault(kind, []).extend(samples)
            for key, count in part.failures.items():
                merged.failures[key] = merged.failures.get(key, 0) + count
            for name in ("attempted", "failed", "timed_s", "target_s", "logins",
                         "rows_appended", "writes", "write_s"):
                setattr(merged, name, getattr(merged, name) + getattr(part, name))
        return merged

    def count(self, kind: str) -> int:
        return len(self.samples.get(kind, ()))

    def mean_ms(self, kind: str) -> float:
        """Mean latency of one kind.  Through the pool a response either
        stalls about 40 ms or does not, alternately on each connection;
        the mean moves in proportion to the stalled share, where a
        median, or the mean of the middle half, would jump when the
        share crosses one half."""
        return statistics.fmean(self.samples[kind]) * 1000.0

    def tail_ready(self, kind: str, q: float) -> bool:
        """Whether at least :data:`TAIL_BEYOND` samples of one kind lie
        beyond percentile ``q``."""
        return self.count(kind) * (1 - q / 100) >= TAIL_BEYOND

    def tail_ms(self, kind: str, q: float) -> float:
        """Percentile ``q`` of one kind's latencies; the run must first
        have made it :meth:`tail_ready`."""
        if not self.tail_ready(kind, q):
            raise ValueError(f"too few {kind} samples for a p{q:g} tail")
        return percentile(self.samples[kind], q) * 1000.0


class Checks:
    """Named correctness checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.passed: dict[str, int] = {}
        self.failed: dict[str, list[str]] = {}

    def expect(self, name: str, condition: bool, message: str = "") -> bool:
        if condition:
            self.passed[name] = self.passed.get(name, 0) + 1
        else:
            self.failed.setdefault(name, []).append(message)
        return condition

    @property
    def ok(self) -> bool:
        return not self.failed

    def report(self) -> dict:
        names = sorted(set(self.passed) | set(self.failed))
        return {
            name: {
                "passed": self.passed.get(name, 0),
                "failed": len(self.failed.get(name, ())),
                "first_failure": (self.failed.get(name) or [None])[0],
            }
            for name in names
        }
