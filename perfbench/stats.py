"""Summary arithmetic shared by the benchmark's workloads.

Three rules live here so that every workload applies them the same way
and the tests can check them without running the system:

* a percentile is reported only when at least ``MIN_BEYOND`` samples lie
  beyond it (:func:`supported`, :func:`tail`);
* every answered score row is compared, as a full int64 row, against the
  legacy-oracle scores (:func:`exact_rows`);
* ``error_share`` counts every attempted operation that was rejected,
  failed, quarantined, or answered with a wrong score row
  (:class:`Outcomes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when a tail must be reported.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0 - 1e-9)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile."""
    return beyond(n, q) >= MIN_BEYOND


def percentile(values, q: float) -> float:
    """The ``q``-th percentile with linear interpolation (nan when empty)."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return math.nan
    return float(np.percentile(data, q))


def tail(values, q: float = 99.0) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile, at most ``q``,
    that the sample supports; ``(nan, nan)`` when not even the median is."""
    n = len(values)
    for candidate in TAIL_PERCENTILES:
        if candidate <= q and supported(n, candidate):
            return candidate, percentile(values, candidate)
    return math.nan, math.nan


#: Samples beyond the percentile in each chunk of :func:`chunked_tail`:
#: twice the reporting minimum, so that each chunk's percentile rests on
#: more than the fewest samples the rule allows.
CHUNK_BEYOND = 2 * MIN_BEYOND


def needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples that leave ``min_beyond`` beyond the ``q``-th
    percentile."""
    n = min_beyond
    while beyond(n, q) < min_beyond:
        n += 1
    return n


def chunked_tail(values, q: float, min_chunks: int = 3) -> tuple[float, int]:
    """Median of the ``q``-th percentiles of consecutive equal chunks of
    ``values`` (kept in time order), each with ``CHUNK_BEYOND`` samples
    beyond ``q``; ``(value, chunks)``, or ``(nan, 0)`` when ``values``
    does not fill ``min_chunks`` chunks.  One stall of a shared machine
    then moves one chunk's percentile, not the reported tail."""
    data = np.asarray(values, dtype=np.float64)
    chunks = data.size // needed(q, CHUNK_BEYOND)
    if chunks < min_chunks:
        return math.nan, 0
    parts = np.array_split(data, chunks)
    return float(np.median([percentile(part, q) for part in parts])), chunks


def exact_rows(scores, oracle: np.ndarray) -> np.ndarray:
    """Per row: is it the oracle's int64 score row, every element equal?

    ``scores`` is a ``(n, n_classes)`` array (or a sequence of rows, some
    of them ``None`` for answers that carried no scores); ``oracle`` the
    matching ``(n, n_classes)`` int64 rows.  A row with another dtype,
    another length or any differing element is not exact, whatever its
    argmax.
    """
    oracle = np.asarray(oracle)
    if isinstance(scores, np.ndarray) and scores.ndim == 2:
        if scores.dtype != np.int64 or scores.shape != oracle.shape:
            return np.zeros(oracle.shape[0], dtype=bool)
        return (scores == oracle).all(axis=1)
    out = np.zeros(oracle.shape[0], dtype=bool)
    for i, row in enumerate(scores):
        if row is None:
            continue
        row = np.asarray(row)
        out[i] = (
            row.dtype == np.int64
            and row.shape == oracle[i].shape
            and bool((row == oracle[i]).all())
        )
    return out


@dataclass
class Outcomes:
    """Counts of what happened to every attempted operation."""

    attempted: int = 0
    ok: int = 0
    rejected: int = 0
    failed: int = 0
    quarantined: int = 0
    mismatched: int = 0

    def add(self, statuses, exact) -> None:
        """Fold in one status string and one exactness flag per operation.

        An ``ok`` answer whose score row is not exact is a mismatch; any
        status other than ``ok``, ``rejected`` and ``quarantined`` is a
        failure.
        """
        for status, is_exact in zip(statuses, exact):
            self.attempted += 1
            if status == "ok":
                if is_exact:
                    self.ok += 1
                else:
                    self.mismatched += 1
            elif status == "rejected":
                self.rejected += 1
            elif status == "quarantined":
                self.quarantined += 1
            else:
                self.failed += 1

    def merge(self, other: "Outcomes") -> None:
        """Add another tally's counts to this one."""
        for name in ("attempted", "ok", "rejected", "failed", "quarantined", "mismatched"):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    @property
    def errors(self) -> int:
        """Operations not answered ``ok`` with the exact score row."""
        return self.attempted - self.ok

    @property
    def error_share(self) -> float:
        return self.errors / self.attempted if self.attempted else math.nan

    @property
    def wrong(self) -> int:
        """Operations the system got wrong: failed, quarantined valid
        input, or a wrong score row.  A shed (``rejected``) request is an
        explicit answer the server gives by design under overload; it
        counts in ``error_share`` but not here."""
        return self.failed + self.quarantined + self.mismatched

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "ok": self.ok,
            "rejected": self.rejected,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "mismatched": self.mismatched,
            "error_share": self.error_share,
        }
