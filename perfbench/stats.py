"""Order statistics that carry their sample count, and the backlog detector.

A percentile is only as good as the number of samples beyond it, so every
percentile here is returned with ``n`` (samples taken) and ``beyond``
(samples strictly above the reported rank).  The value is
``numpy.percentile``'s (linear interpolation between order statistics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Percentile", "backlog_grew", "median", "median_of_medians", "percentile"]

@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the evidence behind it."""

    q: float
    value: float
    n: int
    beyond: int

    def as_dict(self) -> dict:
        return {"q": self.q, "value": self.value, "n": self.n, "beyond": self.beyond}


def percentile(values: Sequence[float], q: float) -> Percentile:
    """The ``q``-th percentile (0..100) of ``values``.

    ``beyond`` counts the samples above rank ``q``: ``floor(n * (1 - q/100))``.
    An empty sample raises, because a percentile of nothing is not a number.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    n = len(values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    value = float(np.percentile(np.asarray(values, dtype=float), q))
    beyond = math.floor(n * (1.0 - q / 100.0) + 1e-9)
    return Percentile(q=q, value=value, n=n, beyond=beyond)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0).value


def median_of_medians(groups: Sequence[Sequence[float]]) -> float:
    """Median over repetitions of each repetition's median.

    A repetition slowed by something outside the program moves one vote,
    not a pooled share of the samples.
    """
    return median([median(g) for g in groups if len(g)])


def backlog_grew(
    samples: Sequence[tuple[float, int]], start: float, end: float, slack: int
) -> bool:
    """Whether work outstanding rose across an open-loop phase.

    ``samples`` are ``(time, outstanding)`` pairs taken while the phase ran
    between ``start`` and ``end`` (samples outside that window are ignored).
    A sustainable rate leaves the mean depth of the last quarter of the
    phase within ``slack`` of the second quarter's, however bursty the
    arrivals; above the sustainable rate the depth climbs for as long as
    the phase lasts.  The first quarter is skipped: it holds the climb from
    an empty system to its steady depth.  A quarter with no samples counts
    as depth 0 (nothing was outstanding to sample).
    """
    if end <= start:
        raise ValueError("phase must have positive length")
    quarter = (end - start) / 4.0

    def mean_depth(lo: float, hi: float) -> float:
        depths = [d for t, d in samples if lo <= t < hi]
        return sum(depths) / len(depths) if depths else 0.0

    second = mean_depth(start + quarter, start + 2 * quarter)
    last = mean_depth(end - quarter, end)
    return last - second > slack
