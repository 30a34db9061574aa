"""Seeded open-loop traffic, generated before a run starts.

Every stream is a pure function of ``(seed, parameters)``: the benchmark
draws it once, then replays the identical stream in every repetition, so
repetitions differ only in how the program behaved.  Arrivals are a
Poisson process conditioned on its count (independent users, each
sending on its own schedule), which is what makes the load open-loop: a
slow program does not slow the generator down.

Streamed ratings are the exception to "everything from the seed": a
rating's fold-in cost grows with the rating counts of its user and item,
and item popularity is heavy-tailed, so two uniform draws of a few
hundred ratings differ in cost by a third.  Every run therefore folds in
the same ratings (:func:`rating_pool`); the seed draws their order and
their arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MixedStream",
    "conditioned_offsets",
    "mixed_stream",
    "rating_pool",
    "saturation_stream",
    "write_burst",
]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def conditioned_offsets(rng: np.random.Generator, count: int, duration: float) -> np.ndarray:
    """Arrival offsets of a Poisson process conditioned on ``count`` arrivals."""
    if count < 0 or duration <= 0:
        raise ValueError("count must be non-negative and duration positive")
    return np.sort(rng.uniform(0.0, duration, size=count))


def rating_pool(
    count: int, *, n_users: int, n_items: int, stream: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` ratings ``(users, items, ratings)`` independent of the run's seed.

    Ratings are float32 values on the surrogate's 1..5 scale, so the value
    the WAL stores is exactly the value generated.
    """
    rng = _rng(0, stream)
    return (
        rng.integers(0, n_users, size=count),
        rng.integers(0, n_items, size=count),
        rng.uniform(1.0, 5.0, size=count).astype(np.float32),
    )


def saturation_stream(seed: int, *, count: int, n_users: int) -> np.ndarray:
    """Users of a closed batch of reads, drained as fast as they are served."""
    return _rng(seed, 2).integers(0, n_users, size=count)


@dataclass(frozen=True)
class MixedStream:
    """Interleaved writes and reads, in due order.

    ``kinds[i]`` is 1 for a write (``users[i]`` rates ``items[i]`` with
    ``ratings[i]``) and 0 for a read of ``users[i]``'s top-k.
    """

    offsets: np.ndarray
    kinds: np.ndarray
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def writes(self) -> int:
        return int(self.kinds.sum())


def mixed_stream(
    seed: int,
    *,
    write_rate: float,
    read_rate: float,
    duration: float,
    n_users: int,
    n_items: int,
    recent_share: float = 0.0,
    recent_window: float = 1.0,
) -> MixedStream:
    """Writes and reads from independent users, merged by due time.

    ``rate * duration`` of each arrive (a rate may be 0); the writes are the
    :func:`rating_pool` ratings in a seeded order.  A ``recent_share`` of
    the reads come from a user who wrote within the preceding
    ``recent_window`` seconds (when one exists) — the traffic that
    exercises read-your-writes; the rest pick a user uniformly.
    """
    rng = _rng(seed, 3)
    w_off = conditioned_offsets(rng, round(write_rate * duration), duration)
    r_off = conditioned_offsets(rng, round(read_rate * duration), duration)
    pool = rating_pool(w_off.size, n_users=n_users, n_items=n_items, stream=5)
    order = rng.permutation(w_off.size)
    w_users, w_items, w_ratings = (a[order] for a in pool)
    r_users = rng.integers(0, n_users, size=r_off.size)
    recent = rng.random(r_off.size) < recent_share
    picks = rng.random(r_off.size)
    for i in np.flatnonzero(recent):
        hi = np.searchsorted(w_off, r_off[i], side="left")
        lo = np.searchsorted(w_off, r_off[i] - recent_window, side="left")
        if hi > lo:
            r_users[i] = w_users[lo + int(picks[i] * (hi - lo))]
    offsets = np.concatenate([w_off, r_off])
    order = np.argsort(offsets, kind="stable")
    kinds = np.concatenate([np.ones(w_off.size, np.int8), np.zeros(r_off.size, np.int8)])
    users = np.concatenate([w_users, r_users])
    items = np.concatenate([w_items, np.full(r_off.size, -1)])
    ratings = np.concatenate([w_ratings, np.zeros(r_off.size, np.float32)])
    return MixedStream(
        offsets=offsets[order],
        kinds=kinds[order],
        users=users[order],
        items=items[order],
        ratings=ratings[order],
    )


def write_burst(
    seed: int, *, count: int, n_users: int, n_items: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A closed batch of ``count`` :func:`rating_pool` ratings in a seeded order."""
    order = _rng(seed, 4).permutation(count)
    pool = rating_pool(count, n_users=n_users, n_items=n_items, stream=6)
    return tuple(a[order] for a in pool)
