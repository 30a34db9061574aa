"""The open-loop driver both serving workloads share.

It replays a pre-generated :class:`~perfbench.schedule.MixedStream` on its
due times: reads go to ``ServingEngine.submit`` and are answered by
``ServingEngine.tick``; writes (if the stream has any) go to a
:class:`Publisher`-like object that ingests them and folds them in.  A read
is timed from its due time to the end of the tick that answered it, so
generator lateness counts against the program.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict

from . import schedule
from .stats import backlog_grew

__all__ = ["FAILED_RUNGS", "ReadLog", "classify", "open_loop"]

# The ladder rungs that count as a failed read: they answer from a stale
# cache or a popularity list, not from the model.
FAILED_RUNGS = ("stale-cache", "popularity")


def classify(event) -> str | None:
    """``"ok"``, ``"failed"`` or ``None`` (not a terminal) for a health event."""
    if event.kind == "request.answered":
        return "ok"
    if event.kind == "request.degraded":
        return "failed" if event.rung in FAILED_RUNGS else "ok"
    if event.kind in ("request.shed", "request.faulted"):
        return "failed"
    return None


class ReadLog:
    """Terminal outcomes of submitted reads, read off the engine's health log."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.mark = len(engine.health.events)
        self.due: dict[int, float] = {}
        self.latency: list[float] = []
        self.wait: list[float] = []
        self.ok = 0
        self.failed = 0
        self.submitted = 0

    def submit(self, user: int, k: int, due: float) -> int:
        rid = self.engine.submit(user, k)
        self.due[rid] = due
        self.submitted += 1
        return rid

    def settle(self, tick_start: float, tick_end: float) -> list[int]:
        """Account every terminal since the last call; returns their ids."""
        events = self.engine.health.events
        done = []
        for event in events[self.mark:]:
            verdict = classify(event)
            if verdict is None:
                continue
            due = self.due.pop(event.request_id)
            done.append(event.request_id)
            if verdict == "ok":
                self.ok += 1
                self.latency.append((tick_end - due) * 1e3)
                self.wait.append((tick_start - due) * 1e3)
            else:
                self.failed += 1
        self.mark = len(events)
        return done

    @property
    def outstanding(self) -> int:
        return len(self.due)


def open_loop(
    engine,
    stream: schedule.MixedStream,
    *,
    k: int,
    max_batch: int,
    slack: int,
    publisher=None,
    tracer=None,
) -> dict:
    """Replay ``stream`` on its due times.

    With a ``publisher`` (which the stream's writes need), pending writes are
    folded in when no read is queued, or when the next batch holds a read
    from a user with a pending write (read-your-writes); there is no timer.
    The phase's backlog grew when outstanding work (queued reads plus
    acked-but-invisible writes) climbed by more than ``slack`` across it.
    """
    clock = time.perf_counter
    reads = ReadLog(engine)
    queued: OrderedDict[int, int] = OrderedDict()  # read id -> user, FIFO
    ack_ms: list[float] = []
    late: list[float] = []
    depth: list[tuple[float, int]] = []

    def outstanding() -> int:
        return reads.outstanding + (publisher.outstanding if publisher is not None else 0)

    start = clock() + 0.001
    due = start + stream.offsets
    n = len(stream)
    end_depth = None
    i = 0
    while i < n or queued or (publisher is not None and publisher.pending):
        now = clock()
        while i < n and due[i] <= now:
            late.append((clock() - due[i]) * 1e3)
            user = int(stream.users[i])
            if stream.kinds[i]:
                ack = publisher.write(user, int(stream.items[i]), float(stream.ratings[i]), due[i])
                if ack is not None:
                    ack_ms.append(ack)
            else:
                queued[reads.submit(user, k, due[i])] = user
            i += 1
        if i == n and end_depth is None:
            end_depth = outstanding()
        for rid in reads.settle(now, now):  # refused at the door
            queued.pop(rid, None)
        if publisher is not None and publisher.pending:
            pending = publisher.pending_users()
            head = itertools.islice(queued.values(), max_batch)
            if not queued or any(u in pending for u in head):
                depth.append((clock(), outstanding()))
                publisher.publish()
                continue
        if queued:
            t0 = clock()
            depth.append((t0, outstanding()))
            engine.tick()
            done = reads.settle(t0, clock())
            for rid in done:
                queued.pop(rid, None)
            if tracer is not None:
                tracer.annotate_last("serving.tick", ids=done)
            continue
        # Idle until the next due time by spinning, not sleeping: a virtual
        # CPU that halts is woken late and cold, which added a fifth to the
        # read p50 of serve-catalog and would count as the program's latency.
        while i < n and clock() < due[i]:
            pass
    phase_end = start + (stream.offsets[-1] if n else 0.0)
    grew = bool(n) and backlog_grew(depth, start, max(phase_end, start + 1e-3), slack)
    return {
        "read_ms": reads.latency,
        "queue_wait_ms": reads.wait,
        "ack_ms": ack_ms,
        "late_ms": late,
        "reads": reads.submitted,
        "reads_ok": reads.ok,
        "reads_failed": reads.failed,
        "writes": int(stream.writes),
        "writes_acked": len(ack_ms),
        "end_depth": end_depth or 0,
        "backlog_grew": grew,
    }
