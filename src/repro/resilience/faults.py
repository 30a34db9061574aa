"""Seeded fault injection for the supervised runtime (chaos engineering).

A :class:`FaultPlan` is a *pure function* from ``(kind, step, shard)`` to
"does this fault fire?": every decision is derived from the plan's seed
through an independent :class:`numpy.random.SeedSequence`, so the same
plan injects the same faults into the same places whether the shard runs
in-process, in a forked worker, or on a retry in either mode.  That
determinism is what makes chaos runs *auditable*: the expected fault set
can be enumerated up front (:func:`expected_fault_events`) and diffed
against the :class:`~repro.resilience.health.RunHealth` log afterwards.

Fault kinds (all rates are independent per ``(step, shard)`` site):

* ``fault.worker-kill`` — the shard's process dies mid-shard.  In forked
  workers this is a real ``SIGKILL`` (the supervisor detects the loss via
  its deadline and respawns the pool); serially it raises
  :class:`InjectedWorkerKill`, which the supervisor treats identically.
* ``fault.delay`` — the shard sleeps ``delay_seconds`` before computing,
  exercising deadlines and backoff.
* ``fault.nan-flip`` — one lane of the CG solver's staged A batch is
  flipped to NaN (bit-rot / memory-corruption model).
* ``fault.fp16-overflow`` — one lane of the staged A batch is forced to
  ±inf, emulating what FP16 storage of A_u would do *without* the
  saturating conversion the library normally applies (paper Solution 4's
  overflow hazard).

Faults only fire on attempt 0 of a site: retries are clean, so a
supervised run always terminates.  A worker-kill pre-empts the site's
other faults (a dead worker injects nothing else), and empty shards
inject nothing (they execute no code).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "FaultPlan",
    "INGEST_FAULT_KINDS",
    "InjectedWorkerKill",
    "NumericalFault",
    "SERVING_FAULT_KINDS",
    "ServingFaultPlan",
    "expected_fault_events",
    "expected_serving_faults",
    "inject_shard_start",
    "solver_fault_hook",
]

#: Stable sub-seed per fault kind (part of the on-disk chaos contract).
#: Stream 5 is reserved for the supervised executor's retry-backoff
#: jitter (:meth:`FaultPlan.backoff_jitter`) so chaos drills replay the
#: same sleep schedule without ever touching global RNG state.
_KIND_STREAMS = {
    "fault.worker-kill": 1,
    "fault.delay": 2,
    "fault.nan-flip": 3,
    "fault.fp16-overflow": 4,
    "supervise.backoff-jitter": 5,
}


class InjectedWorkerKill(RuntimeError):
    """Serial-mode stand-in for a SIGKILLed worker process."""


class NumericalFault(RuntimeError):
    """A numeric failure the guard ladder could not repair.

    Defined here (dependency-free) rather than in
    :mod:`repro.resilience.guards` so the core trainers and the runtime
    executor can raise/catch it without importing the guard module,
    which sits downstream of :mod:`repro.core` in the import graph.
    Carries provenance: the pipeline ``stage`` that failed and the
    global row indices (``lanes``) of the affected systems.
    """

    def __init__(
        self, message: str, lanes: tuple[int, ...] = (), stage: str = ""
    ) -> None:
        super().__init__(message)
        self.lanes = tuple(int(x) for x in lanes)
        self.stage = stage

    def __reduce__(self):  # survive the pickling of pool-worker exceptions
        return (type(self), (self.args[0], self.lanes, self.stage))


@dataclass(frozen=True)
class FaultPlan:
    """Rates and seed of one injection campaign (plain data, JSON-ready)."""

    seed: int = 0
    kill_rate: float = 0.0
    delay_rate: float = 0.0
    nan_rate: float = 0.0
    overflow_rate: float = 0.0
    delay_seconds: float = 0.01

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("kill_rate", "delay_rate", "nan_rate", "overflow_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")

    @property
    def rate_of(self) -> dict[str, float]:
        return {
            "fault.worker-kill": self.kill_rate,
            "fault.delay": self.delay_rate,
            "fault.nan-flip": self.nan_rate,
            "fault.fp16-overflow": self.overflow_rate,
        }

    def as_dict(self) -> dict:
        return asdict(self)

    # -- deterministic decisions -------------------------------------------

    def _rng(self, kind: str, step: int, shard: int) -> np.random.Generator:
        stream = _KIND_STREAMS[kind]
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, stream, step, shard])
        )

    def fires(self, kind: str, step: int, shard: int, attempt: int = 0) -> bool:
        """Whether ``kind`` fires at site ``(step, shard)`` on ``attempt``.

        Only attempt 0 injects: the fault models are transient, so the
        supervisor's retry path always converges.
        """
        if attempt != 0:
            return False
        rate = self.rate_of[kind]
        if rate <= 0.0:
            return False
        return bool(self._rng(kind, step, shard).random() < rate)

    def lane_for(self, kind: str, step: int, shard: int, num_rows: int) -> int:
        """Deterministic victim lane (local row index) for a corruption."""
        if num_rows < 1:
            raise ValueError("num_rows must be positive")
        # Independent draw after the fire decision so lane choice does not
        # perturb whether *other* sites fire.
        rng = self._rng(kind, step, shard)
        rng.random()  # consume the fire draw
        return int(rng.integers(0, num_rows))

    def backoff_jitter(self, step: int, shard: int, attempt: int) -> float:
        """Deterministic retry-jitter fraction in ``[0, 1)`` for one site.

        The supervised executor multiplies its exponential backoff by
        ``1 + jitter_frac * backoff_jitter(...)``.  Deriving the draw
        from the plan's own :class:`numpy.random.SeedSequence` stream
        (never global RNG) keeps chaos drills replayable: the same plan
        seed produces the same sleep schedule on every run, in-process
        or forked, regardless of what else consumed random numbers.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        stream = _KIND_STREAMS["supervise.backoff-jitter"]
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, stream, step, shard, attempt])
        )
        return float(rng.random())


#: Fault kinds injected into the *serving* engine (online inference),
#: mirroring the training-side vocabulary above.  Sites are
#: ``(kind, tick)`` — one decision per engine tick per kind:
#:
#: * ``fault.backend-stall`` — the scoring backend hangs past the
#:   request budget; the batch fails and the circuit breaker counts it.
#: * ``fault.reload-during-traffic`` — a hot model reload of a *valid*
#:   artifact is triggered mid-traffic (must be a no-op for scoring).
#: * ``fault.corrupt-model-file`` — a hot reload of a corrupt/truncated
#:   artifact is triggered (must roll back to the serving model).
#: * ``fault.score-nan`` — one scored lane of the batch is flipped to
#:   NaN after the GEMM (bit-rot model); only that request may degrade.
#:
#: The ``fleet-`` kinds target the multi-process
#: :class:`~repro.serving.fleet.FleetEngine` (they are recorded as
#: no-op firings by the single-process engine, so accounting stays
#: exact whichever engine carries the plan):
#:
#: * ``fault.fleet-worker-kill`` — one scoring worker is SIGKILLed
#:   mid-batch; its requests must be re-routed, never lost.
#: * ``fault.fleet-worker-reload`` — one worker is restarted during
#:   traffic (single-worker rolling reload).
#: * ``fault.fleet-heartbeat-stall`` — one worker stalls long enough to
#:   miss its heartbeat; the supervisor must detect and respawn it.
#:
#: The ``ingest`` kinds target the streaming ingestion plane
#: (:mod:`repro.streaming`); like the fleet kinds they are recorded as
#: no-op firings by engines without an ingest pipeline attached:
#:
#: * ``fault.wal-torn-write`` — a WAL append is torn mid-record (the
#:   tail bytes are truncated, as a power loss would); recovery must
#:   drop exactly the torn record and keep every earlier one.
#: * ``fault.fold-in-nan`` — one lane of the next fold-in solve's staged
#:   system is flipped to NaN; the guard ladder must quarantine and
#:   re-solve it rather than publish a poisoned row.
#: * ``fault.delta-apply-during-traffic`` — a delta-checkpoint apply is
#:   forced onto the store mid-traffic (must be invisible to scoring
#:   except for the rows it legitimately updates).
SERVING_FAULT_KINDS = (
    "fault.backend-stall",
    "fault.reload-during-traffic",
    "fault.corrupt-model-file",
    "fault.score-nan",
    "fault.fleet-worker-kill",
    "fault.fleet-worker-reload",
    "fault.fleet-heartbeat-stall",
    "fault.wal-torn-write",
    "fault.fold-in-nan",
    "fault.delta-apply-during-traffic",
)

#: The ingestion kinds, as a tuple of their own — drills that only run
#: an ingest pipeline iterate these without re-listing them.
INGEST_FAULT_KINDS = SERVING_FAULT_KINDS[7:]

_SERVING_STREAMS = {
    "fault.backend-stall": 101,
    "fault.reload-during-traffic": 102,
    "fault.corrupt-model-file": 103,
    "fault.score-nan": 104,
    "fault.fleet-worker-kill": 105,
    "fault.fleet-worker-reload": 106,
    "fault.fleet-heartbeat-stall": 107,
    "fault.wal-torn-write": 108,
    "fault.fold-in-nan": 109,
    "fault.delta-apply-during-traffic": 110,
}


@dataclass(frozen=True)
class ServingFaultPlan:
    """Seeded injection campaign against the serving engine (plain data).

    Like :class:`FaultPlan`, a pure function from ``(kind, tick)`` to
    "does this fault fire?": the same plan produces the same fault
    schedule on every replay, which is what lets ``repro serve --chaos``
    enumerate its injections up front and audit the
    :class:`~repro.serving.health.ServingHealth` log afterwards.
    """

    seed: int = 0
    stall_rate: float = 0.0
    reload_rate: float = 0.0
    corrupt_rate: float = 0.0
    score_nan_rate: float = 0.0
    worker_kill_rate: float = 0.0
    worker_reload_rate: float = 0.0
    heartbeat_stall_rate: float = 0.0
    wal_torn_rate: float = 0.0
    foldin_nan_rate: float = 0.0
    delta_apply_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in (
            "stall_rate",
            "reload_rate",
            "corrupt_rate",
            "score_nan_rate",
            "worker_kill_rate",
            "worker_reload_rate",
            "heartbeat_stall_rate",
            "wal_torn_rate",
            "foldin_nan_rate",
            "delta_apply_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")

    @property
    def rate_of(self) -> dict[str, float]:
        return {
            "fault.backend-stall": self.stall_rate,
            "fault.reload-during-traffic": self.reload_rate,
            "fault.corrupt-model-file": self.corrupt_rate,
            "fault.score-nan": self.score_nan_rate,
            "fault.fleet-worker-kill": self.worker_kill_rate,
            "fault.fleet-worker-reload": self.worker_reload_rate,
            "fault.fleet-heartbeat-stall": self.heartbeat_stall_rate,
            "fault.wal-torn-write": self.wal_torn_rate,
            "fault.fold-in-nan": self.foldin_nan_rate,
            "fault.delta-apply-during-traffic": self.delta_apply_rate,
        }

    def as_dict(self) -> dict:
        return asdict(self)

    def _rng(self, kind: str, tick: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, _SERVING_STREAMS[kind], tick])
        )

    def fires(self, kind: str, tick: int) -> bool:
        """Whether ``kind`` fires at engine tick ``tick``."""
        rates = self.rate_of
        if kind not in rates:
            raise ValueError(
                f"unknown serving fault kind {kind!r}; valid kinds: "
                + ", ".join(SERVING_FAULT_KINDS)
            )
        rate = rates[kind]
        if rate <= 0.0:
            return False
        return bool(self._rng(kind, tick).random() < rate)

    def victim_lane(self, kind: str, tick: int, num_lanes: int) -> int:
        """Deterministic victim lane/slot for a corruption or kill at a tick."""
        if num_lanes < 1:
            raise ValueError("num_lanes must be positive")
        if kind not in _SERVING_STREAMS:
            raise ValueError(
                f"unknown serving fault kind {kind!r}; valid kinds: "
                + ", ".join(SERVING_FAULT_KINDS)
            )
        rng = self._rng(kind, tick)
        rng.random()  # consume the fire draw
        return int(rng.integers(0, num_lanes))


def expected_serving_faults(
    plan: ServingFaultPlan, ticks: int
) -> list[tuple[str, int]]:
    """Enumerate every serving fault the plan injects over ``ticks``.

    Directly comparable to the fault events a
    :class:`~repro.serving.health.ServingHealth` log records — the
    ``repro serve --chaos`` drill gates on the two matching exactly.
    """
    if ticks < 0:
        raise ValueError("ticks must be non-negative")
    expected = []
    for tick in range(ticks):
        for kind in SERVING_FAULT_KINDS:
            if plan.fires(kind, tick):
                expected.append((kind, tick))
    return expected


def expected_fault_events(
    plan: FaultPlan, spans_by_step: list[list[tuple[int, int]]]
) -> list[tuple[str, int, int]]:
    """Enumerate every fault the plan injects over a run's shard geometry.

    ``spans_by_step[s]`` is the ``(lo, hi)`` shard list of half-step ``s``
    (what :func:`repro.core.multi_gpu.partition_rows` produced).  Empty
    shards execute nothing and therefore inject nothing; a worker-kill
    pre-empts the site's other faults.  The result is directly comparable
    to :meth:`repro.resilience.health.RunHealth.account`.
    """
    expected: list[tuple[str, int, int]] = []
    for step, spans in enumerate(spans_by_step):
        for shard, (lo, hi) in enumerate(spans):
            if hi <= lo:
                continue
            if plan.fires("fault.worker-kill", step, shard):
                expected.append(("fault.worker-kill", step, shard))
                continue
            for kind in ("fault.delay", "fault.nan-flip", "fault.fp16-overflow"):
                if plan.fires(kind, step, shard):
                    expected.append((kind, step, shard))
    return expected


def inject_shard_start(
    plan: FaultPlan,
    step: int,
    shard: int,
    attempt: int,
    *,
    forked: bool,
    events: list,
) -> None:
    """Run the shard-entry faults: kill first, then delay.

    Kill is recorded by the *supervisor* (a killed process cannot report),
    so this function does not append a kill event itself; delays are
    recorded here, in the executing process, and travel back to the
    parent in the shard outcome.
    """
    if plan.fires("fault.worker-kill", step, shard, attempt):
        if forked:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies
        raise InjectedWorkerKill(
            f"injected worker kill at step {step} shard {shard}"
        )
    if plan.fires("fault.delay", step, shard, attempt):
        time.sleep(plan.delay_seconds)
        events.append(
            {
                "kind": "fault.delay",
                "step": step,
                "shard": shard,
                "attempt": attempt,
                "detail": f"slept {plan.delay_seconds:g}s",
            }
        )


def solver_fault_hook(
    plan: FaultPlan,
    step: int,
    shard: int,
    attempt: int,
    row_offset: int,
    events: list,
):
    """Build the CG-store corruption hook for one shard, or ``None``.

    The returned callable receives the solver's *staged* A batch (the
    FP16-emulating store, never the caller's pristine matrices) and
    corrupts deterministic victim lanes in place — NaN for the bit-rot
    model, ±inf for the unclipped-FP16-overflow model.  The pristine
    inputs stay intact, which is what makes the guard ladder's
    quarantine-and-re-solve rung able to repair the damage.
    """
    nan_fires = plan.fires("fault.nan-flip", step, shard, attempt)
    ovf_fires = plan.fires("fault.fp16-overflow", step, shard, attempt)
    if not (nan_fires or ovf_fires):
        return None

    def corrupt(store: np.ndarray) -> None:
        num = store.shape[0]
        if num < 1:
            return
        if nan_fires:
            lane = plan.lane_for("fault.nan-flip", step, shard, num)
            store[lane] = np.nan
            events.append(
                {
                    "kind": "fault.nan-flip",
                    "step": step,
                    "shard": shard,
                    "attempt": attempt,
                    "lanes": [row_offset + lane],
                }
            )
        if ovf_fires:
            lane = plan.lane_for("fault.fp16-overflow", step, shard, num)
            store[lane] = np.inf
            store[lane, ::2] = -np.inf  # signed overflow, both directions
            events.append(
                {
                    "kind": "fault.fp16-overflow",
                    "step": step,
                    "shard": shard,
                    "attempt": attempt,
                    "lanes": [row_offset + lane],
                }
            )

    return corrupt
