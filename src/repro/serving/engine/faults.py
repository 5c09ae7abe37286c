"""Fault injection: crashes, stragglers, transient dispatch failures.

The :class:`FaultInjector` is the runtime side of the declarative
``FaultSpec`` (see :mod:`repro.serving.spec`): a seeded, per-replica fault
process sampled into FAULT/RECOVERY events plus the retry/brownout
bookkeeping the engine consults at dispatch time.  Like the flight
recorder, it hangs off the engine as a nullable attribute — every hot-loop
hook is a dead ``is None`` check when fault injection is off, so
``faults: null`` stays bit-identical to the fault-free engine (a rung of
the record-identity ladder).

Three fault processes, all drawn from one decorrelated seeded
``numpy.random.Generator`` (RPR001: no unseeded randomness in the fault
layer):

* **Crashes** — each covered replica dies at an exponentially sampled
  time (``crash_mtbf_ms``).  The in-flight batch and the queued backlog
  are lost; each lost query goes through the retry policy.  A crashed
  replica never recovers — self-healing is the autoscaler's job
  (replacements provision through the existing cold-start lifecycle).
* **Stragglers** — each covered replica alternates healthy and straggle
  intervals (onset gaps ~ Exp(``straggler_mtbf_ms``), durations ~
  Exp(``straggler_duration_ms``)); while straggling, every batch it picks
  up runs ``straggler_factor`` times slower.
* **Transient dispatch failures** — each pickup errors with probability
  ``dispatch_failure_prob``; the batch's queries go through the retry
  policy, the replica stays healthy.

Retry semantics (``max_attempts`` / ``backoff_base_ms`` /
``backoff_multiplier``): a lost query re-enters routing after an
exponential backoff, but only while the backoff still fits the query's
remaining deadline slack — a retry that would land after the deadline, or
a query out of attempts, is dropped with the ``"failed"`` reason.

Brownout (``brownout_threshold`` …): when the failed fraction of the pool
crosses the threshold, the engine relaxes every dispatched query's
accuracy floor stepwise (``level x brownout_accuracy_step``) so smaller,
faster SubNets absorb the lost capacity instead of deadline drops.  The
level is recomputed whenever the pool changes (crash, replacement ready).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Callable

import numpy as np
from numpy.random import default_rng

from repro.serving.engine.events import EventKind
from repro.serving.query import QueuedQuery

if TYPE_CHECKING:  # pragma: no cover - spec.py imports the engine package
    from repro.serving.spec import FaultSpec

#: Drop reason for queries that exhausted their retry budget (or whose
#: backoff no longer fits the deadline) after a crash / dispatch failure.
FAILED = "failed"
#: Drop reason for arrivals shed because no routable replica existed.
SHED = "shed"

#: Uniforms drawn at once for the per-pickup dispatch-failure process.
UNIFORM_BLOCK = 256
#: Straggle draws taken beyond a new replica's expected count; a schedule
#: that needs more extends its block.
STRAGGLE_SLACK = 16


class FaultInjector:
    """Seeded per-replica fault processes plus retry/brownout state.

    Built from a validated ``FaultSpec`` (``api.build_engine`` passes
    ``spec.faults``), whose fields it reads as they are: the spec
    validated them once, at parse time.  Attached as ``engine.faults``.
    ``reset()`` restores the constructor state — including the RNG — so
    repeated runs of the same engine replay the same faults.

    Draws are taken in bulk but consume the generator exactly as one
    scalar draw at a time would (see :meth:`_straggle_schedule` and
    :meth:`dispatch_fails`), so every sampled fault is the scalar one.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        # The one field read on every pickup, kept as a plain attribute.
        self._dispatch_failure_prob = spec.dispatch_failure_prob
        # Each straggle interval's (gap, duration) scales, one row of draws.
        self._straggle_scales = np.array(
            [spec.straggler_mtbf_ms or 0.0, spec.straggler_duration_ms]
        )
        self._rng = default_rng(spec.seed)
        # replica index -> its unplayed straggle times, latest first.
        self._straggles: dict[int, list[float]] = {}
        self._attempts: dict[int, int] = {}
        # A block of dispatch-failure uniforms, its read position, and the
        # generator state it was drawn from (see dispatch_fails).
        self._uniforms: list[float] = []
        self._next_uniform = 0
        self._block_state: dict[str, Any] = {}
        self.brownout_level = 0
        self.accuracy_relax = 0.0
        self.num_crashes = 0
        self.num_dispatch_failures = 0
        self.num_retries = 0

    # ------------------------------------------------------------- lifecycle
    def reset(self) -> None:
        """Back to the constructor state: same seed, same sampled faults."""
        self._rng = default_rng(self.spec.seed)
        self._uniforms = []
        self._next_uniform = 0
        self._straggles.clear()
        self.tail_ms = 0.0
        self._attempts.clear()
        self.brownout_level = 0
        self.accuracy_relax = 0.0
        self.num_crashes = 0
        self.num_dispatch_failures = 0
        self.num_retries = 0

    def covers_group(self, group: str | None) -> bool:
        """Whether a replica group's name falls under the fault processes."""
        groups = self.spec.groups
        return not groups or group in groups

    # -------------------------------------------------------------- sampling
    def schedule_replica(
        self, replica_index: int, now_ms: float, push: Callable[[float, int, Any], None]
    ) -> None:
        """Arm the fault processes for one covered replica.

        Called for every initial replica at run start and for every
        scale-up replica at creation, in replica-index order — the draw
        order is a pure function of the event order, so runs replay
        exactly.  The crash time is one exponential draw (a replica dies
        at most once; its replacement gets its own draw).  Every fault is
        sampled against ``self.horizon_ms`` (the last arrival time, set by
        the engine before scheduling): a fault past the last arrival is
        never scheduled.  This is what terminates the run — without the
        horizon, a crash after the trace ends would provision a
        replacement, whose own crash draw would provision another, forever.

        Every straggle interval is drawn here too, but only the first onset
        is pushed: the replica keeps one pending straggle event, and the
        engine plays the rest through :meth:`straggle_began` and
        :meth:`straggle_ended` while the replica lives (or drops them with
        :meth:`forget` once it is gone).  ``tail_ms`` records the latest
        sampled fault time, which keeps control ticks running as if every
        sampled event were in the queue.
        """
        self._settle_uniforms()
        spec = self.spec
        if spec.crash_mtbf_ms is not None:
            crash_ms = now_ms + float(self._rng.exponential(spec.crash_mtbf_ms))
            if crash_ms <= self.horizon_ms:
                push(crash_ms, EventKind.FAULT, ("crash", replica_index))
                if crash_ms > self.tail_ms:
                    self.tail_ms = crash_ms
        if spec.straggler_mtbf_ms is not None:
            times = self._straggle_schedule(now_ms)
            if times:
                if times[0] > self.tail_ms:
                    self.tail_ms = times[0]
                self._straggles[replica_index] = times
                self.straggle_ended(replica_index, push)

    def _straggle_schedule(self, now_ms: float) -> list[float]:
        """A new replica's straggle onsets and ends, latest first.

        The scalar process alternates draws: a gap ~ Exp(mtbf) to the next
        onset, stopping at the first onset past the horizon, and a duration
        ~ Exp(duration) to its end.  Here one ``standard_exponential`` fill
        gives the same values (a scalar ``exponential(scale)`` is ``scale``
        times one standard draw), each scaled by one float multiply, and
        one ``cumsum`` adds them to ``now_ms`` in the scalar loop's order.
        The generator is then rewound and redrawn by exactly the scalar
        loop's count (every kept interval's two draws plus the final gap),
        so it ends where that loop would.
        """
        rng = self._rng
        spec = self.spec
        horizon = self.horizon_ms
        start_state = rng.bit_generator.state
        # Gap and duration draws alternate, so a block of pairs starts
        # every row on a gap.  Room for the expected intervals and then
        # some; a short block is extended by another.
        pairs = STRAGGLE_SLACK + int(
            max(horizon - now_ms, 0.0)
            / (spec.straggler_mtbf_ms + spec.straggler_duration_ms)
            * 1.25
        )
        times: list[float] = []  # onset, end, onset, end, ...
        last = now_ms
        while True:
            steps = rng.standard_exponential((pairs, 2))
            steps *= self._straggle_scales
            steps[0, 0] += last
            times += steps.cumsum().tolist()
            # The first time past the horizon: an onset ends the schedule
            # there; an end keeps its interval, and the next onset (later
            # still) ends it.
            past = bisect_right(times, horizon)
            kept = past + (past & 1)
            if kept < len(times):
                break
            last = times[-1]
        if kept + 1 < len(times):
            rng.bit_generator.state = start_state
            rng.standard_exponential(kept + 1)
        del times[kept:]
        times.reverse()
        return times

    def straggle_began(
        self, replica_index: int, push: Callable[[float, int, Any], None]
    ) -> None:
        """A live replica's straggle onset fired: push the interval's end."""
        push(
            self._straggles[replica_index].pop(),
            EventKind.RECOVERY,
            ("straggle_end", replica_index),
        )

    def straggle_ended(
        self, replica_index: int, push: Callable[[float, int, Any], None]
    ) -> None:
        """A live replica is healthy again: push its next straggle onset.

        Also pushes the first onset at :meth:`schedule_replica`.  The
        schedule is forgotten once played out.
        """
        times = self._straggles[replica_index]
        if times:
            push(
                times.pop(),
                EventKind.FAULT,
                ("straggle", replica_index, self.spec.straggler_factor),
            )
        else:
            del self._straggles[replica_index]

    def forget(self, replica_index: int) -> None:
        """The replica crashed or retired: drop its unplayed straggles."""
        self._straggles.pop(replica_index, None)

    horizon_ms: float = 0.0
    """Straggle-sampling horizon (the last arrival time); the engine sets
    it at run start, before any :meth:`schedule_replica` call."""

    tail_ms: float = 0.0
    """The latest crash or straggle-end time sampled so far (0 before any);
    the control loop keeps ticking until the clock passes it."""

    def dispatch_fails(self) -> bool:
        """One per-pickup Bernoulli draw of the transient-failure process.

        The uniforms come from blocks of ``rng.random(UNIFORM_BLOCK)``,
        which hold the values one ``rng.random()`` per pickup would give.
        Before the generator serves any other draw,
        :meth:`_settle_uniforms` hands back the block's unread part.
        """
        prob = self._dispatch_failure_prob
        if prob <= 0.0:
            return False
        i = self._next_uniform
        uniforms = self._uniforms
        if i == len(uniforms):
            self._block_state = self._rng.bit_generator.state
            uniforms = self._uniforms = self._rng.random(UNIFORM_BLOCK).tolist()
            i = 0
        self._next_uniform = i + 1
        failed = uniforms[i] < prob
        if failed:
            self.num_dispatch_failures += 1
        return failed

    def _settle_uniforms(self) -> None:
        """Leave the generator where per-pickup scalar draws would have.

        PCG64 turns one 64-bit output into one double, so the generator is
        restored to the block's start and advanced by the uniforms read.
        """
        read = self._next_uniform
        if read < len(self._uniforms):
            bit_generator = self._rng.bit_generator
            bit_generator.state = self._block_state
            bit_generator.advance(read)
        self._uniforms = []
        self._next_uniform = 0

    # ---------------------------------------------------------------- retry
    def next_retry_ms(self, item: QueuedQuery, now_ms: float) -> float | None:
        """When a lost query should re-enter routing; ``None`` = give up.

        Exponential backoff (``base x multiplier^attempt``) checked against
        the query's remaining deadline slack: a retry that cannot possibly
        complete in time is pointless, so it is refused and the query drops
        with the ``"failed"`` reason.
        """
        retry = self.spec.retry
        attempt = self._attempts.get(item.index, 1)
        if attempt >= retry.max_attempts:
            return None
        retry_ms = now_ms + retry.backoff_base_ms * (
            retry.backoff_multiplier ** (attempt - 1)
        )
        if retry_ms >= item.deadline_ms:
            return None
        self._attempts[item.index] = attempt + 1
        self.num_retries += 1
        return retry_ms

    # -------------------------------------------------------------- brownout
    def update_brownout(self, num_failed: int, num_routable: int) -> None:
        """Recompute the degradation level from the pool's failure pressure.

        Pressure is the failed fraction of the pool the router can see
        (crashed and not yet replaced).  Below the threshold the ladder is
        at level 0 (no degradation); at the threshold it steps to 1, and
        each further threshold-multiple of pressure steps once more, up to
        ``brownout_max_steps``.  Replacement replicas joining the pool
        lower the pressure, stepping the ladder back down — degradation is
        always proportional to the *current* capacity loss.
        """
        spec = self.spec
        threshold = spec.brownout_threshold
        if threshold is None:
            return
        total = num_failed + num_routable
        pressure = num_failed / total if total else 1.0
        if pressure < threshold:
            level = 0
        else:
            level = min(spec.brownout_max_steps, int(pressure / threshold))
        self.brownout_level = level
        self.accuracy_relax = level * spec.brownout_accuracy_step

    def on_crash(self) -> None:
        self.num_crashes += 1
