"""The fault plane's eager straggle scheduling, kept as an oracle.

``EagerFaultInjector`` is a :class:`FaultInjector` whose
``schedule_replica`` is a literal copy of the method before straggles were
pushed lazily (reading the fault parameters from the injector's spec): at a replica's creation it pushes every sampled straggle
onset and end of the whole run, so the event queue holds them all,
including those of replicas that crashed or retired long before.  Its
lazy hooks (``straggle_began``, ``straggle_ended``, ``forget``) do nothing,
and it never raises ``tail_ms``: the queued events themselves keep the
control loop ticking.  Same seed, same draws, in the same order.
``tests/properties/test_property_faults.py`` holds an engine with the lazy
injector bit-identical to one with this one.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.serving.engine.events import EventKind
from repro.serving.engine.faults import FaultInjector


class EagerFaultInjector(FaultInjector):
    """Pushes every sampled straggle interval when a replica is created."""

    def schedule_replica(
        self, replica_index: int, now_ms: float, push: Callable[[float, int, Any], None]
    ) -> None:
        rng = self._rng
        spec = self.spec
        if spec.crash_mtbf_ms is not None:
            crash_ms = now_ms + float(rng.exponential(spec.crash_mtbf_ms))
            if crash_ms <= self.horizon_ms:
                push(crash_ms, EventKind.FAULT, ("crash", replica_index))
        if spec.straggler_mtbf_ms is not None:
            t = now_ms
            horizon = self.horizon_ms
            while True:
                t += float(rng.exponential(spec.straggler_mtbf_ms))
                if t > horizon:
                    break
                duration = float(rng.exponential(spec.straggler_duration_ms))
                push(
                    t,
                    EventKind.FAULT,
                    ("straggle", replica_index, spec.straggler_factor),
                )
                push(t + duration, EventKind.RECOVERY, ("straggle_end", replica_index))
                t += duration

    def straggle_began(self, replica_index, push) -> None:
        pass

    def straggle_ended(self, replica_index, push) -> None:
        pass

    def forget(self, replica_index) -> None:
        pass
