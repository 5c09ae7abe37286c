"""The fault plane's eager, scalar-draw sampling, kept as an oracle.

``EagerFaultInjector`` is a :class:`FaultInjector` whose
``schedule_replica`` is a literal copy of the method before straggles were
pushed lazily (reading the fault parameters from the injector's spec): at
a replica's creation it pushes every sampled straggle onset and end of the
whole run, so the event queue holds them all, including those of replicas
that crashed or retired long before.  Its lazy hooks (``straggle_began``,
``straggle_ended``, ``forget``) do nothing, and it never raises
``tail_ms``: the queued events themselves keep the control loop ticking.

Every draw is a scalar one, as before the injector drew in bulk:
``schedule_replica`` alternates one ``exponential`` per straggle gap and
duration, ``dispatch_fails`` takes one ``random()`` per pickup, and
``reset`` is the matching literal copy, so the oracle inherits none of the
injector's sampling.  Same seed, same draws, in the same order.
``tests/properties/test_property_faults.py`` holds an engine with the lazy,
bulk-drawing injector bit-identical to one with this one, and the two
injectors' draws and generator states equal under any interleaving.
"""

from __future__ import annotations

from typing import Any, Callable

from numpy.random import default_rng

from repro.serving.engine.events import EventKind
from repro.serving.engine.faults import FaultInjector


class EagerFaultInjector(FaultInjector):
    """Pushes every sampled straggle interval when a replica is created."""

    def reset(self) -> None:
        """Back to the constructor state: same seed, same sampled faults."""
        self._rng = default_rng(self.spec.seed)
        self._straggles.clear()
        self.tail_ms = 0.0
        self._attempts.clear()
        self.brownout_level = 0
        self.accuracy_relax = 0.0
        self.num_crashes = 0
        self.num_dispatch_failures = 0
        self.num_retries = 0

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

    def dispatch_fails(self) -> bool:
        """One per-pickup Bernoulli draw of the transient-failure process."""
        prob = self._dispatch_failure_prob
        if prob <= 0.0:
            return False
        failed = bool(self._rng.random() < prob)
        if failed:
            self.num_dispatch_failures += 1
        return failed

    def straggle_began(self, replica_index, push) -> None:
        pass

    def straggle_ended(self, replica_index, push) -> None:
        pass

    def forget(self, replica_index) -> None:
        pass
