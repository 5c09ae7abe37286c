"""Admission control: which queries a replica agrees to serve at dispatch.

Admission is evaluated when a query is *popped* for service, not on arrival:
only then is it known how long the query actually waited.  ``drop_expired``
sheds queries whose deadline has already passed — serving them would burn
accelerator time on a guaranteed SLO violation, which under overload starves
the queries that could still make their deadlines.
"""

from __future__ import annotations

import abc

from repro.serving.query import QueuedQuery


class AdmissionPolicy(abc.ABC):
    """Decide at dispatch time whether a waiting query is worth serving."""

    name: str

    @abc.abstractmethod
    def admit(self, item: QueuedQuery, now_ms: float) -> bool:
        """True to serve the query, False to shed it."""


class AdmitAll(AdmissionPolicy):
    """Serve everything, however late (the original simulator's behavior)."""

    name = "admit_all"

    def admit(self, item: QueuedQuery, now_ms: float) -> bool:
        return True


class DropExpired(AdmissionPolicy):
    """Shed queries whose deadline has already expired at dispatch time.

    Any positive service time would complete past the deadline, so at
    ``now >= deadline`` the query cannot meet its SLO and is dropped.
    """

    name = "drop_expired"

    def admit(self, item: QueuedQuery, now_ms: float) -> bool:
        return now_ms < item.deadline_ms


_ADMISSIONS = {
    AdmitAll.name: AdmitAll,
    DropExpired.name: DropExpired,
}

#: Names of the registered admission policies.
ADMISSION_NAMES: tuple[str, ...] = tuple(sorted(_ADMISSIONS))


def make_admission(spec: str | AdmissionPolicy) -> AdmissionPolicy:
    """Build an admission policy from a name, or pass an instance through."""
    if isinstance(spec, AdmissionPolicy):
        return spec
    try:
        return _ADMISSIONS[spec]()
    except KeyError as exc:
        raise ValueError(
            f"unknown admission policy {spec!r}; available: {sorted(_ADMISSIONS)}"
        ) from exc
