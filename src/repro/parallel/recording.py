"""Charge-level recording, the foundation of deterministic merging.

A parallel worker evaluates its shard with a :class:`RecordingLedger`, which
remembers every individual ``(category, seconds)`` charge in order, and a
:class:`RecordingSupervisor`, which remembers *where in the charge log* each
supervision event fired.  The merge step then replays those charges — in the
order the serial algorithm would have issued them — into a fresh ledger, so
the merged totals are bitwise identical to a serial run's (floating-point
accumulation is order-sensitive; replaying per-charge sidesteps that where
summing per-shard deltas would not), and every ``SupervisorEvent.at``
timestamp lands on exactly the serial ledger total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.controller.costs import CostLedger
from repro.controller.supervisor import (EVENT_QUARANTINE,
                                         EVENT_WORKER_FAULT,
                                         ScenarioSupervisor)

#: one supervision event pinned to its charge-log position:
#: (position, kind, op, scenario, error, attempt)
PackedEvent = Tuple[int, str, str, Optional[str], str, int]


class RecordingLedger(CostLedger):
    """A CostLedger that additionally logs every charge in issue order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: List[Tuple[str, float]] = []

    def charge(self, category: str, seconds: float) -> None:
        super().charge(category, seconds)
        self.log.append((category, seconds))


class RecordingSupervisor(ScenarioSupervisor):
    """A supervisor that pins each event to the ledger's charge log.

    ``event_positions[i]`` is the number of charges issued before
    ``stats.events[i]`` was recorded; the merge step uses it to re-emit the
    event at the same point of the replayed charge stream.
    """

    def __init__(self, ledger: RecordingLedger, max_retries: int = 2) -> None:
        super().__init__(ledger, max_retries=max_retries)
        self.event_positions: List[int] = []

    def _record(self, kind, op, scenario, error, attempt):
        self.event_positions.append(len(self.ledger.log))
        return super()._record(kind, op, scenario, error, attempt)


@dataclass
class StepTrace:
    """Everything one supervised step did to platform state.

    ``charges`` are the ledger charges the step issued, in order; ``events``
    are the supervision events it recorded, each pinned to its position in
    ``charges``; ``crash_lines`` is the world's crashed-node summary at the
    end of the step (what ``_note_crashes`` would have seen serially).
    """

    charges: List[Tuple[str, float]] = field(default_factory=list)
    events: List[PackedEvent] = field(default_factory=list)
    crash_lines: List[str] = field(default_factory=list)

    @classmethod
    def quarantine_only(cls, op: str, scenario: Optional[str], reason: str,
                        attempts: int) -> "StepTrace":
        """A synthetic trace for a step that never ran to completion.

        No charges — just the supervision events the merge replays into
        the ledger: a ``worker-fault`` explaining what happened, then the
        ``quarantine`` that increments the quarantine counter, mirroring
        what a serial supervisor records when a scenario burns its retry
        budget.  Used by :mod:`repro.parallel.health` to hand a poison
        task to the supervision ledger.
        """
        events: List[PackedEvent] = [
            (0, EVENT_WORKER_FAULT, op, scenario, reason, attempts),
            (0, EVENT_QUARANTINE, op, scenario, reason, attempts),
        ]
        return cls(charges=[], events=events, crash_lines=[])


class StepRecorder:
    """Context manager capturing one supervised step as a :class:`StepTrace`.

    The step runs through the live driver's
    :meth:`~repro.search.base.SearchAlgorithm.fulfil`, which already turns
    a quarantine into the probe's ``quarantined`` field.
    """

    def __init__(self, search) -> None:
        self._search = search
        self.trace: Optional[StepTrace] = None

    def __enter__(self) -> "StepRecorder":
        ledger: RecordingLedger = self._search.ledger
        supervisor: RecordingSupervisor = self._search.supervisor
        self._c0 = len(ledger.log)
        self._e0 = len(supervisor.stats.events)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        ledger: RecordingLedger = self._search.ledger
        supervisor: RecordingSupervisor = self._search.supervisor
        charges = list(ledger.log[self._c0:])
        events: List[PackedEvent] = []
        for position, event in zip(supervisor.event_positions[self._e0:],
                                   supervisor.stats.events[self._e0:]):
            events.append((position - self._c0, event.kind, event.op,
                           event.scenario, event.error, event.attempt))
        crash_lines: List[str] = []
        instance = self._search.harness.instance
        if instance is not None:
            crash_lines = list(instance.world.crashed_node_summaries())
        self.trace = StepTrace(charges, events, crash_lines)
        return False
