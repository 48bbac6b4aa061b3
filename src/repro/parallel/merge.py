"""The recorded driver: run a planner against recorded probes.

A pass's control flow lives once, in its planner (``search/*.py``, see
:mod:`repro.search.probes`).  :class:`RecordedDriver` answers the planner's
requests from probes that parallel workers recorded or the run store
journaled, and replays each probe's :class:`~repro.parallel.recording.
StepTrace` — the individual charges, in the order the planner visits them.
Replaying charges one by one makes the merged ledger bitwise identical to a
serial run's (float accumulation is order-sensitive), which in turn makes
every ``found_at`` and ``SupervisorEvent.at`` timestamp — both defined as
"ledger total when it happened" — land exactly.

Why the planner never requests a step the workers didn't probe:

* context acquisitions and greedy evaluations are probed unconditionally;
* weighted greedy walks actions in descending cluster weight and stops at
  the first attack; the workers probe each cluster's frontier
  (:func:`repro.search.weighted.probe_frontier`), which holds every action
  that walk can visit, whatever the weights.

A miss is a coverage hole and raises :class:`SearchError`.

The self-healing layer (:mod:`repro.parallel.health`) reuses this pipeline
for poison tasks: a shard that kept killing its workers comes back as
synthetic probes whose traces carry no charges, only ``worker-fault`` +
``quarantine`` events (:meth:`StepTrace.quarantine_only`).  Replay emits
them like any recorded supervision event — the quarantine counter
increments, unknown kinds land in the event log — so a quarantined-by-
crash shard surfaces exactly like a scenario that burned its serial retry
budget.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.attacks.space import ActionSpace
from repro.common.errors import SearchError
from repro.controller.costs import CostLedger
from repro.controller.supervisor import (EVENT_QUARANTINE, EVENT_REBUILD,
                                         EVENT_RETRY, EVENT_WATCHDOG,
                                         SupervisorEvent, SupervisorStats)
from repro.parallel.recording import StepTrace
from repro.search.probes import (BaselineRequest, Plan, Probe, Request,
                                 ScenarioRequest, drive)
from repro.search.results import SearchReport

_COUNTER_FOR_KIND = {
    EVENT_RETRY: "retries",
    EVENT_REBUILD: "rebuilds",
    EVENT_QUARANTINE: "quarantines",
    EVENT_WATCHDOG: "watchdog_trips",
}


def replay_trace(ledger: CostLedger, stats: SupervisorStats,
                 trace: StepTrace,
                 crashed_seen: Optional[dict] = None) -> None:
    """Re-issue one step's charges, emitting its events at the recorded
    positions so each event's ``at`` equals the serial ledger total."""
    events = trace.events
    index = 0
    for position, charge in enumerate(trace.charges):
        while index < len(events) and events[index][0] <= position:
            _emit_event(ledger, stats, events[index])
            index += 1
        ledger.charge(*charge)
    while index < len(events):
        _emit_event(ledger, stats, events[index])
        index += 1
    if crashed_seen is not None:
        for line in trace.crash_lines:
            crashed_seen[line.split(" ", 1)[0]] = line


def _emit_event(ledger: CostLedger, stats: SupervisorStats,
                packed: tuple) -> None:
    __, kind, op, scenario, error, attempt = packed
    stats.events.append(SupervisorEvent(kind, op, scenario, error, attempt,
                                        at=ledger.total()))
    counter = _COUNTER_FOR_KIND.get(kind)
    if counter is not None:
        setattr(stats, counter, getattr(stats, counter) + 1)


class RecordedDriver:
    """Answers one pass's planner requests from recorded probes.

    ``answer(request)`` returns the recorded probe, or None when nothing
    recorded that step.  This object is also the scope the planner reads:
    the caller resolves the pass's message types before it shards them,
    and takes the system name and action space from an unbooted instance
    of the testbed, which gives the same values a booted one does.
    """

    def __init__(self, algorithm: str, system: str,
                 space: ActionSpace) -> None:
        self.algorithm = algorithm
        self.system = system
        self.space = space
        self.ledger = CostLedger()
        self.stats = SupervisorStats()
        #: crashed nodes the replayed steps saw: name -> summary line
        self.crashed_seen: dict = {}

    def new_report(self) -> SearchReport:
        return SearchReport(self.algorithm, self.system, ledger=self.ledger)

    def action_space(self) -> ActionSpace:
        return self.space

    def search_types(self, message_types: Sequence[str]) -> List[str]:
        return list(message_types)

    def run(self, steps: Plan,
            answer: Callable[[Request], Optional[Probe]]) -> SearchReport:
        report = drive(steps, lambda request: self._replay(request,
                                                           answer(request)))
        report.crashed_nodes = sorted(self.crashed_seen.values())
        report.supervisor.merge(self.stats)
        return report

    def _replay(self, request: Request, probe: Optional[Probe]) -> Probe:
        if probe is None:
            raise SearchError(
                f"parallel probe coverage hole: nothing recorded for "
                f"{request!r}")
        if isinstance(request, (BaselineRequest, ScenarioRequest)):
            # Brute force builds a fresh world per step and reports the
            # crashed nodes of the last one only.
            self.crashed_seen = {}
        replay_trace(self.ledger, self.stats, probe.trace, self.crashed_seen)
        return probe
