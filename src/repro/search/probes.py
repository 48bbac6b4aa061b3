"""The probe vocabulary shared by planners, drivers, workers and the store.

Every search algorithm's pass is written once, as a *planner*: a generator
that yields probe requests and receives each request's outcome.  Two
drivers answer the requests; they differ only in where an outcome comes
from:

* the **live** driver (:meth:`repro.search.base.SearchAlgorithm.run`) runs
  the step on its own harness, under supervision;
* the **recorded** driver (:class:`repro.parallel.merge.RecordedDriver`)
  answers from probes recorded by parallel workers or journaled by the run
  store, replaying each probe's charges into a fresh ledger.

An outcome is the probe record of its request (``StartupProbe`` for
``StartupRequest`` and so on).  Every record carries ``quarantined``
(``(reason, attempts)`` when the supervisor gave up on the step) and, when
it was recorded, the :class:`~repro.parallel.recording.StepTrace` of the
step's charges; the live driver leaves ``trace`` None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Generator, List, Optional,
                    Tuple, Union)

from repro.attacks.actions import AttackScenario, MaliciousAction
from repro.controller.monitor import PerfSample
from repro.controller.supervisor import QuarantinedScenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.recording import StepTrace
    from repro.search.results import SearchReport

#: what a quarantined step collapses to: (reason, attempts)
Quarantine = Optional[Tuple[str, int]]


# ------------------------------------------------------------------ requests

@dataclass(frozen=True)
class StartupRequest:
    """Boot (or reuse) the warm testbed the branching algorithms share."""


@dataclass(frozen=True)
class ContextRequest:
    """Seek the type's injection point and measure its baseline branch."""

    message_type: str


@dataclass(frozen=True)
class EvalRequest:
    """Branch-measure one action against the last acquired context."""

    message_type: str
    action: MaliciousAction


@dataclass(frozen=True)
class BaselineRequest:
    """Brute force's one benign execution."""


@dataclass(frozen=True)
class ScenarioRequest:
    """Brute force's fresh execution of one scenario."""

    scenario: AttackScenario


Request = Union[StartupRequest, ContextRequest, EvalRequest,
                BaselineRequest, ScenarioRequest]


# ------------------------------------------------------------------ outcomes

@dataclass
class StartupProbe:
    trace: Optional["StepTrace"]
    quarantined: Quarantine = None


@dataclass
class ContextProbe:
    """One supervised injection-seek + baseline branch for a type."""

    found: bool
    trace: Optional["StepTrace"]
    quarantined: Quarantine = None


@dataclass
class EvalProbe:
    """One supervised branch-measure of a single action."""

    record: tuple                      # MaliciousAction.to_record()
    baseline: Optional[PerfSample]
    sample: Optional[PerfSample]
    trace: Optional["StepTrace"]
    quarantined: Quarantine = None


@dataclass
class TypeProbe:
    """A type's context and every evaluation a worker recorded for it."""

    message_type: str
    context: ContextProbe
    evals: List[EvalProbe] = field(default_factory=list)


@dataclass
class BaselineProbe:
    """Brute force's one benign execution."""

    sample: Optional[PerfSample]
    trace: Optional["StepTrace"]
    quarantined: Quarantine = None


@dataclass
class ScenarioProbe:
    """One brute-force scenario: fresh execution, run-to-injection, window."""

    record: tuple                      # AttackScenario.to_record()
    injected_at: Optional[float]
    sample: Optional[PerfSample]
    trace: Optional["StepTrace"]
    quarantined: Quarantine = None


Probe = Union[StartupProbe, ContextProbe, EvalProbe, BaselineProbe,
              ScenarioProbe]

#: a planner: yields requests, receives probes, returns the pass's report
Plan = Generator[Request, Probe, "SearchReport"]


# ------------------------------------------------------------------- helpers

def quarantine_entry(message_type: str, action: Optional[MaliciousAction],
                     quarantined: Tuple[str, int]) -> QuarantinedScenario:
    reason, attempts = quarantined
    return QuarantinedScenario(
        message_type, None if action is None else action.to_record(),
        reason=reason, attempts=attempts)


def drive(steps: Plan, fulfil: Callable[[Request], Probe]) -> "SearchReport":
    """Run a planner to completion, answering each request with
    ``fulfil(request)``; returns the report the planner built."""
    outcome = None
    while True:
        try:
            request = steps.send(outcome)
        except StopIteration as done:
            return done.value
        outcome = fulfil(request)
