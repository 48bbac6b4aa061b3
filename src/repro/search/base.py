"""Shared machinery for the attack-finding algorithms: the live driver.

Each algorithm's pass is a planner (see :mod:`repro.search.probes`);
:meth:`SearchAlgorithm.run` is the live driver that answers its requests.
Every step talks to the platform through the supervised helpers here:
:meth:`SearchAlgorithm._start_run`, :meth:`_acquire_context`, and
:meth:`_measure_action` wrap the harness operations in the
:class:`~repro.controller.supervisor.ScenarioSupervisor`'s
classify-retry-quarantine logic, so a transient platform fault (failed
snapshot, watchdog trip, injected fault) costs a bounded retry — with a
fresh testbed rebuild charged to the ``rebuild`` ledger category — instead
of aborting the whole pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.attacks.actions import AttackScenario, MaliciousAction
from repro.attacks.space import ActionSpace, ActionSpaceConfig
from repro.common.errors import ProxyError, SearchError
from repro.controller.costs import REBUILD, CostLedger
from repro.controller.harness import (AttackHarness, InjectionPoint,
                                      TestbedFactory)
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.controller.supervisor import (FaultPlan, ScenarioQuarantined,
                                         ScenarioSupervisor)
from repro.search.probes import (ContextProbe, ContextRequest, EvalProbe,
                                 EvalRequest, Plan, Probe, Request,
                                 StartupProbe, StartupRequest, drive)
from repro.search.results import SearchReport
from repro.telemetry.progress import ProgressLine
from repro.telemetry.summary import summarize
from repro.telemetry.tracer import NULL_SPAN, Tracer


def is_attack_sample(threshold: AttackThreshold, baseline: PerfSample,
                     sample: PerfSample) -> bool:
    """The branch-and-measure attack rule shared by weighted greedy and the
    parallel prober: a crash of an additional benign node is always an
    attack, otherwise the damage threshold decides.  Keeping it in one
    place is what lets a worker's early stop mirror the serial walk."""
    return (sample.crashed_nodes > baseline.crashed_nodes
            or threshold.is_attack(baseline, sample))


def pass_actions(space: ActionSpace, message_type: str,
                 exclude: Set[tuple]) -> List[MaliciousAction]:
    """The type's actions a branching pass evaluates: every action whose
    scenario an earlier hunt pass has not already found."""
    return [a for a in space.actions_for(message_type)
            if AttackScenario(message_type, a).to_record() not in exclude]


@dataclass
class TypeContext:
    """Everything needed to branch one message type: injection + baseline.

    ``stale`` flips to True when the testbed was rebuilt underneath us (the
    old snapshot belongs to a dead world); the next supervised measurement
    transparently re-acquires the injection point and baseline.
    """

    message_type: str
    injection: InjectionPoint
    baseline: PerfSample
    stale: bool = False


class SearchAlgorithm:
    """Base class: holds the harness and the report, and drives a planner.

    Subclasses set :attr:`planner`; :meth:`run` drives its ``steps`` live.
    The methods :meth:`new_report`, :meth:`search_types` and
    :meth:`action_space` are the scope a planner reads from its driver.
    """

    name = "search"
    #: the algorithm's planner (None: this instance only runs steps, as the
    #: parallel prober's does)
    planner = None

    def __init__(self, factory: TestbedFactory, seed: int = 0,
                 threshold: Optional[AttackThreshold] = None,
                 space_config: Optional[ActionSpaceConfig] = None,
                 max_wait: Optional[float] = None,
                 shared_pages: bool = True,
                 delta_snapshots: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 fault_schedule=None,
                 watchdog_limit: Optional[int] = None,
                 max_retries: int = 2,
                 tracer: Optional[Tracer] = None,
                 progress: Optional[ProgressLine] = None,
                 log_events: bool = False,
                 injection_cache: bool = False,
                 reuse_testbed: bool = False,
                 ledger: Optional[CostLedger] = None,
                 snapshot_budget=None) -> None:
        self.factory = factory
        self.seed = seed
        self.threshold = threshold or AttackThreshold()
        self.space_config = space_config
        self.max_wait = max_wait
        self.shared_pages = shared_pages
        self.delta_snapshots = delta_snapshots
        self.fault_plan = fault_plan
        #: environmental FaultSchedule armed on every testbed (chaos layer)
        self.fault_schedule = fault_schedule
        self.watchdog_limit = watchdog_limit
        #: platform-side tracer shared with the harness (None: no tracing)
        self.tracer = tracer
        #: where this run's spans start in a (possibly shared) tracer
        self._span_mark = tracer.mark() if tracer is not None else 0
        self.progress = progress or ProgressLine()
        self.log_events = log_events
        #: memoize injection points against the warm snapshot (see
        #: AttackHarness.cached_injection); later passes of a hunt restore
        #: the cached branch snapshot instead of re-seeking
        self.injection_cache = injection_cache
        #: byte budget (a :class:`~repro.store.budget.SnapshotBudget`)
        #: bounding the injection-point snapshot cache; None = unbounded
        self.snapshot_budget = snapshot_budget
        #: keep the booted testbed across run() calls instead of re-booting
        #: every pass — the enabler for cross-pass injection-cache hits
        self.reuse_testbed = reuse_testbed
        self.ledger = ledger if ledger is not None else CostLedger()
        #: crashed nodes observed during this pass: name -> summary line
        self._crashed_seen: dict = {}
        #: the context the planner's evaluations branch from (the last one
        #: acquired; later types replace it)
        self._ctx: Optional[TypeContext] = None
        self.harness = self._fresh_harness()
        self.supervisor = ScenarioSupervisor(self.ledger,
                                             max_retries=max_retries)
        #: the in-progress (or last finished) report — lets a caller print
        #: partial results after a KeyboardInterrupt
        self.report: Optional[SearchReport] = None

    # --------------------------------------------------------------- helpers

    def _fresh_harness(self) -> AttackHarness:
        return AttackHarness(self.factory, self.seed, self.threshold,
                             shared_pages=self.shared_pages,
                             delta_snapshots=self.delta_snapshots,
                             ledger=self.ledger,
                             fault_plan=self.fault_plan,
                             fault_schedule=self.fault_schedule,
                             watchdog_limit=self.watchdog_limit,
                             tracer=self.tracer,
                             log_events=self.log_events,
                             injection_cache=self.injection_cache,
                             snapshot_budget=self.snapshot_budget)

    def _note_crashes(self) -> None:
        """Record every currently crashed node (with its cause) so the
        report can surface a hunt that silently lost a replica."""
        instance = self.harness.instance
        if instance is None:
            return
        for line in instance.world.crashed_node_summaries():
            name = line.split(" ", 1)[0]
            self._crashed_seen[name] = line

    def _span(self, name: str, **args):
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer.span(name, **args)
        return NULL_SPAN

    def _progress_tick(self) -> None:
        """Refresh the live status line (no-op unless progress is enabled)."""
        progress = self.progress
        if not progress.enabled:
            return
        report = self.report
        evaluated = report.scenarios_evaluated if report is not None else 0
        found = len(report.findings) if report is not None else 0
        stats = self.supervisor.stats
        total = self.ledger.total()
        share = self.ledger.snapshot_total() / total if total else 0.0
        text = (f"{evaluated} scenarios · {found} attacks · "
                f"{stats.retries} retries · {stats.quarantines} quarantined"
                f" · snapshots {share:.0%} of platform time")
        progress.update(text)

    def new_report(self) -> SearchReport:
        instance = self.harness.instance
        system = instance.name if instance is not None else "unknown"
        report = SearchReport(self.name, system, ledger=self.ledger)
        self._crashed_seen = {}
        self.report = report
        return report

    def _finalize_report(self, report: SearchReport) -> SearchReport:
        self._note_crashes()
        report.crashed_nodes = sorted(self._crashed_seen.values())
        report.supervisor.merge(self.supervisor.stats)
        self.supervisor.stats = type(self.supervisor.stats)()
        if self.tracer is not None and self.tracer.enabled:
            world = (self.harness.instance.world
                     if self.harness.instance is not None else None)
            report.telemetry = summarize(
                self.tracer,
                world.instruments if world is not None else None,
                since=self._span_mark)
        return report

    def action_space(self) -> ActionSpace:
        return ActionSpace(self.harness.instance.schema, self.space_config)

    def search_types(self,
                     message_types: Optional[Sequence[str]]) -> List[str]:
        if message_types is not None:
            return list(message_types)
        return self.harness.instance.search_types()

    # ------------------------------------------------------ supervised plane

    def _start_run(self) -> None:
        """Boot (or re-boot) the testbed under supervision.

        With ``reuse_testbed`` a warm testbed from a previous run() is kept
        alive: later hunt passes skip boot+warmup entirely and their
        injection-point cache entries stay valid.
        """
        if (self.reuse_testbed and self.harness.instance is not None
                and self.harness.warm_snapshot is not None):
            return
        self.supervisor.run("start_run", self.harness.start_run)

    def _rebuild_testbed(self) -> None:
        """Replace the testbed with a fresh build of the same factory+seed.

        All platform time the rebuild consumes (boot, warmup execution,
        warm snapshot) is reattributed to the ledger's ``rebuild`` category
        via a temporary sub-ledger.
        """
        sub = CostLedger()
        self.harness.ledger = sub
        try:
            self.harness.start_run()
        finally:
            self.harness.ledger = self.ledger
            self.ledger.charge(REBUILD, sub.total())

    def _seek_injection(self, message_type: str) -> Optional[InjectionPoint]:
        """Rewind to the warm state and run until the type is intercepted.

        A cached injection point (``injection_cache``) skips the rewind and
        the seek entirely: ``branch_measure`` restores the cached branch
        snapshot itself, so no execution or snapshot time is re-charged.
        """
        cached = self.harness.cached_injection(message_type)
        if cached is not None:
            return cached
        # A budget-evicted entry is a *capacity* miss: rebuild it from the
        # warm state with every charge routed to the budget's side-channel
        # ledger, so the report ledger matches an unbudgeted run's exactly.
        rebuilt = self.harness.rebuild_injection(message_type,
                                                 max_wait=self.max_wait)
        if rebuilt is not None:
            return rebuilt
        self.harness.restore(self.harness.warm_snapshot)
        self.harness.proxy.clear_policy()
        return self.harness.run_to_injection(message_type,
                                             max_wait=self.max_wait)

    def _acquire_context(self, message_type: str) -> Optional[TypeContext]:
        """Supervised injection-seek plus baseline branch.

        Returns None when the type never appears within ``max_wait`` (an
        honest no-injection-point outcome, charged as wasted execution).
        Raises :class:`ScenarioQuarantined` when persistent platform faults
        prevented the platform from even finding out.
        """
        def attempt() -> Optional[TypeContext]:
            injection = self._seek_injection(message_type)
            if injection is None:
                return None
            baseline = self.harness.branch_measure(injection, None)
            return TypeContext(message_type, injection, baseline)

        result = self.supervisor.run(f"injection:{message_type}", attempt,
                                     rebuild=self._rebuild_testbed,
                                     scenario=message_type)
        self._note_crashes()
        self._progress_tick()
        return result

    def _refresh_context(self, ctx: TypeContext) -> None:
        """Re-acquire a context after the testbed was rebuilt."""
        injection = self._seek_injection(ctx.message_type)
        if injection is None:
            # Deterministic worlds reproduce their injection points; losing
            # one after a rebuild is itself a (transient) platform anomaly.
            raise ProxyError(
                f"injection point for {ctx.message_type} lost after rebuild")
        ctx.injection = injection
        ctx.baseline = self.harness.branch_measure(injection, None)
        ctx.stale = False

    def _measure_action(self, ctx: TypeContext,
                        action: Optional[MaliciousAction]) -> PerfSample:
        """Supervised branch-measure of one action against ``ctx``.

        Transparently re-acquires the injection point and baseline when a
        retry rebuilt the testbed.  Raises :class:`ScenarioQuarantined`
        after persistent failures.
        """
        def attempt() -> PerfSample:
            if ctx.stale:
                self._refresh_context(ctx)
            return self.harness.branch_measure(ctx.injection, action)

        def rebuild() -> None:
            self._rebuild_testbed()
            ctx.stale = True

        label = (f"{ctx.message_type}"
                 if action is None
                 else f"{action.describe()} {ctx.message_type}")
        with self._span("search.scenario", message_type=ctx.message_type,
                        scenario=label) as span:
            sample = self.supervisor.run(f"branch:{ctx.message_type}",
                                         attempt, rebuild=rebuild,
                                         scenario=label)
            span.set(throughput=sample.throughput,
                     crashed=sample.crashed_nodes)
        self._note_crashes()
        self._progress_tick()
        return sample

    @staticmethod
    def _attempt(step, *args) -> tuple:
        """Run a supervised step: ``(result, None)``, or ``(None,
        (reason, attempts))`` when the supervisor quarantined it."""
        try:
            return step(*args), None
        except ScenarioQuarantined as quarantined:
            return None, (str(quarantined.cause), quarantined.attempts)

    def fulfil(self, request: Request) -> Probe:
        """The live driver's answer to one planner request: run the step
        on this search's harness.  The parallel prober records the same
        call, so a recorded probe is exactly what this returns live."""
        if isinstance(request, EvalRequest):
            ctx = self._ctx
            sample, quarantined = self._attempt(self._measure_action, ctx,
                                                request.action)
            # Read the baseline *after* the measurement: a mid-step rebuild
            # refreshes ctx.baseline, and damage is computed against the
            # same world the sample saw.
            return EvalProbe(request.action.to_record(),
                             ctx.baseline if quarantined is None else None,
                             sample, None, quarantined)
        if isinstance(request, ContextRequest):
            self._ctx, quarantined = self._attempt(self._acquire_context,
                                                   request.message_type)
            return ContextProbe(self._ctx is not None, None, quarantined)
        if isinstance(request, StartupRequest):
            __, quarantined = self._attempt(self._start_run)
            return StartupProbe(None, quarantined)
        raise SearchError(f"{self.name} cannot fulfil {request!r}")

    # ------------------------------------------------------------------ run

    def _begin_run(self) -> None:
        """Reset per-run state before a pass starts.

        Two leaks this guards against:

        * a pass aborted mid-run (KeyboardInterrupt, quarantine storm)
          would otherwise carry its retry/quarantine counters into the
          next pass's report, double-counting them — ``supervisor.stats``
          used to be reset only in :meth:`_finalize_report`;
        * with ``reuse_testbed`` the same search instance runs several
          passes, so each run needs a fresh ledger (rebound on the harness
          and supervisor) and its own span mark.
        """
        if self.ledger.by_category:
            self.ledger = CostLedger()
            self.harness.ledger = self.ledger
            self.supervisor.ledger = self.ledger
        self.supervisor.stats = type(self.supervisor.stats)()
        if self.tracer is not None:
            self._span_mark = self.tracer.mark()

    def run(self, message_types: Optional[Sequence[str]] = None,
            exclude: Optional[Set[tuple]] = None,
            **kwargs) -> SearchReport:
        """The live driver: one ``search.pass`` span around the planner.

        ``kwargs`` go to the planner (brute force takes ``max_scenarios``).
        While the pass runs, :attr:`report` is its partial report.
        """
        self._begin_run()
        steps: Plan = self.planner.steps(self, message_types,
                                         exclude or set(), **kwargs)
        try:
            with self._span("search.pass", algorithm=self.name) as span:
                report = drive(steps, self.fulfil)
                span.set(findings=len(report.findings),
                         scenarios=report.scenarios_evaluated)
        finally:
            self._ctx = None
        # Summarize after the pass span has closed, so the report's
        # telemetry includes it.
        return self._finalize_report(report)
