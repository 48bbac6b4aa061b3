"""Brute-force attack search (Fig. 2(a) of the paper).

The simplest algorithm: obtain a benign baseline once, then for every attack
scenario in the list run a *fresh* execution of the whole system with the
scenario's action installed from the start, and measure the window after the
first injection.  It needs no branching support, but it pays for that
simplicity exactly as the paper describes: executions where the target
message type never appears are entirely wasted, and every scenario re-pays
boot and warmup.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.attacks.actions import AttackScenario
from repro.attacks.space import ActionSpace
from repro.controller.costs import EXECUTION
from repro.controller.harness import AttackHarness
from repro.controller.monitor import AttackThreshold, PerfSample
from repro.search.base import SearchAlgorithm
from repro.search.probes import (BaselineProbe, BaselineRequest, Plan, Probe,
                                 Request, ScenarioProbe, ScenarioRequest,
                                 quarantine_entry)
from repro.search.results import AttackFinding


class BrutePlanner:
    """Brute force's pass: one baseline, then every scenario afresh."""

    algorithm = "brute-force"

    def __init__(self, threshold: AttackThreshold) -> None:
        self.threshold = threshold

    @staticmethod
    def scenarios(space: ActionSpace, types: Sequence[str],
                  exclude: Set[tuple],
                  max_scenarios: Optional[int] = None
                  ) -> List[AttackScenario]:
        """The pass's scenario list, in the order it runs them."""
        scenarios = [s for t in types for s in space.scenarios_for(t)
                     if s.to_record() not in exclude]
        return scenarios if max_scenarios is None \
            else scenarios[:max_scenarios]

    def steps(self, scope, message_types: Optional[Sequence[str]],
              exclude: Set[tuple],
              max_scenarios: Optional[int] = None) -> Plan:
        benign = yield BaselineRequest()
        report = scope.new_report()
        if benign.quarantined is not None:
            report.quarantined.append(
                quarantine_entry("*", None, benign.quarantined))
            return report
        baseline = benign.sample
        threshold = self.threshold
        scenarios = self.scenarios(scope.action_space(),
                                   scope.search_types(message_types),
                                   exclude, max_scenarios)

        for scenario in scenarios:
            outcome = yield ScenarioRequest(scenario)
            if outcome.quarantined is not None:
                report.quarantined.append(quarantine_entry(
                    scenario.message_type, scenario.action,
                    outcome.quarantined))
                continue
            report.scenarios_evaluated += 1
            if outcome.injected_at is None:
                if scenario.message_type not in report.types_without_injection:
                    report.types_without_injection.append(
                        scenario.message_type)
                continue
            report.injection_points += 1

            sample = outcome.sample
            if threshold.is_attack(baseline, sample):
                report.findings.append(AttackFinding(
                    scenario, baseline, sample,
                    damage=threshold.damage(baseline, sample),
                    crashes=sample.crashed_nodes,
                    found_at=report.ledger.total()))
        return report


class BruteForceSearch(SearchAlgorithm):
    """Fresh execution per scenario; no snapshots, no branching."""

    name = BrutePlanner.algorithm

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.planner = BrutePlanner(self.threshold)

    def fulfil(self, request: Request) -> Probe:
        if isinstance(request, BaselineRequest):
            sample, quarantined = self._attempt(
                self.supervisor.run, "baseline", self._baseline_attempt)
            return BaselineProbe(sample, None, quarantined)
        if isinstance(request, ScenarioRequest):
            scenario = request.scenario
            max_wait = (self.max_wait if self.max_wait is not None
                        else AttackHarness.DEFAULT_MAX_WAIT)
            outcome, quarantined = self._attempt(
                lambda: self.supervisor.run(
                    f"scenario:{scenario.message_type}",
                    lambda: self._scenario_attempt(scenario, max_wait),
                    scenario=scenario.describe()))
            injected_at, sample = outcome or (None, None)
            self._progress_tick()
            return ScenarioProbe(scenario.to_record(), injected_at, sample,
                                 None, quarantined)
        return super().fulfil(request)

    def _baseline_attempt(self) -> PerfSample:
        """One benign execution for the baseline.  Each attempt is already
        a full rebuild, so the supervisor retries the callable directly."""
        self.harness = self._fresh_harness()
        self.harness.start_run(take_warm_snapshot=False)
        return self.harness.measure_window()

    def _scenario_attempt(self, scenario, max_wait: float
                          ) -> Tuple[Optional[float], Optional[PerfSample]]:
        # Fresh execution: boot + warmup paid every time.
        self.harness = self._fresh_harness()
        instance = self.harness.start_run(take_warm_snapshot=False)
        instance.proxy.set_policy(scenario.message_type, scenario.action)
        instance.proxy.reset_counters()

        # Run until the action has actually been applied (the injection
        # point), or waste the full execution if the type never occurs.
        deadline = instance.world.kernel.now + max_wait
        injected_at = None
        while instance.world.kernel.now < deadline:
            start = instance.world.kernel.now
            step = min(0.5, deadline - start)
            try:
                instance.world.run_for(step)
            finally:
                self.ledger.charge(
                    EXECUTION, instance.world.kernel.now - start)
            if instance.proxy.first_injection_time is not None:
                injected_at = instance.proxy.first_injection_time
                break
        if injected_at is None:
            return None, None

        # Measure the window from the injection point.
        window_end = injected_at + instance.window
        start = instance.world.kernel.now
        try:
            instance.world.run_until(window_end)
        finally:
            self.ledger.charge(EXECUTION,
                               instance.world.kernel.now - start)
        crashed = len(instance.world.crashed_nodes())
        return injected_at, self.harness.monitor.sample(
            injected_at, window_end, crashed_nodes=crashed)
