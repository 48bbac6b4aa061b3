"""Dynamic greedy attack search (Fig. 2(b), after Gatling).

For each message type the algorithm branches the execution at an attack
injection point, obtains a baseline and the performance for *every*
malicious action, and selects the one causing the largest degradation.
"As an aggressive approach can also make mistakes, higher confidence is
obtained by deciding that a scenario is an attack if it was selected more
than a certain number of times, which in turn requires additional
executions" — the ``rounds``/``confirmations`` parameters.

Its inefficiency, which motivates weighted greedy, is structural: all
actions are always evaluated, so effective-but-not-strongest actions consume
full measurement windows and are then discarded.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.attacks.actions import AttackScenario
from repro.controller.monitor import AttackThreshold
from repro.search.base import SearchAlgorithm, pass_actions
from repro.search.probes import (ContextRequest, EvalRequest, Plan,
                                 StartupRequest, quarantine_entry)
from repro.search.results import AttackFinding


class GreedyPlanner:
    """Greedy's pass: every action, ``rounds`` times; confirm the worst."""

    algorithm = "greedy"

    def __init__(self, threshold: AttackThreshold, rounds: int = 3,
                 confirmations: int = 2) -> None:
        if confirmations > rounds:
            raise ValueError("confirmations cannot exceed rounds")
        self.threshold = threshold
        self.rounds = rounds
        self.confirmations = confirmations

    def steps(self, scope, message_types: Optional[Sequence[str]],
              exclude: Set[tuple]) -> Plan:
        startup = yield StartupRequest()
        report = scope.new_report()
        if startup.quarantined is not None:
            report.quarantined.append(
                quarantine_entry("*", None, startup.quarantined))
            return report
        space = scope.action_space()
        threshold = self.threshold

        for message_type in scope.search_types(message_types):
            actions = pass_actions(space, message_type, exclude)
            if not actions:
                continue

            selections: Dict[tuple, int] = {}
            best_by_action: Dict[tuple, Tuple] = {}
            saw_injection = False
            type_quarantined = False

            for __ in range(self.rounds):
                context = yield ContextRequest(message_type)
                if context.quarantined is not None:
                    report.quarantined.append(quarantine_entry(
                        message_type, None, context.quarantined))
                    type_quarantined = True
                    break
                if not context.found:
                    break
                saw_injection = True
                report.injection_points += 1

                worst_key = None
                worst_damage = -1.0
                for action in actions:
                    outcome = yield EvalRequest(message_type, action)
                    if outcome.quarantined is not None:
                        report.quarantined.append(quarantine_entry(
                            message_type, action, outcome.quarantined))
                        continue
                    baseline, sample = outcome.baseline, outcome.sample
                    report.scenarios_evaluated += 1
                    damage = threshold.damage(baseline, sample)
                    if sample.crashed_nodes > baseline.crashed_nodes:
                        damage = 1.0
                    if damage > worst_damage:
                        worst_damage = damage
                        worst_key = action.to_record()
                        best_by_action[worst_key] = (action, baseline, sample,
                                                     damage)
                if worst_key is not None:
                    selections[worst_key] = selections.get(worst_key, 0) + 1

            if not saw_injection:
                if not type_quarantined:
                    report.types_without_injection.append(message_type)
                continue

            # Confirm the most-selected action if it clears both bars.
            for key, count in sorted(selections.items(),
                                     key=lambda kv: -kv[1]):
                action, baseline, sample, damage = best_by_action[key]
                crashed = sample.crashed_nodes > baseline.crashed_nodes
                if count >= self.confirmations and (
                        crashed or threshold.is_attack(baseline, sample)):
                    report.findings.append(AttackFinding(
                        AttackScenario(message_type, action), baseline,
                        sample, damage=damage, crashes=sample.crashed_nodes,
                        found_at=report.ledger.total(),
                        confirmations=count))
                break  # greedy keeps only the strongest attack per type
        return report


class GreedySearch(SearchAlgorithm):
    """Branch at each injection point; evaluate all actions; pick the worst."""

    name = GreedyPlanner.algorithm

    def __init__(self, *args, rounds: int = 3, confirmations: int = 2,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.planner = GreedyPlanner(self.threshold, rounds, confirmations)
