"""Weighted greedy attack search — the paper's new algorithm (Fig. 2(c)).

Observations it builds on:

* certain *categories* of malicious action are effective regardless of
  message type, so actions are clustered (delay, drop, duplicate, divert,
  boundary lies, relative lies, random lies) and clusters carry weights;
* the user ultimately wants *all* attacks, not the strongest one first, so
  time-to-find matters more than ordering.

The algorithm tries actions in descending cluster weight and **stops the
moment it encounters an action whose performance damage exceeds Δ**,
reporting it as an attack and bumping the cluster's weight so later message
types try that category sooner.  Only when no action clears Δ does it fall
back to greedy behaviour and evaluate everything, keeping the worst.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.attacks.actions import (CLUSTER_DELAY, CLUSTER_DIVERT,
                                   CLUSTER_DROP, CLUSTER_DUPLICATE,
                                   CLUSTER_LIE_BOUNDARY, CLUSTER_LIE_RANDOM,
                                   CLUSTER_LIE_RELATIVE, AttackScenario,
                                   MaliciousAction)
from repro.controller.monitor import AttackThreshold
from repro.search.base import SearchAlgorithm, is_attack_sample, pass_actions
from repro.search.probes import (ContextRequest, EvalProbe, EvalRequest,
                                 Plan, StartupRequest, quarantine_entry)
from repro.search.results import AttackFinding

#: Preloaded cluster weights.  "The weight of each cluster can be preloaded"
#: — these reflect the prior the paper's authors accumulated: delivery
#: timing attacks (delay/drop) are the most broadly effective, duplication
#: next, boundary-value lies find crashes, diversion and arbitrary lies
#: rarely beat them.
DEFAULT_WEIGHTS: Dict[str, float] = {
    CLUSTER_DELAY: 1.00,
    CLUSTER_DROP: 0.90,
    CLUSTER_DUPLICATE: 0.80,
    CLUSTER_LIE_BOUNDARY: 0.70,
    CLUSTER_LIE_RELATIVE: 0.50,
    CLUSTER_DIVERT: 0.40,
    CLUSTER_LIE_RANDOM: 0.30,
}

#: weight bump applied to a cluster whose action was confirmed as an attack
WEIGHT_BUMP = 0.25


@dataclass
class ClusterWeights:
    """Mutable cluster weights with the learning rule."""

    weights: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_WEIGHTS))

    def weight(self, cluster: str) -> float:
        return self.weights.get(cluster, 0.1)

    def bump(self, cluster: str, amount: float = WEIGHT_BUMP) -> None:
        self.weights[cluster] = self.weight(cluster) + amount

    def order_actions(self, actions: Sequence[MaliciousAction]
                      ) -> List[MaliciousAction]:
        """Stable sort: descending cluster weight, enumeration order within."""
        indexed = list(enumerate(actions))
        indexed.sort(key=lambda pair: (-self.weight(pair[1].cluster), pair[0]))
        return [action for __, action in indexed]


def probe_frontier(actions: Sequence[MaliciousAction],
                   threshold: AttackThreshold,
                   probe: Callable[[MaliciousAction], Optional[EvalProbe]],
                   early_stop: bool = True) -> bool:
    """Probe every action a pass over ``actions`` can visit, whatever the
    cluster weights; False as soon as ``probe`` has no answer (None).

    With ``early_stop`` (weighted greedy) that is each cluster in
    enumeration order up to its first non-quarantined attack: the
    weight-ordered walk can never need an action past that attack, because
    it would have stopped there first, and quarantined evaluations stop
    neither walk.  Without it (greedy) it is every action.  The parallel
    prober probes this frontier; the run store checks its journal covers it.
    """
    # one walk per cluster with early stop, one walk over everything without
    walks: Dict[str, List[MaliciousAction]] = {}
    for action in actions:
        walks.setdefault(action.cluster if early_stop else "*",
                         []).append(action)
    for walk in walks.values():
        for action in walk:
            outcome = probe(action)
            if outcome is None:
                return False
            if (early_stop and outcome.quarantined is None
                    and is_attack_sample(threshold, outcome.baseline,
                                         outcome.sample)):
                break
    return True


class WeightedPlanner:
    """Weighted greedy's pass: cluster-weighted order, early stop."""

    algorithm = "weighted-greedy"

    def __init__(self, threshold: AttackThreshold,
                 weights: ClusterWeights) -> None:
        self.threshold = threshold
        #: mutated as the pass learns (one bump per finding, in order)
        self.weights = weights

    def steps(self, scope, message_types: Optional[Sequence[str]],
              exclude: Set[tuple]) -> Plan:
        startup = yield StartupRequest()
        report = scope.new_report()
        if startup.quarantined is not None:
            # The platform could not even produce a warm testbed; report an
            # empty (but intact) pass rather than killing the hunt.
            report.quarantined.append(
                quarantine_entry("*", None, startup.quarantined))
            return report
        space = scope.action_space()
        threshold = self.threshold

        for message_type in scope.search_types(message_types):
            actions = pass_actions(space, message_type, exclude)
            if not actions:
                continue
            context = yield ContextRequest(message_type)
            if context.quarantined is not None:
                report.quarantined.append(quarantine_entry(
                    message_type, None, context.quarantined))
                continue
            if not context.found:
                report.types_without_injection.append(message_type)
                continue
            report.injection_points += 1

            worst: Optional[AttackFinding] = None
            found = False
            for action in self.weights.order_actions(actions):
                outcome = yield EvalRequest(message_type, action)
                if outcome.quarantined is not None:
                    report.quarantined.append(quarantine_entry(
                        message_type, action, outcome.quarantined))
                    continue
                report.scenarios_evaluated += 1
                baseline, sample = outcome.baseline, outcome.sample
                damage = threshold.damage(baseline, sample)
                crashed = sample.crashed_nodes > baseline.crashed_nodes
                finding = AttackFinding(
                    AttackScenario(message_type, action), baseline, sample,
                    damage=1.0 if crashed else damage,
                    crashes=sample.crashed_nodes,
                    found_at=report.ledger.total())
                if is_attack_sample(threshold, baseline, sample):
                    # Stop immediately: this action is an attack.  Learn.
                    self.weights.bump(action.cluster)
                    report.findings.append(finding)
                    found = True
                    break
                if worst is None or finding.damage > worst.damage:
                    worst = finding
            if not found and worst is not None:
                # No action cleared Δ: all actions were evaluated and the
                # worst is chosen (greedy fallback), but it is recorded as a
                # weak selection, not a confirmed attack.
                worst.found_at = report.ledger.total()
                report.weak_selections.append(worst)
        return report


class WeightedGreedySearch(SearchAlgorithm):
    """Cluster-weighted ordering with early stop on the first attack found."""

    name = WeightedPlanner.algorithm

    def __init__(self, *args, weights: Optional[ClusterWeights] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.weights = weights or ClusterWeights()
        self.planner = WeightedPlanner(self.threshold, self.weights)
