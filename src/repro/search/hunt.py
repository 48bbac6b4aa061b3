"""The full hunt: repeat weighted-greedy passes until no attacks remain.

Section III-B: "the user will repeat the attack finding process again after
finding the strongest attack — until the method does not find any more
attacks."  :func:`hunt` automates that loop: each pass excludes every
scenario already found, and the hunt stops when a pass finds nothing new
(or the pass budget runs out).

Long campaigns are supervised and resumable:

* every pass runs under the search stack's classify-retry-quarantine
  supervision (see :mod:`repro.controller.supervisor`), optionally with a
  deterministic :class:`~repro.controller.supervisor.FaultPlan` injected and
  a kernel watchdog armed;
* with ``store_dir`` set, every completed probe is journaled and the
  excluded scenarios, cluster weights, ledger, and completed passes are
  checkpointed after every pass (see :mod:`repro.store.runstore`); a new
  hunt pointed at the same directory picks an interrupted campaign back up,
  reproducing exactly what an uninterrupted hunt would have found;
* a ``KeyboardInterrupt`` mid-pass returns the partial result (with
  ``interrupted=True``) after writing a final checkpoint to the store
  instead of propagating a bare traceback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import ConfigError, SearchError
from repro.common.logging import LogRecord
from repro.controller.costs import CostLedger
from repro.controller.harness import TestbedFactory
from repro.controller.monitor import AttackThreshold
from repro.controller.supervisor import (FaultPlan, QuarantinedScenario,
                                         SupervisorStats)
from repro.faults.schedule import FaultSchedule
from repro.faults.validation import ValidationReport
from repro.search.results import AttackFinding, SearchReport
from repro.search.weighted import ClusterWeights, WeightedGreedySearch
from repro.telemetry.progress import ProgressLine
from repro.telemetry.summary import TelemetrySummary, summarize
from repro.telemetry.tracer import Tracer, maybe_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.health import HealthPolicy, WorkerHealthReport
    from repro.store.budget import StoreReport

#: version of the run store's pass-level checkpoint; v2 adds
#: ``written_at_pass`` (how many passes the writer had completed) and v1
#: checkpoints migrate forward transparently
CHECKPOINT_VERSION = 2


@dataclass
class HuntResult:
    """Everything a multi-pass hunt produced."""

    passes: List[SearchReport] = field(default_factory=list)
    findings: List[AttackFinding] = field(default_factory=list)
    total_ledger: CostLedger = field(default_factory=CostLedger)
    #: scenarios set aside as inconclusive across all passes
    quarantined: List[QuarantinedScenario] = field(default_factory=list)
    #: aggregated supervision counters across all passes
    supervisor: SupervisorStats = field(default_factory=SupervisorStats)
    #: True when a KeyboardInterrupt cut the campaign short
    interrupted: bool = False
    #: passes restored rather than executed; a store-resumed hunt reports
    #: restoration through ``store_report`` and keeps this 0, so its bytes
    #: match the uninterrupted hunt's
    resumed_passes: int = 0
    #: merged telemetry across all executed passes (None: telemetry off)
    telemetry: Optional[TelemetrySummary] = None
    #: EventLog records gathered from each pass's world (``log_events``)
    event_log: List[LogRecord] = field(default_factory=list)
    #: robustness validation of the findings (None unless requested)
    validation: Optional[ValidationReport] = None
    #: per-worker time attribution when the hunt ran with ``workers > 1``
    #: (side channel only — never serialized; the main result is
    #: byte-identical to a serial hunt's)
    worker_breakdown: Optional[list] = None
    #: what the self-healing layer did across the whole hunt (side channel
    #: too — never serialized into the deterministic result; None when the
    #: hunt was serial, ``eventful`` when any worker misbehaved)
    worker_health: Optional["WorkerHealthReport"] = None
    #: forensic explanations of the findings (side channel as well:
    #: computed post-merge with ``explain=True``, never serialized — the
    #: result JSON is byte-identical with forensics on or off)
    explanations: Optional[list] = None
    #: what the durable store and snapshot budgets did (side channel: an
    #: interrupted-and-resumed hunt differs from an uninterrupted one here,
    #: so serializing it would break the byte-identity contract)
    store_report: Optional["StoreReport"] = None

    def crashed_nodes(self) -> List[str]:
        """Union of crashed-node summaries across every pass."""
        seen = {}
        for report in self.passes:
            for line in report.crashed_nodes:
                seen[line.split(" ", 1)[0]] = line
        return sorted(seen.values())

    @property
    def total_time(self) -> float:
        return self.total_ledger.total()

    def attack_names(self) -> List[str]:
        return [f.name for f in self.findings]

    def describe(self) -> str:
        status = " (INTERRUPTED)" if self.interrupted else ""
        lines = [f"hunt: {len(self.findings)} attacks over "
                 f"{len(self.passes)} passes, "
                 f"platform time {self.total_time:.1f}s{status}"]
        for i, report in enumerate(self.passes, start=1):
            names = ", ".join(report.attack_names()) or "(nothing new)"
            lines.append(f"  pass {i}: {names}")
        crashed = self.crashed_nodes()
        if crashed:
            lines.append(f"  crashed nodes: {', '.join(crashed)}")
        if self.supervisor.total_events:
            lines.append("  " + self.supervisor.describe())
        for q in self.quarantined:
            lines.append("  " + q.describe())
        if self.telemetry is not None:
            lines.append("  " + self.telemetry.one_line())
        if self.worker_health is not None and self.worker_health.eventful:
            lines.append("  " + self.worker_health.one_line())
        if self.store_report is not None and self.store_report.eventful:
            lines.append("  " + self.store_report.one_line())
        if self.explanations:
            lines.extend("  " + e.one_line() for e in self.explanations)
        if self.validation is not None:
            lines.extend("  " + line
                         for line in self.validation.describe().splitlines())
        return "\n".join(lines)


# ------------------------------------------------------------- checkpointing

def _checkpoint_dict(system: str, seed: int, excluded: Set[tuple],
                     weights: ClusterWeights,
                     result: HuntResult) -> Dict:
    from repro.analysis.reports import record_to_jsonable, report_to_dict
    return {
        "version": CHECKPOINT_VERSION,
        "system": system,
        "seed": seed,
        "excluded": [record_to_jsonable(r) for r in sorted(excluded)],
        "weights": dict(weights.weights),
        "ledger": dict(result.total_ledger.by_category),
        "passes": [report_to_dict(p) for p in result.passes],
        "written_at_pass": len(result.passes),
        "complete": bool(result.passes) and not result.passes[-1].findings,
    }


def migrate_checkpoint(data: Dict, origin: str = "checkpoint") -> Dict:
    """Bring an older checkpoint forward to the current schema."""
    version = data.get("version")
    if version == 1:
        data = dict(data)
        data["version"] = 2
        data["written_at_pass"] = len(data.get("passes", []))
        return data
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{origin} has version {version!r}; "
                          f"this build reads versions 1-{CHECKPOINT_VERSION}")
    return data


def _restore_from_checkpoint(data: Dict, seed: int,
                             excluded: Set[tuple],
                             weights: ClusterWeights,
                             result: HuntResult) -> int:
    """Load a store checkpoint into the hunt state; returns how many
    completed passes it restored."""
    from repro.analysis.reports import record_from_jsonable, report_from_dict
    if data["seed"] != seed:
        raise ConfigError(
            f"checkpoint was written by a hunt with seed {data['seed']}, "
            f"cannot resume with seed {seed}")
    excluded.update(tuple(record_from_jsonable(r)) for r in data["excluded"])
    weights.weights = dict(data["weights"])
    result.total_ledger = CostLedger(dict(data["ledger"]))
    for report_data in data["passes"]:
        report = report_from_dict(report_data)
        result.passes.append(report)
        result.findings.extend(report.findings)
        result.quarantined.extend(report.quarantined)
        result.supervisor.merge(report.supervisor)
        if report.telemetry is not None:
            if result.telemetry is None:
                result.telemetry = TelemetrySummary()
            result.telemetry.merge(report.telemetry)
    return len(result.passes)


# --------------------------------------------------------------------- hunt

def hunt(factory: TestbedFactory, seed: int = 0,
         message_types: Optional[Sequence[str]] = None,
         threshold: Optional[AttackThreshold] = None,
         space_config: Optional[ActionSpaceConfig] = None,
         max_passes: int = 5,
         max_wait: Optional[float] = None,
         exclude: Optional[Set[tuple]] = None,
         shared_pages: bool = True,
         delta_snapshots: bool = False,
         fault_plan: Optional[FaultPlan] = None,
         fault_schedule: Optional[FaultSchedule] = None,
         watchdog_limit: Optional[int] = None,
         max_retries: int = 2,
         tracer: Optional[Tracer] = None,
         progress: Optional[ProgressLine] = None,
         log_events: bool = False,
         workers: int = 1,
         injection_cache: bool = False,
         health_policy: Optional["HealthPolicy"] = None,
         explain: bool = False,
         store_dir: Optional[str] = None,
         snapshot_budget: Optional[int] = None) -> HuntResult:
    """Run weighted-greedy passes until a pass finds nothing new.

    The cluster weights persist across passes, so what pass 1 learned about
    effective action categories speeds up pass 2.

    Observability: ``tracer`` wraps each pass in a ``hunt.pass`` span and
    merges per-pass telemetry summaries into ``result.telemetry``;
    ``progress`` gets a ``pass N/M`` prefix and live updates from the pass;
    ``log_events`` enables each pass's world EventLog, whose records are
    collected into ``result.event_log``.

    ``workers > 1`` shards each pass's message types across a persistent
    pool (see :class:`~repro.parallel.executor.ScenarioExecutor`); the
    result — reports, ledger, store checkpoints — is byte-identical to a
    serial hunt's, with the real per-worker spend in
    ``result.worker_breakdown``.
    ``injection_cache`` keeps one testbed (and its injection-point
    snapshots) alive across passes, so pass 2+ skips boot, warmup, and
    every injection seek.  The two are mutually exclusive: the cache
    changes what later passes charge, while the parallel merge's contract
    is to reproduce the cache-less serial ledger exactly.

    ``health_policy`` tunes the pool's self-healing (task deadlines, the
    per-worker restart budget, degrade-on-collapse — see
    :class:`~repro.parallel.health.HealthPolicy`); crash recovery replays
    tasks deterministically, so the byte-identity contract holds even when
    workers die mid-pass.  A pass that still aborts (``SearchError``, e.g.
    a pool collapse under ``degrade=False``) checkpoints the completed
    passes to the store first, so rerunning with the same ``store_dir``
    salvages them.

    ``explain=True`` computes a forensic
    :class:`~repro.forensics.explain.AttackExplanation` for every finding
    after the hunt converges (post-merge, on a dedicated testbed with a
    private ledger), into ``result.explanations`` — a side channel the
    serialized result never includes, so the hunt JSON stays byte-
    identical with forensics on or off, serial or parallel.

    ``store_dir`` makes the campaign **durable**: every completed probe is
    committed to a write-ahead journal (CRC32 + fsync) and the pass-level
    state to generation-swapped checkpoints in that directory (see
    :mod:`repro.store.runstore`).  A hunt killed at any instant — even
    ``SIGKILL`` mid-pass — resumes by pointing a new hunt at the same
    directory: journaled probes replay from disk (skipping completed
    scenarios *mid-pass*), everything else re-simulates, and the final
    result is byte-identical to the uninterrupted run's, serial or
    parallel.  Resume activity is reported through ``result.store_report``
    (a side channel) rather than ``resumed_passes``, which the
    byte-identity contract pins to 0.

    ``snapshot_budget`` bounds snapshot-cache memory (bytes): with
    ``injection_cache`` it caps the harness's injection-point snapshots,
    and with ``workers``/``store_dir`` it caps each prober's retained
    per-type contexts.  Eviction is LRU and deterministic; an evicted
    entry rebuilds from the warm snapshot with the platform time charged
    to the budget's side-channel ledger, so the report stays
    byte-identical to an unbudgeted run's.
    """
    if store_dir is not None and fault_plan is not None:
        raise ConfigError(
            "--store cannot run under a FaultPlan: the plan's fault stream "
            "is sequence-dependent, so a resumed hunt that skips journaled "
            "work would fault different operations than the original")
    if store_dir is not None and injection_cache:
        raise ConfigError(
            "--store and injection_cache are mutually exclusive: cached "
            "passes charge less than the serial ledger the store's replay "
            "reproduces")
    if snapshot_budget is not None and not (
            injection_cache or store_dir is not None or workers > 1):
        raise ConfigError(
            "--snapshot-budget needs a snapshot cache to bound: combine it "
            "with --injection-cache, --store, or --workers")
    if workers > 1 and fault_plan is not None:
        raise ConfigError(
            "workers > 1 cannot run under a FaultPlan: the plan's fault "
            "stream is sequence-dependent, so sharding would change which "
            "operations fault (FaultSchedule chaos is supported)")
    if workers > 1 and injection_cache:
        raise ConfigError(
            "workers > 1 and injection_cache are mutually exclusive: "
            "cached passes charge less than the serial ledger the "
            "parallel merge reproduces")
    if workers == 1 and health_policy is not None:
        raise ConfigError(
            "worker health options (--worker-timeout/--worker-retries/"
            "--no-degrade) require workers > 1: a serial hunt has no "
            "worker pool to heal")
    result = HuntResult()
    progress = progress or ProgressLine()
    excluded: Set[tuple] = set(exclude or ())
    weights = ClusterWeights()
    system = "unknown"

    def attach_explanations() -> None:
        # Post-merge forensics: the finding list is already identical
        # across worker counts, so explaining it on a dedicated serial
        # harness yields worker-invariant explanations.
        if not explain or not result.findings or result.interrupted:
            return
        from repro.forensics.explain import explain_findings
        result.explanations = explain_findings(
            factory, result.findings, seed=seed, threshold=threshold,
            max_wait=max_wait, fault_schedule=fault_schedule,
            shared_pages=shared_pages, delta_snapshots=delta_snapshots,
            watchdog_limit=watchdog_limit)

    store = None
    budget = None
    start_pass = 0
    if snapshot_budget is not None and injection_cache:
        from repro.store.budget import SnapshotBudget
        budget = SnapshotBudget(snapshot_budget)
    if store_dir is not None:
        from repro.store.budget import StoreReport
        from repro.store.runstore import RunStore
        store = RunStore(store_dir, seed=seed)
        data = store.load_checkpoint()
        if data is not None:
            data = migrate_checkpoint(data, origin=f"store {store_dir}")
            start_pass = _restore_from_checkpoint(data, seed, excluded,
                                                  weights, result)
            system = data["system"]
            store.note_passes_restored(start_pass)
            if data.get("complete"):
                # Campaign already converged; nothing to redo (but the
                # restored findings can still be explained on request).
                attach_explanations()
                report = StoreReport()
                report.merge_counters(store.counters())
                result.store_report = report
                store.close()
                return result

    executor = None
    search: Optional[WeightedGreedySearch] = None
    if workers > 1 or store is not None:
        # The store always routes through the executor — at workers=1 an
        # in-process prober whose merged report is byte-identical to the
        # serial algorithm's — because the prober's probe granularity is
        # what the journal records and replays.
        from repro.parallel.executor import ScenarioExecutor
        executor = ScenarioExecutor(
            factory, seed=seed, algorithm="weighted", workers=workers,
            threshold=threshold, space_config=space_config,
            max_wait=max_wait, shared_pages=shared_pages,
            delta_snapshots=delta_snapshots, fault_schedule=fault_schedule,
            watchdog_limit=watchdog_limit, max_retries=max_retries,
            tracer=tracer, log_events=log_events, health=health_policy,
            store=store, snapshot_budget=snapshot_budget)

    def collect_world_output() -> None:
        if not log_events:
            return
        if executor is not None:
            result.event_log.extend(executor.take_log_records())
        elif search is not None and search.harness.instance is not None:
            result.event_log.extend(search.harness.instance.world.log.records)

    try:
        for pass_index in range(start_pass, max_passes):
            progress.prefix = f"pass {pass_index + 1}/{max_passes} · "
            if executor is None and (search is None or not injection_cache):
                # injection_cache keeps one search (and its warm testbed,
                # snapshots, and cache) alive; otherwise each pass gets a
                # fresh stack, exactly as before.
                search = WeightedGreedySearch(
                    factory, seed=seed, threshold=threshold,
                    space_config=space_config, max_wait=max_wait,
                    weights=weights, shared_pages=shared_pages,
                    delta_snapshots=delta_snapshots, fault_plan=fault_plan,
                    fault_schedule=fault_schedule,
                    watchdog_limit=watchdog_limit, max_retries=max_retries,
                    tracer=tracer, progress=progress,
                    log_events=log_events,
                    injection_cache=injection_cache,
                    reuse_testbed=injection_cache,
                    snapshot_budget=budget)
            try:
                with maybe_span(tracer, "hunt.pass",
                                index=pass_index + 1) as span:
                    if executor is not None:
                        report = executor.run_pass(
                            message_types=message_types, exclude=excluded,
                            weights=weights)
                    else:
                        report = search.run(message_types=message_types,
                                            exclude=excluded)
                    span.set(findings=len(report.findings))
                    pass_mark = tracer.mark() if tracer is not None else 0
                if report.telemetry is not None and tracer is not None:
                    # the hunt.pass span closes after the pass summary was
                    # computed; fold it in so the merged totals include it
                    report.telemetry.merge(summarize(tracer,
                                                     since=pass_mark))
            except KeyboardInterrupt:
                result.interrupted = True
                collect_world_output()
                if store is not None:
                    store.save_checkpoint(_checkpoint_dict(
                        system, seed, excluded, weights, result))
                return result
            except SearchError:
                # A pass aborted mid-recovery (worker fault under
                # --no-degrade, nondeterministic replay, ...).  Salvage
                # what completed: checkpoint the finished passes so a rerun
                # on the same store continues the campaign instead of
                # redoing it.
                collect_world_output()
                if store is not None:
                    store.save_checkpoint(_checkpoint_dict(
                        system, seed, excluded, weights, result))
                raise
            system = report.system
            result.passes.append(report)
            result.total_ledger.merge(report.ledger)
            result.quarantined.extend(report.quarantined)
            result.supervisor.merge(report.supervisor)
            collect_world_output()
            if report.telemetry is not None:
                if result.telemetry is None:
                    result.telemetry = TelemetrySummary()
                result.telemetry.merge(report.telemetry)
            for finding in report.findings:
                excluded.add(finding.scenario.to_record())
                result.findings.append(finding)
            if store is not None:
                store.save_checkpoint(_checkpoint_dict(
                    system, seed, excluded, weights, result))
            if not report.findings:
                break
    finally:
        if executor is not None:
            result.worker_breakdown = executor.worker_breakdown()
            result.worker_health = executor.worker_health()
            executor.close()
        if store is not None or budget is not None or (
                executor is not None and snapshot_budget is not None):
            from repro.store.budget import StoreReport
            store_report = StoreReport()
            if store is not None:
                store_report.merge_counters(store.counters())
                store.close()
            if budget is not None:
                store_report.merge_counters(budget.counters())
            if executor is not None:
                store_report.merge_counters(executor.budget_counters())
            result.store_report = store_report
    attach_explanations()
    return result
