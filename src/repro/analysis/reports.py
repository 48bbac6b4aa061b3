"""Rendering and persistence of search reports.

Search results should survive the Python process: a report round-trips
through plain JSON (scenario records, samples, ledger) so hunts can be
resumed with previously found attacks excluded, compared across runs, or
rendered for humans as text/markdown tables.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.attacks.actions import AttackScenario
from repro.controller.costs import CostLedger
from repro.controller.monitor import PerfSample
from repro.controller.supervisor import (QuarantinedScenario,
                                         SupervisorEvent, SupervisorStats)
from repro.faults.validation import ValidationReport
from repro.search.results import AttackFinding, SearchReport
from repro.telemetry.summary import TelemetrySummary


# ------------------------------------------------------------- serialization

def _sample_to_dict(sample: PerfSample) -> Dict[str, Any]:
    return {
        "start": sample.start, "end": sample.end,
        "throughput": sample.throughput,
        "latency_min": sample.latency_min,
        "latency_avg": sample.latency_avg,
        "latency_max": sample.latency_max,
        "crashed_nodes": sample.crashed_nodes,
        "latency_p50": sample.latency_p50,
        "latency_p95": sample.latency_p95,
        "latency_p99": sample.latency_p99,
        "completed": sample.completed,
    }


def _sample_from_dict(data: Dict[str, Any]) -> PerfSample:
    return PerfSample(data["start"], data["end"], data["throughput"],
                      data["latency_min"], data["latency_avg"],
                      data["latency_max"], data["crashed_nodes"],
                      # .get: samples serialized before percentiles existed
                      data.get("latency_p50", 0.0),
                      data.get("latency_p95", 0.0),
                      data.get("latency_p99", 0.0),
                      data.get("completed", 0))


def _finding_to_dict(finding: AttackFinding) -> Dict[str, Any]:
    return {
        "scenario": record_to_jsonable(finding.scenario.to_record()),
        "baseline": _sample_to_dict(finding.baseline),
        "attacked": _sample_to_dict(finding.attacked),
        "damage": finding.damage,
        "crashes": finding.crashes,
        "found_at": finding.found_at,
        "confirmations": finding.confirmations,
    }


def record_to_jsonable(record: Any) -> Any:
    """Encode a scenario record (nested tuples/bytes) as plain JSON."""
    if isinstance(record, tuple):
        return {"__tuple__": [record_to_jsonable(x) for x in record]}
    if isinstance(record, bytes):
        return {"__bytes__": record.hex()}
    return record


def record_from_jsonable(data: Any) -> Any:
    """Inverse of :func:`record_to_jsonable`."""
    if isinstance(data, dict) and "__tuple__" in data:
        return tuple(record_from_jsonable(x) for x in data["__tuple__"])
    if isinstance(data, dict) and "__bytes__" in data:
        return bytes.fromhex(data["__bytes__"])
    return data


def _quarantine_to_dict(q: QuarantinedScenario) -> Dict[str, Any]:
    return {
        "message_type": q.message_type,
        "action_record": (None if q.action_record is None
                          else record_to_jsonable(q.action_record)),
        "reason": q.reason,
        "attempts": q.attempts,
        "verdict": q.verdict,
    }


def _quarantine_from_dict(data: Dict[str, Any]) -> QuarantinedScenario:
    record = data["action_record"]
    return QuarantinedScenario(
        data["message_type"],
        None if record is None else record_from_jsonable(record),
        data["reason"], data["attempts"], data.get("verdict", "inconclusive"))


def _supervisor_to_dict(stats: SupervisorStats) -> Dict[str, Any]:
    return {
        "retries": stats.retries,
        "rebuilds": stats.rebuilds,
        "quarantines": stats.quarantines,
        "watchdog_trips": stats.watchdog_trips,
        "events": [{"kind": e.kind, "op": e.op, "scenario": e.scenario,
                    "error": e.error, "attempt": e.attempt, "at": e.at}
                   for e in stats.events],
    }


def _supervisor_from_dict(data: Dict[str, Any]) -> SupervisorStats:
    return SupervisorStats(
        retries=data.get("retries", 0),
        rebuilds=data.get("rebuilds", 0),
        quarantines=data.get("quarantines", 0),
        watchdog_trips=data.get("watchdog_trips", 0),
        events=[SupervisorEvent(e["kind"], e["op"], e.get("scenario"),
                                e["error"], e["attempt"], e["at"])
                for e in data.get("events", [])])


def _finding_from_dict(data: Dict[str, Any]) -> AttackFinding:
    return AttackFinding(
        scenario=AttackScenario.from_record(
            record_from_jsonable(data["scenario"])),
        baseline=_sample_from_dict(data["baseline"]),
        attacked=_sample_from_dict(data["attacked"]),
        damage=data["damage"],
        crashes=data["crashes"],
        found_at=data["found_at"],
        confirmations=data["confirmations"],
    )


def report_to_dict(report: SearchReport) -> Dict[str, Any]:
    return {
        "algorithm": report.algorithm,
        "system": report.system,
        "findings": [_finding_to_dict(f) for f in report.findings],
        "weak_selections": [_finding_to_dict(f)
                            for f in report.weak_selections],
        "ledger": dict(report.ledger.by_category),
        "scenarios_evaluated": report.scenarios_evaluated,
        "injection_points": report.injection_points,
        "types_without_injection": list(report.types_without_injection),
        "quarantined": [_quarantine_to_dict(q) for q in report.quarantined],
        "supervisor": _supervisor_to_dict(report.supervisor),
        "telemetry": (None if report.telemetry is None
                      else report.telemetry.to_dict()),
        "crashed_nodes": list(report.crashed_nodes),
        "validation": (None if report.validation is None
                       else report.validation.to_dict()),
    }


def report_from_dict(data: Dict[str, Any]) -> SearchReport:
    report = SearchReport(
        data["algorithm"], data["system"],
        findings=[_finding_from_dict(f) for f in data["findings"]],
        weak_selections=[_finding_from_dict(f)
                         for f in data["weak_selections"]],
        ledger=CostLedger(dict(data["ledger"])),
        scenarios_evaluated=data["scenarios_evaluated"],
        injection_points=data["injection_points"],
        types_without_injection=list(data["types_without_injection"]),
        # .get: reports written before the supervision layer lack these.
        quarantined=[_quarantine_from_dict(q)
                     for q in data.get("quarantined", [])],
        supervisor=_supervisor_from_dict(data.get("supervisor", {})),
        telemetry=(TelemetrySummary.from_dict(data["telemetry"])
                   if data.get("telemetry") else None),
        crashed_nodes=list(data.get("crashed_nodes", [])),
        validation=(ValidationReport.from_dict(data["validation"])
                    if data.get("validation") else None),
    )
    return report


def save_report(report: SearchReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=2)


def load_report(path: str) -> SearchReport:
    with open(path) as fh:
        return report_from_dict(json.load(fh))


def excluded_scenarios(report: SearchReport) -> set:
    """Exclusion set for the next hunt pass over the same system."""
    return {f.scenario.to_record() for f in report.findings}


# ---------------------------------------------------------------- hunt result

def hunt_result_to_dict(result) -> Dict[str, Any]:
    """Serialize a :class:`~repro.search.hunt.HuntResult` to plain JSON.

    The per-pass event logs are not serialized (they are debugging
    artifacts, exported separately); everything else round-trips.
    """
    return {
        "passes": [report_to_dict(p) for p in result.passes],
        "ledger": dict(result.total_ledger.by_category),
        "quarantined": [_quarantine_to_dict(q) for q in result.quarantined],
        "supervisor": _supervisor_to_dict(result.supervisor),
        "interrupted": result.interrupted,
        "resumed_passes": result.resumed_passes,
        "telemetry": (None if result.telemetry is None
                      else result.telemetry.to_dict()),
        "crashed_nodes": result.crashed_nodes(),
        "validation": (None if result.validation is None
                       else result.validation.to_dict()),
    }


def hunt_result_from_dict(data: Dict[str, Any]):
    from repro.search.hunt import HuntResult
    result = HuntResult(
        passes=[report_from_dict(p) for p in data["passes"]],
        total_ledger=CostLedger(dict(data["ledger"])),
        quarantined=[_quarantine_from_dict(q)
                     for q in data.get("quarantined", [])],
        supervisor=_supervisor_from_dict(data.get("supervisor", {})),
        interrupted=data.get("interrupted", False),
        resumed_passes=data.get("resumed_passes", 0),
        telemetry=(TelemetrySummary.from_dict(data["telemetry"])
                   if data.get("telemetry") else None),
        validation=(ValidationReport.from_dict(data["validation"])
                    if data.get("validation") else None),
    )
    for report in result.passes:
        result.findings.extend(report.findings)
    return result


# ----------------------------------------------------------------- rendering

def _validation_lines(validation: ValidationReport) -> list:
    lines = [
        "",
        "## Robustness validation",
        "",
        f"* environments: {validation.environments} "
        f"(seed {validation.seed}, Δ = {validation.delta:.0%})",
        f"* validation platform time: {validation.platform_time:.1f} s",
        "",
        "| attack | robustness | sustained | ambient noise |",
        "|---|---|---|---|",
    ]
    for result in validation.results:
        sustained = sum(1 for e in result.environments if e.sustained)
        lines.append(
            f"| {result.name} | {result.score:.0%} "
            f"| {sustained}/{len(result.environments)} "
            f"| {result.mean_benign_degradation:.0%} |")
    return lines


def render_markdown(report: SearchReport) -> str:
    lines = [
        f"# {report.algorithm} on {report.system}",
        "",
        f"* attacks found: **{len(report.findings)}**",
        f"* scenarios evaluated: {report.scenarios_evaluated}",
        f"* injection points: {report.injection_points}",
        f"* platform time: {report.total_time:.1f} s "
        f"({report.ledger.describe()})",
        "",
    ]
    if report.types_without_injection:
        lines.append("* no injection point for: "
                     + ", ".join(report.types_without_injection))
        lines.append("")
    if report.findings:
        lines.append("| attack | baseline | attacked | lat p95 (ms) "
                     "| damage | crashes | found at (s) |")
        lines.append("|---|---|---|---|---|---|---|")
        for f in report.findings:
            lines.append(
                f"| {f.name} | {f.baseline.throughput:.1f} "
                f"| {f.attacked.throughput:.1f} "
                f"| {f.attacked.latency_p95 * 1000:.2f} | {f.damage:.0%} "
                f"| {f.crashes} | {f.found_at:.1f} |")
    else:
        lines.append("_No attacks found._")
    if report.crashed_nodes:
        lines.append("")
        lines.append("* crashed nodes: "
                     + ", ".join(f"`{n}`" for n in report.crashed_nodes))
    stats = report.supervisor
    if stats.total_events or report.quarantined:
        lines.append("")
        lines.append("## Supervision")
        lines.append("")
        lines.append(f"* retries: {stats.retries}")
        lines.append(f"* testbed rebuilds: {stats.rebuilds}")
        lines.append(f"* watchdog trips: {stats.watchdog_trips}")
        lines.append(f"* quarantined scenarios: {len(report.quarantined)}")
        for q in report.quarantined:
            lines.append(f"  * {q.describe()}")
    telemetry = report.telemetry
    if telemetry is not None:
        lines.append("")
        lines.append("## Telemetry")
        lines.append("")
        lines.append(f"* spans: {telemetry.total_spans} over "
                     f"{len(telemetry.spans)} kinds")
        if telemetry.spans:
            lines.append("")
            lines.append("| span | count | wall (s) | virtual (s) |")
            lines.append("|---|---|---|---|")
            for name in sorted(telemetry.spans):
                s = telemetry.spans[name]
                lines.append(f"| {name} | {s.count} | {s.wall_total:.3f} "
                             f"| {s.virtual_total:.3f} |")
        if telemetry.counters:
            lines.append("")
            lines.append("| counter | value |")
            lines.append("|---|---|")
            for name in sorted(telemetry.counters):
                lines.append(f"| {name} | {telemetry.counters[name]:g} |")
    if report.worker_health is not None and report.worker_health.eventful:
        # Side channel: shown to humans, never part of the deterministic
        # JSON (worker fate depends on wall-clock scheduling).
        lines.extend(report.worker_health.markdown_lines())
    if report.validation is not None:
        lines.extend(_validation_lines(report.validation))
    return "\n".join(lines)


def render_hunt_markdown(result) -> str:
    """Markdown rendering of a full multi-pass hunt."""
    system = result.passes[0].system if result.passes else "unknown"
    status = " (interrupted)" if result.interrupted else ""
    lines = [
        f"# hunt on {system}{status}",
        "",
        f"* attacks found: **{len(result.findings)}** over "
        f"{len(result.passes)} passes",
        f"* platform time: {result.total_time:.1f} s "
        f"({result.total_ledger.describe()})",
    ]
    crashed = result.crashed_nodes()
    if crashed:
        lines.append("* crashed nodes: "
                     + ", ".join(f"`{n}`" for n in crashed))
    lines.append("")
    if result.findings:
        lines.append("| attack | baseline | attacked | damage | crashes |")
        lines.append("|---|---|---|---|---|")
        for f in result.findings:
            lines.append(
                f"| {f.name} | {f.baseline.throughput:.1f} "
                f"| {f.attacked.throughput:.1f} | {f.damage:.0%} "
                f"| {f.crashes} |")
    else:
        lines.append("_No attacks found._")
    if result.quarantined:
        lines.append("")
        lines.append("## Quarantined scenarios")
        lines.append("")
        for q in result.quarantined:
            lines.append(f"* {q.describe()}")
    if result.worker_health is not None and result.worker_health.eventful:
        lines.extend(result.worker_health.markdown_lines())
    if result.validation is not None:
        lines.extend(_validation_lines(result.validation))
    return "\n".join(lines)
