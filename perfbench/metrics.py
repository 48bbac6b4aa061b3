"""Metric names, units, and the per-layer metrics derived from a trace.

``END_TO_END`` and ``PER_LAYER`` are the only metrics the benchmark prints;
``BENCHMARK.json`` lists the same names with the same units.  Every metric
is a number; a layer a workload never enters reads 0.
"""

from typing import Dict

MB = 1024 * 1024

END_TO_END = {
    "hunt_wall_s": "s",
    "scenarios_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "controller.start_run.s": "s",
    "controller.seek.calls": "count",
    "controller.seek.s": "s",
    "controller.branch.calls": "count",
    "controller.branch.s": "s",
    "controller.snapshot_save.self_s": "s",
    "controller.snapshot_restore.self_s": "s",
    "controller.branches_per_scenario": "ratio",
    "vm.save.s": "s",
    "vm.restore.s": "s",
    "vm.ksm_scan.s": "s",
    "vm.save.us_per_page": "us/page",
    "vm.restore.us_per_page": "us/page",
    "vm.ksm_scan.us_per_page": "us/page",
    "vm.pages_saved": "count",
    "vm.pages_shared": "count",
    "vm.stored_mb": "MB",
    "sim.events": "count",
    "sim.run.self_s": "s",
    "sim.events_per_s": "1/s",
    "runtime.send.calls": "count",
    "runtime.send.self_s": "s",
    "runtime.send.us_per_msg": "us/msg",
    "wire.encode.calls": "count",
    "wire.encode.us": "us/call",
    "wire.decode.calls": "count",
    "wire.decode.us": "us/call",
    "wire.bytes_encoded": "B",
    "netem.transmit.calls": "count",
    "netem.transmit.self_s": "s",
    "netem.us_per_msg": "us/msg",
    "attacks.proxy.calls": "count",
    "attacks.proxy.us": "us/call",
    "parallel.worker_busy_s": "s",
    "parallel.worker_busy_max_s": "s",
    "parallel.imbalance": "ratio",
    "parallel.platform_work_ratio": "ratio",
    "parallel.merge.s": "s",
    "parallel.worker_faults": "count",
    "store.append.calls": "count",
    "store.append.us": "us/call",
    "store.checkpoint.s": "s",
    "store.records_per_scenario": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, result, scenarios: int) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric but ``trace.overhead_ratio``, from one
    traced hunt's tracer and its ``HuntResult``."""
    m: Dict[str, float] = {}
    counters = tracer.counters
    stats = {name: tracer.stats(name) for name in (
        "controller.start_run", "controller.seek", "controller.branch",
        "controller.snapshot_save", "controller.snapshot_restore",
        "vm.save", "vm.restore", "vm.ksm_scan", "sim.run", "runtime.send",
        "wire.encode", "wire.decode", "netem.transmit", "attacks.proxy",
        "parallel.merge", "store.append", "store.checkpoint")}

    def calls(name):
        return stats[name][0]

    def total(name):
        return stats[name][1]

    def own(name):
        return stats[name][2]

    m["controller.start_run.s"] = total("controller.start_run")
    m["controller.seek.calls"] = calls("controller.seek")
    m["controller.seek.s"] = total("controller.seek")
    m["controller.branch.calls"] = calls("controller.branch")
    m["controller.branch.s"] = total("controller.branch")
    m["controller.snapshot_save.self_s"] = own("controller.snapshot_save")
    m["controller.snapshot_restore.self_s"] = own(
        "controller.snapshot_restore")
    m["controller.branches_per_scenario"] = _ratio(
        calls("controller.branch"), scenarios)

    # vm.save's only traced child is the KSM scan it triggers, reported on
    # its own; vm.save.s is the save without it
    m["vm.save.s"] = own("vm.save")
    m["vm.restore.s"] = total("vm.restore")
    m["vm.ksm_scan.s"] = total("vm.ksm_scan")
    m["vm.save.us_per_page"] = _ratio(
        own("vm.save") * 1e6, counters.get("vm.pages_saved", 0))
    m["vm.restore.us_per_page"] = _ratio(
        total("vm.restore") * 1e6, counters.get("vm.pages_restored", 0))
    m["vm.ksm_scan.us_per_page"] = _ratio(
        total("vm.ksm_scan") * 1e6, counters.get("vm.pages_scanned", 0))
    m["vm.pages_saved"] = counters.get("vm.pages_saved", 0)
    m["vm.pages_shared"] = counters.get("vm.pages_shared", 0)
    m["vm.stored_mb"] = counters.get("vm.stored_bytes", 0) / MB

    m["sim.events"] = counters.get("sim.events", 0)
    m["sim.run.self_s"] = own("sim.run")
    m["sim.events_per_s"] = _ratio(counters.get("sim.events", 0),
                                   total("sim.run"))

    m["runtime.send.calls"] = calls("runtime.send")
    m["runtime.send.self_s"] = own("runtime.send")
    m["runtime.send.us_per_msg"] = _ratio(total("runtime.send") * 1e6,
                                          calls("runtime.send"))
    for name in ("wire.encode", "wire.decode"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us"] = _ratio(total(name) * 1e6, calls(name))
    m["wire.bytes_encoded"] = counters.get("wire.bytes_encoded", 0)
    m["netem.transmit.calls"] = calls("netem.transmit")
    m["netem.transmit.self_s"] = own("netem.transmit")
    m["netem.us_per_msg"] = _ratio(total("netem.transmit") * 1e6,
                                   calls("netem.transmit"))
    m["attacks.proxy.calls"] = calls("attacks.proxy")
    m["attacks.proxy.us"] = _ratio(total("attacks.proxy") * 1e6,
                                   calls("attacks.proxy"))

    busy = [w.wall_seconds for w in result.worker_breakdown or ()]
    worker_platform = sum(w.ledger.total()
                          for w in result.worker_breakdown or ())
    m["parallel.worker_busy_s"] = sum(busy)
    m["parallel.worker_busy_max_s"] = max(busy, default=0.0)
    m["parallel.imbalance"] = _ratio(max(busy, default=0.0) * len(busy),
                                     sum(busy))
    m["parallel.platform_work_ratio"] = _ratio(
        worker_platform, result.total_ledger.total())
    m["parallel.merge.s"] = total("parallel.merge")
    health = result.worker_health
    m["parallel.worker_faults"] = (
        health.crashes + health.timeouts if health is not None else 0)

    m["store.append.calls"] = calls("store.append")
    m["store.append.us"] = _ratio(total("store.append") * 1e6,
                                  calls("store.append"))
    m["store.checkpoint.s"] = total("store.checkpoint")
    appended = (result.store_report.counters.get(
        "store.journal.records_appended", 0)
        if result.store_report is not None else 0)
    m["store.records_per_scenario"] = _ratio(appended, scenarios)
    return m
