"""One measured step of the benchmark, run in a fresh interpreter.

    probe.py --out OUT.json setup WORKLOAD SEED
    probe.py --out OUT.json hunt WORKLOAD WORKDIR [--trace SPANS.json]

``setup`` times importing repro, building the workload's testbed and
reaching its warm snapshot.  ``hunt`` runs the workload's hunt, untraced or
with the outside-in tracer, and writes the report's sha256, its counts and
the process tree's peak RSS.  Each step gets its own process so that
``setup_s`` pays the import every pass and worker pays, and so that a
peak RSS belongs to one hunt alone.  ``run.py`` drives these steps with
``PYTHONPATH`` pointing at ``src``.
"""

import time

_STARTED = time.perf_counter()  # before repro is imported: setup pays it

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

from metrics import MB, layer_metrics  # noqa: E402
from tracer import Tracer, install, uninstall  # noqa: E402
from workloads import (DELTA, HUNT_SEED, MAX_WAIT, PASSES,  # noqa: E402
                       WARMUP, WINDOW, WORKLOADS, Workload)


def setup(workload: Workload, seed: int) -> dict:
    from repro.controller.harness import AttackHarness
    from repro.systems.registry import get_system

    entry = get_system(workload.system)
    factory = entry.build(workload.role, WARMUP, WINDOW)
    harness = AttackHarness(factory, seed=seed)
    harness.start_run()
    elapsed = time.perf_counter() - _STARTED
    warm = harness.warm_snapshot
    return {"setup_s": elapsed,
            "events": harness.world.kernel.events_executed,
            "warm_pages": (None if warm is None
                           else warm.cluster_snapshot.page_counts())}


def run_hunt(workload: Workload, workdir: str, spans_path=None) -> dict:
    from repro.analysis.reports import hunt_result_to_dict
    from repro.attacks.space import ActionSpaceConfig
    from repro.controller.monitor import AttackThreshold
    from repro.search.hunt import hunt
    from repro.systems.registry import get_system

    entry = get_system(workload.system)
    factory = entry.build(workload.role, WARMUP, WINDOW)
    types = list(workload.types or entry.active_types)
    # the CLI's --fast delivery set
    space = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(0.5, 1.0),
                              duplicate_counts=(50,), include_divert=False,
                              include_lying=workload.lying)
    store_dir = (tempfile.mkdtemp(prefix="store-", dir=workdir)
                 if workload.durable else None)
    tracer = None
    saved = []
    try:
        if spans_path is not None:
            tracer = Tracer(f"{workload.name}:{os.getpid()}")
            saved = install(tracer)
        started = time.perf_counter()
        result = hunt(factory, seed=HUNT_SEED, message_types=types,
                      threshold=AttackThreshold(delta=DELTA),
                      space_config=space, max_passes=PASSES,
                      max_wait=MAX_WAIT, workers=workload.workers,
                      store_dir=store_dir)
        wall = time.perf_counter() - started
    finally:
        uninstall(saved)
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)

    report = json.dumps(hunt_result_to_dict(result), indent=2)
    scenarios = sum(p.scenarios_evaluated for p in result.passes)
    health = result.worker_health
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"hunt_wall_s": wall,
           "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
           "ledger_total": result.total_ledger.total(),
           "scenarios": scenarios,
           "quarantined": len(result.quarantined),
           "worker_faults": (health.crashes + health.timeouts
                             if health is not None else 0),
           "peak_rss_mb": peak_kb * 1024 / MB}
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, result, scenarios)
        tracer.write(spans_path)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, metavar="OUT.json")
    sub = parser.add_subparsers(dest="step", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p = sub.add_parser("hunt")
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("workdir")
    p.add_argument("--trace", default=None, metavar="SPANS.json")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.step == "setup":
        data = setup(workload, args.seed)
    else:
        data = run_hunt(workload, args.workdir, args.trace)
    with open(args.out, "w") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    main()
