"""Wall-clock hunt benchmark: one seeded hunt per run, with pinned bytes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Workloads are in ``workloads.py``, the
reasons for them and the seed's baseline profile in ``NOTES.md``.

``--trace 0`` measures the end-to-end metrics: the median of
``SETUP_SAMPLES`` set-ups (testbed seed ``--seed``), then one untraced hunt.
``--trace 1`` measures the per-layer metrics: one untraced hunt, then one
traced hunt, whose wall-time ratio is ``trace.overhead_ratio``.  Each step
runs in its own process (see ``probe.py``).  A hunt is a fixed campaign at
hunt seed 0, because its report bytes are the correctness gate, so a run
measures one whole hunt whatever ``--seconds`` says.

Every hunt's report sha256, modelled ledger total and scenario count must
equal the workload's pinned values, and a traced hunt's bytes must equal
the untraced hunt's.  Work that fails (quarantined scenarios, worker
faults, every scenario of a hunt whose bytes mismatch) counts in
``failed``; any failure makes the run exit 1.  Metrics go to stderr by
name and unit; the last line of stdout is the JSON result.  Spans of a
traced hunt are written to ``.perfbench-work/``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"
SETUP_SAMPLES = 3
#: every step must end this long after the run started (the run's limit is
#: 180 s)
RUN_LIMIT_S = 170.0


class StepFailed(Exception):
    pass


def _end_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a step's session (its forked workers too)
    and wait until the whole group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    give_up = time.monotonic() + 10.0
    while time.monotonic() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _step(args, deadline: float) -> dict:
    """Run one ``probe.py`` step in its own session; return its output."""
    out = WORKDIR / f"step-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"),
         "--out", str(out), *args],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise StepFailed(f"{args[0]} step ran past the run's time limit")
    finally:
        _end_session(proc)
    if proc.returncode != 0:
        raise StepFailed(f"{args[0]} step exited with {proc.returncode}")
    try:
        with open(out) as fh:
            return json.load(fh)
    finally:
        out.unlink(missing_ok=True)


def _hunt_failures(workload, hunt: dict, problems: list) -> int:
    """Check one hunt against the pins; return its failed work."""
    pins = (("report_sha256", workload.report_sha256),
            ("ledger_total", workload.ledger_total),
            ("scenarios", workload.scenarios))
    mismatched = [f"{key} {hunt[key]!r} != pinned {pin!r}"
                  for key, pin in pins if hunt[key] != pin]
    problems.extend(mismatched)
    failed = hunt["quarantined"] + hunt["worker_faults"]
    return failed + (hunt["scenarios"] if mismatched else 0)


def measure(workload, seed: int, trace: bool, deadline: float):
    """Return ``(metrics, attempted, failed, problems)`` for one run."""
    WORKDIR.mkdir(exist_ok=True)
    problems: list = []
    if not trace:
        setups = [_step(["setup", workload.name, str(seed)], deadline)
                  for __ in range(SETUP_SAMPLES)]
        for key in ("events", "warm_pages"):
            if any(s[key] != setups[0][key] for s in setups):
                problems.append(f"set-ups disagree on {key}")
        if setups[0]["warm_pages"] is None:
            problems.append("set-up reached no warm snapshot")
        hunt = _step(["hunt", workload.name, str(WORKDIR)], deadline)
        hunts = [hunt]
        metrics = {
            "hunt_wall_s": hunt["hunt_wall_s"],
            "scenarios_per_s": hunt["scenarios"] / hunt["hunt_wall_s"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": hunt["peak_rss_mb"],
        }
    else:
        spans = WORKDIR / f"trace-{workload.name}-seed{seed}.json"
        plain = _step(["hunt", workload.name, str(WORKDIR)], deadline)
        traced = _step(["hunt", workload.name, str(WORKDIR),
                        "--trace", str(spans)], deadline)
        hunts = [plain, traced]
        if traced["report_sha256"] != plain["report_sha256"]:
            problems.append("traced report bytes differ from untraced")
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = (traced["hunt_wall_s"]
                                           / plain["hunt_wall_s"])
    failed = sum(_hunt_failures(workload, h, problems) for h in hunts)
    # a hunt that evaluated nothing still attempted its campaign
    attempted = sum(max(1, h["scenarios"]) for h in hunts)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock hunt benchmark (see NOTES.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="nominal run length; a run always measures "
                             "one whole hunt")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # a terminated run still ends its step's session (see _step)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    try:
        metrics, attempted, failed, problems = measure(
            workload, args.seed, bool(args.trace), deadline)
    except StepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        problems.append("metrics out of step with metrics.py")
    for problem in problems:
        print(f"perfbench: FAIL {workload.name}: {problem}", file=sys.stderr)
    print(f"{workload.name}: failed_ratio = {failed / attempted:.4f} ratio "
          f"({failed} of {attempted} scenarios)", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{workload.name}: {name} = {value:.6g} {units[name]}",
              file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
