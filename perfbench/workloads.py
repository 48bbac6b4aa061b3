"""The benchmark's three fixed, seeded hunts and their pinned outputs.

Every workload runs ``repro.search.hunt.hunt()`` at hunt seed 0 with
``warmup=1``, ``window=2``, ``max_wait=5``, ``delta=0.25`` and the CLI's
``--fast`` delivery set, for one pass.  The report bytes are the
``hunt_result_to_dict`` JSON that ``repro hunt --json`` writes
(``indent=2``); their sha256, the modelled ledger total and the scenario
count are pinned here, so a change that moves the paper's virtual-time
results fails the benchmark instead of speeding it up.

Why each workload was chosen is in ``NOTES.md`` next to this file.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

HUNT_SEED = 0
WARMUP = 1.0
WINDOW = 2.0
MAX_WAIT = 5.0
DELTA = 0.25
PASSES = 1


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    role: str
    #: message types to attack; None hunts the system's active types
    types: Optional[Tuple[str, ...]]
    lying: bool
    workers: int
    #: run with a fresh durable run store (``store_dir``)
    durable: bool
    #: sha256 of the report bytes
    report_sha256: str
    #: ``HuntResult.total_ledger.total()``, modelled platform seconds
    ledger_total: float
    scenarios: int


_PBFT_BRANCH = dict(
    system="pbft", role="primary",
    types=("Prepare", "Commit", "Checkpoint"), lying=True,
    report_sha256=("d1817d9ef7196dfc3b3ae2bf7c4141703b5cfd44"
                   "e31a4422c031092ed4e63d37"),
    ledger_total=99.30570615978147, scenarios=33)

WORKLOADS = {
    w.name: w for w in (
        Workload(name="pbft-branch", workers=1, durable=False,
                 **_PBFT_BRANCH),
        Workload(name="steward-snapshot", system="steward", role="leader",
                 types=None, lying=False, workers=1, durable=False,
                 report_sha256=("4980a0c9b8829045a417a58dcbec8f3d2e92f003"
                                "96ddf9367926b4dd5fafa4c3"),
                 ledger_total=120.59139745142701, scenarios=15),
        # Must reproduce pbft-branch's report bytes exactly.
        Workload(name="pbft-durable-parallel", workers=2, durable=True,
                 **_PBFT_BRANCH),
    )
}
