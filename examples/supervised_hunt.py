#!/usr/bin/env python3
"""Supervised hunts: fault tolerance and pass-level resume in one script.

Long unattended campaigns are where Turret earns its keep, and also where
a single platform fault used to cost the most.  This example demonstrates
the supervision layer end to end:

1. a *fault-free* PBFT hunt as the reference;
2. the same hunt under a deterministic :class:`FaultPlan` that fails 15%
   of snapshot restores (with the kernel watchdog armed) — the supervisor
   retries with fresh testbed rebuilds and the hunt finds the *identical*
   attack set;
3. a hunt interrupted after its first pass and resumed from its run store
   (``store_dir``) — findings and the merged cost ledger match the
   uninterrupted run.

Run:  python examples/supervised_hunt.py
"""

import shutil
import tempfile

from repro.attacks.space import ActionSpaceConfig
from repro.controller.supervisor import FaultPlan
from repro.search.hunt import hunt
from repro.systems.pbft import pbft_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(0.5, 1.0),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = pbft_testbed(malicious="primary", warmup=1.0, window=2.0)
TYPES = ["PrePrepare"]
KW = dict(seed=1, message_types=TYPES, space_config=SPACE, max_wait=5.0)


def main() -> int:
    print("=== 1. fault-free reference hunt ===")
    clean = hunt(FACTORY, max_passes=3, **KW)
    print(clean.describe())

    print("\n=== 2. same hunt, 15% of snapshot restores fail ===")
    plan = FaultPlan(seed=11, snapshot_restore_rate=0.15, max_faults=4)
    print(plan.describe())
    faulty = hunt(FACTORY, max_passes=3, fault_plan=plan,
                  watchdog_limit=2_000_000, max_retries=3, **KW)
    print(faulty.describe())
    print(f"injected faults: {plan.total_injected}")
    assert faulty.attack_names() == clean.attack_names(), \
        "fault plan changed the attack set!"
    print("-> identical attack set; faults cost only "
          f"{faulty.total_ledger.get('retry'):.2f}s retry + "
          f"{faulty.total_ledger.get('rebuild'):.1f}s rebuild time")

    print("\n=== 3. interrupt after pass 1, resume from the run store ===")
    store = tempfile.mkdtemp(prefix="hunt-store-")
    try:
        hunt(FACTORY, max_passes=1, store_dir=store, **KW)
        print(f"pass 1 checkpointed to {store}")
        resumed = hunt(FACTORY, max_passes=3, store_dir=store, **KW)
        print(resumed.describe())
        assert resumed.attack_names() == clean.attack_names()
        assert dict(resumed.total_ledger.by_category) == \
            dict(clean.total_ledger.by_category)
        print("-> resumed hunt reproduced the uninterrupted campaign "
              "(same findings, same merged ledger)")
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
