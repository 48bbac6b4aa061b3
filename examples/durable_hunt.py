#!/usr/bin/env python3
"""Durable hunts: kill -9 safety and bounded snapshot memory in one script.

The run store (``--store DIR``) survives a polite Ctrl-C and an impolite
``kill -9`` mid-pass alike.  This example demonstrates the durability layer
end to end:

1. a plain PBFT hunt as the byte-identity reference;
2. the same hunt with a run store (``store_dir``) — probes are committed
   to a CRC32 write-ahead journal as they complete, and re-running with
   the same store replays them to the *byte-identical* report;
3. a hunt SIGKILLed mid-pass via the ``REPRO_STORE_CHAOS`` hook (in a
   subprocess — the chaos hook kills the whole process, that is the
   point), then resumed from its store to the same bytes;
4. a snapshot-budgeted hunt: the injection-point cache capped to one
   byte, so every admission evicts — the report is still byte-identical,
   with rebuild time charged to a side channel.

Run:  python examples/durable_hunt.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile

from repro.analysis.reports import hunt_result_to_dict
from repro.attacks.space import ActionSpaceConfig
from repro.search.hunt import hunt
from repro.systems.pbft import pbft_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(0.5, 1.0),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = pbft_testbed(malicious="primary", warmup=1.0, window=2.0)
KW = dict(seed=1, message_types=["PrePrepare"], space_config=SPACE,
          max_wait=5.0, max_passes=2)

CLI = ["hunt", "pbft", "--types", "PrePrepare", "--seed", "1", "--fast",
       "--no-lying", "--warmup", "1", "--window", "2", "--passes", "2",
       "--max-wait", "5", "--allow-empty"]


def hunt_json(result) -> str:
    return json.dumps(hunt_result_to_dict(result), sort_keys=True)


def run_cli(extra, chaos=None):
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    if chaos:
        env["REPRO_STORE_CHAOS"] = chaos
    return subprocess.run([sys.executable, "-m", "repro"] + CLI + extra,
                          env=env, capture_output=False)


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="durable-hunt-")

    print("=== 1. plain reference hunt ===")
    clean = hunt(FACTORY, **KW)
    print(clean.describe())

    print("\n=== 2. durable hunt + replay from the store ===")
    store = os.path.join(workdir, "store")
    stored = hunt(FACTORY, store_dir=store, **KW)
    assert hunt_json(stored) == hunt_json(clean), "store changed the bytes!"
    print(f"journal: {os.path.join(store, 'journal.jsonl')}")
    replayed = hunt(FACTORY, store_dir=store, **KW)
    assert hunt_json(replayed) == hunt_json(clean)
    print(replayed.store_report.one_line())
    print("-> replayed run is byte-identical to the uninterrupted one")

    print("\n=== 3. kill -9 mid-pass, resume from the store ===")
    crash_store = os.path.join(workdir, "crash-store")
    flag = os.path.join(workdir, "chaos-fired")
    ref = os.path.join(workdir, "ref.json")
    out = os.path.join(workdir, "resumed.json")
    run_cli(["--json", ref])
    killed = run_cli(["--store", crash_store], chaos=f"crash:3:{flag}")
    assert killed.returncode == -signal.SIGKILL, "chaos should SIGKILL"
    print("hunt SIGKILLed after the 3rd journal append; resuming...")
    resumed = run_cli(["--store", crash_store, "--json", out])
    assert resumed.returncode == 0
    with open(ref, "rb") as a, open(out, "rb") as b:
        assert a.read() == b.read(), "resume diverged!"
    print("-> SIGKILLed + resumed hunt wrote byte-identical JSON")

    print("\n=== 4. snapshot budget: evict everything, same bytes ===")
    # Two message types, a one-byte budget: the second admission always
    # evicts the first, so every revisit is a rebuild-on-miss.
    budget_kw = dict(KW, message_types=["PrePrepare", "Commit"])
    cached = hunt(FACTORY, injection_cache=True, **budget_kw)
    budgeted = hunt(FACTORY, injection_cache=True, snapshot_budget=1,
                    **budget_kw)
    assert hunt_json(budgeted) == hunt_json(cached), "budget changed bytes!"
    print(budgeted.store_report.one_line())
    counters = budgeted.store_report.counters
    print(f"-> {int(counters.get('snapshot.cache.evictions', 0))} evictions,"
          f" {counters.get('snapshot.cache.rebuild_platform_seconds', 0):.2f}s"
          " of rebuilds charged off the books; report byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
