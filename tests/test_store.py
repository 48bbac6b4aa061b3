"""Tests for the durable run store, snapshot budgets, and checkpointing.

The store's contract mirrors the parallel executor's: whatever the journal
replays and whatever the budget evicts, the hunt's serialized result must
stay *byte-identical* to a plain uninterrupted, unbudgeted run.  Process-
kill durability (SIGKILL mid-hunt, torn journal tails, corrupt checkpoint
generations) is exercised separately in ``test_store_durability.py``.
"""

import json
import os

import pytest

from repro.analysis.reports import hunt_result_to_dict
from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import ConfigError
from repro.controller.costs import CostLedger
from repro.search.hunt import (CHECKPOINT_VERSION, HuntResult,
                               _checkpoint_dict, hunt, migrate_checkpoint)
from repro.search.weighted import ClusterWeights
from repro.store.budget import (CACHE_REBUILD, SnapshotBudget, StoreReport,
                                parse_bytes)
from repro.store.journal import (Journal, atomic_write_json, decode_line,
                                 encode_record, recover_journal)
from repro.store.runstore import RunStore
from repro.systems.paxos.testbed import paxos_testbed
from repro.vm.snapshots import SnapshotStore

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=1.0, window=2.0)


def hunt_json(result) -> str:
    return json.dumps(hunt_result_to_dict(result), sort_keys=True)


# ------------------------------------------------------------------ journal

class TestJournal:
    def test_encode_decode_roundtrip(self):
        record = {"kind": "eval", "type": "Accept", "x": [1, 2.5, None]}
        assert decode_line(encode_record(record).rstrip(b"\n")) == record

    def test_decode_rejects_corruption(self):
        line = encode_record({"kind": "meta"}).rstrip(b"\n")
        assert decode_line(line[:-5]) is None          # torn
        assert decode_line(line.replace(b"meta", b"mete")) is None  # bitrot
        assert decode_line(b"not json at all") is None
        assert decode_line(b'{"crc": 1}') is None      # missing record

    def test_append_recover_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"kind": "a", "n": 1})
            journal.append({"kind": "b", "n": 2})
        records, dropped = recover_journal(path)
        assert dropped == 0
        assert [r["kind"] for r in records] == ["a", "b"]

    def test_torn_tail_truncated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"kind": "a"})
            journal.append({"kind": "b"})
        clean_size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(encode_record({"kind": "c"})[:10])  # torn append
        records, dropped = recover_journal(path)
        assert [r["kind"] for r in records] == ["a", "b"]
        assert dropped == 10
        assert os.path.getsize(path) == clean_size  # truncated in place
        # a re-opened journal sees only the committed prefix
        with Journal(path) as journal:
            assert [r["kind"] for r in journal.records] == ["a", "b"]

    def test_garbage_tail_hides_later_lines(self, tmp_path):
        # Scanning stops at the first invalid line: valid-looking lines
        # after garbage were never acknowledged as committed.
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"kind": "a"})
        with open(path, "ab") as fh:
            fh.write(b"garbage line\n")
            fh.write(encode_record({"kind": "z"}))
        records, dropped = recover_journal(path)
        assert [r["kind"] for r in records] == ["a"]
        assert dropped > 0

    def test_atomic_write_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        assert json.load(open(path)) == {"a": 2}
        assert not os.path.exists(path + ".tmp")


# ------------------------------------------------------------------- budget

class TestParseBytes:
    def test_suffixes(self):
        assert parse_bytes("4096") == 4096
        assert parse_bytes("64k") == 64 * 1024
        assert parse_bytes("2M") == 2 * 1024 * 1024
        assert parse_bytes("1g") == 1 << 30
        assert parse_bytes("1.5k") == 1536

    def test_rejects_bad_specs(self):
        for bad in ("", "abc", "12q", "-5", "0"):
            with pytest.raises(ConfigError):
                parse_bytes(bad)


class TestSnapshotBudget:
    def test_lru_eviction_is_deterministic(self):
        def run_sequence():
            budget = SnapshotBudget(100)
            evicted = []
            for key, size in (("a", 40), ("b", 40), ("c", 40)):
                budget.admit(key, size, evicted.append)
            budget.touch("b")
            budget.admit("d", 40, evicted.append)
            return evicted

        first, second = run_sequence(), run_sequence()
        assert first == second == ["a", "c"]

    def test_newest_entry_survives_its_own_admission(self):
        budget = SnapshotBudget(10)
        evicted = []
        budget.admit("big", 500, evicted.append)
        assert evicted == []
        assert budget.held_bytes == 500
        budget.admit("bigger", 600, evicted.append)
        assert evicted == ["big"]

    def test_rebuild_charges_side_ledger_only(self):
        budget = SnapshotBudget(100)
        budget.note_rebuild(2.5)
        budget.note_rebuild(1.5)
        assert budget.ledger.get(CACHE_REBUILD) == pytest.approx(4.0)
        counters = budget.counters()
        assert counters["snapshot.cache.rebuilds"] == 2
        assert counters["snapshot.cache.rebuild_platform_seconds"] == \
            pytest.approx(4.0)

    def test_counters_track_bytes(self):
        budget = SnapshotBudget(100)
        budget.admit("a", 60, lambda k: None)
        budget.admit("b", 60, lambda k: None)
        budget.miss()
        counters = budget.counters()
        assert counters["snapshot.cache.insertions"] == 2
        assert counters["snapshot.cache.evictions"] == 1
        assert counters["snapshot.cache.bytes_evicted"] == 60
        assert counters["snapshot.cache.bytes_held"] == 60
        assert counters["snapshot.cache.misses"] == 1

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ConfigError):
            SnapshotBudget(0)


class TestSnapshotStore:
    class _Value:
        def __init__(self, n):
            self.n = n

    def test_unbudgeted_store_never_evicts(self):
        store = SnapshotStore()
        for i in range(100):
            store.put(i, self._Value(i))
        assert len(store) == 100
        assert store.get(5).n == 5
        assert not store.was_evicted(5)

    def test_budgeted_store_evicts_and_remembers(self):
        budget = SnapshotBudget(100)
        store = SnapshotStore(budget=budget, size_of=lambda v: 60)
        store.put("a", self._Value(1))
        store.put("b", self._Value(2))
        assert store.get("a") is None
        assert store.was_evicted("a")
        assert not store.was_evicted("b")
        store.put("a", self._Value(3))       # rebuilt and re-admitted
        assert not store.was_evicted("a")
        store.clear()
        assert len(store) == 0
        assert not store.was_evicted("b")


# -------------------------------------------------------------- checkpoints

def _dummy_state():
    return ("paxos", 3, {("Accept", "delay", 1.0)}, ClusterWeights(),
            HuntResult(total_ledger=CostLedger({"boot": 1.0})))


class TestCheckpointSatellites:
    def test_save_checkpoint_is_atomic_and_loadable(self, tmp_path):
        system, seed, excluded, weights, result = _dummy_state()
        store = RunStore(str(tmp_path), seed=seed)
        store.save_checkpoint(_checkpoint_dict(system, seed, excluded,
                                               weights, result))
        assert not [f for f in os.listdir(str(tmp_path))
                    if f.endswith(".tmp")]
        data = store.load_checkpoint()
        store.close()
        assert data["version"] == CHECKPOINT_VERSION
        assert data["system"] == "paxos"
        assert data["written_at_pass"] == 0

    def test_non_object_checkpoint_rejected(self, tmp_path):
        (tmp_path / "checkpoint-000001.json").write_text("[1, 2, 3]")
        store = RunStore(str(tmp_path), seed=1)
        assert store.load_checkpoint() is None
        assert store.counters()["store.checkpoint.fallbacks"] == 1
        store.close()

    def test_v1_checkpoint_migrates_forward(self):
        v1 = {"version": 1, "system": "paxos", "seed": 3, "excluded": [],
              "weights": {}, "ledger": {}, "passes": [{}, {}],
              "complete": False}
        data = migrate_checkpoint(v1)
        assert data["version"] == CHECKPOINT_VERSION
        assert data["written_at_pass"] == 2
        assert v1["version"] == 1  # original untouched

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigError):
            migrate_checkpoint({"version": 99})


class TestStoreCheckpoints:
    def test_generation_swap_and_prune(self, tmp_path):
        store = RunStore(str(tmp_path), seed=1)
        for n in range(4):
            store.save_checkpoint({"n": n})
        names = sorted(f for f in os.listdir(str(tmp_path))
                       if f.startswith("checkpoint-"))
        assert names == ["checkpoint-000003.json", "checkpoint-000004.json"]
        assert store.load_checkpoint() == {"n": 3}
        store.close()

    def test_corrupt_newest_generation_falls_back(self, tmp_path):
        store = RunStore(str(tmp_path), seed=1)
        store.save_checkpoint({"n": 0})
        store.save_checkpoint({"n": 1})
        newest = os.path.join(str(tmp_path), "checkpoint-000002.json")
        size = os.path.getsize(newest)
        with open(newest, "r+b") as fh:
            fh.truncate(size // 2)  # torn at rename time
        assert store.load_checkpoint() == {"n": 0}
        assert store.counters()["store.checkpoint.fallbacks"] == 1
        store.close()

    def test_all_generations_corrupt_returns_none(self, tmp_path):
        store = RunStore(str(tmp_path), seed=1)
        store.save_checkpoint({"n": 0})
        path = os.path.join(str(tmp_path), "checkpoint-000001.json")
        with open(path, "w") as fh:
            fh.write("garbage")
        assert store.load_checkpoint() is None
        store.close()

    def test_new_store_instance_continues_generations(self, tmp_path):
        store = RunStore(str(tmp_path), seed=1)
        store.save_checkpoint({"n": 0})
        store.close()
        store = RunStore(str(tmp_path), seed=1)
        store.save_checkpoint({"n": 1})
        assert store.load_checkpoint() == {"n": 1}
        store.close()


# ----------------------------------------------------------------- runstore

class TestRunStore:
    def test_seed_mismatch_rejected(self, tmp_path):
        store = RunStore(str(tmp_path), seed=1)
        store.close()
        with pytest.raises(ConfigError):
            RunStore(str(tmp_path), seed=2)

    def test_journal_dedupes_replayed_probes(self, tmp_path):
        from repro.parallel.recording import StepTrace
        from repro.search.probes import ContextProbe
        store = RunStore(str(tmp_path), seed=1)
        probe = ContextProbe(found=True, trace=StepTrace())
        store.journal_context("Accept", probe)
        store.journal_context("Accept", probe)  # dropped: already durable
        appended = store.journal.appended
        store.close()
        reopened = RunStore(str(tmp_path), seed=1)
        assert appended == 2  # meta + one context
        assert "Accept" in reopened.seeded
        reopened.journal_context("Accept", probe)  # dedupe survives reopen
        assert reopened.journal.appended == 0
        reopened.close()

    def test_store_report_one_line(self):
        report = StoreReport()
        assert not report.eventful
        assert report.one_line() == "store: clean"
        report.merge_counters({"store.resume.evals_seeded": 3,
                               "snapshot.cache.evictions": 2})
        assert report.eventful
        assert "3 evals replayed" in report.one_line()
        assert "2 evictions" in report.one_line()


# --------------------------------------------------------------- hunt-level

class TestDurableHunt:
    @pytest.fixture(scope="class")
    def plain(self):
        return hunt(FACTORY, seed=3, message_types=["Accept"],
                    space_config=SPACE, max_wait=5.0, max_passes=2)

    def test_store_hunt_byte_identical_to_plain(self, tmp_path, plain):
        stored = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_wait=5.0, max_passes=2,
                      store_dir=str(tmp_path))
        assert hunt_json(stored) == hunt_json(plain)
        assert stored.store_report is not None
        assert os.path.exists(os.path.join(str(tmp_path), "journal.jsonl"))

    def test_rerun_resumes_from_store(self, tmp_path, plain):
        kwargs = dict(seed=3, message_types=["Accept"], space_config=SPACE,
                      max_wait=5.0, max_passes=2, store_dir=str(tmp_path))
        hunt(FACTORY, **kwargs)
        again = hunt(FACTORY, **kwargs)
        assert hunt_json(again) == hunt_json(plain)
        assert again.resumed_passes == 0  # byte-identity pins it
        counters = again.store_report.counters
        assert counters.get("store.resume.passes_restored", 0) > 0

    def test_store_hunt_workers_byte_identical(self, tmp_path, plain):
        stored = hunt(FACTORY, seed=3, message_types=["Accept"],
                      space_config=SPACE, max_wait=5.0, max_passes=2,
                      workers=2, store_dir=str(tmp_path))
        assert hunt_json(stored) == hunt_json(plain)
        resumed = hunt(FACTORY, seed=3, message_types=["Accept"],
                       space_config=SPACE, max_wait=5.0, max_passes=2,
                       workers=2, store_dir=str(tmp_path))
        assert hunt_json(resumed) == hunt_json(plain)

    def test_guards(self, tmp_path):
        kwargs = dict(seed=3, message_types=["Accept"], space_config=SPACE,
                      max_wait=5.0, max_passes=1)
        with pytest.raises(ConfigError):
            hunt(FACTORY, store_dir=str(tmp_path), injection_cache=True,
                 **kwargs)
        with pytest.raises(ConfigError):
            hunt(FACTORY, snapshot_budget=1024, **kwargs)


class TestBudgetedHunt:
    def test_budgeted_cache_hunt_identical_with_evictions(self):
        kwargs = dict(seed=3, message_types=["Accept", "Heartbeat"],
                      space_config=SPACE, max_wait=5.0, max_passes=2,
                      injection_cache=True)
        unbudgeted = hunt(FACTORY, **kwargs)
        budgeted = hunt(FACTORY, snapshot_budget=1, **kwargs)
        assert hunt_json(budgeted) == hunt_json(unbudgeted)
        counters = budgeted.store_report.counters
        assert counters["snapshot.cache.evictions"] > 0
        assert counters["snapshot.cache.rebuilds"] > 0
        # rebuild time went to the side channel, not the report ledger
        assert counters["snapshot.cache.rebuild_platform_seconds"] > 0

    def test_budgeted_workers_hunt_identical(self):
        # Three cacheable types over two workers: at least one worker
        # holds two contexts, so a 1-byte budget must evict.
        kwargs = dict(seed=3, message_types=["Accept", "Heartbeat", "Learn"],
                      space_config=SPACE, max_wait=5.0, max_passes=2)
        plain = hunt(FACTORY, **kwargs)
        budgeted = hunt(FACTORY, workers=2, snapshot_budget=1, **kwargs)
        assert hunt_json(budgeted) == hunt_json(plain)
        assert budgeted.store_report.counters[
            "snapshot.cache.evictions"] > 0
