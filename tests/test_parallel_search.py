"""Tests for parallel hunt execution and the injection-point cache.

The parallel executor's contract is strict: a pass sharded across workers
must produce a report *byte-identical* (same JSON serialization) to the
serial algorithm's — same findings, same float-exact ledger, same
supervision events.  These tests assert that for all three algorithms, for
full hunts with run-store checkpoints, and under an environmental fault
schedule.
"""

import json

import pytest

from repro.analysis.reports import hunt_result_to_dict, report_to_dict
from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import ConfigError
from repro.controller.harness import AttackHarness
from repro.controller.supervisor import FaultPlan, SupervisorEvent
from repro.faults.schedule import FaultSchedule
from repro.parallel import ScenarioExecutor
from repro.search.brute import BruteForceSearch
from repro.search.greedy import GreedySearch
from repro.search.hunt import hunt
from repro.search.weighted import WeightedGreedySearch
from repro.store.runstore import RunStore
from repro.systems.paxos.testbed import paxos_testbed

SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(1.0,),
                          duplicate_counts=(50,), include_divert=False,
                          include_lying=False)
FACTORY = paxos_testbed(malicious_index=0, warmup=1.0, window=2.0)
TYPES = ["Accept", "Prepare", "Heartbeat"]


def report_json(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def hunt_json(result) -> str:
    return json.dumps(hunt_result_to_dict(result), sort_keys=True)


class TestParallelPassIdentity:
    def test_weighted_matches_serial(self):
        serial = WeightedGreedySearch(
            FACTORY, seed=3, space_config=SPACE,
            max_wait=5.0).run(message_types=TYPES)
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            parallel = executor.run_pass(message_types=TYPES)
        assert report_json(parallel) == report_json(serial)
        assert parallel.findings  # the pass actually found something

    def test_greedy_matches_serial(self):
        serial = GreedySearch(
            FACTORY, seed=3, space_config=SPACE, max_wait=5.0,
            rounds=2, confirmations=2).run(message_types=["Accept"])
        with ScenarioExecutor(FACTORY, seed=3, algorithm="greedy",
                              workers=2, space_config=SPACE, max_wait=5.0,
                              rounds=2, confirmations=2) as executor:
            parallel = executor.run_pass(message_types=["Accept"])
        assert report_json(parallel) == report_json(serial)

    def test_greedy_rejects_more_confirmations_than_rounds(self):
        # the same check the serial GreedySearch makes: a pass whose
        # confirmations exceed its rounds can never confirm an attack
        with pytest.raises(ValueError, match="confirmations"):
            ScenarioExecutor(FACTORY, seed=3, algorithm="greedy", workers=2,
                             space_config=SPACE, max_wait=5.0,
                             rounds=1, confirmations=2)

    def test_brute_matches_serial(self):
        serial = BruteForceSearch(
            FACTORY, seed=3, space_config=SPACE,
            max_wait=5.0).run(message_types=["Accept"], max_scenarios=3)
        with ScenarioExecutor(FACTORY, seed=3, algorithm="brute",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            parallel = executor.run_pass(message_types=["Accept"],
                                         max_scenarios=3)
        assert report_json(parallel) == report_json(serial)

    def test_worker_breakdown_covers_the_shards(self):
        with ScenarioExecutor(FACTORY, seed=3, algorithm="weighted",
                              workers=2, space_config=SPACE,
                              max_wait=5.0) as executor:
            executor.run_pass(message_types=TYPES)
            breakdown = executor.worker_breakdown()
        assert [w.worker for w in breakdown] == [0, 1]
        shards = [t for w in breakdown for t in w.shards]
        assert sorted(shards) == sorted(TYPES)
        assert all(w.ledger.total() > 0 for w in breakdown)


class TestParallelHuntIdentity:
    def test_hunt_workers_byte_identical(self, tmp_path):
        serial = hunt(FACTORY, seed=3, message_types=TYPES,
                      space_config=SPACE, max_passes=3, max_wait=5.0)
        parallel = hunt(FACTORY, seed=3, message_types=TYPES,
                        space_config=SPACE, max_passes=3, max_wait=5.0,
                        store_dir=str(tmp_path), workers=4)
        assert hunt_json(parallel) == hunt_json(serial)
        # the parallel store's pass checkpoint holds the serial passes
        store = RunStore(str(tmp_path))
        state = store.load_checkpoint()
        store.close()
        serial_state = hunt_result_to_dict(serial)
        for key in ("passes", "ledger"):
            assert json.dumps(state[key], sort_keys=True) == \
                json.dumps(serial_state[key], sort_keys=True)
        assert parallel.worker_breakdown  # side channel, not serialized
        assert "worker_breakdown" not in hunt_json(parallel)

    def test_hunt_identical_under_fault_schedule(self):
        schedule = FaultSchedule(seed=11)
        schedule.add("slow", 1.5, node="replica2", factor=2.0, duration=1.0)
        schedule.add("loss", 0.5, path="*", p_enter_bad=0.02,
                     p_exit_bad=0.5)
        serial = hunt(FACTORY, seed=3, message_types=["Accept", "Prepare"],
                      space_config=SPACE, max_passes=2, max_wait=5.0,
                      fault_schedule=schedule)
        parallel = hunt(FACTORY, seed=3,
                        message_types=["Accept", "Prepare"],
                        space_config=SPACE, max_passes=2, max_wait=5.0,
                        fault_schedule=schedule, workers=2)
        assert hunt_json(parallel) == hunt_json(serial)

    def test_workers_reject_fault_plan(self):
        with pytest.raises(ConfigError):
            hunt(FACTORY, seed=3, workers=2,
                 fault_plan=FaultPlan.from_spec("restore=0.5", seed=1))

    def test_workers_reject_injection_cache(self):
        with pytest.raises(ConfigError):
            hunt(FACTORY, seed=3, workers=2, injection_cache=True)


class TestInjectionCache:
    def test_second_pass_charges_less_execution(self):
        result = hunt(FACTORY, seed=3, message_types=TYPES,
                      space_config=SPACE, max_passes=3, max_wait=5.0,
                      injection_cache=True)
        assert len(result.passes) >= 2
        first, second = result.passes[0], result.passes[1]
        assert second.ledger.get("execution") < first.ledger.get("execution")
        assert second.ledger.get("boot") == 0.0  # testbed reused
        assert first.ledger.get("boot") > 0.0

    def test_cached_hunt_finds_the_same_attacks(self):
        plain = hunt(FACTORY, seed=3, message_types=TYPES,
                     space_config=SPACE, max_passes=3, max_wait=5.0)
        cached = hunt(FACTORY, seed=3, message_types=TYPES,
                      space_config=SPACE, max_passes=3, max_wait=5.0,
                      injection_cache=True)
        assert cached.attack_names() == plain.attack_names()
        assert len(cached.passes) == len(plain.passes)

    def test_cache_hit_returns_same_point(self):
        harness = AttackHarness(FACTORY, seed=3, injection_cache=True)
        harness.start_run()
        assert harness.cached_injection("Accept") is None
        point = harness.run_to_injection("Accept", max_wait=5.0)
        assert point is not None
        assert harness.cached_injection("Accept") is point

    def test_cache_invalidated_by_rebuild(self):
        harness = AttackHarness(FACTORY, seed=3, injection_cache=True)
        harness.start_run()
        assert harness.run_to_injection("Accept", max_wait=5.0) is not None
        assert harness.cached_injection("Accept") is not None
        harness.start_run()  # rebuild: a new world, a new warm epoch
        assert harness.cached_injection("Accept") is None

    def test_cache_off_by_default(self):
        harness = AttackHarness(FACTORY, seed=3)
        harness.start_run()
        assert harness.run_to_injection("Accept", max_wait=5.0) is not None
        assert harness.cached_injection("Accept") is None


class TestSupervisorStatsReset:
    def test_interrupted_pass_does_not_double_count(self):
        """Events left over from an aborted pass (stats were only reset at
        finalize) must not leak into the next pass's report."""
        search = WeightedGreedySearch(FACTORY, seed=3, space_config=SPACE,
                                      max_wait=5.0)
        stale = SupervisorEvent("retry", "injection:Accept", "Accept",
                                "interrupted mid-pass", 1, at=1.0)
        search.supervisor.stats.events.append(stale)
        search.supervisor.stats.retries = 1
        report = search.run(message_types=["Accept"])
        assert stale not in report.supervisor.events
        assert report.supervisor.retries == 0
