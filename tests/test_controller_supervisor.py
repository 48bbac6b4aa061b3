"""Tests for the supervision layer: fault plans, classify-retry-quarantine,
the kernel watchdog, and pass-level hunt resume.

The acceptance bar: a PBFT hunt running under a fault plan that fails
>= 10% of snapshot restores, with the watchdog armed, must find the same
attacks as a fault-free hunt; and a hunt interrupted mid-campaign and
resumed from its run store must produce the uninterrupted hunt's bytes.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reports import hunt_result_to_dict
from repro.attacks.space import ActionSpaceConfig
from repro.common.errors import (ConfigError, ProxyError, SimulationError,
                                 SnapshotError, WatchdogTimeout)
from repro.controller.costs import REBUILD, RETRY, CostLedger
from repro.controller.harness import AttackHarness
from repro.controller.supervisor import (FAULT_OPS, OP_PROXY,
                                         OP_SNAPSHOT_RESTORE,
                                         OP_SNAPSHOT_SAVE, FaultPlan,
                                         ScenarioQuarantined,
                                         ScenarioSupervisor, SupervisorStats)
from repro.parallel.executor import ScenarioExecutor
from repro.search.hunt import hunt
from repro.search.weighted import WeightedGreedySearch
from repro.store.runstore import RunStore
from repro.systems.pbft.testbed import pbft_testbed

TINY_SPACE = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(0.5,),
                               duplicate_counts=(50,), include_divert=False,
                               include_lying=False)
FACTORY = pbft_testbed(malicious="primary", warmup=1.0, window=2.0)


# ---------------------------------------------------------------- FaultPlan

class TestFaultPlan:
    def test_deterministic_across_instances(self):
        def trace(plan):
            outcomes = []
            for _ in range(200):
                for op in FAULT_OPS:
                    try:
                        plan.check(op)
                        outcomes.append(None)
                    except Exception as exc:
                        outcomes.append((op, type(exc).__name__))
            return outcomes

        kwargs = dict(seed=7, boot_rate=0.05, snapshot_save_rate=0.1,
                      snapshot_restore_rate=0.2, proxy_rate=0.02)
        assert trace(FaultPlan(**kwargs)) == trace(FaultPlan(**kwargs))

    def test_zero_rate_consumes_no_draws(self):
        # Ops with rate 0 must not advance the stream, so adding an
        # un-faulted op to the schedule cannot shift later fault draws.
        a = FaultPlan(seed=1, snapshot_restore_rate=0.5)
        b = FaultPlan(seed=1, snapshot_restore_rate=0.5)
        outcomes_a, outcomes_b = [], []
        for _ in range(100):
            b.check(OP_PROXY)  # rate 0: a no-op draw-wise
            for plan, out in ((a, outcomes_a), (b, outcomes_b)):
                try:
                    plan.check(OP_SNAPSHOT_RESTORE)
                    out.append(False)
                except SnapshotError:
                    out.append(True)
        assert outcomes_a == outcomes_b

    def test_max_faults_caps_total(self):
        plan = FaultPlan(seed=3, snapshot_restore_rate=1.0, max_faults=2)
        hits = 0
        for _ in range(10):
            try:
                plan.check(OP_SNAPSHOT_RESTORE)
            except SnapshotError:
                hits += 1
        assert hits == 2
        assert plan.total_injected == 2

    def test_raises_real_platform_errors(self):
        plan = FaultPlan(seed=0, snapshot_save_rate=1.0, boot_rate=1.0)
        with pytest.raises(SnapshotError):
            plan.check(OP_SNAPSHOT_SAVE)
        with pytest.raises(SimulationError):
            plan.check("boot")
        with pytest.raises(ProxyError):
            FaultPlan(seed=0, proxy_rate=1.0).check(OP_PROXY)

    def test_from_spec(self):
        plan = FaultPlan.from_spec(
            "restore=0.1,save=0.05,boot=0.02,proxy=0.01,max=5", seed=9)
        assert plan.snapshot_restore_rate == 0.1
        assert plan.snapshot_save_rate == 0.05
        assert plan.boot_rate == 0.02
        assert plan.proxy_rate == 0.01
        assert plan.max_faults == 5
        assert plan.seed == 9

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("restore")
        with pytest.raises(ConfigError):
            FaultPlan.from_spec("bogus=0.5")

    def test_describe_mentions_rates(self):
        text = FaultPlan(seed=2, snapshot_restore_rate=0.25,
                         max_faults=3).describe()
        assert "snapshot_restore=25%" in text
        assert "max 3" in text

    @given(seed=st.integers(0, 2**32 - 1),
           ops=st.lists(st.sampled_from(FAULT_OPS), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_property_same_seed_same_faults(self, seed, ops):
        def run(plan):
            seq = []
            for op in ops:
                try:
                    plan.check(op)
                    seq.append(None)
                except Exception as exc:
                    seq.append(str(exc))
            return seq

        make = lambda: FaultPlan(seed=seed, boot_rate=0.3,  # noqa: E731
                                 snapshot_save_rate=0.3,
                                 snapshot_restore_rate=0.3, proxy_rate=0.3)
        assert run(make()) == run(make())


# ------------------------------------------------------- ScenarioSupervisor

class FlakyOp:
    """Callable failing ``failures`` times with ``error`` before succeeding."""

    def __init__(self, failures, error=SnapshotError("flaky")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok"


class TestScenarioSupervisor:
    def test_transient_failure_retried_with_rebuild(self):
        ledger = CostLedger()
        sup = ScenarioSupervisor(ledger, max_retries=2)
        rebuilds = []
        op = FlakyOp(failures=1)
        result = sup.run("branch:X", op, rebuild=lambda: rebuilds.append(1),
                         scenario="Delay 1s X")
        assert result == "ok"
        assert op.calls == 2
        assert len(rebuilds) == 1
        assert sup.stats.retries == 1
        assert sup.stats.rebuilds == 1
        assert sup.stats.quarantines == 0
        assert ledger.get(RETRY) == pytest.approx(sup.retry_overhead)

    def test_quarantine_after_exhausted_retries(self):
        sup = ScenarioSupervisor(CostLedger(), max_retries=2)
        op = FlakyOp(failures=10)
        with pytest.raises(ScenarioQuarantined) as err:
            sup.run("branch:X", op, rebuild=lambda: None, scenario="X")
        assert err.value.attempts == 3  # initial try + 2 retries
        assert op.calls == 3
        assert sup.stats.quarantines == 1
        kinds = [e.kind for e in sup.stats.events]
        assert kinds.count("retry") == 3
        assert kinds[-1] == "quarantine"

    def test_fatal_errors_pass_through_immediately(self):
        sup = ScenarioSupervisor(CostLedger(), max_retries=5)
        calls = []

        def fatal():
            calls.append(1)
            raise ConfigError("bad config")

        with pytest.raises(ConfigError):
            sup.run("start_run", fatal)
        assert len(calls) == 1
        assert sup.stats.retries == 0

        def alien():
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            sup.run("start_run", alien)

    def test_rebuild_failures_count_as_attempts(self):
        # An injected boot fault during the rebuild itself must not let the
        # supervisor loop forever.
        sup = ScenarioSupervisor(CostLedger(), max_retries=2)

        def always_fail():
            raise SnapshotError("restore failed")

        def failing_rebuild():
            raise SimulationError("boot failed")

        with pytest.raises(ScenarioQuarantined):
            sup.run("branch:X", always_fail, rebuild=failing_rebuild)
        assert sup.stats.retries == 3

    def test_watchdog_trip_counted(self):
        sup = ScenarioSupervisor(CostLedger(), max_retries=0)
        with pytest.raises(ScenarioQuarantined):
            sup.run("branch:X",
                    FlakyOp(1, WatchdogTimeout("storm", events=9, limit=8)))
        assert sup.stats.watchdog_trips == 1
        assert any(e.kind == "watchdog" for e in sup.stats.events)

    def test_stats_merge_and_describe(self):
        a = SupervisorStats(retries=1, rebuilds=2, quarantines=0,
                            watchdog_trips=1)
        b = SupervisorStats(retries=2, rebuilds=0, quarantines=1,
                            watchdog_trips=0)
        a.merge(b)
        assert (a.retries, a.rebuilds, a.quarantines,
                a.watchdog_trips) == (3, 2, 1, 1)
        assert "3 retries" in a.describe()

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSupervisor(CostLedger(), max_retries=-1)


# ------------------------------------------------------------ the watchdog

class TestWatchdog:
    def test_kernel_trips_on_event_storm(self):
        from repro.sim.kernel import SimKernel
        kernel = SimKernel()
        kernel.watchdog_limit = 50

        def storm():
            kernel.schedule(0.001, storm)

        kernel.schedule_at(0.0, storm)
        with pytest.raises(WatchdogTimeout) as err:
            kernel.run_until(10.0)
        assert err.value.limit == 50
        assert kernel.watchdog_trips == 1

    def test_limit_resets_per_window(self):
        from repro.sim.kernel import SimKernel
        kernel = SimKernel()
        kernel.watchdog_limit = 50
        for i in range(40):
            kernel.schedule_at(i * 0.01, lambda: None)
        kernel.run_until(1.0)   # 40 events: under the limit
        for i in range(40):
            kernel.schedule(i * 0.01 + 0.01, lambda: None)
        kernel.run_until(2.0)   # fresh window, fresh budget
        assert kernel.watchdog_trips == 0

    def test_harness_arms_world_watchdog(self):
        harness = AttackHarness(FACTORY, seed=1, watchdog_limit=5_000_000)
        harness.start_run()
        assert harness.world.kernel.watchdog_limit == 5_000_000
        assert harness.world.watchdog_trips == 0


# --------------------------------------------------- harness exception safety

class TestHarnessExceptionSafety:
    def test_failed_branch_leaves_proxy_clean(self):
        # Every restore fails: branch_measure must raise, but the proxy
        # ends disarmed with no policy and no stranded held message.
        harness = AttackHarness(
            FACTORY, seed=1,
            fault_plan=FaultPlan(seed=0, snapshot_restore_rate=1.0))
        instance = harness.start_run()
        injection = harness.run_to_injection("PrePrepare", max_wait=5.0)
        assert injection is not None
        from repro.attacks.actions import DelayAction
        with pytest.raises(SnapshotError):
            harness.branch_measure(injection, DelayAction(1.0))
        assert instance.proxy.armed_type is None
        assert not instance.proxy.policy
        assert not instance.proxy.has_held()

    def test_failed_seek_leaves_proxy_disarmed(self):
        harness = AttackHarness(FACTORY, seed=1)
        instance = harness.start_run()
        # Inject after the boot so the warm snapshot succeeds but the
        # injection-point snapshot inside the seek fails.
        plan = FaultPlan(seed=0, snapshot_save_rate=1.0)
        harness.fault_plan = plan
        harness.snapshotter.fault_plan = plan
        with pytest.raises(SnapshotError):
            harness.run_to_injection("PrePrepare", max_wait=5.0)
        assert instance.proxy.armed_type is None
        assert not instance.proxy.has_held()


# ----------------------------------------------- supervised search and hunt

class TestSupervisedSearch:
    def test_fault_injected_search_finds_same_attacks(self):
        clean = WeightedGreedySearch(FACTORY, seed=1, space_config=TINY_SPACE)
        clean_report = clean.run(message_types=["PrePrepare"])

        plan = FaultPlan(seed=5, snapshot_restore_rate=0.15, max_faults=3)
        faulty = WeightedGreedySearch(FACTORY, seed=1,
                                      space_config=TINY_SPACE,
                                      fault_plan=plan, max_retries=3)
        faulty_report = faulty.run(message_types=["PrePrepare"])
        assert faulty_report.attack_names() == clean_report.attack_names()
        assert faulty_report.quarantined == []
        if plan.total_injected:
            assert faulty_report.supervisor.retries >= plan.total_injected
            assert faulty_report.ledger.get(RETRY) > 0

    def test_persistent_faults_quarantine_not_crash(self):
        # Every restore fails and retries are exhausted immediately: the
        # pass must complete with quarantined scenarios, not an exception.
        plan = FaultPlan(seed=0, snapshot_restore_rate=1.0)
        search = WeightedGreedySearch(FACTORY, seed=1,
                                      space_config=TINY_SPACE,
                                      fault_plan=plan, max_retries=1)
        report = search.run(message_types=["PrePrepare"])
        assert report.findings == []
        assert report.quarantined
        assert all(q.verdict == "inconclusive" for q in report.quarantined)
        assert report.supervisor.quarantines == len(report.quarantined)

    def test_rebuild_cost_charged(self):
        plan = FaultPlan(seed=5, snapshot_restore_rate=0.15, max_faults=3)
        search = WeightedGreedySearch(FACTORY, seed=1,
                                      space_config=TINY_SPACE,
                                      fault_plan=plan, max_retries=3)
        report = search.run(message_types=["PrePrepare"])
        if report.supervisor.rebuilds:
            assert report.ledger.get(REBUILD) > 0

    def test_snapshot_options_plumbed_to_harness(self):
        search = WeightedGreedySearch(FACTORY, seed=1,
                                      space_config=TINY_SPACE,
                                      shared_pages=False,
                                      delta_snapshots=True)
        assert search.harness.shared_pages is False
        assert search.harness.delta_snapshots is True
        default = WeightedGreedySearch(FACTORY, seed=1)
        assert default.harness.shared_pages is True
        assert default.harness.delta_snapshots is False


class TestSupervisedHunt:
    def test_acceptance_faulty_hunt_matches_fault_free(self):
        # ISSUE acceptance: PBFT hunt, >=10% snapshot-restore failures,
        # watchdog armed -> identical attack names to the fault-free hunt.
        clean = hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                     space_config=TINY_SPACE, max_passes=2, max_wait=5.0)
        plan = FaultPlan(seed=11, snapshot_restore_rate=0.10, max_faults=4)
        faulty = hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                      space_config=TINY_SPACE, max_passes=2, max_wait=5.0,
                      fault_plan=plan, watchdog_limit=2_000_000,
                      max_retries=3)
        assert faulty.attack_names() == clean.attack_names()
        assert faulty.quarantined == []
        assert "supervision" in faulty.describe() or plan.total_injected == 0


class TestCheckpointResume:
    """Pass-level resume through the run store (``store_dir``)."""

    def test_resume_reproduces_uninterrupted_hunt(self, tmp_path):
        kwargs = dict(seed=1, message_types=["PrePrepare"],
                      space_config=TINY_SPACE, max_wait=5.0)
        full_store = str(tmp_path / "full")
        store = str(tmp_path / "resumed")

        full = hunt(FACTORY, max_passes=2, store_dir=full_store, **kwargs)

        # Simulate an interruption after pass 1, then resume the campaign.
        hunt(FACTORY, max_passes=1, store_dir=store, **kwargs)
        resumed = hunt(FACTORY, max_passes=2, store_dir=store, **kwargs)

        assert len(full.passes) == 2
        assert hunt_json(resumed) == hunt_json(full)
        assert resumed.store_report.counters[
            "store.resume.passes_restored"] == 1
        # the resumed campaign's checkpoint is identical to the
        # uninterrupted one's
        assert _store_checkpoint(store) == _store_checkpoint(full_store)

    def test_complete_checkpoint_short_circuits(self, tmp_path):
        store = str(tmp_path / "store")
        space = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(),
                                  duplicate_counts=(), include_divert=False,
                                  include_lying=False)
        first = hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                     space_config=space, max_passes=3, max_wait=5.0,
                     store_dir=store)
        assert not first.passes[-1].findings  # converged
        again = hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                     space_config=space, max_passes=3, max_wait=5.0,
                     store_dir=store)
        assert hunt_json(again) == hunt_json(first)
        counters = again.store_report.counters
        assert counters["store.resume.passes_restored"] == len(again.passes)
        # no new pass was executed: nothing new was journaled
        assert counters.get("store.journal.records_appended", 0) == 0

    def test_seed_mismatch_rejected(self, tmp_path):
        store = str(tmp_path / "store")
        hunt(FACTORY, seed=1, message_types=["PrePrepare"],
             space_config=TINY_SPACE, max_passes=1, max_wait=5.0,
             store_dir=store)
        with pytest.raises(ConfigError):
            hunt(FACTORY, seed=2, message_types=["PrePrepare"],
                 space_config=TINY_SPACE, max_passes=1, max_wait=5.0,
                 store_dir=store)

    def test_version_mismatch_rejected(self, tmp_path):
        store = RunStore(str(tmp_path), seed=1)
        store.save_checkpoint({"version": 99})
        store.close()
        with pytest.raises(ConfigError, match="version 99"):
            hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                 space_config=TINY_SPACE, max_passes=1, max_wait=5.0,
                 store_dir=str(tmp_path))

    def test_interrupt_mid_pass_checkpoints_and_returns(self, tmp_path,
                                                        monkeypatch):
        store = str(tmp_path / "store")
        monkeypatch.setattr(ScenarioExecutor, "run_pass",
                            _raise_keyboard_interrupt)
        result = hunt(FACTORY, seed=1, message_types=["PrePrepare"],
                      space_config=TINY_SPACE, max_passes=2, max_wait=5.0,
                      store_dir=store)
        assert result.interrupted
        assert result.passes == []
        data = _store_checkpoint(store)
        assert data["passes"] == []
        assert not data["complete"]


def hunt_json(result) -> str:
    return json.dumps(hunt_result_to_dict(result), sort_keys=True)


def _store_checkpoint(directory: str) -> dict:
    store = RunStore(directory)
    try:
        return store.load_checkpoint()
    finally:
        store.close()


def _raise_keyboard_interrupt(self, message_types=None, exclude=None,
                              **kwargs):
    raise KeyboardInterrupt


# --------------------------------------------------------------------- CLI

class TestCliSupervision:
    def test_flags_parsed(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["hunt", "pbft", "--inject-faults", "restore=0.1,max=2",
             "--watchdog", "500000", "--max-retries", "4",
             "--no-shared-pages"])
        assert args.inject_faults == "restore=0.1,max=2"
        assert args.watchdog == 500000
        assert args.max_retries == 4
        assert args.no_shared_pages

    def test_search_interrupt_prints_partial_report(self, capsys,
                                                    monkeypatch):
        from repro.cli import EXIT_INTERRUPTED, main
        monkeypatch.setattr(WeightedGreedySearch, "run",
                            _raise_keyboard_interrupt)
        code = main(["search", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2"])
        assert code == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().out

    def test_hunt_interrupt_prints_resume_hint(self, capsys, monkeypatch,
                                               tmp_path):
        from repro.cli import EXIT_INTERRUPTED, main
        store = str(tmp_path / "store")
        monkeypatch.setattr(ScenarioExecutor, "run_pass",
                            _raise_keyboard_interrupt)
        code = main(["hunt", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2",
                     "--store", store])
        assert code == EXIT_INTERRUPTED
        out = capsys.readouterr().out
        assert "INTERRUPTED" in out
        assert f"--store {store}" in out

    def test_hunt_cli_fault_plan_roundtrip(self, capsys):
        from repro.cli import main
        code = main(["hunt", "pbft", "--types", "PrePrepare", "--fast",
                     "--no-lying", "--warmup", "1", "--window", "2",
                     "--max-wait", "5", "--passes", "1",
                     "--inject-faults", "restore=0.15,max=2",
                     "--watchdog", "2000000"])
        assert code == 0
        assert "hunt:" in capsys.readouterr().out
