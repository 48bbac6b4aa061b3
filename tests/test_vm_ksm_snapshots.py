"""Tests for KSM page merging and page-sharing-aware snapshots."""

import pytest

from repro.common.errors import SnapshotError
from repro.common.units import MIB
from repro.vm.ksm import KsmDaemon
from repro.vm.memory import GuestMemory, OsImage
from repro.vm.snapshots import SnapshotManager
from repro.vm.timing import VmTimingModel

SMALL = OsImage(name="small", resident_mb=2, unique_mb=1)


def make_guests(n):
    return [GuestMemory(f"vm{i}", SMALL) for i in range(n)]


class TestKsm:
    def test_scan_finds_shared_os_pages(self):
        guests = make_guests(3)
        ksm = KsmDaemon()
        for g in guests:
            g.clear_dirty()
            ksm.register(g)
        stats = ksm.scan()
        assert stats.pages_shared == SMALL.shared_pages
        assert stats.pages_sharing == 3 * SMALL.shared_pages

    def test_unique_pages_not_merged(self):
        guests = make_guests(2)
        ksm = KsmDaemon()
        for g in guests:
            g.clear_dirty()
            ksm.register(g)
        ksm.scan()
        pfn = SMALL.shared_pages  # first per-VM unique page
        for g in guests:
            assert not ksm.is_shared(g.vm_name, pfn, g.page(pfn))

    def test_is_shared_for_merged_pages(self):
        guests = make_guests(2)
        ksm = KsmDaemon()
        for g in guests:
            g.clear_dirty()
            ksm.register(g)
        ksm.scan()
        assert ksm.is_shared("vm0", 0, guests[0].page(0))

    def test_volatile_pages_skipped(self):
        guests = make_guests(2)
        ksm = KsmDaemon()
        for g in guests:
            ksm.register(g)
        guests[0].clear_dirty()
        guests[1].clear_dirty()
        guests[0].touch(0)  # dirty since last scan: volatile
        stats = ksm.scan()
        assert stats.pages_volatile == 1
        assert not ksm.is_shared("vm0", 0, guests[0].page(0))
        # second scan: the page was quiescent, so it merges now
        stats = ksm.scan()
        assert ksm.is_shared("vm0", 0, guests[0].page(0))

    def test_identical_app_pages_merge(self):
        guests = make_guests(2)
        for g in guests:
            g.write_app_state(b"same-state" * 1000)
            g.clear_dirty()
        ksm = KsmDaemon()
        for g in guests:
            ksm.register(g)
        ksm.scan()
        ratio = ksm.sharing_ratio()
        assert ratio > SMALL.shared_pages / (SMALL.shared_pages
                                             + SMALL.unique_pages)

    def test_unregister_prunes(self):
        guests = make_guests(2)
        ksm = KsmDaemon()
        for g in guests:
            g.clear_dirty()
            ksm.register(g)
        ksm.scan()
        assert ksm.stats.pages_shared == SMALL.shared_pages
        ksm.unregister("vm1")
        assert not ksm.is_shared("vm0", 0, guests[0].page(0))
        # the stats follow the pruned table, not the last scan
        assert ksm.stats.pages_shared == 0
        assert ksm.stats.pages_sharing == 0
        assert ksm.sharing_ratio() <= 1.0


class TestSnapshots:
    def _setup(self, n=3):
        guests = make_guests(n)
        ksm = KsmDaemon()
        for g in guests:
            g.write_app_state(f"{g.vm_name}-state".encode() * 50)
            g.clear_dirty()
            ksm.register(g)
        ksm.scan()
        return guests, SnapshotManager(ksm, VmTimingModel())

    def test_plain_snapshot_stores_everything(self):
        guests, manager = self._setup()
        snap = manager.save(guests, shared=False)
        assert snap.mode == "plain"
        assert snap.shared_map is None
        total_pages = sum(g.resident_pages() for g in guests)
        assert snap.stored_bytes() >= total_pages * 4096

    def test_shared_snapshot_smaller(self):
        guests, manager = self._setup()
        plain = manager.save(guests, shared=False)
        shared = manager.save(guests, shared=True)
        assert shared.stored_bytes() < plain.stored_bytes()
        assert shared.save_time < plain.save_time

    def test_shared_refs_counted(self):
        guests, manager = self._setup()
        shared = manager.save(guests, shared=True)
        refs = sum(s.shared_refs() for s in shared.vm_snapshots)
        assert refs == 3 * SMALL.shared_pages
        assert len(shared.shared_map.pages) == SMALL.shared_pages

    def test_restore_roundtrip_plain(self):
        guests, manager = self._setup()
        snap = manager.save(guests, shared=False)
        for g in guests:
            g.write_app_state(b"corrupted")
        manager.load(snap, guests)
        for g in guests:
            assert g.read_app_state().startswith(f"{g.vm_name}-state".encode())

    def test_restore_roundtrip_shared(self):
        guests, manager = self._setup()
        snap = manager.save(guests, shared=True)
        before = {g.vm_name: [p.digest for _, p in g.iter_pages()]
                  for g in guests}
        for g in guests:
            g.write_app_state(b"corrupted")
        manager.load(snap, guests)
        for g in guests:
            assert [p.digest for _, p in g.iter_pages()] == before[g.vm_name]

    def test_shared_requires_ksm(self):
        guests = make_guests(2)
        manager = SnapshotManager(None, VmTimingModel())
        with pytest.raises(SnapshotError):
            manager.save(guests, shared=True)

    def test_load_into_unknown_guest_raises(self):
        guests, manager = self._setup()
        snap = manager.save(guests, shared=False)
        with pytest.raises(SnapshotError):
            manager.load(snap, [GuestMemory("other", SMALL)])

    def test_default_bandwidth_slower(self):
        guests, manager = self._setup()
        fast = manager.save(guests, shared=False, max_bandwidth=True)
        slow = manager.save(guests, shared=False, max_bandwidth=False)
        assert slow.save_time > fast.save_time


class TestTableTwoShape:
    """The Table II claim: sharing cuts save time by roughly a third, and
    the saving grows with the number of VMs."""

    @pytest.mark.parametrize("n_vms", [5, 10, 15])
    def test_time_reduction_band(self, n_vms):
        guests = [GuestMemory(f"vm{i}", OsImage()) for i in range(n_vms)]
        ksm = KsmDaemon()
        for g in guests:
            g.write_app_state(f"{g.vm_name}".encode() * 200)
            g.clear_dirty()
            ksm.register(g)
        ksm.scan()
        manager = SnapshotManager(ksm, VmTimingModel())
        plain = manager.save(guests, shared=False)
        shared = manager.save(guests, shared=True)
        __, time_red = SnapshotManager.compare(plain, shared)
        assert 28.0 < time_red < 46.0

    def test_reduction_grows_with_vm_count(self):
        reductions = []
        for n_vms in (5, 15):
            guests = [GuestMemory(f"vm{i}", OsImage()) for i in range(n_vms)]
            ksm = KsmDaemon()
            for g in guests:
                g.clear_dirty()
                ksm.register(g)
            ksm.scan()
            manager = SnapshotManager(ksm, VmTimingModel())
            plain = manager.save(guests, shared=False)
            shared = manager.save(guests, shared=True)
            reductions.append(SnapshotManager.compare(plain, shared)[1])
        assert reductions[1] > reductions[0]

    def test_five_vm_sizes_match_paper_scale(self):
        guests = [GuestMemory(f"vm{i}", OsImage()) for i in range(5)]
        manager = SnapshotManager(None, VmTimingModel())
        plain = manager.save(guests, shared=False)
        # paper: ~532 MB for 5 VMs
        assert 450 * MIB < plain.stored_bytes() < 620 * MIB
        # paper: 5.76 s at max bandwidth, 15.24 s at the default cap
        assert 4.5 < plain.save_time < 7.0
        slow = manager.save(guests, shared=False, max_bandwidth=False)
        assert 13.0 < slow.save_time < 18.0
        # paper: loading 5 VMs took 0.038 s
        assert plain.load_time == pytest.approx(0.038, abs=0.01)


class TestCompareDegenerate:
    """compare() on degenerate snapshots must report 0%, not divide by
    zero (a snapshot of zero guests, or of guests with no pages, stores
    zero bytes and takes zero time)."""

    def test_empty_cluster_compares_to_zero(self):
        manager = SnapshotManager(KsmDaemon(), VmTimingModel())
        plain = manager.save([], shared=False)
        shared = manager.save([], shared=True)
        assert SnapshotManager.compare(plain, shared) == (0.0, 0.0)


class _SequenceSender:
    """Table II's measurement app: hostname plus a counter (mirrors
    ``benchmarks/bench_table2_snapshots.py``)."""

    def __init__(self, hostname):
        self.hostname = hostname
        self.sequence = 0
        self.sent = []

    def tick(self):
        self.sequence += 1
        self.sent.append(f"{self.hostname}:{self.sequence}")

    def snapshot_state(self):
        return {"hostname": self.hostname, "sequence": self.sequence,
                "sent": list(self.sent)}

    def restore_state(self, state):
        self.hostname = state["hostname"]
        self.sequence = state["sequence"]
        self.sent = list(state["sent"])


class TestTableTwoPins:
    """Table II to the digit: the modelled save/load times and stored bytes
    of the ``run_cluster`` workload (plain save, resume, shared save on one
    cluster).  Any change to the snapshot path must leave these exact."""

    PINS = {
        # n_vms: ((plain save, load, bytes), (shared save, load, bytes))
        5: ((5.561841249465942, 0.038, 556986925),
            (3.6530912494659424, 0.038, 356839981)),
        10: ((11.123682498931885, 0.076, 1113973850),
             (6.824307498931884, 0.076, 663151706)),
        15: ((16.685523748397827, 0.114, 1670960775),
             (9.995523748397828, 0.114, 969463431)),
    }

    @pytest.mark.parametrize("n_vms", [5, 10, 15])
    def test_run_cluster_exact(self, n_vms):
        from repro.vm.manager import VmCluster

        cluster = VmCluster([f"vm{i}" for i in range(n_vms)])
        cluster.boot_all()
        for vm in cluster.machines():
            vm.app = _SequenceSender(vm.name)
            for __ in range(30):
                vm.app.tick()
        plain = cluster.save_snapshot(shared=False).snapshot
        cluster.resume_all()
        shared = cluster.save_snapshot(shared=True).snapshot
        got = tuple((s.save_time, s.load_time, s.stored_bytes())
                    for s in (plain, shared))
        assert got == self.PINS[n_vms]
        assert shared.page_counts()["pages_shared"] == 12288 * n_vms
