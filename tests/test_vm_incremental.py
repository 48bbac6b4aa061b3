"""The incremental snapshot path against the full-rebuild reference.

KSM scans, saves and restores cost wall time in proportion to what changed
(``repro.vm``).  This file keeps the original full-rebuild algorithms as a
test oracle: a KSM scan that rebuilds the shared-page table from every
resident page, a save that builds a fresh record for every page, and a
restore that stages every VM's whole page table.  A hypothesis state
machine drives random operation sequences over small guests through both
and checks, after every step, that the table, the stats, every shared
flag, the snapshot records, sizes and modelled times, and the restored
pages are identical.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.common.units import PAGE_SIZE, pages_for
from repro.vm.ksm import KsmDaemon, KsmStats
from repro.vm.memory import (GuestMemory, OsImage, Page, digest_bytes,
                             synthetic_digest)
from repro.vm.snapshots import DeltaClusterSnapshot, SnapshotManager
from repro.vm.timing import VmTimingModel

IMAGE = OsImage(name="oracle", resident_mb=1, unique_mb=1)
TIMING = VmTimingModel()
# snapshot file format: a record header is pfn (8) + flag (1) bytes, and a
# shared record stores a 16-byte digest reference instead of the content
RECORD_HEADER = 9
DIGEST_REF = 16


# ---------------------------------------------------------------- oracle


class RefMemory:
    """Guest memory as a plain dict, replaced wholesale on restore."""

    def __init__(self, vm_name: str, image: OsImage) -> None:
        self.vm_name = vm_name
        self.pages: Dict[int, Page] = {}
        for i in range(image.shared_pages):
            self.pages[i] = Page(synthetic_digest(image.name, i))
        for i in range(image.unique_pages):
            self.pages[image.shared_pages + i] = Page(
                synthetic_digest(f"{image.name}:{vm_name}", i))
        self.app_base = image.shared_pages + image.unique_pages
        self.app_pages = 0
        self.dirty: Set[int] = set()

    def write_app_state(self, blob: bytes) -> None:
        new_count = pages_for(len(blob)) if blob else 0
        for i in range(max(new_count, self.app_pages)):
            pfn = self.app_base + i
            if i < new_count:
                chunk = blob[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]
                chunk = chunk + b"\x00" * (PAGE_SIZE - len(chunk))
                page = Page(digest_bytes(chunk), chunk)
                if self.pages.get(pfn) != page:
                    self.pages[pfn] = page
                    self.dirty.add(pfn)
            else:
                self.pages.pop(pfn, None)
                self.dirty.discard(pfn)
        self.app_pages = new_count

    def touch(self, pfn: int) -> None:
        if pfn in self.pages:
            self.dirty.add(pfn)


@dataclass
class RefEntry:
    digest: bytes
    content: Optional[bytes]
    mappings: Set[Tuple[str, int]] = field(default_factory=set)


class RefKsm:
    """The full-rebuild scan: every pass rebuilds the table from scratch."""

    def __init__(self) -> None:
        self.guests: Dict[str, RefMemory] = {}
        self.table: Dict[bytes, RefEntry] = {}
        self.volatile_by_vm: Dict[str, int] = {}
        self.stats = KsmStats()

    def register(self, memory: RefMemory) -> None:
        self.guests[memory.vm_name] = memory

    def unregister(self, vm_name: str) -> None:
        self.guests.pop(vm_name, None)
        for entry in self.table.values():
            entry.mappings = {m for m in entry.mappings if m[0] != vm_name}
        self.table = {d: e for d, e in self.table.items()
                      if len(e.mappings) >= 2}
        self.stats = KsmStats(
            scans=self.stats.scans, pages_shared=len(self.table),
            pages_sharing=sum(len(e.mappings) for e in self.table.values()),
            pages_volatile=(self.stats.pages_volatile
                            - self.volatile_by_vm.pop(vm_name, 0)))

    def scan(self) -> None:
        candidates: Dict[bytes, RefEntry] = {}
        self.volatile_by_vm = {}
        for memory in self.guests.values():
            volatile = 0
            for pfn, page in sorted(memory.pages.items()):
                if pfn in memory.dirty:
                    volatile += 1
                    continue
                entry = candidates.setdefault(
                    page.digest, RefEntry(page.digest, page.content))
                entry.mappings.add((memory.vm_name, pfn))
            memory.dirty.clear()
            self.volatile_by_vm[memory.vm_name] = volatile
        self.table = {d: e for d, e in candidates.items()
                      if len(e.mappings) >= 2}
        self.stats = KsmStats(
            scans=self.stats.scans + 1, pages_shared=len(self.table),
            pages_sharing=sum(len(e.mappings) for e in self.table.values()),
            pages_volatile=sum(self.volatile_by_vm.values()))

    def is_shared(self, vm_name: str, pfn: int, page: Page) -> bool:
        entry = self.table.get(page.digest)
        return entry is not None and (vm_name, pfn) in entry.mappings


# (pfn, shared, digest, content)
RefRecord = Tuple[int, bool, bytes, Optional[bytes]]


@dataclass
class RefSnapshot:
    vms: List[Tuple[str, List[RefRecord], int]]
    shared_map: Optional[Dict[bytes, Page]]
    stored_bytes: int
    save_time: float
    load_time: float


@dataclass
class RefDelta:
    base: RefSnapshot
    vms: List[Tuple[str, List[RefRecord], List[int], int]]
    stored_bytes: int
    save_time: float
    load_time: float


def ref_record_bytes(record: RefRecord) -> int:
    return RECORD_HEADER + (DIGEST_REF if record[1] else PAGE_SIZE)


def ref_save(ksm: RefKsm, memories: List[RefMemory],
             shared: bool) -> RefSnapshot:
    """A fresh record for every page, in sorted pfn order."""
    shared_map: Optional[Dict[bytes, Page]] = {} if shared else None
    vms = []
    for memory in memories:
        records = []
        for pfn, page in sorted(memory.pages.items()):
            if shared and ksm.is_shared(memory.vm_name, pfn, page):
                shared_map.setdefault(page.digest, page)
                records.append((pfn, True, page.digest, None))
            else:
                records.append((pfn, False, page.digest, page.content))
        vms.append((memory.vm_name, records, memory.app_pages))
    payload = sum(ref_record_bytes(r) for __, rs, __ in vms for r in rs)
    if shared_map is not None:
        payload += len(shared_map) * (PAGE_SIZE + DIGEST_REF)
    return RefSnapshot(vms, shared_map, payload,
                       TIMING.save_time(payload, len(vms)),
                       TIMING.load_time(len(vms)))


def ref_save_delta(memories: List[RefMemory], base: RefSnapshot) -> RefDelta:
    index = {name: {r[0]: r[2] for r in records}
             for name, records, __ in base.vms}
    vms = []
    for memory in memories:
        known = index[memory.vm_name]
        changed = [(pfn, False, page.digest, page.content)
                   for pfn, page in sorted(memory.pages.items())
                   if known.get(pfn) != page.digest]
        removed = sorted(set(known) - set(memory.pages))
        vms.append((memory.vm_name, changed, removed, memory.app_pages))
    payload = sum(len(c) * (RECORD_HEADER + PAGE_SIZE) + 8 * len(r)
                  for __, c, r, __ in vms)
    return RefDelta(base, vms, payload, TIMING.save_time(payload, len(vms)),
                    base.load_time + TIMING.load_time(len(vms)))


def ref_stage(snapshot: RefSnapshot) -> Dict[str, Tuple[Dict[int, Page], int]]:
    """Rebuild every VM's whole page table from its records."""
    staged = {}
    for name, records, app_pages in snapshot.vms:
        pages = {}
        for pfn, shared, digest, content in records:
            pages[pfn] = (snapshot.shared_map[digest] if shared
                          else Page(digest, content))
        staged[name] = (pages, app_pages)
    return staged


def ref_load(snapshot, memories: List[RefMemory]) -> None:
    if isinstance(snapshot, RefDelta):
        staged = ref_stage(snapshot.base)
        for name, changed, removed, app_pages in snapshot.vms:
            pages = staged[name][0]
            for pfn in removed:
                pages.pop(pfn, None)
            for pfn, __, digest, content in changed:
                pages[pfn] = Page(digest, content)
            staged[name] = (pages, app_pages)
    else:
        staged = ref_stage(snapshot)
    for memory in memories:
        memory.pages, memory.app_pages = staged[memory.vm_name]
        memory.dirty = set()


# ------------------------------------------------------------ comparison


def records_of(vm_snap) -> List[RefRecord]:
    return [(r.pfn, r.shared, r.digest, r.content) for r in vm_snap.records]


def assert_same_snapshot(snap, ref: RefSnapshot) -> None:
    assert [(s.vm_name, records_of(s), s.app_page_count)
            for s in snap.vm_snapshots] == ref.vms
    if ref.shared_map is None:
        assert snap.shared_map is None
    else:
        assert {d: (p.digest, p.content)
                for d, p in snap.shared_map.pages.items()} == {
            d: (p.digest, p.content) for d, p in ref.shared_map.items()}
    assert snap.stored_bytes() == ref.stored_bytes
    assert (snap.save_time, snap.load_time) == (ref.save_time, ref.load_time)
    shared = sum(r[1] for __, records, __ in ref.vms for r in records)
    total = sum(len(records) for __, records, __ in ref.vms)
    assert snap.page_counts() == {"pages_total": total,
                                  "pages_shared": shared,
                                  "pages_private": total - shared}


def assert_same_delta(snap: DeltaClusterSnapshot, ref: RefDelta) -> None:
    assert [(d.vm_name, [(r.pfn, r.shared, r.digest, r.content)
                         for r in d.changed], d.removed, d.app_page_count)
            for d in snap.vm_deltas] == ref.vms
    assert snap.stored_bytes() == ref.stored_bytes
    assert (snap.save_time, snap.load_time) == (ref.save_time, ref.load_time)


# --------------------------------------------------------- state machine

PAGE_LETTERS = st.lists(st.sampled_from(b"abcd"), max_size=4)


class IncrementalVsReference(RuleBasedStateMachine):
    """Every operation runs on the real guests and on the reference ones."""

    @initialize(n=st.integers(2, 4))
    def boot(self, n):
        names = [f"vm{i}" for i in range(n)]
        self.guests = [GuestMemory(name, IMAGE) for name in names]
        self.refs = [RefMemory(name, IMAGE) for name in names]
        self.ksm = KsmDaemon()
        self.ref_ksm = RefKsm()
        for guest, ref in zip(self.guests, self.refs):
            self.ksm.register(guest)
            self.ref_ksm.register(ref)
        self.manager = SnapshotManager(self.ksm, TIMING)
        self.snapshots: List[Tuple[object, object]] = []
        self.registered = set(names)

    def _vm(self, data):
        i = data.draw(st.integers(0, len(self.guests) - 1), label="vm")
        return self.guests[i], self.refs[i]

    @rule(data=st.data(), letters=PAGE_LETTERS, trim=st.integers(0, 3))
    def write_app_state(self, data, letters, trim):
        guest, ref = self._vm(data)
        blob = b"".join(bytes([c]) * PAGE_SIZE for c in letters)
        blob = blob[:len(blob) - trim] if blob else b""
        guest.write_app_state(blob)
        ref.write_app_state(blob)

    @rule(data=st.data())
    def touch(self, data):
        guest, ref = self._vm(data)
        pfn = data.draw(st.integers(0, ref.app_base + 4), label="pfn")
        guest.touch(pfn)
        ref.touch(pfn)

    @rule(data=st.data())
    def clear_dirty(self, data):
        guest, ref = self._vm(data)
        guest.clear_dirty()
        ref.dirty.clear()

    @rule()
    def scan(self):
        self.ksm.scan()
        self.ref_ksm.scan()

    @rule(shared=st.booleans())
    def save(self, shared):
        snap = self.manager.save(self.guests, shared=shared)
        ref = ref_save(self.ref_ksm, self.refs, shared)
        assert_same_snapshot(snap, ref)
        self.snapshots.append((snap, ref))

    @precondition(lambda self: any(
        not isinstance(s, DeltaClusterSnapshot) for s, __ in self.snapshots))
    @rule(data=st.data())
    def save_delta(self, data):
        full = [pair for pair in self.snapshots
                if not isinstance(pair[0], DeltaClusterSnapshot)]
        base, ref_base = data.draw(st.sampled_from(full), label="base")
        snap = self.manager.save_delta(self.guests, base)
        ref = ref_save_delta(self.refs, ref_base)
        assert_same_delta(snap, ref)
        self.snapshots.append((snap, ref))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def load(self, data):
        snap, ref = data.draw(st.sampled_from(self.snapshots),
                              label="snapshot")
        self.manager.load(snap, self.guests)
        ref_load(ref, self.refs)

    @precondition(lambda self: len(self.registered) > 1)
    @rule(data=st.data())
    def unregister(self, data):
        name = data.draw(st.sampled_from(sorted(self.registered)),
                         label="unregister")
        self.registered.discard(name)
        self.ksm.unregister(name)
        self.ref_ksm.unregister(name)

    @precondition(lambda self: len(self.registered) < len(self.guests))
    @rule(data=st.data())
    def register_again(self, data):
        i = data.draw(st.sampled_from(
            [i for i, g in enumerate(self.guests)
             if g.vm_name not in self.registered]), label="register")
        self.registered.add(self.guests[i].vm_name)
        self.ksm.register(self.guests[i])
        self.ref_ksm.register(self.refs[i])

    # ------------------------------------------------------------ checks

    @invariant()
    def same_memory(self):
        for guest, ref in zip(self.guests, self.refs):
            pfns = [pfn for pfn, __ in guest.iter_pages()]
            assert pfns == sorted(ref.pages)  # pfn order, never sorted()
            assert {pfn: (p.digest, p.content)
                    for pfn, p in guest.iter_pages()} == {
                pfn: (p.digest, p.content) for pfn, p in ref.pages.items()}
            assert guest.app_page_count() == ref.app_pages
            assert guest.dirty_pfns() == ref.dirty

    @invariant()
    def same_table_and_stats(self):
        table = {d: (self.ksm.shared_entry(d).content,
                     self.ksm.shared_entry(d).mappings)
                 for d in self.ksm.shared_digests()}
        assert table == {d: (e.content, e.mappings)
                         for d, e in self.ref_ksm.table.items()}
        assert self.ksm.stats == self.ref_ksm.stats
        assert self.ksm.sharing_ratio() <= 1.0

    @invariant()
    def same_shared_flags(self):
        for guest in self.guests:
            expect = {pfn for pfn, page in guest.iter_pages()
                      if self.ref_ksm.is_shared(guest.vm_name, pfn, page)}
            assert {pfn for pfn, page in guest.iter_pages()
                    if self.ksm.is_shared(guest.vm_name, pfn, page)} == expect
            assert self.ksm.shared_pfns(guest) == expect


IncrementalVsReference.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestIncrementalVsReference = IncrementalVsReference.TestCase


class TestRecordSharing:
    def test_unchanged_pages_share_records_by_reference(self):
        guests = [GuestMemory(f"vm{i}", IMAGE) for i in range(2)]
        ksm = KsmDaemon()
        for g in guests:
            ksm.register(g)
        ksm.scan()
        manager = SnapshotManager(ksm, TIMING)
        first = manager.save(guests, shared=True)
        guests[0].write_app_state(b"x" * 100)
        ksm.scan()
        second = manager.save(guests, shared=True)
        old = first.vm_snapshots[0].records
        new = second.vm_snapshots[0].records
        assert all(a is b for a, b in zip(old, new))
        assert len(new) == len(old) + 1

    def test_restore_installs_only_differing_pages(self):
        guests = [GuestMemory(f"vm{i}", IMAGE) for i in range(2)]
        manager = SnapshotManager(KsmDaemon(), TIMING)
        guests[0].write_app_state(b"a" * PAGE_SIZE * 2)
        snap = manager.save(guests)
        guests[0].take_changes()
        guests[0].write_app_state(b"a" * PAGE_SIZE + b"b" * 10)
        guests[0].take_changes()
        manager.load(snap, guests)
        # only the rewritten app page was put back
        assert list(guests[0].pending_changes()) == [IMAGE.shared_pages
                                                     + IMAGE.unique_pages + 1]
        assert guests[1].pending_changes() == {}

    def test_other_guest_under_registered_name(self):
        # saving a guest object that is not the registered one (same name)
        # answers shared flags page by page, exactly like is_shared
        guests = [GuestMemory(f"vm{i}", IMAGE) for i in range(2)]
        ksm = KsmDaemon()
        for g in guests:
            ksm.register(g)
        ksm.scan()
        twin = GuestMemory("vm0", IMAGE)
        twin.write_app_state(b"twin")
        expect = {pfn for pfn, page in twin.iter_pages()
                  if ksm.is_shared("vm0", pfn, page)}
        assert ksm.shared_pfns(twin) == expect == set(range(
            IMAGE.shared_pages))
