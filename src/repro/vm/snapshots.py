"""Page-sharing-aware snapshot management (Section IV-C of the paper).

Two snapshot modes:

* **plain** — each VM snapshot stores the full content of every resident
  page, exactly what unmodified KVM writes.
* **shared** — the manager additionally writes one *shared page map* holding
  each KSM-merged page once; the per-VM snapshot stores only a pfn plus a
  digest reference for shared pages and full content for private pages.

Restores verify that reconstructed memory is page-for-page identical to what
was saved, and the byte accounting feeds :class:`~repro.vm.timing.
VmTimingModel` so that sharing translates into save-time savings the way the
paper measures in Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import (Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from repro.common.errors import SnapshotError
from repro.common.units import PAGE_SIZE
from repro.vm.ksm import KsmDaemon
from repro.vm.memory import GuestMemory, Page
from repro.vm.timing import VmTimingModel

# On-disk record overheads (bytes): pfn (8) + flag (1); a shared reference
# additionally stores the 16-byte digest instead of 4096 bytes of content.
_RECORD_HEADER = 9
_DIGEST_REF = 16


class PageRecord(NamedTuple):
    """One page entry inside a VM snapshot file.

    ``page`` is the guest page the record was taken from.  Records are
    immutable, so consecutive snapshots share the records of unchanged
    pages by reference.  A shared record stores only its digest (the
    content lives once in the shared page map), so its ``content`` is None.
    """

    pfn: int
    shared: bool
    page: Page

    @property
    def digest(self) -> bytes:
        return self.page.digest

    @property
    def content(self) -> Optional[bytes]:
        return None if self.shared else self.page.content

    def stored_bytes(self) -> int:
        if self.shared:
            return _RECORD_HEADER + _DIGEST_REF
        return _RECORD_HEADER + PAGE_SIZE


@dataclass
class VmSnapshot:
    """Snapshot file of a single VM.

    ``shared_count`` (the records that are shared references) is counted
    once while the records are built, so sizes never re-sum the records.
    """

    vm_name: str
    records: List[PageRecord]
    app_page_count: int
    shared_count: int

    def stored_bytes(self) -> int:
        private = len(self.records) - self.shared_count
        return (self.shared_count * (_RECORD_HEADER + _DIGEST_REF)
                + private * (_RECORD_HEADER + PAGE_SIZE))

    def shared_refs(self) -> int:
        return self.shared_count


@dataclass
class SharedPageMap:
    """The shared page map file: each merged page stored exactly once."""

    pages: Dict[bytes, Page] = field(default_factory=dict)

    def stored_bytes(self) -> int:
        return len(self.pages) * (PAGE_SIZE + _DIGEST_REF)

    def lookup(self, digest: bytes) -> Page:
        try:
            return self.pages[digest]
        except KeyError:
            raise SnapshotError(
                f"shared page map missing digest {digest.hex()}") from None


@dataclass
class ClusterSnapshot:
    """Snapshots of all VMs plus the optional shared page map."""

    mode: str                      # "plain" | "shared"
    vm_snapshots: List[VmSnapshot]
    shared_map: Optional[SharedPageMap]
    save_time: float
    load_time: float

    def stored_bytes(self) -> int:
        total = sum(s.stored_bytes() for s in self.vm_snapshots)
        if self.shared_map is not None:
            total += self.shared_map.stored_bytes()
        return total

    def page_counts(self) -> Dict[str, int]:
        """Table-II-style page breakdown: total, KSM-shared refs, private."""
        total = sum(len(s.records) for s in self.vm_snapshots)
        shared = sum(s.shared_refs() for s in self.vm_snapshots)
        return {"pages_total": total, "pages_shared": shared,
                "pages_private": total - shared}

    @property
    def vm_count(self) -> int:
        return len(self.vm_snapshots)


@dataclass
class DeltaVmSnapshot:
    """Pages of one VM that differ from a base snapshot."""

    vm_name: str
    changed: List[PageRecord]
    removed: List[int]
    app_page_count: int

    def stored_bytes(self) -> int:
        return (sum(r.stored_bytes() for r in self.changed)
                + 8 * len(self.removed))


@dataclass
class DeltaClusterSnapshot:
    """A base snapshot plus per-VM deltas; restores base-then-overlay."""

    base: ClusterSnapshot
    vm_deltas: List[DeltaVmSnapshot]
    save_time: float
    load_time: float

    def stored_bytes(self) -> int:
        return sum(d.stored_bytes() for d in self.vm_deltas)

    def page_counts(self) -> Dict[str, int]:
        """Delta breakdown: pages re-stored vs dropped relative to the base."""
        return {
            "pages_changed": sum(len(d.changed) for d in self.vm_deltas),
            "pages_removed": sum(len(d.removed) for d in self.vm_deltas),
        }

    @property
    def vm_count(self) -> int:
        return len(self.vm_deltas)


class SnapshotStore:
    """A keyed store of snapshot-bearing values, optionally byte-budgeted.

    With ``budget=None`` it is a plain dict (the pre-budget behaviour:
    unbounded retention).  With a :class:`~repro.store.budget.
    SnapshotBudget` every insertion is charged by ``size_of(value)`` and
    least-recently-used entries are evicted to stay under the budget;
    evicted keys are remembered so the owner can tell a capacity miss
    (rebuild the deterministic snapshot) from a genuine never-seen miss.
    The budget object is duck-typed on purpose — this layer stays free of
    upward imports.
    """

    def __init__(self, budget=None, size_of=None) -> None:
        self.budget = budget
        self._size_of = size_of or (lambda value: value.stored_bytes())
        self._entries: Dict[object, object] = {}
        self._evicted: set = set()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        value = self._entries.get(key)
        if self.budget is not None:
            if value is not None:
                self.budget.touch(key)
            else:
                self.budget.miss()
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._evicted.discard(key)
        if self.budget is not None:
            self.budget.admit(key, self._size_of(value), self._drop)

    def _drop(self, key) -> None:
        self._entries.pop(key, None)
        self._evicted.add(key)

    def was_evicted(self, key) -> bool:
        """True when ``key`` was present once but evicted for capacity."""
        return key in self._evicted

    def clear(self) -> None:
        self._entries.clear()
        self._evicted.clear()
        if self.budget is not None:
            self.budget.invalidate_all()


class SnapshotManager:
    """Implements save/load for a set of guests, with optional page sharing.

    Wall cost tracks what changed, while the modelled cost (from the same
    page and byte counts) is unchanged: a save reuses the previous save's
    record for every page whose object and shared flag are the same, and a
    restore installs only the pages that differ from the live table.
    """

    def __init__(self, ksm: Optional[KsmDaemon] = None,
                 timing: Optional[VmTimingModel] = None) -> None:
        self.ksm = ksm
        self.timing = timing or VmTimingModel()
        #: vm name -> records of its last save, reused by the next one
        self._previous: Dict[str, List[PageRecord]] = {}

    # ------------------------------------------------------------------ save

    def save(self, memories: Sequence[GuestMemory], shared: bool = False,
             max_bandwidth: bool = True) -> ClusterSnapshot:
        if shared and self.ksm is None:
            raise SnapshotError("shared snapshots require a KSM daemon")
        shared_map = SharedPageMap() if shared else None
        vm_snapshots = [self._save_vm(memory, shared_map)
                        for memory in memories]

        payload = sum(s.stored_bytes() for s in vm_snapshots)
        if shared_map is not None:
            payload += shared_map.stored_bytes()
        save_time = self.timing.save_time(
            payload, len(vm_snapshots), max_bandwidth=max_bandwidth)
        load_time = self.timing.load_time(len(vm_snapshots))
        return ClusterSnapshot(
            "shared" if shared else "plain", vm_snapshots, shared_map,
            save_time, load_time)

    def _save_vm(self, memory: GuestMemory,
                 shared_map: Optional[SharedPageMap]) -> VmSnapshot:
        merged = (self.ksm.shared_pfns(memory) if shared_map is not None
                  else ())
        share = shared_map.pages.setdefault if shared_map is not None else None
        records: List[PageRecord] = []
        append = records.append
        shared_count = 0
        previous = chain(self._previous.get(memory.vm_name, ()),
                         repeat(None))
        for record, (pfn, page) in zip(previous, memory.iter_pages()):
            flag = pfn in merged
            if (record is None or record.page is not page
                    or record.pfn != pfn or record.shared is not flag):
                record = PageRecord(pfn, flag, page)
            append(record)
            if flag:
                shared_count += 1
                share(page.digest, page)
        self._previous[memory.vm_name] = records
        return VmSnapshot(memory.vm_name, records, memory.app_page_count(),
                          shared_count)

    # ------------------------------------------------------------------ load

    def _stage(self, snapshot, memories: Sequence[GuestMemory]) -> List[Tuple]:
        """Diff every VM's saved page table against its live one.

        ``snapshot`` is a :class:`ClusterSnapshot` or a
        :class:`DeltaClusterSnapshot` (its base overlaid with the delta).
        Restores are applied in two phases — stage everything (where any
        missing guest or dangling shared reference surfaces as a
        :class:`SnapshotError`), then commit only the differing pages — so
        a failed restore leaves every guest's memory exactly as it was.
        """
        if isinstance(snapshot, DeltaClusterSnapshot):
            base = snapshot.base
            deltas = {d.vm_name: d for d in snapshot.vm_deltas}
        else:
            base, deltas = snapshot, {}
        by_name = {m.vm_name: m for m in memories}
        staged: List[Tuple] = []
        for vm_snap in base.vm_snapshots:
            memory = by_name.get(vm_snap.vm_name)
            if memory is None:
                raise SnapshotError(
                    f"no guest named {vm_snap.vm_name} to restore into")
            staged.append(self._diff(memory, vm_snap, base.shared_map,
                                     deltas.pop(vm_snap.vm_name, None)))
        if deltas:
            raise SnapshotError(
                f"no guest named {next(iter(deltas))} to restore into")
        return staged

    @staticmethod
    def _diff(memory: GuestMemory, vm_snap: VmSnapshot,
              shared_map: Optional[SharedPageMap],
              delta: Optional["DeltaVmSnapshot"]) -> Tuple:
        """(memory, pages to install, pfns to drop, app page count)."""
        if delta is None:
            targets = vm_snap.records
            app_page_count = vm_snap.app_page_count
        else:
            replaced = set(delta.removed)
            replaced.update(r.pfn for r in delta.changed)
            targets = [r for r in vm_snap.records if r.pfn not in replaced]
            targets += delta.changed
            app_page_count = delta.app_page_count
        table = memory.page_table()
        current = table.get
        shared = shared_map.pages if shared_map is not None else None
        put: List[Tuple[int, Page]] = []
        absent = 0
        for record in targets:
            pfn, is_shared, page = record
            if is_shared:
                if shared is None:
                    raise SnapshotError(
                        f"{vm_snap.vm_name}: shared ref without a map")
                if page.digest not in shared:
                    raise SnapshotError(f"shared page map missing digest "
                                        f"{page.digest.hex()}")
            live = current(pfn)
            if live is page:
                continue
            if is_shared:
                page = shared[page.digest]
            if live is None:
                absent += 1
            elif live.digest == page.digest and live.content == page.content:
                continue
            put.append((pfn, page))
        put.sort(key=itemgetter(0))
        drop: List[int] = []
        if len(table) > len(targets) - absent:
            keep = {r.pfn for r in targets}
            drop = [pfn for pfn in table if pfn not in keep]
        return memory, put, drop, app_page_count

    def load(self, snapshot: Union[ClusterSnapshot, "DeltaClusterSnapshot"],
             memories: Sequence[GuestMemory]) -> None:
        """Restore a full or delta snapshot into ``memories``."""
        for memory, put, drop, app_page_count in self._stage(snapshot,
                                                             memories):
            memory.install_pages(put, drop, app_page_count)

    # ----------------------------------------------------- delta snapshots
    #
    # Execution branching takes a snapshot at every injection point of a
    # search, but most guest pages (the whole OS image, most of the heap)
    # are identical to the warm snapshot taken after boot.  A delta
    # snapshot stores only pages that changed relative to a base snapshot,
    # cutting save cost for every injection point after the first.

    def save_delta(self, memories: Sequence[GuestMemory],
                   base: ClusterSnapshot,
                   max_bandwidth: bool = True) -> "DeltaClusterSnapshot":
        by_name = {vm_snap.vm_name: vm_snap for vm_snap in base.vm_snapshots}
        deltas: List[DeltaVmSnapshot] = []
        for memory in memories:
            vm_snap = by_name.get(memory.vm_name)
            if vm_snap is None:
                raise SnapshotError(
                    f"base snapshot has no VM named {memory.vm_name}")
            known = {r.pfn: r.page.digest for r in vm_snap.records}
            changed = [PageRecord(pfn, False, page)
                       for pfn, page in memory.iter_pages()
                       if known.get(pfn) != page.digest]
            table = memory.page_table()
            removed = [pfn for pfn in known if pfn not in table]
            deltas.append(DeltaVmSnapshot(memory.vm_name, changed, removed,
                                          memory.app_page_count()))

        payload = sum(d.stored_bytes() for d in deltas)
        save_time = self.timing.save_time(
            payload, len(deltas), max_bandwidth=max_bandwidth)
        # loading must materialize the base first, then apply the delta
        load_time = base.load_time + self.timing.load_time(len(deltas))
        return DeltaClusterSnapshot(base, deltas, save_time, load_time)

    def load_delta(self, snapshot: "DeltaClusterSnapshot",
                   memories: Sequence[GuestMemory]) -> None:
        # One restore path: the delta is overlaid on the base while
        # staging, never on live guest memory, so a SnapshotError anywhere
        # (missing guest, dangling shared ref) leaves all guests untouched.
        self.load(snapshot, memories)

    # -------------------------------------------------------------- analysis

    @staticmethod
    def compare(plain: ClusterSnapshot, shared: ClusterSnapshot
                ) -> Tuple[float, float]:
        """(size reduction, save-time reduction) of shared vs plain, in %.

        A plain snapshot of empty memories (or one taken under a
        zero-bandwidth timing model) has nothing to reduce; report 0.0
        instead of dividing by zero.
        """
        plain_bytes = plain.stored_bytes()
        size_red = (100.0 * (1 - shared.stored_bytes() / plain_bytes)
                    if plain_bytes else 0.0)
        time_red = (100.0 * (1 - shared.save_time / plain.save_time)
                    if plain.save_time else 0.0)
        return size_red, time_red
