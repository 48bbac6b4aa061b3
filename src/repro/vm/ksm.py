"""KSM: kernel samepage merging across VMs.

The paper modifies KSM to "expose shared page information by adding an
interface that verifies if a page is shared or not", which the modified KVM
save path then queries.  This module reproduces that daemon: it scans the
registered guests' memory, merges stable identical pages into a shared-page
table, and answers :meth:`is_shared` queries from the snapshot manager.

Like the real KSM we skip *volatile* pages: a page dirtied since the last
scan is not merged, because merging pages that are about to diverge again
only causes copy-on-write churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.vm.memory import GuestMemory, Page


@dataclass
class SharedPageEntry:
    """One merged page: its digest and every (vm, pfn) mapping it backs."""

    digest: bytes
    content: Optional[bytes]
    mappings: Set[Tuple[str, int]] = field(default_factory=set)

    @property
    def share_count(self) -> int:
        return len(self.mappings)


@dataclass
class KsmStats:
    scans: int = 0
    pages_shared: int = 0      # distinct merged pages
    pages_sharing: int = 0     # guest mappings backed by merged pages
    pages_volatile: int = 0    # skipped because dirtied since last scan


class KsmDaemon:
    """Content-based page merger over a set of guests.

    The index covers every non-volatile page of every registered guest as
    of the last scan: a digest seen once maps to its lone ``(vm, pfn)``; a
    digest seen at least twice is merged, and its :class:`SharedPageEntry`
    is in the shared-page table.  The table is mirrored per guest as the
    set of its merged pfns (what the snapshot manager asks on every save).
    """

    def __init__(self) -> None:
        self._guests: Dict[str, GuestMemory] = {}
        self._fresh: Set[str] = set()           # registered, not yet indexed
        self._lone: Dict[bytes, Tuple[str, int]] = {}
        self._table: Dict[bytes, SharedPageEntry] = {}
        self._shared: Dict[str, Set[int]] = {}     # vm -> merged pfns
        self._volatile: Dict[str, Set[int]] = {}   # vm -> skipped last scan
        self._sharing = 0                           # mappings in the table
        self.stats = KsmStats()

    def register(self, memory: GuestMemory) -> None:
        if memory.vm_name in self._guests:
            self.unregister(memory.vm_name)
        self._guests[memory.vm_name] = memory
        self._fresh.add(memory.vm_name)

    def unregister(self, vm_name: str) -> None:
        """Forget a guest: its mappings leave the table and the stats."""
        memory = self._guests.pop(vm_name, None)
        self._fresh.discard(vm_name)
        volatile = self._volatile.pop(vm_name, None)
        if memory is None or volatile is None:
            return
        touched: Set[bytes] = set()
        changes = memory.pending_changes()
        for pfn, page in memory.iter_pages():
            if pfn not in volatile and pfn not in changes:
                self._unmap(page.digest, vm_name, pfn, touched)
        for pfn, old in changes.items():
            if old is not None and pfn not in volatile:
                self._unmap(old.digest, vm_name, pfn, touched)
        self._settle(touched)
        del self._shared[vm_name]
        self.stats = replace(
            self.stats, pages_shared=len(self._table),
            pages_sharing=self._sharing,
            pages_volatile=self.stats.pages_volatile - len(volatile))

    # ------------------------------------------------------- index upkeep

    def _unmap(self, digest: bytes, vm_name: str, pfn: int,
               touched: Set[bytes]) -> None:
        entry = self._table.get(digest)
        if entry is None:
            del self._lone[digest]
            return
        self._withdraw(digest, entry, touched)
        entry.mappings.discard((vm_name, pfn))
        if len(entry.mappings) == 1:
            self._lone[digest] = next(iter(entry.mappings))
            del self._table[digest]

    def _map(self, page: Page, vm_name: str, pfn: int,
             touched: Set[bytes]) -> None:
        digest = page.digest
        entry = self._table.get(digest)
        if entry is None:
            other = self._lone.pop(digest, None)
            if other is None:
                self._lone[digest] = (vm_name, pfn)
                return
            entry = self._table[digest] = SharedPageEntry(
                digest, page.content, {other})
            touched.add(digest)
        else:
            self._withdraw(digest, entry, touched)
        entry.mappings.add((vm_name, pfn))

    def _withdraw(self, digest: bytes, entry: SharedPageEntry,
                  touched: Set[bytes]) -> None:
        """Take a table entry's mappings out of the per-guest shared sets
        before it first changes in a pass; :meth:`_settle` puts back the
        mappings of every touched entry still in the table."""
        if digest in touched:
            return
        touched.add(digest)
        shared = self._shared
        for vm_name, pfn in entry.mappings:
            shared[vm_name].discard(pfn)
        self._sharing -= len(entry.mappings)

    def _settle(self, touched: Set[bytes]) -> None:
        shared = self._shared
        for digest in touched:
            entry = self._table.get(digest)
            if entry is None:
                continue
            for vm_name, pfn in entry.mappings:
                shared[vm_name].add(pfn)
            self._sharing += len(entry.mappings)

    def _index_fresh(self, vm_name: str, memory: GuestMemory,
                     touched: Set[bytes]) -> None:
        """First index of a newly registered guest: every non-dirty page.

        Table membership settles once for the whole pass, not per page.
        """
        memory.take_changes()
        dirty = memory.dirty_pfns()
        for pfn, page in memory.iter_pages():
            if pfn not in dirty:
                self._map(page, vm_name, pfn, touched)
        self._shared[vm_name] = set()
        self._volatile[vm_name] = dirty

    def _rescan(self, vm_name: str, memory: GuestMemory,
                touched: Set[bytes]) -> None:
        """Reconsider only what moved since the last scan: changed pfns,
        pfns dirty now, and pfns that were volatile last time."""
        changes = memory.take_changes()
        dirty = memory.dirty_pfns()
        volatile = self._volatile[vm_name]
        if not (changes or dirty or volatile):
            return
        pages = memory.page_table()
        for pfn in changes.keys() | dirty | volatile:
            if pfn in volatile:
                old = None
            elif pfn in changes:
                old = changes[pfn]
            else:
                old = pages[pfn]
            new = None if pfn in dirty else pages.get(pfn)
            if old is new:
                continue
            old_digest = old.digest if old is not None else None
            if new is not None and new.digest == old_digest:
                continue
            if old is not None:
                self._unmap(old_digest, vm_name, pfn, touched)
            if new is not None:
                self._map(new, vm_name, pfn, touched)
        self._volatile[vm_name] = dirty

    # ------------------------------------------------------------------ scan

    def scan(self) -> KsmStats:
        """One scan pass: bring the shared-page table up to date.

        Like real KSM the pass is incremental: a guest registered since
        the last pass is indexed in one batch, and every other guest only
        has its changed, dirty, and previously volatile pfns reconsidered.
        The resulting table, per-guest shared sets, and stats equal a full
        rebuild from every resident non-volatile page; dirty sets are
        cleared for the next pass.
        """
        touched: Set[bytes] = set()
        volatile = 0
        for vm_name, memory in self._guests.items():
            if vm_name in self._fresh:
                self._index_fresh(vm_name, memory, touched)
            else:
                self._rescan(vm_name, memory, touched)
            volatile += len(self._volatile[vm_name])
            memory.clear_dirty()
        self._fresh.clear()
        self._settle(touched)
        self.stats = KsmStats(
            scans=self.stats.scans + 1,
            pages_shared=len(self._table),
            pages_sharing=self._sharing,
            pages_volatile=volatile,
        )
        return self.stats

    # ------------------------------------------------- interface added by us
    # (the paper's KSM modification: "an interface that verifies if a page
    # is shared or not")

    def is_shared(self, vm_name: str, pfn: int, page: Page) -> bool:
        entry = self._table.get(page.digest)
        return entry is not None and (vm_name, pfn) in entry.mappings

    def shared_pfns(self, memory: GuestMemory) -> Set[int]:
        """The pfns of ``memory`` for which :meth:`is_shared` holds now.

        Pages rewritten since the last scan drop out unless they hold the
        merged content again; the caller must not mutate the result.
        """
        shared = self._shared.get(memory.vm_name)
        if not shared:
            return set()
        pages = memory.page_table()
        if self._guests[memory.vm_name] is not memory:
            # a different guest under a registered name: ask page by page
            return {pfn for pfn in shared if pfn in pages and self.is_shared(
                memory.vm_name, pfn, pages[pfn])}
        stale = [pfn for pfn, old in memory.pending_changes().items()
                 if pfn in shared and (pfn not in pages
                                       or pages[pfn].digest != old.digest)]
        return shared.difference(stale) if stale else shared

    def shared_entry(self, digest: bytes) -> Optional[SharedPageEntry]:
        return self._table.get(digest)

    def shared_digests(self) -> List[bytes]:
        return list(self._table.keys())

    def sharing_ratio(self) -> float:
        """Fraction of resident guest pages backed by a merged page."""
        total = sum(m.resident_pages() for m in self._guests.values())
        if total == 0:
            return 0.0
        return self.stats.pages_sharing / total
