"""Guest memory as a page store.

A Turret guest is a KVM virtual machine with (in the paper's evaluation)
128 MiB of RAM.  What the snapshot experiments measure is a function of the
*page population*: how many 4 KiB pages are resident, and which of them are
byte-identical across VMs (the OS image, shared libraries) versus unique to
one VM (boot entropy, page cache, application heap).

We model a page by its content digest plus, for application pages, the
actual bytes.  OS-image pages are generated deterministically from the image
name, so two VMs booted from the same image have identical page digests —
exactly the property KSM exploits.  Storing digests instead of materializing
~100 MiB of synthetic page bytes per VM keeps memory use sane while
preserving every mechanism under test: content-based dedup, dirty-page
tracking, snapshot sizes (every page still accounts for 4 KiB on the wire),
and restore verification.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.common.errors import SnapshotError
from repro.common.units import MIB, PAGE_SIZE, pages_for


def digest_bytes(content: bytes) -> bytes:
    return hashlib.blake2b(content, digest_size=16).digest()


def synthetic_digest(namespace: str, index: int) -> bytes:
    """Digest of a deterministic synthetic page (content never materialized)."""
    return hashlib.blake2b(
        f"page:{namespace}:{index}".encode(), digest_size=16).digest()


@dataclass(frozen=True)
class Page:
    """One resident 4 KiB guest page.

    ``content`` is None for synthetic pages (OS image / boot churn), whose
    identity is fully captured by the digest.
    """

    digest: bytes
    content: Optional[bytes] = None

    @property
    def size(self) -> int:
        return PAGE_SIZE


@dataclass(frozen=True)
class OsImage:
    """A guest operating-system image.

    ``resident_mb`` pages are identical across all VMs booted from the same
    image (kernel text, shared libraries, read-only caches) and are the
    sharing opportunity.  ``unique_mb`` pages are per-VM (boot-time entropy,
    dirty page cache, logs) and can never be merged.

    The default split (48 MiB shareable + 58 MiB unique out of 128 MiB RAM)
    gives the resident-set size and sharing ratio implied by Table II of the
    paper: ~106 MiB saved per VM, with save-time savings from sharing growing
    from ~34.5% at 5 VMs towards ~40.3% at 15 VMs.
    """

    name: str = "debian-headless"
    resident_mb: int = 48
    unique_mb: int = 58

    @property
    def shared_pages(self) -> int:
        return pages_for(self.resident_mb * MIB)

    @property
    def unique_pages(self) -> int:
        return pages_for(self.unique_mb * MIB)


class GuestMemory:
    """Resident page set of one VM, with dirty and change tracking for KSM.

    The page table is kept in pfn order (the OS region is populated in
    order, app pages grow and shrink at the tail, and restores re-sort the
    rare out-of-order install), so :meth:`iter_pages` never sorts.

    Two logs feed the incremental KSM scan: the *dirty* set (pages written
    since the last scan, which KSM skips as volatile) and the *change* log
    (every pfn written, removed, or replaced by a restore since the last
    scan, with the page it held at that scan).  ``clear_dirty`` clears only
    the first; the change log is consumed by the one KSM daemon the guest
    is registered with (:meth:`take_changes`).
    """

    # pfn layout: [0, shared_pages) OS image, then unique pages, then app.
    def __init__(self, vm_name: str, image: OsImage) -> None:
        self.vm_name = vm_name
        self.image = image
        self._pages: Dict[int, Page] = {}
        self._dirty: set = set()
        self._changes: Dict[int, Optional[Page]] = {}
        self._app_base = image.shared_pages + image.unique_pages
        self._app_pages = 0
        self._populate_os_pages()

    def _populate_os_pages(self) -> None:
        for i in range(self.image.shared_pages):
            self._pages[i] = Page(synthetic_digest(self.image.name, i))
        base = self.image.shared_pages
        for i in range(self.image.unique_pages):
            pfn = base + i
            self._pages[pfn] = Page(
                synthetic_digest(f"{self.image.name}:{self.vm_name}", i))

    def _note(self, pfn: int) -> None:
        """Log ``pfn`` as changed, keeping the page it held at the last
        scan."""
        if pfn not in self._changes:
            self._changes[pfn] = self._pages.get(pfn)

    # ------------------------------------------------------------- app pages

    def write_app_state(self, blob: bytes) -> None:
        """(Re)write the application's resident pages from a state blob."""
        new_count = pages_for(len(blob)) if blob else 0
        for i in range(max(new_count, self._app_pages)):
            pfn = self._app_base + i
            if i < new_count:
                chunk = blob[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]
                if len(chunk) < PAGE_SIZE:
                    chunk = chunk + b"\x00" * (PAGE_SIZE - len(chunk))
                page = Page(digest_bytes(chunk), chunk)
                if self._pages.get(pfn) != page:
                    self._note(pfn)
                    self._pages[pfn] = page
                    self._dirty.add(pfn)
            elif pfn in self._pages:
                self._note(pfn)
                del self._pages[pfn]
                self._dirty.discard(pfn)
        self._app_pages = new_count

    def read_app_state(self) -> bytes:
        """Reassemble the app state blob from resident app pages."""
        chunks = []
        for i in range(self._app_pages):
            page = self._pages.get(self._app_base + i)
            if page is None or page.content is None:
                raise SnapshotError(
                    f"{self.vm_name}: app page {i} missing or synthetic")
            chunks.append(page.content)
        return b"".join(chunks)

    # --------------------------------------------------------------- queries

    def resident_pages(self) -> int:
        return len(self._pages)

    def resident_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    def page(self, pfn: int) -> Page:
        try:
            return self._pages[pfn]
        except KeyError:
            raise SnapshotError(
                f"{self.vm_name}: pfn {pfn} not resident") from None

    def has_page(self, pfn: int) -> bool:
        return pfn in self._pages

    def iter_pages(self) -> Iterator[Tuple[int, Page]]:
        """Resident ``(pfn, page)`` pairs in pfn order."""
        return iter(self._pages.items())

    def page_table(self) -> Dict[int, Page]:
        """The live pfn-ordered page table; callers must not mutate it."""
        return self._pages

    # --------------------------------------------------------- dirty tracking

    def dirty_pfns(self) -> set:
        return set(self._dirty)

    def clear_dirty(self) -> None:
        self._dirty.clear()

    def touch(self, pfn: int) -> None:
        """Mark a page written without changing content (volatile page)."""
        if pfn in self._pages:
            self._dirty.add(pfn)

    def pending_changes(self) -> Dict[int, Optional[Page]]:
        """pfn -> page held at the last scan (None: was not resident), for
        every pfn changed since; callers must not mutate it."""
        return self._changes

    def take_changes(self) -> Dict[int, Optional[Page]]:
        """Return and reset the change log (see :meth:`pending_changes`)."""
        changes, self._changes = self._changes, {}
        return changes

    # ---------------------------------------------------------------- restore

    def install_pages(self, put: Sequence[Tuple[int, Page]],
                      drop: Iterable[int], app_pages: int) -> None:
        """Apply a restore diff: drop pfns, (re)install pages, clear dirty.

        ``put`` must be in pfn order.  Only the pages a restore actually
        changes pass through here, so its cost tracks the diff.
        """
        pages = self._pages
        for pfn in drop:
            self._note(pfn)
            del pages[pfn]
        tail = next(reversed(pages), -1)
        ordered = True
        for pfn, page in put:
            self._note(pfn)
            if pfn not in pages:
                if pfn < tail:
                    ordered = False
                tail = max(tail, pfn)
            pages[pfn] = page
        if not ordered:
            self._pages = dict(sorted(pages.items()))
        self._app_pages = app_pages
        self._dirty = set()

    def load_pages(self, pages: Dict[int, Page], app_pages: int) -> None:
        """Replace the entire resident set with ``pages``."""
        current = self._pages
        self.install_pages(
            [(pfn, page) for pfn, page in sorted(pages.items())
             if current.get(pfn) != page],
            [pfn for pfn in current if pfn not in pages], app_pages)

    def export_pages(self) -> Tuple[Dict[int, Page], int]:
        return dict(self._pages), self._app_pages

    def app_page_count(self) -> int:
        return self._app_pages
