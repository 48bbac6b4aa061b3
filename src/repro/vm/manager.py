"""Cluster-level VM management.

The controller deals with a whole set of VMs at once (pause all, snapshot
all, restore all), following the paper's distributed-snapshot ordering.
:class:`VmCluster` bundles the guests, the KSM daemon, the snapshot manager,
and the timing model behind that collective interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import SnapshotError
from repro.vm.ksm import KsmDaemon
from repro.vm.machine import VirtualMachine
from repro.vm.memory import OsImage
from repro.vm.snapshots import ClusterSnapshot, SnapshotManager
from repro.vm.timing import VmTimingModel


@dataclass
class ClusterSaveResult:
    """What the controller needs back from a cluster save."""

    snapshot: ClusterSnapshot
    pause_time: float
    sync_bytes: int

    @property
    def total_time(self) -> float:
        return self.pause_time + self.snapshot.save_time


class VmCluster:
    """All guest VMs of one experiment."""

    def __init__(self, names: Sequence[str], image: Optional[OsImage] = None,
                 timing: Optional[VmTimingModel] = None,
                 ksm_enabled: bool = True) -> None:
        self.image = image or OsImage()
        self.timing = timing or VmTimingModel()
        self.vms: Dict[str, VirtualMachine] = {
            name: VirtualMachine(name, self.image) for name in names}
        self.ksm = KsmDaemon() if ksm_enabled else None
        if self.ksm is not None:
            for vm in self.vms.values():
                self.ksm.register(vm.memory)
        self.snapshot_manager = SnapshotManager(self.ksm, self.timing)

    # --------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self.vms)

    def vm(self, name: str) -> VirtualMachine:
        try:
            return self.vms[name]
        except KeyError:
            raise SnapshotError(f"no VM named {name!r}") from None

    def machines(self) -> List[VirtualMachine]:
        return list(self.vms.values())

    # ------------------------------------------------------------ lifecycle

    def boot_all(self) -> float:
        for vm in self.vms.values():
            vm.boot()
        return self.timing.boot_time(len(self.vms))

    def pause_all(self) -> float:
        for vm in self.vms.values():
            vm.pause()
        return self.timing.pause_time(len(self.vms))

    def resume_all(self) -> float:
        for vm in self.vms.values():
            vm.resume()
        return self.timing.resume_time(len(self.vms))

    @property
    def all_paused(self) -> bool:
        return all(vm.paused for vm in self.vms.values())

    # -------------------------------------------------------------- snapshot

    def save_snapshot(self, shared: bool = True,
                      max_bandwidth: bool = True) -> ClusterSaveResult:
        """Pause-sync-scan-save, per the paper's snapshot procedure."""
        pause_time = 0.0
        if not self.all_paused:
            pause_time = self.pause_all()
        sync_bytes = sum(vm.sync_app_pages() for vm in self.vms.values())
        if shared and self.ksm is not None:
            self.ksm.scan()
        snapshot = self.snapshot_manager.save(
            [vm.memory for vm in self.vms.values()],
            shared=shared and self.ksm is not None,
            max_bandwidth=max_bandwidth)
        return ClusterSaveResult(snapshot, pause_time, sync_bytes)

    def save_delta_snapshot(self, base: ClusterSnapshot,
                            max_bandwidth: bool = True) -> ClusterSaveResult:
        """Pause-sync-save only the pages changed since ``base``."""
        pause_time = 0.0
        if not self.all_paused:
            pause_time = self.pause_all()
        sync_bytes = sum(vm.sync_app_pages() for vm in self.vms.values())
        snapshot = self.snapshot_manager.save_delta(
            [vm.memory for vm in self.vms.values()], base,
            max_bandwidth=max_bandwidth)
        return ClusterSaveResult(snapshot, pause_time, sync_bytes)

    def restore_snapshot(self, snapshot) -> float:
        """Load pages and rebuild hosted apps; VMs stay paused.

        Accepts either a full :class:`ClusterSnapshot` or a
        :class:`DeltaClusterSnapshot` (restored as base plus overlay).
        """
        if not self.all_paused:
            self.pause_all()
        self.snapshot_manager.load(
            snapshot, [vm.memory for vm in self.vms.values()])
        for vm in self.vms.values():
            vm.restore_app()
        return snapshot.load_time
