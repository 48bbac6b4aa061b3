"""Parallel hunt execution: shard, record, merge deterministically."""

from repro.parallel.executor import ScenarioExecutor
from repro.parallel.health import (HealthMonitor, HealthPolicy, WorkerHealth,
                                   WorkerHealthReport)
from repro.parallel.merge import RecordedDriver
from repro.parallel.recording import (RecordingLedger, RecordingSupervisor,
                                      StepRecorder, StepTrace)
from repro.parallel.worker import ProbeParams, WorkerProber

__all__ = [
    "ScenarioExecutor",
    "RecordedDriver",
    "HealthMonitor",
    "HealthPolicy",
    "WorkerHealth",
    "WorkerHealthReport",
    "ProbeParams",
    "WorkerProber",
    "RecordingLedger",
    "RecordingSupervisor",
    "StepRecorder",
    "StepTrace",
]
