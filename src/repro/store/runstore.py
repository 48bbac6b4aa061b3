"""RunStore: the durable campaign store behind ``hunt --store DIR``.

Two durable artifacts live in the store directory:

* ``journal.jsonl`` — a write-ahead journal of every completed probe
  (startup boot, per-type injection context, per-action evaluation), each
  committed with CRC32 + fsync *before* the hunt proceeds.  Probes are
  pass-independent — they are exactly the parallel prober's caches, keyed
  by message type and action record — so a journal replay can seed a fresh
  prober and skip every already-completed scenario **mid-pass**, not just
  completed passes.
* ``checkpoint-<N>.json`` — generation-swapped hunt checkpoints (the PR-1
  pass-boundary state: excluded scenarios, weights, ledger, completed
  passes), each written atomically via tmp + fsync + rename + directory
  fsync.  The last two generations are kept; a corrupt newest generation
  (torn rename, bad CRC) falls back to the previous good one.

Resume produces a report **byte-identical** to the uninterrupted run: the
journal stores the recorded :class:`~repro.parallel.recording.StepTrace` of
every probe, and the recorded driver (:mod:`repro.parallel.merge`) replays
traces in serial order whether they came from a live worker or from disk.  Anything *not* in the journal
is re-simulated — deterministic worlds reproduce the identical traces.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.reports import (_sample_from_dict, _sample_to_dict,
                                    record_from_jsonable, record_to_jsonable)
from repro.common.errors import ConfigError
from repro.controller.monitor import AttackThreshold
from repro.parallel.recording import StepTrace
from repro.search.probes import (ContextProbe, EvalProbe, StartupProbe,
                                 TypeProbe)
from repro.search.weighted import probe_frontier
from repro.store.journal import Journal, _canonical, atomic_write_json
from repro.telemetry.instruments import InstrumentRegistry

JOURNAL_NAME = "journal.jsonl"
CHECKPOINT_PREFIX = "checkpoint-"
#: checkpoint generations kept on disk (current + previous good)
KEPT_GENERATIONS = 2


# ------------------------------------------------------- probe serialization

def trace_to_jsonable(trace: StepTrace) -> Dict[str, Any]:
    return {
        "charges": [[category, seconds] for category, seconds
                    in trace.charges],
        "events": [list(event) for event in trace.events],
        "crash_lines": list(trace.crash_lines),
    }


def trace_from_jsonable(data: Dict[str, Any]) -> StepTrace:
    return StepTrace(
        charges=[(category, seconds) for category, seconds
                 in data["charges"]],
        events=[tuple(event) for event in data["events"]],
        crash_lines=list(data["crash_lines"]))


def _quarantine_to_jsonable(quarantined) -> Optional[List]:
    if quarantined is None:
        return None
    reason, attempts = quarantined
    return [reason, attempts]


def _quarantine_from_jsonable(data) -> Optional[tuple]:
    if data is None:
        return None
    return (data[0], data[1])


def _sample_or_none(sample) -> Optional[Dict[str, Any]]:
    return None if sample is None else _sample_to_dict(sample)


def _sample_back(data) -> Optional[Any]:
    return None if data is None else _sample_from_dict(data)


# ------------------------------------------------------------------ RunStore

class RunStore:
    """Durable journal + checkpoints for one hunt campaign."""

    def __init__(self, directory: str, seed: Optional[int] = None) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.registry = InstrumentRegistry(enabled=True)
        self.journal = Journal(os.path.join(directory, JOURNAL_NAME))
        if self.journal.recovered_bytes:
            self.registry.count("store.journal.torn_bytes_dropped",
                                self.journal.recovered_bytes)
        #: replayed startup probe (the executor's cross-check reference)
        self.startup: Optional[StartupProbe] = None
        #: message_type -> {"context": ContextProbe,
        #:                  "evals": {record: EvalProbe}}
        self.seeded: Dict[str, dict] = {}
        self._have_context: set = set()
        self._have_evals: set = set()
        self._generation = self._latest_generation()
        self._load_journal(seed)

    # ------------------------------------------------------------- journal in

    def _load_journal(self, seed: Optional[int]) -> None:
        for record in self.journal.records:
            kind = record.get("kind")
            if kind == "meta":
                if seed is not None and record.get("seed") != seed:
                    raise ConfigError(
                        f"store {self.directory} was written by a hunt "
                        f"with seed {record.get('seed')}, cannot resume "
                        f"with seed {seed}")
            elif kind == "startup":
                self.startup = StartupProbe(
                    trace_from_jsonable(record["trace"]),
                    _quarantine_from_jsonable(record["quarantined"]))
            elif kind == "context":
                message_type = record["type"]
                self._entry(message_type)["context"] = ContextProbe(
                    found=record["found"],
                    trace=trace_from_jsonable(record["trace"]),
                    quarantined=_quarantine_from_jsonable(
                        record["quarantined"]))
                self._have_context.add(message_type)
            elif kind == "eval":
                message_type = record["type"]
                action_record = tuple(record_from_jsonable(record["record"]))
                probe = EvalProbe(
                    action_record,
                    _sample_back(record["baseline"]),
                    _sample_back(record["sample"]),
                    trace_from_jsonable(record["trace"]),
                    _quarantine_from_jsonable(record["quarantined"]))
                self._entry(message_type)["evals"][action_record] = probe
                self._have_evals.add((message_type, action_record))
            # unknown kinds are skipped: forward compatibility
        self.registry.count("store.journal.records_loaded",
                            len(self.journal.records))
        if self.startup is not None:
            self.registry.count("store.resume.startup_seeded")
        # only types with a journaled *context* count as seeded; stray
        # evals without their context cannot short-circuit anything
        seeded_types = [t for t in self.seeded if t in self._have_context]
        if seeded_types:
            self.registry.count("store.resume.types_seeded",
                                len(seeded_types))
            self.registry.count(
                "store.resume.evals_seeded",
                sum(len(self.seeded[t]["evals"]) for t in seeded_types))
        if not self.journal.records and seed is not None:
            self.journal.append({"kind": "meta", "journal_version": 1,
                                 "seed": seed})

    def _entry(self, message_type: str) -> dict:
        entry = self.seeded.get(message_type)
        if entry is None:
            entry = self.seeded[message_type] = {"context": None, "evals": {}}
        return entry

    # ------------------------------------------------------------ journal out

    def journal_startup(self, probe: StartupProbe) -> None:
        if self.startup is not None:
            return
        self.journal.append({
            "kind": "startup",
            "trace": trace_to_jsonable(probe.trace),
            "quarantined": _quarantine_to_jsonable(probe.quarantined)})
        self.startup = probe
        self.registry.count("store.journal.records_appended")

    def journal_context(self, message_type: str,
                        probe: ContextProbe) -> None:
        if message_type in self._have_context:
            return
        self.journal.append({
            "kind": "context", "type": message_type, "found": probe.found,
            "trace": trace_to_jsonable(probe.trace),
            "quarantined": _quarantine_to_jsonable(probe.quarantined)})
        self._have_context.add(message_type)
        self.registry.count("store.journal.records_appended")

    def journal_eval(self, message_type: str, probe: EvalProbe) -> None:
        key = (message_type, probe.record)
        if key in self._have_evals:
            return
        self.journal.append({
            "kind": "eval", "type": message_type,
            "record": record_to_jsonable(probe.record),
            "baseline": _sample_or_none(probe.baseline),
            "sample": _sample_or_none(probe.sample),
            "trace": trace_to_jsonable(probe.trace),
            "quarantined": _quarantine_to_jsonable(probe.quarantined)})
        self._have_evals.add(key)
        self.registry.count("store.journal.records_appended")

    def journal_type(self, probe: TypeProbe) -> None:
        """Journal a whole TypeProbe (a parallel worker's return)."""
        self.journal_context(probe.message_type, probe.context)
        for ev in probe.evals:
            self.journal_eval(probe.message_type, ev)

    # ------------------------------------------------------------ checkpoints

    def _checkpoint_path(self, generation: int) -> str:
        return os.path.join(self.directory,
                            f"{CHECKPOINT_PREFIX}{generation:06d}.json")

    def _generations_on_disk(self) -> List[int]:
        generations = []
        for name in os.listdir(self.directory):
            if (name.startswith(CHECKPOINT_PREFIX)
                    and name.endswith(".json")):
                digits = name[len(CHECKPOINT_PREFIX):-len(".json")]
                if digits.isdigit():
                    generations.append(int(digits))
        return sorted(generations)

    def _latest_generation(self) -> int:
        generations = self._generations_on_disk()
        return generations[-1] if generations else 0

    def save_checkpoint(self, data: Dict[str, Any]) -> None:
        """Write the next checkpoint generation atomically; prune old ones.

        The previous generation survives until the new one is durably in
        place, so a checkpoint torn at any instant still leaves a good one
        to fall back to.
        """
        self._generation += 1
        path = self._checkpoint_path(self._generation)
        body = _canonical(data)
        wrapper = {"crc": zlib.crc32(body.encode("utf-8")),
                   "checkpoint": data}
        atomic_write_json(path, wrapper)
        self.registry.count("store.checkpoint.writes")
        if self.journal.checkpoint_chaos():  # pragma: no cover - SIGKILLs
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(1, size // 2))
                fh.flush()
                os.fsync(fh.fileno())
            os.kill(os.getpid(), __import__("signal").SIGKILL)
        for generation in self._generations_on_disk():
            if generation <= self._generation - KEPT_GENERATIONS:
                try:
                    os.unlink(self._checkpoint_path(generation))
                except OSError:  # pragma: no cover - defensive
                    pass

    def load_checkpoint(self) -> Optional[Dict[str, Any]]:
        """The newest valid checkpoint, falling back past corrupt ones."""
        for generation in reversed(self._generations_on_disk()):
            path = self._checkpoint_path(generation)
            data = self._read_checkpoint(path)
            if data is not None:
                return data
            self.registry.count("store.checkpoint.fallbacks")
        return None

    @staticmethod
    def _read_checkpoint(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path) as fh:
                wrapper = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(wrapper, dict) or "checkpoint" not in wrapper:
            return None
        data = wrapper["checkpoint"]
        crc = zlib.crc32(_canonical(data).encode("utf-8"))
        if crc != wrapper.get("crc"):
            return None
        return data

    # ---------------------------------------------------------------- seeding

    def seed_prober(self, prober) -> None:
        """Pre-load a :class:`~repro.parallel.worker.WorkerProber`'s caches.

        Contexts are seeded with ``ctx=None`` — no live testbed state; the
        prober lazily re-acquires the injection context (off the books,
        outside any recorded step) only if an *unjournaled* action of that
        type must actually be simulated.  The startup probe is *not*
        seeded: the prober still boots its world for real (it needs live
        state to simulate anything new) and the executor cross-checks the
        fresh boot's trace against the journaled one.
        """
        for message_type, entry in self.seeded.items():
            if entry["context"] is None:
                continue
            if message_type in prober._types:
                continue
            prober._types[message_type] = {
                "context": entry["context"], "ctx": None,
                "evals": dict(entry["evals"])}

    def covers(self, message_type: str, actions: Sequence,
               threshold: AttackThreshold, early_stop: bool = True) -> bool:
        """Whether the journal alone can answer this type's pass: its
        context, and every evaluation on the prober's frontier (see
        :func:`~repro.search.weighted.probe_frontier`)."""
        entry = self.seeded.get(message_type)
        if entry is None or entry["context"] is None:
            return False
        context = entry["context"]
        if context.quarantined is not None or not context.found:
            return True
        evals = entry["evals"]
        return probe_frontier(actions, threshold,
                              lambda action: evals.get(action.to_record()),
                              early_stop=early_stop)

    def type_probe(self, message_type: str) -> TypeProbe:
        """Assemble the journaled TypeProbe for a fully covered type."""
        entry = self.seeded[message_type]
        return TypeProbe(message_type, entry["context"],
                         list(entry["evals"].values()))

    # ------------------------------------------------------------- accounting

    def note_passes_restored(self, count: int) -> None:
        if count:
            self.registry.count("store.resume.passes_restored", count)

    def counters(self) -> Dict[str, float]:
        return dict(self.registry.counters())

    def close(self) -> None:
        self.journal.close()
