"""Outside-in tracer: times repro's layers through their public entry points.

Nothing under ``src/repro`` knows about it.  :func:`install` swaps each
entry point in :data:`ENTRY_POINTS` for a timing wrapper and returns the
originals; :func:`uninstall` puts them back.  Always pair the two with
``try``/``finally`` so a failed hunt cannot leave wrappers behind.  A
process forked while the wrappers are in place (a parallel hunt's worker)
drops them, so only the parent process is traced.

Two kinds of wrapper:

* ``SPAN`` for coarse calls (a start_run, a snapshot save, one kernel
  window): each call becomes a span with name, start, end, parent span and
  the run id, kept in memory until :meth:`Tracer.write`.
* ``AGGREGATE`` for per-message calls (hundreds of thousands per hunt):
  calls, total and self seconds accumulate under ``(name, parent name)``.

Self time is a call's duration minus the time its traced children cover.
A wrapper's own bookkeeping after the call (page counts, byte counts) is
charged to no layer: the parent's child time covers it, so the parent's
self time stays clean.
"""

import functools
import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN = "span"
AGGREGATE = "aggregate"


class Tracer:
    """In-memory spans and per-``(name, parent)`` accumulators of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.origin = time.perf_counter()
        #: finished spans, indexed by id; parents always precede children
        self.spans: List[Optional[dict]] = []
        #: (name, parent name) -> [calls, total seconds, self seconds]
        self.aggregates: Dict[Tuple[str, str], List[float]] = {}
        #: work counts the hooks read off arguments and results
        self.counters: Dict[str, float] = {}
        #: open frames: [name, child seconds, span id or -1]
        self._stack: List[list] = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # ------------------------------------------------------------ wrappers

    def aggregate(self, name: str, fn: Callable,
                  after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        aggregates = self.aggregates
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0, -1]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if ok and after is not None:
                    after(self, args, result)
                parent = stack[-1] if stack else None
                key = (name, parent[0] if parent is not None else "")
                entry = aggregates.get(key)
                if entry is None:
                    entry = aggregates[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += clock() - start
        return wrapper

    def span(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            parent_id = next((f[2] for f in reversed(stack) if f[2] >= 0),
                             None)
            token = before(args) if before is not None else None
            span_id = len(spans)
            spans.append(None)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                record = {"id": span_id, "name": name, "run": self.run_id,
                          "parent": parent_id,
                          "start": start - self.origin,
                          "end": end - self.origin,
                          "self": (end - start) - frame[1]}
                if not ok:
                    record["error"] = True
                spans[span_id] = record
                if ok and after is not None:
                    after(self, args, result, token)
                if stack:
                    stack[-1][1] += clock() - entered
        return wrapper

    # ------------------------------------------------------------- queries

    def stats(self, name: str) -> Tuple[int, float, float]:
        """``(calls, total seconds, self seconds)`` of every call to
        ``name``, spans and aggregates alike."""
        calls, total, own = 0, 0.0, 0.0
        for span in self.spans:
            if span is not None and span["name"] == name:
                calls += 1
                total += span["end"] - span["start"]
                own += span["self"]
        for (key, __), (n, t, s) in self.aggregates.items():
            if key == name:
                calls += n
                total += t
                own += s
        return calls, total, own

    def write(self, path: str) -> None:
        """Write every span and accumulator out (called once, at run end)."""
        data = {"run": self.run_id,
                "spans": [s for s in self.spans if s is not None],
                "aggregates": [
                    {"name": name, "parent": parent, "calls": n,
                     "total_s": t, "self_s": s}
                    for (name, parent), (n, t, s)
                    in sorted(self.aggregates.items())],
                "counters": dict(sorted(self.counters.items()))}
        with open(path, "w") as fh:
            json.dump(data, fh, indent=1)


# ------------------------------------------------------------------- hooks

def _kernel_events(args) -> int:
    return args[0].events_executed


def _after_run_until(tracer, args, result, before) -> None:
    tracer.count("sim.events", args[0].events_executed - before)


def _ksm_scans(args) -> int:
    ksm = args[0].ksm
    return ksm.stats.scans if ksm is not None else 0


def _after_save(tracer, args, result, scans_before) -> None:
    cluster = args[0]
    snapshot = result.snapshot
    counts = snapshot.page_counts()
    tracer.count("vm.pages_saved", counts["pages_total"])
    tracer.count("vm.pages_shared", counts["pages_shared"])
    tracer.count("vm.stored_bytes", snapshot.stored_bytes())
    if cluster.ksm is not None and cluster.ksm.stats.scans > scans_before:
        # a scan visits every resident page of every registered guest
        tracer.count("vm.pages_scanned", sum(
            vm.memory.resident_pages() for vm in cluster.machines()))


def _after_save_delta(tracer, args, result, token) -> None:
    snapshot = result.snapshot
    tracer.count("vm.pages_saved", snapshot.page_counts()["pages_changed"])
    tracer.count("vm.stored_bytes", snapshot.stored_bytes())


def _restored_pages(args) -> int:
    snapshot = args[1]
    counts = snapshot.page_counts()
    if "pages_total" in counts:
        return counts["pages_total"]
    # a delta restores its base, then overlays the changed pages
    return (snapshot.base.page_counts()["pages_total"]
            + counts["pages_changed"])


def _after_restore(tracer, args, result, pages) -> None:
    tracer.count("vm.pages_restored", pages)


def _after_encode(tracer, args, result) -> None:
    tracer.count("wire.bytes_encoded", len(result))


#: (module, class or None for a module-level name, attribute, traced name,
#: kind, before hook, after hook).  ``merge_weighted`` is patched where the
#: executor looks it up, because it imports the name directly.
ENTRY_POINTS = (
    ("repro.controller.harness", "AttackHarness", "start_run",
     "controller.start_run", SPAN, None, None),
    ("repro.controller.harness", "AttackHarness", "run_to_injection",
     "controller.seek", SPAN, None, None),
    ("repro.controller.harness", "AttackHarness", "branch_measure",
     "controller.branch", SPAN, None, None),
    ("repro.controller.branching", "DistributedSnapshotter", "save",
     "controller.snapshot_save", SPAN, None, None),
    ("repro.controller.branching", "DistributedSnapshotter", "restore",
     "controller.snapshot_restore", SPAN, None, None),
    ("repro.vm.manager", "VmCluster", "save_snapshot",
     "vm.save", SPAN, _ksm_scans, _after_save),
    ("repro.vm.manager", "VmCluster", "save_delta_snapshot",
     "vm.save", SPAN, None, _after_save_delta),
    ("repro.vm.manager", "VmCluster", "restore_snapshot",
     "vm.restore", SPAN, _restored_pages, _after_restore),
    ("repro.vm.ksm", "KsmDaemon", "scan",
     "vm.ksm_scan", SPAN, None, None),
    ("repro.sim.kernel", "SimKernel", "run_until",
     "sim.run", SPAN, _kernel_events, _after_run_until),
    ("repro.runtime.node", "Node", "send",
     "runtime.send", AGGREGATE, None, None),
    ("repro.wire.codec", "ProtocolCodec", "encode",
     "wire.encode", AGGREGATE, None, _after_encode),
    ("repro.wire.codec", "ProtocolCodec", "decode",
     "wire.decode", AGGREGATE, None, None),
    ("repro.netem.emulator", "NetworkEmulator", "transmit",
     "netem.transmit", AGGREGATE, None, None),
    ("repro.attacks.proxy", "MaliciousProxy", "__call__",
     "attacks.proxy", AGGREGATE, None, None),
    ("repro.parallel.executor", "ScenarioExecutor", "run_pass",
     "parallel.run_pass", SPAN, None, None),
    ("repro.parallel.executor", None, "merge_weighted",
     "parallel.merge", SPAN, None, None),
    ("repro.store.journal", "Journal", "append",
     "store.append", AGGREGATE, None, None),
    ("repro.store.runstore", "RunStore", "save_checkpoint",
     "store.checkpoint", SPAN, None, None),
)

_MISSING = object()


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Wrap every entry point; returns what :func:`uninstall` restores."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for module, cls, attr, name, kind, before, after in ENTRY_POINTS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            if kind == SPAN:
                wrapped = tracer.span(name, original, before, after)
            else:
                wrapped = tracer.aggregate(name, original, after)
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, wrapped)
    except BaseException:
        uninstall(saved)
        raise
    # A forked worker's spans would die with it, so it runs unwrapped.
    os.register_at_fork(after_in_child=lambda: uninstall(saved))
    return saved


def uninstall(saved: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(saved):
        if original is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
    saved.clear()
