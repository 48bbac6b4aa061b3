"""Self-checks of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q     (about 4 minutes)

Not part of the tier-1 suite (``testpaths`` is ``tests``): the
determinism check runs every workload's hunt traced, twice.
"""

import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

import metrics
import run
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: per-layer metrics that count deterministic work
DETERMINISTIC = [name for name in metrics.PER_LAYER
                 if name.endswith(".calls") or name.startswith("vm.pages_")
                 or name in ("sim.events", "controller.branches_per_scenario",
                             "wire.bytes_encoded",
                             "store.records_per_scenario")]


def test_names_are_plain():
    names = (list(WORKLOADS) + list(metrics.END_TO_END)
             + list(metrics.PER_LAYER))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in [*metrics.END_TO_END.values(), *metrics.PER_LAYER.values()]:
        assert UNIT.match(unit), unit


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == table


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_carries_a_unit(monkeypatch, trace):
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    fake = {name: 1.5 for name in table}
    monkeypatch.setattr(run, "measure",
                        lambda *args: (fake, 33, 0, []))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run.main(["--workload", "pbft-branch", "--seed", "0",
                         "--seconds", "30", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(table)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == table[name]
        assert f"{name} = 1.5 {table[name]}" in err.getvalue()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_deterministic_counts_repeat_across_traced_runs(workload):
    run.WORKDIR.mkdir(exist_ok=True)
    spans = run.WORKDIR / f"selfcheck-{workload}.json"
    first, second = (
        run._step(["hunt", workload, str(run.WORKDIR), "--trace",
                   str(spans)], deadline=time.monotonic() + 600)
        for __ in range(2))
    for hunt in (first, second):
        assert hunt["report_sha256"] == WORKLOADS[workload].report_sha256
    counts = {name: (first["layers"][name], second["layers"][name])
              for name in DETERMINISTIC}
    assert all(a == b for a, b in counts.values()), counts
    assert any(a for a, __ in counts.values())
    spans.unlink()
