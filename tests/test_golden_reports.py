"""Golden report pins: the exact bytes of small seeded hunts and passes.

The pairwise byte-identity tests (serial vs workers, resumed vs fresh)
cannot see a change that moves every mode together.  These pin the sha256
of the ``repro hunt --json`` report (``hunt_result_to_dict``, ``indent=2``)
for one small serial hunt per system, and of the ``repro search --json``
report (``report_to_dict``, ``indent=2``) for one greedy and one brute-force
pass, each asserted serial and through the worker pool, so any behaviour
change shows up as a golden diff.  Never regenerate a hash to make this
pass: a moved hash means the search found, charged or reported something
different.
"""

import hashlib
import json

import pytest

from repro.analysis.reports import hunt_result_to_dict, report_to_dict
from repro.attacks.space import ActionSpaceConfig
from repro.controller.monitor import AttackThreshold
from repro.parallel.executor import ScenarioExecutor
from repro.search import BruteForceSearch, GreedySearch
from repro.search.hunt import hunt
from repro.systems.registry import get_system

# the CLI's --fast delivery set, without lying actions
FAST = ActionSpaceConfig(delays=(1.0,), drop_probabilities=(0.5, 1.0),
                         duplicate_counts=(50,), include_divert=False,
                         include_lying=False)

GOLDEN = {
    # system, malicious role, types: (report sha256, ledger total, scenarios)
    ("steward", "leader", ("Proposal", "Status")): (
        "e7a203fb9a3d7e819c04f5b30f4a68809f5f823375e482e6fbf03a3a6f7acd5f",
        44.03928172536743, 5),
    ("pbft", "primary", ("Commit", "Checkpoint")): (
        "758a3f52924ec156ca03ccb3ed7dfbc464c0cd421ac9f719c15d5d9ed7248f34",
        42.22280615978148, 8),
}


#: one-pass searches on pbft (malicious primary), PrePrepare only:
#: algorithm -> (report sha256, ledger total, scenarios)
PASS_GOLDEN = {
    "greedy": (
        "163ef769fdfd7be1b3e49ac5f4a13fbf67d44057dc991314ad76743499798427",
        55.302849750932616, 12),
    "brute": (
        "4e37ad4fd99e4b160926be7aa3b43f904f06f68ca70321512e1fb1e82f00a50c",
        55.014626559999996, 4),
}
PASS_CLASSES = {"greedy": GreedySearch, "brute": BruteForceSearch}
PASS_KW = dict(seed=0, threshold=AttackThreshold(delta=0.25),
               space_config=FAST, max_wait=5.0)


def _hunt(key, **kwargs):
    system, role, types = key
    factory = get_system(system).build(role, 1.0, 2.0)
    return hunt(factory, seed=0, message_types=list(types),
                threshold=AttackThreshold(delta=0.25), space_config=FAST,
                max_passes=1, max_wait=5.0, **kwargs)


def _assert_hunt_golden(key, result):
    sha, ledger_total, scenarios = GOLDEN[key]
    report = json.dumps(hunt_result_to_dict(result), indent=2)
    assert sum(p.scenarios_evaluated for p in result.passes) == scenarios
    assert result.total_ledger.total() == ledger_total
    assert hashlib.sha256(report.encode()).hexdigest() == sha


def _assert_pass_golden(algorithm, report):
    sha, ledger_total, scenarios = PASS_GOLDEN[algorithm]
    text = json.dumps(report_to_dict(report), indent=2)
    assert report.scenarios_evaluated == scenarios
    assert report.ledger.total() == ledger_total
    assert hashlib.sha256(text.encode()).hexdigest() == sha


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: k[0])
def test_report_bytes_match_golden(key):
    _assert_hunt_golden(key, _hunt(key))


PBFT_KEY = ("pbft", "primary", ("Commit", "Checkpoint"))


def test_pbft_golden_with_workers():
    _assert_hunt_golden(PBFT_KEY, _hunt(PBFT_KEY, workers=2))


def test_pbft_golden_with_store(tmp_path):
    _assert_hunt_golden(PBFT_KEY,
                        _hunt(PBFT_KEY, store_dir=str(tmp_path / "store")))


@pytest.mark.parametrize("algorithm", sorted(PASS_GOLDEN))
def test_pass_bytes_match_golden_serial(algorithm):
    factory = get_system("pbft").build("primary", 1.0, 2.0)
    search = PASS_CLASSES[algorithm](factory, **PASS_KW)
    _assert_pass_golden(algorithm, search.run(message_types=["PrePrepare"]))


@pytest.mark.parametrize("algorithm", sorted(PASS_GOLDEN))
def test_pass_bytes_match_golden_workers(algorithm):
    factory = get_system("pbft").build("primary", 1.0, 2.0)
    with ScenarioExecutor(factory, algorithm=algorithm, workers=2,
                          **PASS_KW) as executor:
        report = executor.run_pass(message_types=["PrePrepare"])
    _assert_pass_golden(algorithm, report)
