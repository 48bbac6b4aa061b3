"""Golden report pins: the exact bytes of small seeded hunts.

The pairwise byte-identity tests (serial vs workers, resumed vs fresh)
cannot see a change that moves every mode together.  These pin the sha256
of the ``repro hunt --json`` report (``hunt_result_to_dict``, ``indent=2``)
for one small serial hunt per system, so any behaviour change shows up as
a golden diff.  Never regenerate a hash to make this pass: a moved hash
means the hunt found, charged or reported something different.
"""

import hashlib
import json

import pytest

from repro.analysis.reports import hunt_result_to_dict
from repro.attacks.space import ActionSpaceConfig
from repro.controller.monitor import AttackThreshold
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


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: k[0])
def test_report_bytes_match_golden(key):
    system, role, types = key
    sha, ledger_total, scenarios = GOLDEN[key]
    factory = get_system(system).build(role, 1.0, 2.0)
    result = hunt(factory, seed=0, message_types=list(types),
                  threshold=AttackThreshold(delta=0.25), space_config=FAST,
                  max_passes=1, max_wait=5.0)
    report = json.dumps(hunt_result_to_dict(result), indent=2)
    assert sum(p.scenarios_evaluated for p in result.passes) == scenarios
    assert result.total_ledger.total() == ledger_total
    assert hashlib.sha256(report.encode()).hexdigest() == sha
