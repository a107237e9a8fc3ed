"""The witness matrix's own rows, and the comparison every row relies on.

The P = 8 cases the relations re-run, and the kernel-1 row, are compared
with the fixture here (the engine cases in
``tests/integration/test_owned_local_equivalence.py``, the cell x ranks
grid in ``tests/engine/test_substrate_pin.py``).  The comparison itself is
tested on synthetic records, without git and without a subprocess.
"""

import copy

import pytest

from tests import witness


@pytest.mark.parametrize("case", witness.MODE_CASES + [witness.KERNEL1], ids=lambda c: c.name)
def test_case_matches_fixture(recorder, pinned, case):
    witness.check(recorder, pinned, case)


RECORDS = {
    "a/P=4": {"modeled_time": 1.5e-05, "comm": {"total_bytes": 96, "messages": 3},
              "lanes": [{"dist_sha256": "00"}, {"dist_sha256": "11"}], "step_bytes": [32, 64]},
    "b/P=4": {"modeled_time": 2.0e-05, "comm": {"total_bytes": 0}},
}


def test_a_nested_difference_is_one_row():
    moved = copy.deepcopy(RECORDS)
    moved["a/P=4"]["comm"]["total_bytes"] = 97
    assert witness.compare(RECORDS, moved) == [("a/P=4", "comm.total_bytes", 96, 97)]
    moved = copy.deepcopy(RECORDS)
    moved["a/P=4"]["lanes"][1]["dist_sha256"] = "12"
    assert witness.compare(RECORDS, moved) == [("a/P=4", "lanes[1].dist_sha256", "11", "12")]


def test_equal_records_have_no_diff():
    assert witness.compare(RECORDS, copy.deepcopy(RECORDS)) == []


def test_a_case_the_revision_cannot_run_is_reported(recorder):
    broken = witness.Case("dist1d/no-such-knob", knobs={"no_such_knob": 1})
    at_rev = recorder.record_all([broken])
    error = at_rev[broken.name]["error"]
    assert error.startswith("TypeError")
    now = {broken.name: RECORDS["a/P=4"]}
    assert witness.compare(at_rev, now) == [(broken.name, "error", error, None)]
    assert witness.compare({}, now) == [(broken.name, "case", "<absent>", now[broken.name])]
