"""The cell x ranks grid of the witness matrix (``tests/witness.py``).

Every distributed ``(kernel, engine)`` cell at 1, 4, 7 and 16 ranks (plus
bottom-up BFS on one rank, whose allgather takes the single-rank path),
and at more ranks than vertices, must record what the fixture pins.
"""

import pytest

from repro import api
from tests import witness


def test_every_case_is_pinned():
    """The grid has a row for every distributed cell of the dispatch table."""
    assert set(witness.CELLS.values()) == {c for c in api._DISPATCH if c[1] != "shared"}


@pytest.mark.parametrize("case", witness.GRID_CASES, ids=lambda c: c.name)
def test_schedule_unchanged(recorder, pinned, case):
    witness.check(recorder, pinned, case)
