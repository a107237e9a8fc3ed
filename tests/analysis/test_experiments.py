"""The experiment registry: exact rows pinned, shape claims able to fail.

Two committed receipts back these tests:

* ``benchmarks/results/EXPERIMENTS_smoke.json`` — ``{id: tables}`` of every
  entry at its smoke profile.  The tables are exact functions of the code,
  so the gate is equality on every column that is not a host wall-clock
  reading.  After an intended change of the numbers, regenerate with::

      PYTHONPATH=src python -c "import json; \
      from repro.analysis.experiments import EXPERIMENTS, run_experiment; \
      json.dump({i: run_experiment(i, smoke=True)['tables'] for i in EXPERIMENTS}, \
      open('benchmarks/results/EXPERIMENTS_smoke.json', 'w'), indent=1, allow_nan=False)"

* ``benchmarks/results/<ID>.json`` — the full-scale documents written by
  ``repro experiment all --out benchmarks/results`` (minutes; not re-run
  here).  Their shape claims are re-evaluated, and must fail on a copy with
  one cell tampered: a claim that cannot fail documents nothing.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.graph500.report import render_tables

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks" / "results"
SMOKE = json.loads((RESULTS / "EXPERIMENTS_smoke.json").read_text())

#: Per experiment, one cell of the committed full-scale tables that a shape
#: claim reads, and a value that must break the claim:
#: (table index, row index or None for a block, column, tampered value).
TAMPER = {
    "T1": (0, -1, "cores", 1000),
    "T2": (0, 0, "total cores", 1),
    "T3": (0, 0, "validates", False),
    "F1": (0, 4, "bytes", 10**12),  # optimized at 16 nodes
    "F2": (0, 2, "speedup", 1.0),  # optimized at 4 nodes
    "F3": (0, 0, "bytes", 10**12),  # optimized
    "F4": (0, -1, "mean_sim_s", 1.0),  # adaptive
    "F5": (0, 0, "bytes", 10**12),  # scale 14, optimized
    "F6": (0, 1, "edge_imbalance", 9.9),  # block1d_edge_balanced
    "F7": (0, 3, "edges_relaxed", 10**12),  # delta_stepping
    "F8": (0, -1, "gen_Medges/s", 0.0),
    "F9": (0, None, "validation", "FAILED"),
    "F10": (0, 0, "bytes", 10**12),  # the peak moves to the first step
    "F11": (0, 0, "retry_bytes", 5),  # fault-free run
    "E1": (0, 2, "edges_inspected", 10**12),  # auto
    "E2": (0, -1, "max_partners", 63),  # 2-D at 64 ranks
    "E3": (1, -1, "supersteps", 10**6),  # fusion cap 64
}


def _non_wall(tables, wall):
    """``tables`` without the host wall-clock columns."""

    def strip(row):
        return {k: v for k, v in row.items() if k not in wall}

    return {
        name: body if isinstance(body, str)
        else strip(body) if isinstance(body, dict)
        else [strip(row) for row in body]
        for name, body in tables.items()
    }


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
def test_smoke_rows_equal_the_committed_rows(exp_id):
    doc = run_experiment(exp_id, smoke=True)
    wall = EXPERIMENTS[exp_id].wall_columns
    assert doc["wall_columns"] == list(wall)
    assert _non_wall(doc["tables"], wall) == _non_wall(SMOKE[exp_id], wall)
    # Strict JSON (no NaN), and nothing is lost on the way to disk.
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc
    assert doc["benchmark"] == exp_id and doc["smoke"] is True and doc["checks"] is None
    assert render_tables(doc["tables"])


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
def test_shape_claims_hold_on_the_committed_document_and_can_fail(exp_id):
    doc = json.loads((RESULTS / f"{exp_id}.json").read_text())
    assert doc["benchmark"] == exp_id and doc["smoke"] is False
    check = EXPERIMENTS[exp_id].check
    claims = check(*doc["tables"].values())
    assert claims and all(claims.values()), claims
    assert doc["checks"] == {claim: True for claim in claims}

    table, row, column, value = TAMPER[exp_id]
    tampered = copy.deepcopy(doc["tables"])
    body = list(tampered.values())[table]
    cells = body if row is None else body[row]
    assert cells[column] != value
    cells[column] = value
    assert not all(check(*tampered.values()).values())


def test_ids_are_the_ones_the_documents_name():
    # DESIGN.md section 4 is the index: one command per row, no other ids.
    design = (ROOT / "DESIGN.md").read_text()
    index = design[design.index("## 4."):design.index("## 5.")]
    assert set(re.findall(r"`repro experiment (\w+)`", index)) == set(EXPERIMENTS)
    assert len(EXPERIMENTS) == 17
    # Every entry has its EXPERIMENTS.md section, and no document anywhere
    # points at an id that does not exist.
    sections = re.findall(r"^## (\w+) —", (ROOT / "EXPERIMENTS.md").read_text(), re.M)
    assert set(EXPERIMENTS) <= set(sections)
    for name in ("EXPERIMENTS.md", "DESIGN.md", "README.md"):
        named = set(re.findall(r"repro experiment ([A-Z]\w*)", (ROOT / name).read_text()))
        assert named <= set(EXPERIMENTS), (name, named - set(EXPERIMENTS))
