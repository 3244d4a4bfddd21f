"""The generated half of the conformance grid.

Every cell of ``tests/conformance.py``'s grid that no hand-written test
runs: scenario x variant x case x driver x kernel x backend x sampler,
filtered by each scenario's validity rule and thinned by a
deterministic pairwise cover.  A cell's seed is a stable hash of its
id and shows in it, so ``pytest -k <id>`` replays the cell.
"""

from __future__ import annotations

import pytest

from .. import conformance as cf

DECLARED = cf.GENERATED + [c for cells in cf.KEPT.values() for c in cells]


@pytest.mark.parametrize("cell", cf.GENERATED, ids=lambda c: c.id)
def test_cell(cell, monkeypatch):
    cf.check(cell, monkeypatch)


@pytest.mark.parametrize("name", cf.SCENARIOS)
def test_every_valid_axis_value_and_pair_appears(name):
    valid = cf.valid_cells(name)
    seen = [c for c in DECLARED if c.scenario == name]
    for axes in (lambda c: set(enumerate(c[1:7])), cf.axis_pairs):
        assert set().union(*map(axes, valid)) <= set().union(
            *map(axes, seen))


@pytest.mark.parametrize("name", [
    name for name, s in cf.SCENARIOS.items() if s.fault])
def test_every_fault_scenario_sees_three_seeds(name):
    for variant in cf.SCENARIOS[name].variants:
        seeds = {c.seed for c in DECLARED
                 if (c.scenario, c.variant) == (name, variant)}
        assert len(seeds) >= 3, (variant, seeds)


def test_the_listed_cells_cover_every_pair_and_regenerate_themselves():
    """The cover is data: regenerating from ``conformance_cells.txt``
    adds nothing and drops nothing, because the listed cells (with the
    kept ones) already hold every pair of every scenario."""
    listed = cf.listed_cells()
    assert [c.id for c in cf.generate(listed)] == listed
    by_id = {c.id: c for c in cf.GENERATED}
    kept = [c for cells in cf.KEPT.values() for c in cells]
    for name in cf.SCENARIOS:
        seen = [by_id[i] for i in listed if by_id[i].scenario == name]
        seen += [c for c in kept if c.scenario == name]
        assert set().union(*map(cf.axis_pairs, cf.valid_cells(name))) \
            <= set().union(*map(cf.axis_pairs, seen)), name


def test_cells_are_valid_and_ids_unique_and_seeded(request):
    """Generated ids are unique and carry the seed they hash to; every
    declared cell is valid; every test id the table declares cells for
    is collected (for the modules this session collected)."""
    ids = [c.id for c in cf.GENERATED]
    assert len(ids) == len(set(ids))
    assert all(c == cf.seeded(c) for c in cf.GENERATED)
    for c in DECLARED:
        scenario = cf.SCENARIOS[c.scenario]
        assert scenario.valid(c) and c.variant in scenario.variants, c.id
    collected = {item.nodeid for item in request.session.items}
    files = {nodeid.split("::")[0] for nodeid in collected}
    assert all(nodeid in collected for nodeid in cf.KEPT
               if nodeid.split("::")[0] in files)
