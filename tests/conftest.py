import pytest

from pcforge.propagation import UnitPropagator


@pytest.fixture
def asked(monkeypatch):
    """Every assumption set that propagation is asked, one run or one lane of a pass each, in order."""
    sets = []
    run, lanes = UnitPropagator.run, UnitPropagator.lanes

    def counted_run(engine, assumptions=()):
        sets.append(list(assumptions))
        return run(engine, assumptions)

    def counted_lanes(engine, assumption_sets):
        assumption_sets = [list(lits) for lits in assumption_sets]
        sets.extend(assumption_sets)
        return lanes(engine, assumption_sets)

    monkeypatch.setattr(UnitPropagator, "run", counted_run)
    monkeypatch.setattr(UnitPropagator, "lanes", counted_lanes)
    return sets
