import pytest

from pcforge.propagation import UnitPropagator


@pytest.fixture
def passes(monkeypatch):
    """The assumption sets of every lane pass that propagation is asked, one list per pass, in order."""
    asked = []
    lanes = UnitPropagator.lanes

    def counted(engine, assumption_sets):
        assumption_sets = [list(lits) for lits in assumption_sets]
        asked.append(assumption_sets)
        return lanes(engine, assumption_sets)

    monkeypatch.setattr(UnitPropagator, "lanes", counted)
    return asked


@pytest.fixture
def runs(monkeypatch):
    """The assumptions of every run that propagation is asked, in order; a lane pass of one set is one of them."""
    asked = []
    run = UnitPropagator.run

    def counted(engine, assumptions=()):
        asked.append(list(assumptions))
        return run(engine, assumptions)

    monkeypatch.setattr(UnitPropagator, "run", counted)
    return asked
