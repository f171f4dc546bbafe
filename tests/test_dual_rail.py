import random
from itertools import product

import pytest

from pcforge.cnf import CnfFormula, make_clause
from pcforge.deciders import is_pc
from pcforge.dual_rail import (
    MetaVarMap,
    assignment_vector,
    closed_assignments,
    dual_rail,
    horn_entails,
    horn_equivalent,
    pc_via_dual_rail,
)
from pcforge.errors import EmptyClauseError, PreconditionError, UnsatisfiableError
from pcforge.families import gen_gamma, gen_psi_qhorn
from pcforge.propagation import UnitPropagator
from pcforge.semantics import _model_words, prime_implicates

from oracles import all_partial_assignments, cl_sem_brute, models_brute


def F(clauses, num_vars=None):
    return CnfFormula.from_clauses(clauses, num_vars)


def random_formula(rng, max_vars=5, max_clauses=8):
    n = rng.randint(1, max_vars)
    clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
               for _ in range(rng.randint(1, max_clauses))]
    return CnfFormula.from_clauses(clauses, n)


def test_meta_var_numbering():
    mapping = MetaVarMap(3)
    assert [mapping.to_meta(l) for l in (1, 2, 3, -1, -2, -3)] == [1, 2, 3, 4, 5, 6]
    assert [mapping.from_meta(v) for v in range(1, 7)] == [1, 2, 3, -1, -2, -3]


def test_dual_rail_binary_clause():
    rail = dual_rail(F([[1, 2]], 2))
    assert set(rail.horn.clauses) == {(1, -4), (2, -3), (-1, -3), (-2, -4)}


def test_dual_rail_unit_clause():
    rail = dual_rail(F([[1]], 1))
    assert set(rail.horn.clauses) == {(1,), (-1, -2)}


def test_dual_rail_size_and_hornness():
    formula = gen_gamma(3, "prime")
    rail = dual_rail(formula)
    assert len(rail.horn.clauses) == formula.length + formula.num_vars
    assert rail.horn.is_horn()


def test_dual_rail_rejects_empty_clause():
    with pytest.raises(EmptyClauseError):
        dual_rail(F([[]], 1))


def test_horn_entails_examples():
    horn = F([[-1, 2], [-2, 3]])
    assert horn_entails(horn, make_clause([-1, 3]))
    assert not horn_entails(F([[-1, 2]]), make_clause([2]))
    with pytest.raises(PreconditionError):
        horn_entails(F([[1, 2]]), make_clause([1]))


def test_horn_entails_empty_clause_means_refutable():
    assert horn_entails(F([[1], [-1]]), ())
    assert not horn_entails(F([[1]]), ())


def test_dr_of_pc_formula_entails_dr_of_primes():
    formula = gen_gamma(3, "prime")
    source = dual_rail(formula).horn
    target = dual_rail(prime_implicates(formula)).horn
    assert all(horn_entails(source, clause) for clause in target.clauses)
    assert horn_equivalent(source, target)


def test_dr_inequivalent_for_non_pc_formula():
    formula, _ = gen_psi_qhorn(3)
    source = dual_rail(formula).horn
    target = dual_rail(prime_implicates(formula)).horn
    assert not horn_equivalent(source, target)


def test_horn_equivalent_identity_and_universe_check():
    horn = F([[-1, 2]], 2)
    assert horn_equivalent(horn, horn)
    with pytest.raises(PreconditionError):
        horn_equivalent(horn, F([[-1, 2]], 3))


def test_pc_via_dual_rail_on_families():
    assert pc_via_dual_rail(gen_gamma(2, "prime"))
    formula, _ = gen_psi_qhorn(2)
    assert not pc_via_dual_rail(formula)


def test_pc_via_dual_rail_rejects_unsatisfiable():
    with pytest.raises(UnsatisfiableError):
        pc_via_dual_rail(F([[1], [-1]]))


def test_pc_via_dual_rail_matches_direct_decider():
    rng = random.Random(61)
    checked = 0
    while checked < 40:
        formula = random_formula(rng)
        if not models_brute(formula):
            continue
        assert pc_via_dual_rail(formula) == is_pc(formula, limit=10).verdict
        checked += 1


def test_closed_assignments_examples():
    assert closed_assignments(F([[1]], 1)) == frozenset({frozenset({1})})
    assert closed_assignments(CnfFormula((), 1)) == frozenset({frozenset(), frozenset({1}), frozenset({-1})})


def test_closed_assignments_match_oracle():
    rng = random.Random(71)
    formulas = [CnfFormula((), 0), CnfFormula(((),), 0), CnfFormula(((),), 2), F([[1], [-1]], 1)]
    formulas += [random_formula(rng, max_vars=4) for _ in range(30)]
    for formula in formulas:
        expected = {alpha for alpha in all_partial_assignments(formula.num_vars) if cl_sem_brute(formula, alpha) == alpha}
        assert closed_assignments(formula) == expected, formula


def test_dual_rail_models_are_up_closed_assignment_vectors():
    rng = random.Random(67)
    for _ in range(25):
        formula = random_formula(rng, max_vars=4)
        rail = dual_rail(formula)
        dr_models = {int(w) for w in _model_words(rail.horn)}
        engine = UnitPropagator(formula)
        expected = set()
        for alpha in all_partial_assignments(formula.num_vars):
            conflict, trail, _ = engine.run(alpha)
            if not conflict and frozenset(trail) == alpha:
                expected.add(assignment_vector(alpha, rail.var_map))
        assert dr_models == expected


def test_semantically_closed_vectors_are_conjunction_closed():
    rng = random.Random(71)
    for _ in range(15):
        formula = random_formula(rng, max_vars=4)
        rail_map = MetaVarMap(formula.num_vars)
        vectors = {assignment_vector(a, rail_map) for a in closed_assignments(formula)}
        for a, b in product(vectors, repeat=2):
            assert a & b in vectors


def test_dr_represents_closed_set_iff_pc():
    rng = random.Random(73)
    checked = 0
    while checked < 25:
        formula = random_formula(rng, max_vars=4)
        if not models_brute(formula):
            continue
        rail = dual_rail(formula)
        dr_models = {int(w) for w in _model_words(rail.horn)}
        sem_vectors = {assignment_vector(a, rail.var_map) for a in closed_assignments(formula)}
        assert (dr_models == sem_vectors) == is_pc(formula, limit=10).verdict
        checked += 1
