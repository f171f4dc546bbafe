import random

import pytest
from hypothesis import given, strategies as st

from pcforge.cnf import CnfFormula, literal_key
from pcforge.corpus import qhorn_formulas, satisfiable_formulas
from pcforge.families import gen_psi_qhorn
from pcforge.propagation import PropagationResult, UnitPropagator, all_literals, up_closure
from pcforge.qhorn import compile_urc_encoding
from pcforge.semantics import cl_sem

from oracles import all_partial_assignments, cl_sem_brute, up_fixpoint_brute


def F(clauses, num_vars=None):
    return CnfFormula.from_clauses(clauses, num_vars)


def test_chain_of_unit_steps():
    result = up_closure(F([[-1, 2], [-2, 3]]), frozenset({1}))
    assert not result.conflict
    assert result.literals == frozenset({1, 2, 3})


def test_activator_units_are_stable_for_the_qhorn_family():
    # assuming every a_i derives nothing: each clause keeps two open literals
    formula, _ = gen_psi_qhorn(3)
    activators = frozenset({4, 5, 6})
    result = up_closure(formula, activators)
    assert not result.conflict
    assert result.literals == activators


def test_immediate_conflict_yields_all_literals():
    formula = F([[1], [-1]])
    result = up_closure(formula, frozenset())
    assert result.conflict
    assert result.literals == all_literals(1)
    assert result.empty_clause in ((1,), (-1,))


def test_unconstrained_variables_stay_as_assigned():
    formula = F([[1, 2]], 4)
    result = up_closure(formula, frozenset({3, -4}))
    assert result.literals == frozenset({3, -4})


def test_inconsistent_assumptions_rejected():
    with pytest.raises(ValueError):
        up_closure(F([[1]]), [1, -1])


clause_st = st.lists(
    st.integers(min_value=1, max_value=4).flatmap(lambda v: st.sampled_from([v, -v])),
    min_size=1, max_size=3,
)
formula_st = st.lists(clause_st, min_size=0, max_size=7).map(lambda cls: CnfFormula.from_clauses(cls, 4))
assignment_st = st.sets(st.sampled_from([1, -2, 3, -4]), max_size=3).map(frozenset)


@given(formula_st, assignment_st, st.sets(st.sampled_from([2, 4]), max_size=2))
def test_monotone(formula, alpha, extra):
    bigger = alpha | frozenset(extra)
    if any(-l in bigger for l in bigger):
        return
    small = up_closure(formula, alpha)
    large = up_closure(formula, bigger)
    assert small.literals <= large.literals


@given(formula_st, assignment_st)
def test_extensive_and_idempotent(formula, alpha):
    result = up_closure(formula, alpha)
    assert alpha <= result.literals
    if not result.conflict:
        again = up_closure(formula, result.literals)
        assert not again.conflict
        assert again.literals == result.literals


@given(formula_st, assignment_st)
def test_sound_for_semantic_closure(formula, alpha):
    result = up_closure(formula, alpha)
    if result.conflict:
        # refuted assignments really are semantically inconsistent
        assert cl_sem_brute(formula, alpha) == all_literals(formula.num_vars)
    else:
        assert result.literals <= cl_sem_brute(formula, alpha)


@given(formula_st, assignment_st)
def test_matches_quadratic_fixpoint_oracle(formula, alpha):
    conflict, assigned = up_fixpoint_brute(formula, alpha)
    result = up_closure(formula, alpha)
    assert result.conflict == conflict
    if not conflict:
        assert result.literals == frozenset(assigned)


def test_fixpoint_is_clause_order_independent():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 5)
        clauses = []
        for _ in range(rng.randint(1, 8)):
            width = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), width)
            clauses.append([v * rng.choice((1, -1)) for v in vs])
        alpha = frozenset()
        baseline = up_closure(CnfFormula.from_clauses(clauses, n), alpha)
        for _ in range(3):
            rng.shuffle(clauses)
            shuffled = up_closure(CnfFormula.from_clauses(clauses, n), alpha)
            assert shuffled.conflict == baseline.conflict
            assert shuffled.literals == baseline.literals


def test_cl_sem_agrees_with_package_engine():
    # ties the numpy closure to the brute one on a fixed sweep
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 5)
        clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
                   for _ in range(rng.randint(1, 6))]
        formula = CnfFormula.from_clauses(clauses, n)
        for alpha in all_partial_assignments(n):
            assert cl_sem(formula, alpha) == cl_sem_brute(formula, alpha)


def test_static_units_before_an_empty_clause_are_on_the_trail():
    formula = CnfFormula(((1,), (), (2,)), 2)
    assert UnitPropagator(formula).run(()) == (True, [1], 1)
    assert UnitPropagator(formula).run((-2,)) == (True, [-2, 1], 1)


def test_cached_engine_matches_a_fresh_engine_when_formulas_alternate():
    formulas = satisfiable_formulas(23, 20, max_vars=6)
    formulas += [gen_psi_qhorn(n)[0] for n in (2, 3, 4)]
    formulas += [compile_urc_encoding(f, v).formula for f, v in qhorn_formulas(29, 4, max_vars=8)]
    # equal clauses over different universes are different formulas
    formulas += [F([[1], [-1]], 1), F([[1], [-1]], 2), F([[1, 2], [-1]], 2), F([[1, 2], [-1]], 3)]
    rng = random.Random(31)
    # more formulas than the engine cache holds: first round-robin, then at random, sometimes an equal copy
    for step in range(800):
        formula = formulas[step % len(formulas)] if step < 400 else rng.choice(formulas)
        if rng.random() < 0.2:
            formula = CnfFormula(formula.clauses, formula.num_vars)
        size = rng.randint(0, min(4, formula.num_vars))
        alpha = frozenset(v * rng.choice((1, -1)) for v in rng.sample(range(1, formula.num_vars + 1), size))
        # the engine sees alpha in literal_key order, as up_closure passes it
        conflict, trail, empty_idx = UnitPropagator(formula).run(sorted(alpha, key=literal_key))
        if conflict:
            empty = formula.clauses[empty_idx] if empty_idx is not None else None
            expected = PropagationResult(True, all_literals(formula.num_vars), empty)
        else:
            expected = PropagationResult(False, frozenset(trail), None)
        assert up_closure(formula, alpha) == expected


def test_empty_clause_does_not_depend_on_assumption_order():
    # -1 and -2 share a hash, so the two assumption sets iterate in different orders
    formula = CnfFormula(((1,), (2,)), 2)
    first, second = up_closure(formula, [-1, -2]), up_closure(formula, [-2, -1])
    assert first.conflict and second.conflict
    assert first.empty_clause == second.empty_clause == (1,)
