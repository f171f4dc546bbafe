import random
from itertools import product

import pytest

from pcforge.cnf import UNIVERSE_VARS, CnfFormula, literal_vector, vector_literals
from pcforge import deciders
from pcforge.deciders import is_pc
from pcforge.dual_rail import CLOSED_LIMIT, closed_assignments, dual_rail, horn_equivalent, pc_via_dual_rail
from pcforge.errors import EmptyClauseError, LimitError, PreconditionError, UnsatisfiableError
from pcforge.families import gen_gamma, gen_psi_qhorn, generate
from pcforge.propagation import UnitPropagator
from pcforge.qhorn import compile_urc_encoding
from pcforge.semantics import _model_words, prime_implicates

from oracles import all_partial_assignments, cl_sem_brute, literal_objects, models_brute


def F(clauses, num_vars=None):
    return CnfFormula.from_clauses(clauses, num_vars)


def random_formula(rng, max_vars=5, max_clauses=8):
    n = rng.randint(1, max_vars)
    clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
               for _ in range(rng.randint(1, max_clauses))]
    return CnfFormula.from_clauses(clauses, n)


def test_meta_var_numbering():
    # [[v]] = v and [[-v]] = n + v: meta-variable m is bit m-1 of the literal vector
    lits = (1, 2, 3, -1, -2, -3)
    assert [literal_vector([lit], 3).bit_length() for lit in lits] == [1, 2, 3, 4, 5, 6]
    assert [vector_literals(1 << (meta - 1), 3) for meta in range(1, 7)] == [[lit] for lit in lits]


def test_dual_rail_binary_clause():
    rail = dual_rail(F([[1, 2]], 2))
    assert set(rail.clauses) == {(1, -4), (2, -3), (-1, -3), (-2, -4)}


def test_dual_rail_unit_clause():
    rail = dual_rail(F([[1]], 1))
    assert set(rail.clauses) == {(1,), (-1, -2)}


def test_dual_rail_size_and_hornness():
    formula = gen_gamma(3, "prime")
    rail = dual_rail(formula)
    assert len(rail.clauses) == formula.length + formula.num_vars
    assert rail.num_vars == 2 * formula.num_vars
    assert rail.is_horn()


def test_dual_rail_shares_literal_objects():
    encoding = compile_urc_encoding(gen_psi_qhorn(6)[0])
    rail = dual_rail(encoding.formula)
    objects, values = literal_objects(rail)
    assert objects == values == 300  # of the 312 meta literals over 156 meta-variables


def test_dual_rail_rejects_empty_clause():
    with pytest.raises(EmptyClauseError):
        dual_rail(F([[]], 1))


def test_dual_rail_bounds_its_meta_variables():
    # the widest family instance builds, but its 600,002 meta-variables are past the universe bound
    psi_horn = generate("psi_horn", 100000)
    assert psi_horn.num_vars == 300001 and len(psi_horn.clauses) == 200000
    for formula in (psi_horn, CnfFormula((), UNIVERSE_VARS // 2 + 1)):
        with pytest.raises(LimitError, match=f"^{2 * formula.num_vars} meta-variables exceed UNIVERSE_VARS = 524288$"):
            dual_rail(formula)
    assert dual_rail(CnfFormula((), 3)).num_vars == 6


@pytest.mark.parametrize("call,error,message", [
    (lambda: horn_equivalent(F([[1, 2]], 2), F([[-1, 2]], 2)), PreconditionError,
     "horn_equivalent requires Horn formulas"),
    (lambda: pc_via_dual_rail(F([[1], []], 1)), EmptyClauseError, "pc_via_dual_rail does not accept the empty clause"),
    (lambda: closed_assignments(CnfFormula((), CLOSED_LIMIT + 1)), LimitError,
     "11 variables exceed the closed-assignment enumeration limit 10"),
])
def test_dual_rail_layer_rejects_out_of_scope_input(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_dr_of_pc_formula_entails_dr_of_primes():
    formula = gen_gamma(3, "prime")
    source = dual_rail(formula)
    target = dual_rail(prime_implicates(formula))
    engine = UnitPropagator(source)  # Horn: propagation from a clause's negation refutes iff it is entailed
    assert all(engine.refutes(clause) for clause in target.clauses)
    assert horn_equivalent(source, target)


def test_dr_inequivalent_for_non_pc_formula():
    formula, _ = gen_psi_qhorn(3)
    source = dual_rail(formula)
    target = dual_rail(prime_implicates(formula))
    assert not horn_equivalent(source, target)


def test_horn_equivalent_identity_and_universe_check():
    horn = F([[-1, 2]], 2)
    assert horn_equivalent(horn, horn)
    with pytest.raises(PreconditionError):
        horn_equivalent(horn, F([[-1, 2]], 3))


def test_horn_equivalent_runs_only_the_clauses_the_formulas_do_not_share(asked, monkeypatch):
    for head in (deciders.HEAD_RUNS, 0):  # head 0: every question in a lane pass
        monkeypatch.setattr(deciders, "HEAD_RUNS", head)
        asked.clear()
        # a one-clause formula over a wide universe: its translation and that of its primes are equal
        assert pc_via_dual_rail(CnfFormula(((1,),), 4096))
        assert asked == []
        shared = [[-1, 2], [-2, 3]]
        assert horn_equivalent(F(shared, 3), F(shared + [[-1, 3]], 3))
        assert asked == [[1, -3]]  # the negation of the one clause that is not shared
        asked.clear()
        assert not horn_equivalent(F(shared + [[-3]], 3), F(shared + [[-1, 3]], 3))
        assert asked == [[1, -3], [3]]


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


def test_dr_of_primes_always_entails_dr_of_the_formula():
    # the direction pc_via_dual_rail leaves unchecked: each clause holds a prime, and the prime's translation
    # with a consistency clause refutes each negated clause of the clause's translation
    rng = random.Random(63)
    formulas = [gen_gamma(3, "dprime"), gen_psi_qhorn(3)[0], F([[1, 2], [-2, 3]], 3)]
    formulas += [f for f in (random_formula(rng, max_vars=6, max_clauses=10) for _ in range(200)) if models_brute(f)]
    for formula in formulas:
        source, target = dual_rail(formula), dual_rail(prime_implicates(formula))
        engine = UnitPropagator(target)
        assert all(engine.refutes(clause) for clause in source.clauses)
        assert pc_via_dual_rail(formula) == horn_equivalent(source, target)


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
        dr_models = {int(w) for w in _model_words(rail)}
        engine = UnitPropagator(formula)
        expected = set()
        for alpha in all_partial_assignments(formula.num_vars):
            conflict, trail, _ = engine.run(alpha)
            if not conflict and frozenset(trail) == alpha:
                expected.add(literal_vector(alpha, formula.num_vars))
        assert dr_models == expected


def test_semantically_closed_vectors_are_conjunction_closed():
    rng = random.Random(71)
    for _ in range(15):
        formula = random_formula(rng, max_vars=4)
        vectors = {literal_vector(a, formula.num_vars) for a in closed_assignments(formula)}
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
        dr_models = {int(w) for w in _model_words(rail)}
        sem_vectors = {literal_vector(a, formula.num_vars) for a in closed_assignments(formula)}
        assert (dr_models == sem_vectors) == is_pc(formula, limit=10).verdict
        checked += 1
