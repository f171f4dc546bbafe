import random

import numpy as np
import pytest

from pcforge.cnf import CnfFormula, EncodingFormula, make_clause, mask_literals
from pcforge.corpus import horn_formulas, qhorn_formulas, satisfiable_formulas
from pcforge.deciders import is_pc
from pcforge.errors import LimitError, PreconditionError
from pcforge.families import gen_gamma, gen_parity, gen_psi_horn, gen_psi_qhorn, gen_psi_qhorn_pc
from pcforge.propagation import UnitPropagator, all_literals
from pcforge.semantics import (
    FunctionTable,
    assignment_walk,
    cl_sem,
    closure_masks,
    entails,
    enumerate_models,
    equivalent,
    is_encoding_of,
    prime_implicates,
    satisfiable,
)

from oracles import (all_partial_assignments, cl_sem_brute, encoding_onset_brute, entails_brute, models_brute, primes_brute,
                     up_fixpoint_brute, word_matches)


def F(clauses, num_vars=None):
    return CnfFormula.from_clauses(clauses, num_vars)


def random_formula(rng, max_vars=5, max_clauses=8):
    n = rng.randint(1, max_vars)
    clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
               for _ in range(rng.randint(1, max_clauses))]
    return CnfFormula.from_clauses(clauses, n)


def test_enumerate_models_examples():
    assert enumerate_models(F([[1], [2]])).onset == frozenset({0b11})
    assert enumerate_models(CnfFormula((), 2)).onset == frozenset({0, 1, 2, 3})
    assert enumerate_models(F([[1, 2], [-1, -2]])).onset == frozenset({0b01, 0b10})


def test_models_match_brute_oracle_with_tautological_clauses():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 5)
        clauses = [[v * rng.choice((1, -1)) for v in rng.choices(range(1, n + 1), k=rng.randint(1, 4))]
                   for _ in range(rng.randint(0, 6))]
        formula = CnfFormula.from_clauses(clauses, n)
        assert enumerate_models(formula).onset == frozenset(models_brute(formula))
    assert enumerate_models(F([[1, -1]], 1)).onset == frozenset({0, 1})
    assert enumerate_models(F([[1, -1], [-1, 2]], 2)).onset == frozenset({0, 2, 3})


def test_enumerate_models_limit():
    with pytest.raises(LimitError):
        enumerate_models(CnfFormula((), 30), limit=24)


def test_entails_examples():
    assert entails(F([[-1, 2], [-2, 3]]), make_clause([-1, 3]))
    assert not entails(F([[1, 2]]), make_clause([1]))
    psi2, _ = gen_psi_qhorn(2)
    assert entails(psi2, make_clause([-3, -4]))  # blocking clause on a_1, a_2


def test_cl_sem_examples():
    assert cl_sem(F([[1, 2]]), frozenset({-1})) == frozenset({-1, 2})
    psi3, _ = gen_psi_qhorn(3)
    assert cl_sem(psi3, frozenset({4, 5, 6})) == all_literals(9)
    assert cl_sem(CnfFormula((), 1), frozenset()) == frozenset()


def test_cl_sem_is_a_closure_operator():
    rng = random.Random(3)
    for _ in range(20):
        formula = random_formula(rng, max_vars=4)
        for alpha in all_partial_assignments(formula.num_vars):
            closed = cl_sem(formula, alpha)
            assert alpha <= closed  # extensive
            if closed != all_literals(formula.num_vars):
                assert cl_sem(formula, closed) == closed  # idempotent
            for lit in (1, -2):
                if abs(lit) <= formula.num_vars and -lit not in alpha and lit not in alpha:
                    assert closed <= cl_sem(formula, alpha | {lit})  # monotone


def test_prime_implicates_base_block():
    # (¬y1∨z1)(¬y2∨z2)(¬z1∨¬z2) with y=1,2 and z=3,4
    base = F([[-1, 3], [-2, 4], [-3, -4]], 4)
    primes = prime_implicates(base)
    expected = {(-1, 3), (-2, 4), (-3, -4), (-1, -4), (-2, -3), (-1, -2)}
    assert set(primes.clauses) == expected
    assert set(primes.clauses) == primes_brute(base)


def test_prime_implicates_psi_horn_count():
    assert len(prime_implicates(gen_psi_horn(3)).clauses) == 24


def test_prime_implicates_simple_chain():
    formula = F([[1, 2], [-2, 3]])
    expected = primes_brute(formula)
    assert expected == {(1, 2), (-2, 3), (1, 3)}
    assert set(prime_implicates(formula).clauses) == expected


def test_prime_implicates_of_unsatisfiable_formula():
    assert prime_implicates(F([[1], [-1]])).clauses == ((),)
    assert prime_implicates(F([[]], 1)).clauses == ((),)


def test_prime_implicates_match_brute_oracle():
    rng = random.Random(17)
    for _ in range(60):
        formula = random_formula(rng, max_vars=6)
        assert set(prime_implicates(formula).clauses) == primes_brute(formula)


def test_prime_implicates_match_brute_oracle_on_wider_instances():
    # a structured 7-variable case and a denser random one
    chain = F([[-1, 2], [-2, 3], [-3, 4], [-4, 5], [1, 6, 7]], 7)
    assert set(prime_implicates(chain).clauses) == primes_brute(chain)
    rng = random.Random(19)
    clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, 8), 3)] for _ in range(10)]
    dense = CnfFormula.from_clauses(clauses, 7)
    assert set(prime_implicates(dense).clauses) == primes_brute(dense)


def test_prime_formula_is_equivalent_and_pc():
    rng = random.Random(23)
    for _ in range(25):
        formula = random_formula(rng, max_vars=5)
        primes = prime_implicates(formula)
        if primes.has_empty_clause():
            assert not satisfiable(formula)
            continue
        assert equivalent(formula, primes)
        assert is_pc(primes, limit=10).verdict


def test_equivalent_examples():
    assert equivalent(gen_gamma(3, "base"), gen_gamma(3, "prime"))
    assert equivalent(gen_gamma(3, "base"), gen_gamma(3, "dprime"))
    assert not equivalent(F([[1]], 1), F([[-1]], 1))
    with pytest.raises(PreconditionError):
        equivalent(F([[1]], 1), F([[1]], 2))


def test_is_encoding_of_examples():
    psi3, _ = gen_psi_qhorn(3)
    assert is_encoding_of(gen_psi_qhorn_pc(3), enumerate_models(psi3))
    parity_cnf = gen_parity(3, "cnf")
    assert is_encoding_of(gen_parity(3, "encoding"), enumerate_models(parity_cnf))
    plain = F([[1, -2]], 2)
    self_encoding = EncodingFormula(plain, (1, 2), ())
    assert is_encoding_of(self_encoding, enumerate_models(plain))


def test_is_encoding_of_detects_wrong_function():
    wrong = EncodingFormula(F([[1], [2]], 2), (1, 2), ())
    assert not is_encoding_of(wrong, enumerate_models(F([[1, 2]], 2)))


def test_entails_matches_brute_oracle():
    rng = random.Random(31)
    for _ in range(40):
        formula = random_formula(rng, max_vars=4)
        n = formula.num_vars
        clause = make_clause([v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, n))])
        assert entails(formula, clause) == entails_brute(formula, clause)


def test_cl_sem_matches_brute_oracle():
    rng = random.Random(37)
    for _ in range(25):
        formula = random_formula(rng, max_vars=4)
        for alpha in all_partial_assignments(formula.num_vars):
            assert cl_sem(formula, alpha) == cl_sem_brute(formula, alpha)


def _table_variants(table):
    """The table itself, with one word dropped or added, and with words no projection can produce."""
    onset, arity = table.onset, table.arity
    variants = [onset, frozenset(), frozenset({0}), onset | {(1 << arity) - 1},
                onset | {1 << arity}, onset | {-1}, onset | {1 << 64}, onset | {1 << 70}]
    if onset:
        dropped = onset - {min(onset)}
        variants += [dropped, dropped | {1 << arity}, dropped | {-1}, dropped | {1 << 64}]
    return [FunctionTable(table.input_vars, words) for words in variants]


def test_is_encoding_of_matches_frozenset_oracle():
    from pcforge.corpus import qhorn_formulas
    from pcforge.qhorn import compile_urc_encoding
    cases = []
    for formula, valuation in qhorn_formulas(41, 12, max_vars=7):
        cases.append((compile_urc_encoding(formula, valuation), enumerate_models(formula)))
    for m in (2, 3):
        psi, _ = gen_psi_qhorn(m)
        cases.append((gen_psi_qhorn_pc(m), enumerate_models(psi)))
    # inputs that are not the low variables: exists x1 (x2 | x1)(-x1 | x3) is x2 | x3
    cases.append((EncodingFormula(F([[1, 2], [-1, 3]], 3), (2, 3), (1,)), FunctionTable((2, 3), frozenset({1, 2, 3}))))
    # an unsatisfiable encoding projects to the empty onset
    cases.append((EncodingFormula(F([[1], [-1]], 2), (2,), (1,)), FunctionTable((1,), frozenset())))
    for encoding, table in cases:
        projected = encoding_onset_brute(encoding)
        for variant in _table_variants(table):
            assert is_encoding_of(encoding, variant) == (projected == variant.onset)
    assert all(is_encoding_of(encoding, table) for encoding, table in cases)


def _walk_expected(formula):
    """{alpha: (propagation closure, models extending alpha)} over every alpha whose propagation does not conflict."""
    models = models_brute(formula)
    engine = UnitPropagator(formula)
    out = {}
    for alpha in all_partial_assignments(formula.num_vars):
        conflict, derived = up_fixpoint_brute(formula, alpha)
        engine_conflict, trail, _ = engine.run(alpha)
        assert engine_conflict == conflict
        if not conflict:
            assert frozenset(trail) == frozenset(derived)
            out[alpha] = (frozenset(derived), [w for w in models if word_matches(alpha, w)])
    return out


def _assert_walk_matches_oracle(formula):
    got = [(alpha, frozenset(mask_literals(*masks)), models.tolist()) for alpha, masks, models in assignment_walk(formula)]
    assert len({alpha for alpha, _, _ in got}) == len(got)  # each assignment once
    assert {alpha: (derived, models) for alpha, derived, models in got} == _walk_expected(formula)


def _walk_formulas(n):
    rng = random.Random(1000 + n)
    out = [CnfFormula((), n), CnfFormula(((),), n)]
    if n:
        out += [F([[1], [-1]], n), F([[-1], [1], []], n)]
    if n >= 2:
        out += [F([[1], [-1, 2]], n), F([[1, 2], [1, -2], [-1, 2], [-1, -2]], n)]
    for _ in range(25):
        # mostly short clauses, so that units, chains and conflicts all occur
        clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
                   for _ in range(rng.randint(0, 2 * n + 1))] if n else []
        out.append(CnfFormula.from_clauses(clauses, n))
    return out


@pytest.mark.parametrize("n", range(7))
def test_assignment_walk_matches_oracle(n):
    for formula in _walk_formulas(n):
        _assert_walk_matches_oracle(formula)


def test_assignment_walk_matches_oracle_on_seeded_corpora():
    corpora = (satisfiable_formulas(1001, 40) + horn_formulas(1004, 10, max_vars=6)
               + [formula for formula, _ in qhorn_formulas(1003, 10, max_vars=6)])
    for formula in corpora:
        _assert_walk_matches_oracle(formula)


def test_closure_masks():
    models = np.array([0b011, 0b111], dtype=np.uint64)
    assert closure_masks(models, 4) == (0b011, 0b1000)
    assert closure_masks(np.empty(0, dtype=np.uint64), 3) == (0b111, 0b111)
    assert closure_masks(np.array([0], dtype=np.uint64), 0) == (0, 0)
