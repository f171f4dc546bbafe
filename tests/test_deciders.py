import random

import pytest

from pcforge import semantics
from pcforge.cnf import CnfFormula, make_clause
from pcforge.corpus import horn_formulas, qhorn_formulas, random_formula as corpus_formula, satisfiable_formulas
from pcforge import deciders
from pcforge.deciders import (
    DecisionReport,
    ReductionError,
    is_absorbed,
    is_pc,
    is_urc,
    reduce_pc_irredundant,
    reduce_urc_irredundant,
)
from pcforge.dual_rail import pc_via_dual_rail
from pcforge.errors import LimitError, PreconditionError, TautologyError
from pcforge.families import gen_gamma, gen_parity, gen_psi_horn, gen_psi_horn_pc, gen_psi_qhorn, gen_psi_qhorn_pc
from pcforge.propagation import UnitPropagator, up_closure
from pcforge.qhorn import compile_urc_encoding
from pcforge.semantics import cl_sem, entails, equivalent, prime_implicates

from oracles import (models_brute, pc_brute, prime_pc_per_prime, prime_urc_per_prime, reduce_pc_by_brute_absorption,
                     reduce_urc_by_entailment, urc_brute)


def F(clauses, num_vars=None):
    return CnfFormula.from_clauses(clauses, num_vars)


def random_formula(rng, max_vars=5, max_clauses=8):
    n = rng.randint(1, max_vars)
    clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
               for _ in range(rng.randint(1, max_clauses))]
    return CnfFormula.from_clauses(clauses, n)


DELTA = [[-1, 2], [-1, 3], [-2, -3, 4]]  # a->b, a->c, b&c->d on a,b,c,d = 1..4


def test_horn_block_is_urc():
    assert is_urc(F(DELTA, 4)).verdict


def test_qhorn_family_is_not_urc_with_activator_witness():
    formula, _ = gen_psi_qhorn(3)
    report = is_urc(formula, limit=16)
    assert not report.verdict
    assert report.witness == frozenset({4, 5, 6})
    # the witness is re-checkable: semantically inconsistent, propagation-stable
    assert cl_sem(formula, report.witness) == frozenset(l for v in range(1, 10) for l in (v, -v))
    assert not up_closure(formula, report.witness).conflict


def test_gamma_dprime_is_urc():
    assert is_urc(gen_gamma(3, "dprime"), limit=16).verdict


def test_gamma_prime_is_pc():
    assert is_pc(gen_gamma(3, "prime"), limit=16).verdict


def test_psi_horn_is_not_pc_and_witness_rechecks():
    formula = gen_psi_horn(3)
    report = is_pc(formula, limit=16)
    assert not report.verdict
    closure = up_closure(formula, report.witness)
    assert report.literal in cl_sem(formula, report.witness)
    assert not closure.conflict
    assert report.literal not in closure.literals


def test_prime_implicate_formulas_are_pc():
    rng = random.Random(41)
    checked = 0
    while checked < 20:
        formula = random_formula(rng, max_vars=5)
        primes = prime_implicates(formula)
        if primes.has_empty_clause():
            continue
        assert is_pc(primes, limit=10).verdict
        checked += 1


def test_verdicts_match_definitional_oracles():
    rng = random.Random(43)
    for _ in range(40):
        formula = random_formula(rng, max_vars=4)
        assert is_urc(formula).verdict == urc_brute(formula)
        assert is_pc(formula).verdict == pc_brute(formula)


def test_naive_and_prime_methods_agree():
    rng = random.Random(47)
    for _ in range(60):
        formula = random_formula(rng, max_vars=6)
        for decide in (is_urc, is_pc):
            assert decide(formula, limit=10, method="naive") == decide(formula, limit=10, method="primes")


def test_pc_implies_urc():
    rng = random.Random(53)
    for _ in range(60):
        formula = random_formula(rng, max_vars=5)
        if is_pc(formula).verdict:
            assert is_urc(formula).verdict


def test_pc_iff_closures_agree_everywhere():
    # the decider one way, the closure-equality characterization the other
    from pcforge.propagation import up_closure
    from oracles import all_partial_assignments
    rng = random.Random(97)
    for _ in range(25):
        formula = random_formula(rng, max_vars=4)
        closures_agree = all(
            up_closure(formula, alpha).literals == cl_sem(formula, alpha)
            for alpha in all_partial_assignments(formula.num_vars)
        )
        assert is_pc(formula).verdict == closures_agree


def test_decider_rejects_tautologies_and_limits():
    with pytest.raises(TautologyError):
        is_pc(F([[1, -1]], 1))
    with pytest.raises(LimitError):
        is_urc(CnfFormula((), 20), limit=14)


def test_unsatisfiable_formulas():
    square = F([[1, 2], [1, -2], [-1, 2], [-1, -2]])
    for method in ("naive", "primes"):
        # refutable by propagation: URC and PC hold
        assert is_urc(F([[1], [-1]]), method=method).verdict
        assert is_pc(F([[1], [-1]]), method=method).verdict
        # 2-CNF contradiction needs two-literal clauses, propagation never fires
        assert not is_urc(square, method=method).verdict
        assert is_urc(square, method=method).witness == frozenset()


def test_reduce_urc_keeps_an_unsatisfiable_formula_refutable():
    # without (1) the rest is still unsatisfiable, but propagation no longer refutes it
    formula = F([[1], [1, 2], [1, -2], [-1, 2], [-1, -2]])
    assert reduce_urc_irredundant(formula).clauses == ((1,), (-1, 2), (-1, -2))


def test_absorbed_member_and_superclause():
    formula = F(DELTA, 4)
    assert is_absorbed(make_clause([-1, 2]), formula)
    assert is_absorbed(make_clause([-1, 2, 4]), formula)  # superclause of a member


def test_absorbed_rejects_non_implicate():
    with pytest.raises(PreconditionError):
        is_absorbed(make_clause([2]), F(DELTA, 4))


def test_absorbed_rejects_tautologies():
    with pytest.raises(TautologyError, match="^absorption is not defined for tautological clauses$"):
        is_absorbed((1, -1, 2), F(DELTA, 4))


def test_reduce_urc_rejects_non_urc_input():
    psi2, _ = gen_psi_qhorn(2)
    with pytest.raises(PreconditionError, match="^input formula is not unit refutation complete$"):
        reduce_urc_irredundant(psi2, limit=16)


@pytest.mark.parametrize("reduce,decider,message", [
    (reduce_pc_irredundant, "is_pc", "absorbed-clause removal broke propagation completeness"),
    (reduce_urc_irredundant, "is_urc", "clause removal broke unit refutation completeness"),
])
def test_reducers_recheck_their_result(reduce, decider, message, monkeypatch):
    # a decider that accepts the input and then rejects the reduced formula forces the recheck to fail
    verdicts = iter([True, False])
    monkeypatch.setattr(deciders, decider, lambda formula, limit: DecisionReport(next(verdicts)))
    with pytest.raises(ReductionError) as err:
        reduce(prime_implicates(F([[1, 2], [-2, 3]])), limit=10)
    assert str(err.value) == message


def test_shortcut_clause_is_not_absorbed_by_the_block():
    # a->d follows from the block but needs the intermediate b, c units
    formula = F(DELTA, 4)
    assert entails(formula, make_clause([-1, 4]))
    assert not is_absorbed(make_clause([-1, 4]), formula)


def test_reduce_pc_removes_absorbed_superclause():
    primes = prime_implicates(F([[1, 2], [-2, 3]]))
    padded = CnfFormula(primes.clauses + ((1, 2, 3),), primes.num_vars)
    reduced = reduce_pc_irredundant(padded, limit=10)
    assert (1, 2, 3) not in reduced.clauses
    assert is_pc(reduced, limit=10).verdict
    assert equivalent(reduced, padded)


def test_reduce_pc_keeps_parity_primes():
    primes = prime_implicates(gen_parity(3, "cnf"))
    assert reduce_pc_irredundant(primes, limit=10) == primes


def test_reduce_pc_rejects_non_pc_input():
    with pytest.raises(PreconditionError):
        reduce_pc_irredundant(gen_psi_horn(3), limit=16)


def test_reduce_pc_orders_stay_within_square_factor():
    primes = prime_implicates(gen_psi_horn(3))
    n = primes.num_vars
    first = reduce_pc_irredundant(primes, limit=16)
    second = reduce_pc_irredundant(primes, seed=99, limit=16)
    assert len(first.clauses) <= n * n * len(second.clauses)
    assert len(second.clauses) <= n * n * len(first.clauses)
    for reduced in (first, second):
        assert is_pc(reduced, limit=16).verdict
        assert equivalent(reduced, primes)


def test_reduced_output_is_irredundant():
    rng = random.Random(59)
    for _ in range(10):
        formula = random_formula(rng, max_vars=4)
        primes = prime_implicates(formula)
        if primes.has_empty_clause():
            continue
        reduced = reduce_pc_irredundant(primes, limit=10)
        for idx in range(len(reduced.clauses)):
            weaker = reduced.without(idx)
            removable = equivalent(weaker, reduced) and is_pc(weaker, limit=10).verdict
            assert not removable


def test_reduce_urc_gamma_dprime_fixed():
    for m in (2, 3):
        dprime = gen_gamma(m, "dprime")
        assert reduce_urc_irredundant(dprime, limit=16) == dprime
        assert len(dprime.clauses) == 3 * m + 2 ** (m - 1)


def test_reduce_urc_drops_redundant_resolvent():
    horn = F([[-1, 2], [-2, 3], [-1, 3]], 3)  # last clause is a resolvent
    reduced = reduce_urc_irredundant(horn, limit=10)
    assert (-1, 3) not in reduced.clauses
    assert is_urc(reduced).verdict
    assert equivalent(reduced, horn)


def test_report_is_truthy_on_pass():
    assert bool(DecisionReport(True))
    assert not bool(DecisionReport(False, witness=frozenset()))


def _decider_corpus():
    """Seeded satisfiable, Horn, q-Horn and unsatisfiable random formulas, and the paper's families."""
    rng = random.Random(83)
    unsat = []
    while len(unsat) < 30:
        formula = corpus_formula(rng, max_vars=5, max_clauses=14)
        if not models_brute(formula):
            unsat.append(formula)
    three_cnf = []  # with three literals in every clause, formulas that are not URC are common
    for _ in range(40):
        n = rng.randint(4, 8)
        three_cnf.append(F([[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3)]
                            for _ in range(rng.randint(n, 3 * n))], n))
    return (satisfiable_formulas(89, 60, max_vars=7) + horn_formulas(97, 30, max_vars=7)
            + [formula for formula, _ in qhorn_formulas(101, 30, max_vars=7)] + unsat + three_cnf
            + [F([[1], [-1]]), F([[1, 2], [1, -2], [-1, 2], [-1, -2]]), CnfFormula(((),), 2), CnfFormula((), 0)]
            + [gen_psi_horn(m) for m in (3, 4)] + [gen_psi_horn_pc(m) for m in (3, 4)]
            + [gen_psi_qhorn(n)[0] for n in (2, 3, 4)]
            + [gen_gamma(m, variant) for m in (2, 3) for variant in ("base", "prime", "dprime")]
            + [gen_parity(n, "cnf") for n in (2, 3, 4, 6)]
            + [gen_parity(3, "encoding").formula, gen_psi_qhorn_pc(2).formula])


def test_primes_deciders_match_the_per_prime_reference():
    for formula in _decider_corpus():
        limit = formula.num_vars
        urc, pc = is_urc(formula, limit=limit), is_pc(formula, limit=limit)
        assert urc == prime_urc_per_prime(formula), formula
        assert pc == prime_pc_per_prime(formula), formula
        if formula.num_vars <= 8:
            # the walk returns the same least witness as the critical assignments
            for naive, primes in ((is_urc(formula, limit=8, method="naive"), urc),
                                  (is_pc(formula, limit=8, method="naive"), pc)):
                assert naive == primes


def test_reduce_urc_matches_the_entailment_guarded_reference():
    formulas = [f for f in _decider_corpus() if f.num_vars and is_urc(f, limit=f.num_vars).verdict]
    formulas += [prime_implicates(f) for f in satisfiable_formulas(103, 10, max_vars=6)]
    formulas += [compile_urc_encoding(f, v).formula for f, v in qhorn_formulas(107, 6, max_vars=5, max_half=2)]
    assert len(formulas) > 60
    for formula in formulas:
        for seed in (None, 1, 2, 3):
            reduced = reduce_urc_irredundant(formula, seed=seed, limit=formula.num_vars)
            assert reduced.clauses == reduce_urc_by_entailment(formula, seed=seed).clauses, (formula, seed)


def test_reduce_pc_matches_the_brute_absorption_reference():
    formulas = [prime_implicates(f) for f in satisfiable_formulas(109, 30, max_vars=6)]
    formulas += [gen_psi_horn_pc(3), gen_psi_horn_pc(4), gen_gamma(2, "prime"), gen_gamma(3, "prime")]
    formulas += [gen_parity(n, "cnf") for n in (2, 3, 4)]
    for formula in formulas:
        for seed in (None, 1, 2, 3):
            reduced = reduce_pc_irredundant(formula, seed=seed, limit=formula.num_vars)
            assert reduced.clauses == reduce_pc_by_brute_absorption(formula, seed=seed).clauses, (formula, seed)
    assert any(len(reduce_pc_irredundant(f, limit=f.num_vars).clauses) < len(f.clauses) for f in formulas)


def test_method_values():
    formula = F(DELTA, 4)
    assert is_urc(formula) == is_urc(formula, method="primes")
    for decide in (is_urc, is_pc):
        with pytest.raises(ValueError):
            decide(formula, method="auto")


def test_primes_that_are_clauses_need_no_propagation(monkeypatch):
    # every prime of the parity CNF is one of its clauses
    calls = []
    run = UnitPropagator.run

    def counted(engine, assumptions=()):
        calls.append(assumptions)
        return run(engine, assumptions)

    monkeypatch.setattr(UnitPropagator, "run", counted)
    formula = gen_parity(8, "cnf")
    assert is_urc(formula).verdict and is_pc(formula).verdict
    assert calls == []
    assert is_urc(F(DELTA, 4)).verdict and calls  # the counter does see runs


def test_absorbed_clauses_of_the_formula_need_no_propagation(monkeypatch):
    calls = []
    run = UnitPropagator.run

    def counted(engine, assumptions=()):
        calls.append(assumptions)
        return run(engine, assumptions)

    monkeypatch.setattr(UnitPropagator, "run", counted)
    formula = gen_gamma(3, "dprime")
    assert all(is_absorbed(clause, formula) for clause in formula.clauses)
    assert calls == []
    assert is_absorbed(make_clause([-1, 2, 4]), F(DELTA, 4)) and calls  # the counter does see runs


def test_absorption_past_24_variables():
    dprime = gen_gamma(7, "dprime")  # 28 variables, 1,273,609 models
    assert is_absorbed(tuple(range(1, 8)), dprime)
    assert not is_absorbed((-1, 22), dprime)  # a_1 -> d_1: propagation from -d_1 derives nothing


def test_dual_rail_and_urc_reducer_answer_past_the_model_wall(monkeypatch):
    def no_models(formula):
        raise AssertionError("model enumeration called")

    monkeypatch.setattr(semantics, "_model_words", no_models)
    formula = F([[-v, v + 1] for v in range(1, 30)] + [[-1, 30]], 30)  # an implication chain and a shortcut
    assert len(formula.clauses) == 30
    assert pc_via_dual_rail(formula)
    reduced = reduce_urc_irredundant(formula, limit=30)
    assert len(reduced.clauses) == 29
    assert (-1, 30) not in reduced.clauses
