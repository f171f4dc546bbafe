import inspect
import random
import textwrap
from functools import lru_cache
from itertools import cycle, islice

import pytest

from pcforge import semantics
from pcforge import propagation
from pcforge.acceptance import QHORN_CORPUS_SEED, QHORN_CORPUS_SIZE
from pcforge.cnf import CnfFormula, is_tautological, make_clause
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
from pcforge.dual_rail import dual_rail, pc_via_dual_rail
from pcforge.errors import LimitError, PreconditionError, TautologyError
from pcforge.families import gen_gamma, gen_parity, gen_psi_horn, gen_psi_horn_pc, gen_psi_qhorn, gen_psi_qhorn_pc
from pcforge.propagation import UnitPropagator, up_closure
from pcforge.qhorn import compile_urc_encoding
from pcforge.semantics import cl_sem, entails, equivalent, prime_implicates

from oracles import (UnitPropagatorSatFlags, benchmark_inputs, models_brute, pc_brute, prime_pc_per_prime,
                     prime_urc_per_prime, reduce_pc_by_brute_absorption, reduce_urc_by_entailment, unabsorbed_per_run,
                     unrefuted_per_run, urc_brute)


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


@lru_cache(maxsize=1)
def _stream_cases():
    """(formula, clauses, per-run failures) for the stream differential, refutation questions first, then absorption.

    Refutation: the decider corpus with its primes and seeded random clauses, tautologies included (their
    negations are inconsistent assumption sets); absorption: its primes.  Both: the primes-workload family
    instances and the criterion-9 encodings with their primes.
    """
    rng = random.Random(113)
    refute, absorb = [], []
    for formula in _decider_corpus():
        primes = prime_implicates(formula).clauses
        n = formula.num_vars
        extra = [make_clause(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3)))
                 for _ in range(12 if n else 0)]
        refute.append((formula, primes + tuple(extra)))
        absorb.append((formula, primes))
    formulas = [CnfFormula.from_clauses(clauses, n) for _, clauses, n in benchmark_inputs().family_instances()]
    corpus = qhorn_formulas(QHORN_CORPUS_SEED, QHORN_CORPUS_SIZE)
    formulas += [compile_urc_encoding(f, valuation=v if i % 2 == 0 else None).formula for i, (f, v) in enumerate(corpus)]
    formulas += [compile_urc_encoding(gen_psi_qhorn(n)[0]).formula for n in (2, 3)]
    for formula in formulas:
        primes = prime_implicates(formula).clauses
        refute.append((formula, primes))
        absorb.append((formula, primes))
    assert any(is_tautological(clause) for _, clauses in refute for clause in clauses)
    refute = [(f, clauses, list(unrefuted_per_run(f, clauses))) for f, clauses in refute]
    absorb = [(f, clauses, list(unabsorbed_per_run(f, clauses))) for f, clauses in absorb]
    assert any(expected for *_, expected in refute) and any(expected for *_, expected in absorb)  # failures to list
    return refute, absorb


def _stream_mismatches():
    """The cases whose failure lists differ from the per-run streams', in order and in full."""
    refute, absorb = _stream_cases()
    return ([(f, clauses) for f, clauses, expected in refute if list(deciders._unrefuted(f, clauses)) != expected]
            + [(f, clauses) for f, clauses, expected in absorb if list(deciders._unabsorbed(f, clauses)) != expected])


@pytest.mark.parametrize("first,width", [(deciders.FIRST_PASS_WIDTH, deciders.LANE_WIDTH), (8, 4096), (8, 7), (3, 1)])
def test_streams_match_the_per_run_streams(first, width, monkeypatch):
    # equal failure lists give equal verdicts and least witnesses; a small width makes streams cross passes
    monkeypatch.setattr(deciders, "FIRST_PASS_WIDTH", first)
    monkeypatch.setattr(deciders, "LANE_WIDTH", width)
    assert _stream_mismatches() == []


def _cycled_stream(formula, pool, length, absorb):
    """Clauses of the pool that ask the formula's stream a question, cycled to ask exactly `length` questions:
    one per clause, or one per literal when absorb, the last clause cut to fit; None when there are none."""
    own = set(formula.clauses)
    asking = [clause for clause in pool if clause not in own and (clause or not absorb)]
    stream, asked = [], 0
    # each uncut clause asks at least one question, and each clause is tried once for the cut
    for clause in islice(cycle(asking), length + len(asking)):
        if asked == length:
            break
        if absorb:
            clause = clause[:length - asked]
        if clause not in own:
            stream.append(clause)
            asked += len(clause) if absorb else 1
    return stream if asked == length else None


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("lane_passes", [0, 1])
def test_streams_match_the_per_run_streams_at_the_pass_boundaries(lane_passes, offset):
    # lengths just below, at and just above the first pass's width, and that width + LANE_WIDTH
    length = deciders.FIRST_PASS_WIDTH + lane_passes * deciders.LANE_WIDTH + offset
    # past the first pass, whose streams ask thousands of questions: the primes-workload families, which follow
    # the decider corpus in the cases, and every tenth other case
    step = 10 if lane_passes else 1
    families = range(len(_decider_corpus()), len(_decider_corpus()) + len(benchmark_inputs().family_instances()))
    refute, absorb = _stream_cases()
    checked = 0
    for cases, stream_of, oracle, absorbing in ((refute, deciders._unrefuted, unrefuted_per_run, False),
                                               (absorb, deciders._unabsorbed, unabsorbed_per_run, True)):
        for formula, clauses, _ in (case for i, case in enumerate(cases) if i % step == 0 or i in families):
            stream = _cycled_stream(formula, clauses[:24] + clauses[-24:], length, absorbing)
            if stream is None:
                continue
            answers = {}  # the per-run failures of each distinct clause; a cycled stream repeats them
            for clause in stream:
                if clause not in answers:
                    answers[clause] = list(oracle(formula, [clause]))
            assert list(stream_of(formula, stream)) == [f for clause in stream for f in answers[clause]], formula
            checked += 1
    assert checked > 600 // step


@pytest.mark.parametrize("lit", [2, None])
def test_an_inconsistent_question_is_answered_at_every_position_of_a_stream(lit):
    # the negated rest of (-1, 1, 2) without 2 holds 1 and -1, and so does the negation of the whole clause:
    # propagation from either conflicts, so the question is refuted and absorbed, in every pass
    formula = CnfFormula(((1, 2),), 2)
    clauses = [(1,), (-1,), (2,), (-2,), (1, 2), (1, -2), (-1, 2), (-1, -2)]
    base = [(clause, None) for clause in clauses] + [(clause, other) for clause in clauses for other in clause]
    assert len(base) > deciders.FIRST_PASS_WIDTH
    flags = UnitPropagatorSatFlags(formula)
    expected = [(frozenset(-other for other in clause if other != q), q) for clause, q in base
                if not (flags.refutes(clause) if q is None else flags.absorbs(clause, q))]
    assert expected
    for position in range(len(base) + 1):
        stream = base[:position] + [((-1, 1, 2), lit)] + base[position:]
        assert list(deciders._failures(formula, stream)) == expected, position


def test_a_lane_pass_without_the_complementary_pair_test_fails_the_differential(monkeypatch):
    # from a consistent assumption set, a conflict also leaves a clause all false; the negation of a
    # tautological clause is the inconsistent set that only the pair test refutes
    source = textwrap.dedent(inspect.getsource(UnitPropagator.lanes))
    pair_test = "refuted |= lanes & true[-lit]"
    assert source.count(pair_test) == 1
    namespace = dict(vars(propagation))
    exec(source.replace(pair_test, "pass"), namespace)
    monkeypatch.setattr(UnitPropagator, "lanes", namespace["lanes"])
    assert _stream_mismatches()


@pytest.mark.parametrize("questions", [0, 1, 7, 8, 9, 13, 14, 15, 30])
def test_a_stream_asks_its_head_by_runs_and_the_rest_in_passes_of_the_width(questions, passes, runs, monkeypatch):
    # a first pass of one question is one run (UnitPropagator.lanes)
    first, width = 1, 3
    formula = F([[-v, v + 1] for v in range(1, 40)], 40)  # an implication chain
    # 1 -> v + 2 is refuted and v + 2 -> 1 is not; neither is a clause of the chain
    clauses = [make_clause([-1, v + 2] if v % 2 else [1, -(v + 2)]) for v in range(1, questions + 1)]
    expected = list(unrefuted_per_run(formula, clauses))
    assert len(expected) == questions // 2
    monkeypatch.setattr(deciders, "FIRST_PASS_WIDTH", first)
    monkeypatch.setattr(deciders, "LANE_WIDTH", width)
    assert list(deciders._unrefuted(formula, clauses)) == expected
    rest = max(questions - first, 0)
    sizes = [min(questions, first)] + [width] * (rest // width) + [rest % width]
    assert [len(sets) for sets in passes] == [size for size in sizes if size]
    assert [lits for sets in passes for lits in sets] == [[-lit for lit in clause] for clause in clauses]
    assert runs == [sets[0] for sets in passes if len(sets) == 1]  # a stream runs only a pass of one lane
    assert runs[:1] == [[-lit for lit in clause] for clause in clauses[:1]]


def test_wide_universe_pc_dr_makes_head_runs_and_one_lane_pass_per_width(passes, runs):
    # x_i or y and -y or z_i for i = 1..40 over 65,536 variables: 1,600 primes x_i or z_j are not clauses, and
    # their translations ask 3,200 questions, each of which a run would answer at the cost of the whole universe
    k, n = 40, 65536
    formula = F([[i, k + 1] for i in range(1, k + 1)] + [[-(k + 1), k + 1 + i] for i in range(1, k + 1)], n)
    source = set(dual_rail(formula).clauses)
    questions = sum(clause not in source for clause in dual_rail(prime_implicates(formula)).clauses)
    assert questions == 2 * k * k
    assert pc_via_dual_rail(formula)
    first, width = deciders.FIRST_PASS_WIDTH, deciders.LANE_WIDTH
    assert questions - first < width
    assert [len(sets) for sets in passes] == [first, questions - first]
    assert runs == [sets[0] for sets in passes if len(sets) == 1]  # a first pass of one question is its run


def test_method_values():
    formula = F(DELTA, 4)
    assert is_urc(formula) == is_urc(formula, method="primes")
    for decide in (is_urc, is_pc):
        with pytest.raises(ValueError):
            decide(formula, method="auto")


def test_an_unknown_method_is_reported_before_the_variable_limit():
    wide = CnfFormula(((1, 2),), 15)
    for decide in (is_urc, is_pc):
        with pytest.raises(ValueError, match="unknown method 'nave'"):
            decide(wide, method="nave")
        with pytest.raises(LimitError, match="15 variables exceed limit 14"):
            decide(wide)


def test_primes_that_are_clauses_need_no_propagation(passes, monkeypatch):
    # every prime of the parity CNF is one of its clauses
    for first in (1, 8):
        monkeypatch.setattr(deciders, "FIRST_PASS_WIDTH", first)
        passes.clear()
        formula = gen_parity(8, "cnf")
        assert is_urc(formula).verdict and is_pc(formula).verdict
        assert passes == []
        assert is_urc(F(DELTA, 4)).verdict and passes  # the counter does see questions


def test_absorbed_clauses_of_the_formula_need_no_propagation(passes, monkeypatch):
    formula = gen_gamma(3, "dprime")
    assert all(is_absorbed(clause, formula) for clause in formula.clauses)
    assert passes == []
    monkeypatch.setattr(deciders, "FIRST_PASS_WIDTH", 1)
    assert is_absorbed(make_clause([-1, 2, 4]), F(DELTA, 4))
    assert passes == [[[-2, -4]], [[1, -4], [1, -2]]]  # one question per literal, each width its own pass
    passes.clear()
    monkeypatch.setattr(deciders, "FIRST_PASS_WIDTH", 8)
    assert is_absorbed(make_clause([-1, 2, 4]), F(DELTA, 4))
    assert passes == [[[-2, -4], [1, -4], [1, -2]]]


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
