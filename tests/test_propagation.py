import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from pcforge.cnf import CnfFormula, EncodingFormula, literal_key, parse_dimacs
from pcforge.corpus import horn_formulas, qhorn_formulas, satisfiable_formulas
from pcforge.deciders import is_absorbed, is_pc, is_urc, reduce_pc_irredundant, reduce_urc_irredundant
from pcforge.dual_rail import closed_assignments, dual_rail, pc_via_dual_rail
from pcforge.families import GENERATORS, gen_psi_qhorn
from pcforge.propagation import PropagationResult, UnitPropagator, _engine, all_literals, up_closure
from pcforge.qhorn import compile_urc_encoding, normalize, qhorn_sat, recognize_qhorn
from pcforge.semantics import cl_sem, prime_implicates

from oracles import UnitPropagatorSatFlags, all_partial_assignments, benchmark_inputs, cl_sem_brute, up_fixpoint_brute


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


@pytest.mark.parametrize("assumptions,message", [
    ((3,), "assumed literal 3 outside universe 1..2"),
    ((1, -3), "assumed literal -3 outside universe 1..2"),
    ((1, 2, -1), "inconsistent assumption set"),
])
def test_run_rejects_bad_assumptions(assumptions, message):
    engine = UnitPropagator(F([[1, 2]], 2))
    with pytest.raises(ValueError) as err:
        engine.run(assumptions)
    assert str(err.value) == message


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
    # many formulas, each engine cached while its formula lives: first round-robin, then at random,
    # sometimes an equal copy, which shares the engine of the first
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


def test_cached_engine_does_not_keep_its_formula_alive():
    formula = F([[-1, 2], [-2, 3]], 3)
    up_closure(formula, {1})
    engine = _engine(formula)
    assert engine.clauses is formula.clauses
    formula_ref = weakref.ref(formula)
    del formula
    gc.collect()
    assert formula_ref() is None
    # the engine itself holds the clauses only, and answers on
    assert engine.run([1]) == (False, [1, 2, 3], None)



def test_literals_that_occur_in_no_clause_share_one_empty_occurrence_list():
    # one unit clause over a wide universe, as in a dual-rail translation: every literal but 1 occurs nowhere
    def held(formula):
        tracemalloc.start()
        try:
            engine = UnitPropagator(formula)
            return engine, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    extra = 1 << 14
    narrow, wide = CnfFormula(((1,),), 1), CnfFormula(((1,),), 1 + extra)
    (_, narrow_bytes), (engine, wide_bytes) = held(narrow), held(wide)
    assert len({id(lits) for lits in engine.occ if not lits}) == 1
    assert engine.run([2, -3]) == (False, [2, -3, 1], None)
    # the 2 * extra further slots cost their pointers (and the list's spare capacity), not a list each
    assert wide_bytes - narrow_bytes < 2 * extra * 12

@pytest.fixture
def engines_built(monkeypatch):
    """The clauses of each formula UnitPropagator is built for from here on, with the engine cache cleared: no
    equal formula left alive by another test shares its engine.  The formulas themselves are not kept alive."""
    built = []
    init = UnitPropagator.__init__

    def counted(self, formula):
        built.append(formula.clauses)
        init(self, formula)

    monkeypatch.setattr(UnitPropagator, "__init__", counted)
    _engine.cache_clear()
    return built


def test_every_question_on_a_formula_shares_its_one_engine(engines_built):
    formula = F([[-1, 2], [-2, 3], [1, 3]], 3)  # primes (3) and (-1 2): (3) is an implicate but not a clause
    for decide in (is_urc, is_pc):
        assert decide(formula, method="naive") == decide(formula, method="primes")
    closed_assignments(formula)
    assert not is_absorbed((3,), formula)
    assert up_closure(formula, {-3}).conflict
    assert engines_built == [formula.clauses]


def test_qhorn_sat_and_up_closure_share_the_engine_of_phi1(engines_built):
    psi, _ = gen_psi_qhorn(3)
    formula = CnfFormula(psi.clauses + ((4,), (-4, -5)), psi.num_vars)  # activator 4 on, 5 off: phi1's clauses
    split = normalize(formula, recognize_qhorn(formula))
    assert split.phi1.clauses == ((4,), (-4, -5))
    assert qhorn_sat(split)
    assert up_closure(split.phi1, ()).literals == {4, -5}
    assert engines_built == [split.phi1.clauses]


def test_pc_via_dual_rail_propagates_only_the_translation_of_the_formula(engines_built):
    # PC, and its primes add (1 3): the two translations differ
    formula = F([[1, 2], [-2, 3]], 3)
    assert prime_implicates(formula).clauses == ((1, 2), (1, 3), (-2, 3))
    assert pc_via_dual_rail(formula)
    assert engines_built == [dual_rail(formula).clauses]


@pytest.mark.parametrize("reduce", [reduce_pc_irredundant, reduce_urc_irredundant])
def test_reducer_engines_go_with_their_rests(reduce, engines_built):
    primes = prime_implicates(F([[1, 2], [-2, 3]]))
    padded = CnfFormula(primes.clauses + ((1, 2, 3),), primes.num_vars)
    reduced = reduce(padded, limit=10)
    assert (1, 2, 3) not in reduced.clauses
    # one engine per step's rest, and one each for the input and the result, whose checks they answer
    assert len(engines_built) == len(padded.clauses) + 2
    gc.collect()
    assert _engine.cache_info().currsize == 2


def test_empty_clause_does_not_depend_on_assumption_order():
    # -1 and -2 share a hash, so the two assumption sets iterate in different orders
    formula = CnfFormula(((1,), (2,)), 2)
    first, second = up_closure(formula, [-1, -2]), up_closure(formula, [-2, -1])
    assert first.conflict and second.conflict
    assert first.empty_clause == second.empty_clause == (1,)


def test_refutes_and_absorbs_examples():
    engine = UnitPropagator(F([[-1, 2], [-1, 3], [-2, -3, 4]], 4))  # a->b, a->c, b&c->d
    assert engine.refutes((-1, 4))  # from a and not d: b, c, then d, a conflict
    assert not engine.refutes((4,))
    assert engine.refutes((2, -2))  # a tautology's negation is contradictory by itself
    assert engine.absorbs((-1, 4), 4)  # a derives d
    assert not engine.absorbs((-1, 4), -1)  # not d derives nothing
    assert UnitPropagator(F([[1], [-1]])).absorbs((2,), 2)  # a conflict counts as derivation
    assert UnitPropagator(CnfFormula(((),), 1)).refutes(())


def test_clause_questions_go_through_run(monkeypatch):
    calls = []
    run = UnitPropagator.run

    def counted(engine, assumptions=()):
        calls.append(assumptions)
        return run(engine, assumptions)

    monkeypatch.setattr(UnitPropagator, "run", counted)
    engine = UnitPropagator(F([[-1, 2]], 2))
    engine.refutes((-1, 2))
    engine.absorbs((-1, 2), 2)
    assert len(calls) == 2



def _vector(node):
    return None if node is None else node[0]


def _assert_walks_agree(new, old, rng):
    """Equal start/extend vectors over the whole walk (small universes) or random paths (large ones).

    Vectors are compared, not counts: the flag engine stops counting a clause down once it is satisfied.
    """
    n = new.num_vars
    roots = new.start(), old.start()
    assert _vector(roots[0]) == _vector(roots[1])
    if roots[0] is None:
        return
    if n <= 6:
        stack = [(1, *roots)]
        while stack:
            var, a, b = stack.pop()
            if var > n:
                continue
            for lit in (-var, var):
                child_a, child_b = new.extend(a, lit), old.extend(b, lit)
                assert _vector(child_a) == _vector(child_b)
                assert (child_a is a) == (child_b is b)
                if child_a is not None:
                    stack.append((var + 1, child_a, child_b))
            stack.append((var + 1, a, b))
        return
    for _ in range(20):
        a, b = roots
        for var in rng.sample(range(1, n + 1), n):
            lit = var * rng.choice((1, -1))
            a, b = new.extend(a, lit), old.extend(b, lit)
            assert _vector(a) == _vector(b)
            if a is None:
                break


def _assert_engines_agree(formula, rng, runs=20):
    new, old = UnitPropagator(formula), UnitPropagatorSatFlags(formula)
    n = formula.num_vars
    for _ in range(runs):
        size = rng.randint(0, min(5, n))
        alpha = [var * rng.choice((1, -1)) for var in rng.sample(range(1, n + 1), size)]
        assert new.run(alpha) == old.run(alpha), alpha
    clauses = list(formula.clauses[:40])
    for _ in range(10 if n else 0):
        width = rng.randint(1, min(3, n))
        clauses.append(tuple(var * rng.choice((1, -1)) for var in rng.sample(range(1, n + 1), width)))
    for clause in clauses:
        assert new.refutes(clause) == old.refutes(clause), clause
        for lit in clause:
            assert new.absorbs(clause, lit) == old.absorbs(clause, lit), (clause, lit)
    _assert_walks_agree(new, old, rng)


def _differential_corpus():
    formulas = satisfiable_formulas(41, 40, max_vars=6)
    formulas += horn_formulas(43, 40)
    qhorn = qhorn_formulas(47, 12, max_vars=8)
    formulas += [f for f, _ in qhorn]
    formulas += [compile_urc_encoding(f, v).formula for f, v in qhorn]
    formulas += [compile_urc_encoding(gen_psi_qhorn(n)[0]).formula for n in (2, 3, 4)]
    for generate in GENERATORS.values():
        for parameter in (3, 4):
            generated = generate(parameter)
            formulas.append(generated.formula if isinstance(generated, EncodingFormula) else generated)
    rng = random.Random(53)
    for f in satisfiable_formulas(59, 20, max_vars=6):
        # static units, complementary ones included, and an empty clause after the units
        units = [[var * rng.choice((1, -1))] for var in rng.sample(range(1, f.num_vars + 1), min(2, f.num_vars))]
        with_units = CnfFormula.from_clauses(list(f.clauses) + units, f.num_vars)
        formulas.append(with_units)
        formulas.append(CnfFormula.from_clauses(list(f.clauses) + [[-lit for lit in units[0]]] + units, f.num_vars))
        formulas.append(CnfFormula(with_units.clauses + ((),) + f.clauses[:1], f.num_vars))
    formulas += [CnfFormula(((1,), (), (2,)), 2), CnfFormula(((),), 1), CnfFormula((), 0), CnfFormula(((1, -1),), 1)]
    return formulas


def test_engine_matches_the_flag_engine_on_the_corpora():
    rng = random.Random(61)
    for formula in _differential_corpus():
        _assert_engines_agree(formula, rng)


def _assert_lanes_match_runs(engine, sets):
    """One lane pass over the assumption sets equals a run per set: its conflict, and otherwise its literals."""
    true, refuted = engine.lanes(sets)
    assert refuted < 1 << len(sets)
    n = engine.num_vars
    for j, alpha in enumerate(sets):
        if len(set(alpha)) != len({abs(lit) for lit in alpha}):  # inconsistent: run rejects it, a lane conflicts
            assert refuted >> j & 1, alpha
            continue
        conflict, trail, _ = engine.run(alpha)
        assert bool(refuted >> j & 1) == conflict, alpha
        if not conflict:
            assert {lit for lit in range(-n, n + 1) if lit and true[lit] >> j & 1} == set(trail), alpha


def test_lanes_match_runs_on_the_corpora():
    rng = random.Random(67)
    for formula in _differential_corpus():
        n = formula.num_vars
        sets = [[]] + [[var * rng.choice((1, -1)) for var in rng.sample(range(1, n + 1), rng.randint(1, min(5, n)))]
                       for _ in range(40 if n else 0)]
        sets += [[-lit for lit in clause] for clause in formula.clauses[:20]]  # refuted by their own clause
        if n:
            sets.append([1, -1])
        _assert_lanes_match_runs(UnitPropagator(formula), sets)


@pytest.mark.parametrize("seed", [1, 2])
def test_lanes_match_runs_on_the_encode_queries(seed):
    ops, _ = benchmark_inputs().build_encode(seed)
    engines = {}
    for index, op in enumerate(ops):
        if op["kind"] == "compile":
            engines[index] = UnitPropagator(compile_urc_encoding(parse_dimacs(op["dimacs"])).formula), []
        elif op["kind"] == "query":
            engines[op["compile"]][1].append(sorted(op["alpha"], key=literal_key))
    for engine, sets in engines.values():
        _assert_lanes_match_runs(engine, sets)


def test_lanes_edge_cases():
    engine = UnitPropagator(F([[-1, 2]], 2))
    assert engine.lanes([]) == ([0] * 5, 0)
    with pytest.raises(ValueError, match="outside universe"):
        engine.lanes([[1], [3]])
    true, refuted = UnitPropagator(CnfFormula(((1,), (), (2,)), 2)).lanes([[], [2]])
    assert refuted == 0b11  # an empty clause refutes every lane


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engine_matches_the_flag_engine_on_the_encode_queries(seed):
    ops, _ = benchmark_inputs().build_encode(seed)
    rng = random.Random(seed)
    engines = {}
    for index, op in enumerate(ops):
        if op["kind"] == "compile":
            formula = compile_urc_encoding(parse_dimacs(op["dimacs"])).formula
            engines[index] = UnitPropagator(formula), UnitPropagatorSatFlags(formula)
            _assert_engines_agree(formula, rng, runs=5)
        elif op["kind"] == "query":
            new, old = engines[op["compile"]]
            alpha = sorted(op["alpha"], key=literal_key)
            assert new.run(alpha) == old.run(alpha), alpha
