import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pcforge import qhorn
from pcforge.cnf import CnfFormula, make_clause, parse_dimacs, write_dimacs
from pcforge.corpus import horn_formulas, qhorn_formulas
from pcforge.deciders import is_urc
from pcforge.errors import NotQHornError, PreconditionError, TautologyError
from pcforge.families import gen_psi_qhorn
from pcforge.qhorn import (
    Valuation,
    _two_sat_satisfiable,
    compile_urc_encoding,
    normalize,
    phi_q_plus,
    qhorn_sat,
    recognize_qhorn,
)
from pcforge.semantics import entails, enumerate_models, is_encoding_of, satisfiable

import oracles
from oracles import (compile_urc_encoding_pairs, compile_urc_encoding_reference, literal_objects, phi_q_plus_all_pairs,
                     qhorn_brute, recognize_qhorn_recursive, resolution_pairs_all_pairs, resolution_pairs_sets,
                     satisfiable_brute)


def F(clauses, num_vars=None):
    return CnfFormula.from_clauses(clauses, num_vars)


def test_two_cnf_gets_all_half_weights():
    formula = F([[1, 2], [-1, 3], [2, -3]])
    valuation = recognize_qhorn(formula)
    assert valuation.doubled == (1, 1, 1)
    assert valuation.weight(1) == Fraction(1, 2)
    assert valuation.witnesses(formula)


def test_horn_gets_all_one_weights():
    formula = F([[-1, -2, 3], [1], [-3]])
    valuation = recognize_qhorn(formula)
    assert valuation.doubled == (2, 2, 2)
    assert valuation.witnesses(formula)


def test_qhorn_family_valuation_shape():
    # half weights on the x variables are forced; the activators weigh 1
    for n in (2, 3, 4):
        formula, _ = gen_psi_qhorn(n)
        valuation = recognize_qhorn(formula)
        assert valuation is not None and valuation.witnesses(formula)
        assert all(valuation.doubled[i] == 1 for i in range(n))
        assert all(valuation.doubled[i] == 2 for i in range(n, 3 * n))


def test_swapped_activator_weights_do_not_witness():
    # weight 0 on the activators would make their negative literals weigh 1
    formula, _ = gen_psi_qhorn(2)
    swapped = Valuation((1, 1, 0, 0, 0, 0))
    assert not swapped.witnesses(formula)


def test_not_qhorn_pair_of_wide_clauses():
    formula = F([[1, 2, 3], [-1, -2, -3]])
    assert recognize_qhorn(formula) is None
    assert not qhorn_brute(formula)


def test_recognizer_matches_brute_force():
    rng = random.Random(79)
    for _ in range(60):
        n = rng.randint(1, 6)
        clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(4, n)))]
                   for _ in range(rng.randint(1, 7))]
        formula = CnfFormula.from_clauses(clauses, n)
        valuation = recognize_qhorn(formula)
        assert (valuation is not None) == qhorn_brute(formula)
        if valuation is not None:
            assert valuation.witnesses(formula)


def test_recognizer_rejects_tautologies():
    with pytest.raises(TautologyError):
        recognize_qhorn(F([[1, -1]], 1))


def test_normalize_splits_qhorn_family_without_flips():
    formula, _ = gen_psi_qhorn(2)
    valuation = recognize_qhorn(formula)
    split = normalize(formula, valuation)
    assert 0 not in valuation.doubled  # no variable would be renamed
    assert split.x2 == (1, 2)
    assert len(split.phi1.clauses) == 0
    assert split.phi2.clauses == formula.clauses and len(split.phi2.clauses) == 8
    assert split.phi1.is_horn()


def test_normalize_flips_weight_zero_variables():
    # single clause (x1 or x2): weight 1 on x1 forces weight 0 on x2
    formula = F([[1, 2], [1, 2, 3]], 3)
    valuation = Valuation((2, 0, 0))
    split = normalize(formula, valuation)
    assert split.x2 == ()
    assert split.phi1.clauses == ((1, 2), (1, 2, 3)) and not split.phi1.is_horn()
    # the split keeps the formula's own clauses: phi1 is Horn once the weight-0 variables 2 and 3 are flipped
    renamed = oracles.normalize_renamed(formula, valuation)
    assert renamed.flipped == frozenset({2, 3})
    assert renamed.phi1.clauses == ((1, -2), (1, -2, -3))
    assert renamed.phi1.is_horn()


def test_valuation_rejects_other_weights_and_universes():
    with pytest.raises(ValueError, match="^doubled weights must be 0, 1 or 2$"):
        Valuation((3,))
    # a valuation over another universe witnesses nothing, even clauses it could weigh
    assert Valuation((1,)).witnesses(F([[1]], 1)) and not Valuation((1, 1)).witnesses(F([[1]], 1))


def test_normalize_validates_valuation():
    formula = F([[1, 2, 3], [-1, -2, -3]])
    with pytest.raises(PreconditionError):
        normalize(formula, Valuation((2, 2, 2)))


def test_half_clauses_carry_negative_integral_literals():
    for formula, valuation in qhorn_formulas(900, 25):
        split = normalize(formula, valuation)
        x2 = set(split.x2)
        for clause in split.phi2.clauses:
            half = [l for l in clause if abs(l) in x2]
            rest = [l for l in clause if abs(l) not in x2]
            assert 1 <= len(half) <= 2
            # after renaming the weight-0 variables these are negative literals of weight-1 variables
            assert all(valuation.doubled_weight(l) == 0 for l in rest)


def test_qhorn_sat_unsat_at_horn_stage():
    formula = F([[1], [-1], [2, 3]], 3)
    split = normalize(formula, Valuation((2, 1, 1)))
    assert qhorn_sat(split) is False


def test_qhorn_sat_two_cnf():
    formula = F([[1, 2]], 2)
    assert qhorn_sat(normalize(formula, recognize_qhorn(formula))) is True


def test_qhorn_sat_activated_family_is_unsat():
    psi2, _ = gen_psi_qhorn(2)
    hard = CnfFormula.from_clauses(list(psi2.clauses) + [[3], [4]], 6)
    split = normalize(hard, recognize_qhorn(hard))
    assert qhorn_sat(split) is False


def test_qhorn_sat_matches_brute_force():
    for idx, (formula, valuation) in enumerate(qhorn_formulas(901, 60, max_vars=8)):
        use = valuation if idx % 2 == 0 else recognize_qhorn(formula)
        assert qhorn_sat(normalize(formula, use)) == satisfiable_brute(formula)


short_clause_st = st.lists(
    st.integers(min_value=1, max_value=6).flatmap(lambda v: st.sampled_from([v, -v])), max_size=2,
).map(make_clause)


@given(st.lists(short_clause_st, max_size=12))
def test_two_sat_matches_brute_force(clauses):
    assert _two_sat_satisfiable(clauses) == satisfiable_brute(CnfFormula(tuple(clauses), 6))


def test_unsatisfiable_cases_in_differential_corpus():
    cases = {case.id: case.values for case in _differential_corpus()}
    for case_id in [f"unsat-two-cnf-80-{i}" for i in range(4)] + ["half-unsat"]:
        formula, valuation = cases[case_id]
        split = normalize(formula, valuation if valuation is not None else recognize_qhorn(formula))
        projections = [tuple(lit for lit in clause if abs(lit) in split.x2) for clause in split.phi2.clauses]
        half = [clause for clause in projections if len(clause) == 2]
        assert not _two_sat_satisfiable(half) and not satisfiable_brute(CnfFormula(tuple(half), formula.num_vars))
    assert satisfiable_brute(cases["half-unsat"][0])


def _implication_chain(num_vars, last):
    """x1, x1 → x2 → ... → x_n and the unit (last); unsatisfiable iff last is ¬x_n."""
    return [(1,)] + [(-v, v + 1) for v in range(1, num_vars)] + [(last,)]


def test_two_sat_scc_pass_is_iterative():
    # one strongly connected component of 10,000 literal nodes, far deeper than the recursion limit
    assert _two_sat_satisfiable(_implication_chain(5000, -5000)) is False
    assert _two_sat_satisfiable(_implication_chain(5000, 5000)) is True


def test_recognition_search_is_iterative():
    # neither 2-CNF nor Horn, so the weight search runs, one level per variable: far deeper than
    # the recursion limit
    n = 5000
    formula = F([[i, i + 1, -(i + 2)] for i in range(1, n - 1)], n)
    valuation = recognize_qhorn(formula)
    assert valuation is not None and valuation.witnesses(formula)


def test_recognition_matches_the_recursive_search():
    rng = random.Random(113)
    formulas = [formula for formula, _ in qhorn_formulas(127, 60, max_vars=9)]
    formulas += [gen_psi_qhorn(n)[0] for n in range(2, 7)]
    formulas += [F([[i, i + 1, -(i + 2)] for i in range(1, n - 1)], n) for n in (3, 10, 200)]
    formulas += [f for f in horn_formulas(151, 60, max_vars=9) if any(len(c) > 2 for c in f.clauses)]
    for _ in range(150):
        n = rng.randint(3, 9)
        formulas.append(F([[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, 3))]
                           for _ in range(rng.randint(2, 2 * n))], n))
    searched = [f for f in formulas if not f.is_horn() and any(len(c) > 2 for c in f.clauses)]
    assert len(searched) > 150 and any(recognize_qhorn(f) is None for f in searched)
    for formula in formulas:
        assert recognize_qhorn(formula) == recognize_qhorn_recursive(formula), formula


def test_phi_q_plus_examples():
    split = normalize(F([[1, 2], [-2, 3]]), Valuation((1, 1, 1)))
    assert set(phi_q_plus(split).clauses) == {(1, 2), (-2, 3), (1, 3)}
    split = normalize(F([[1, 2], [-1, -2]]), Valuation((1, 1)))
    assert set(phi_q_plus(split).clauses) == {(1, 2), (-1, -2)}
    split = normalize(F([[1, 2]]), Valuation((1, 1)))
    assert set(phi_q_plus(split).clauses) == {(1, 2)}


def test_phi_q_plus_keeps_only_binary_projections():
    # the unit projection (from a clause with one half literal) seeds nothing
    formula = F([[-3, 1], [1, 2]], 3)
    split = normalize(formula, Valuation((1, 1, 2)))
    assert set(phi_q_plus(split).clauses) == {(1, 2)}


def test_compile_worked_example():
    # (¬g∨u∨v)(¬v∨w) with g=1, u=2, v=3, w=4 and the half weights on u, v, w
    formula = F([[-1, 2, 3], [-3, 4]], 4)
    valuation = Valuation((2, 1, 1, 1))
    encoding = compile_urc_encoding(formula, valuation=valuation)
    # closure {u∨v, u∨w, ¬v∨w} in canonical order gets auxiliaries 5, 6, 7
    assert encoding.aux_vars == (5, 6, 7)
    clauses = set(encoding.formula.clauses)
    expected = {
        make_clause([-1, 5]),          # activation of [[u∨v]] below ¬g
        make_clause([7]),              # unit activation of [[¬v∨w]]
        make_clause([-5, -7, 6]),      # resolution: u∨v, ¬v∨w -> u∨w
        make_clause([-5, 2, 3]),       # [[u∨v]] -> u∨v
        make_clause([-6, 2, 4]),
        make_clause([-7, -3, 4]),
        make_clause([-2, 5]), make_clause([-3, 5]),
        make_clause([-2, 6]), make_clause([-4, 6]),
        make_clause([3, 7]), make_clause([-4, 7]),
    }
    assert clauses == expected
    assert is_encoding_of(encoding, enumerate_models(formula))
    assert is_urc(encoding.formula, limit=16).verdict


def test_compile_horn_input_is_identity():
    formula = F([[-1, -2, 3], [1]], 3)
    encoding = compile_urc_encoding(formula)
    assert encoding.aux_vars == ()
    assert encoding.formula == formula


def test_compile_makes_qhorn_family_urc():
    psi2, _ = gen_psi_qhorn(2)
    assert not is_urc(psi2, limit=16).verdict
    encoding = compile_urc_encoding(psi2)
    assert is_urc(encoding.formula, limit=16).verdict
    assert is_encoding_of(encoding, enumerate_models(psi2))
    assert len(encoding.aux_vars) <= 2 * 2 * 2


def test_compiled_family_encoding_is_not_qhorn():
    psi2, _ = gen_psi_qhorn(2)
    encoding = compile_urc_encoding(psi2)
    assert recognize_qhorn(encoding.formula) is None


def test_compile_rejects_non_qhorn():
    with pytest.raises(NotQHornError):
        compile_urc_encoding(F([[1, 2, 3], [-1, -2, -3]]))


def test_resolution_helper_clauses_are_implied_by_definitions():
    # ternary simulation clauses follow from the equivalence groups
    psi2, _ = gen_psi_qhorn(2)
    encoding = compile_urc_encoding(psi2)
    n = psi2.num_vars
    definition_clauses = [c for c in encoding.formula.clauses
                          if any(abs(l) > n for l in c) and len([l for l in c if abs(l) > n]) == 1]
    definitions = CnfFormula.from_clauses(definition_clauses, encoding.num_vars)
    helper_clauses = [c for c in encoding.formula.clauses if len([l for l in c if abs(l) > n]) > 1]
    assert helper_clauses  # psi_2 has resolvable pairs
    for clause in helper_clauses:
        assert entails(definitions, clause)


def _differential_corpus(corpus_count=40):
    """psi_qhorn for n = 2..6 and seeded random q-Horn formulas, small and wide."""
    cases = [pytest.param(gen_psi_qhorn(n)[0], None, id=f"psi_qhorn({n})") for n in range(2, 7)]
    cases += [pytest.param(f, v, id=f"corpus-1003-{i}") for i, (f, v) in enumerate(qhorn_formulas(1003, corpus_count))]
    wide = qhorn_formulas(77, 6, max_vars=14, max_half=7, max_clauses=24, max_aux=120)
    cases += [pytest.param(f, v, id=f"wide-77-{i}") for i, (f, v) in enumerate(wide)]
    # random 2-CNFs put every variable at weight 1/2; these have closures of 54 to 78 clauses
    rng = random.Random(78)
    for i in range(4):
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 13), 2)] for _ in range(14)]
        cases.append(pytest.param(F(clauses, 12), None, id=f"two-cnf-78-{i}"))
    # unsatisfiable 2-CNFs: some variable shares a strongly connected component with its complement
    rng = random.Random(80)
    unsat = []
    while len(unsat) < 4:
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), 2)] for _ in range(16)]
        if not satisfiable_brute(F(clauses, 8)):
            unsat.append(pytest.param(F(clauses, 8), None, id=f"unsat-two-cnf-80-{len(unsat)}"))
    # a q-Horn formula whose half-weight projection {1∨2, ¬1∨2, 1∨¬2, ¬1∨¬2} is unsatisfiable;
    # the formula itself is satisfied by setting the weight-1 guard 3 false
    half_unsat = F([[1, 2], [-1, 2], [1, -2], [-1, -2, -3], [-3, 4]], 4)
    return cases + unsat + [pytest.param(half_unsat, Valuation((1, 1, 2, 2)), id="half-unsat")]


@pytest.mark.parametrize("formula,valuation", _differential_corpus())
def test_indexed_resolution_matches_all_pairs_reference(formula, valuation, monkeypatch):
    valuation = valuation if valuation is not None else recognize_qhorn(formula)
    split = normalize(formula, valuation)
    closure = phi_q_plus(split)
    assert list(closure.clauses) == phi_q_plus_all_pairs(split)
    assert list(resolution_pairs_sets(closure.clauses)) == resolution_pairs_all_pairs(closure.clauses)
    encoding = compile_urc_encoding(formula, valuation)
    assert encoding == compile_urc_encoding_pairs(formula, valuation)
    compiled = write_dimacs(encoding)
    monkeypatch.setattr(qhorn, "phi_q_plus", lambda s: CnfFormula(tuple(phi_q_plus_all_pairs(s)), s.num_vars))
    assert compiled == write_dimacs(compile_urc_encoding(formula, valuation))


@pytest.mark.parametrize("formula,valuation", _differential_corpus(100))
def test_compiled_encoding_matches_make_clause_reference(formula, valuation):
    valuation = valuation if valuation is not None else recognize_qhorn(formula)
    expected = compile_urc_encoding_reference(oracles.normalize_renamed(formula, valuation))
    encoding = compile_urc_encoding(formula, valuation)
    assert encoding == expected
    assert write_dimacs(encoding) == write_dimacs(expected)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compiled_encode_inputs_match_the_set_compiler(seed):
    ops, _ = oracles.benchmark_inputs().build_encode(seed)
    for op in ops:
        if "dimacs" in op:
            formula = parse_dimacs(op["dimacs"])
            encoding = compile_urc_encoding(formula)
            assert encoding == compile_urc_encoding_pairs(formula)
            # line lists: a failing comparison of texts this long takes minutes to diff
            assert write_dimacs(encoding).splitlines() == oracles.write_dimacs_joined(encoding).splitlines()


def test_compiled_encodings_share_literal_objects():
    formulas = [(gen_psi_qhorn(n)[0], None) for n in range(2, 7)] + qhorn_formulas(29, 40)
    ops, _ = oracles.benchmark_inputs().build_encode(1)
    formulas.append((parse_dimacs(ops[0]["dimacs"]), None))  # 602 literal values, most past the small-int cache
    for formula, valuation in formulas:
        valuation = valuation if valuation is not None else recognize_qhorn(formula)
        encoding = compile_urc_encoding(formula, valuation)
        objects, values = literal_objects(encoding.formula)
        assert objects == values
        assert encoding == compile_urc_encoding_reference(oracles.normalize_renamed(formula, valuation))
    assert values == 602


def test_binary_resolvent_matches_all_pairs_reference(monkeypatch):
    # closures in any order, tautological pairs such as (1, -1) included, through both compilers
    lits = [lit for v in (1, 2, 3) for lit in (v, -v)]
    binary = [make_clause([a, b]) for i, a in enumerate(lits) for b in lits[i + 1:]]
    assert len(binary) == 15
    formula, valuation = F([[1, 2], [-2, 3]], 3), Valuation((1, 1, 1))
    rng = random.Random(17)
    for _ in range(40):
        rng.shuffle(binary)
        clauses = tuple(binary)
        assert list(resolution_pairs_sets(clauses)) == resolution_pairs_all_pairs(clauses), clauses
        for module in (qhorn, oracles):
            monkeypatch.setattr(module, "phi_q_plus", lambda split: CnfFormula(clauses, split.num_vars))
        assert compile_urc_encoding(formula, valuation) == compile_urc_encoding_pairs(formula, valuation), clauses


def test_compiled_encodings_repeat_no_clause():
    # the compiler emits each clause once without deduplicating: phi1 and phi2 are disjoint and
    # every clause group has its own auxiliary pattern
    formulas = [(gen_psi_qhorn(n)[0], None) for n in range(2, 7)]
    for seed in range(1, 8):
        ops, _ = oracles.benchmark_inputs().build_encode(seed)
        formulas += [(parse_dimacs(op["dimacs"]), None) for op in ops if "dimacs" in op]
    for formula, valuation in qhorn_formulas(1003, 200):
        formulas += [(formula, valuation), (formula, None)]
    assert len(formulas) == 482
    for formula, valuation in formulas:
        clauses = compile_urc_encoding(formula, valuation).formula.clauses
        assert len(set(clauses)) == len(clauses)


def test_unrenamed_layer_matches_the_renamed_references():
    # the split keeps the formula's own clauses; the references build the renamed split and map
    # every emitted literal back, so equal outputs show that the renaming changes nothing
    formulas = [(gen_psi_qhorn(n)[0], None) for n in range(2, 8)]
    for seed in (1, 2, 3):
        ops, _ = oracles.benchmark_inputs().build_encode(seed)
        formulas += [(parse_dimacs(op["dimacs"]), None) for op in ops if "dimacs" in op]
    for formula, valuation in qhorn_formulas(1003, 200):
        formulas += [(formula, valuation), (formula, None)]
    assert len(formulas) == 6 + 33 + 400
    for formula, planted in formulas:
        valuation = planted if planted is not None else recognize_qhorn(formula)
        split, renamed = normalize(formula, valuation), oracles.normalize_renamed(formula, valuation)
        assert split.x2 == renamed.x2
        assert qhorn_sat(split) == qhorn_sat(renamed)
        assert phi_q_plus(split) == phi_q_plus(renamed)
        compiled = write_dimacs(compile_urc_encoding(formula, planted))
        assert compiled == write_dimacs(compile_urc_encoding_reference(renamed))
