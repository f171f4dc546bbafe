import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pcforge import qhorn
from pcforge.cnf import CnfFormula, make_clause, write_dimacs
from pcforge.corpus import qhorn_formulas
from pcforge.deciders import is_urc
from pcforge.errors import NotQHornError, PreconditionError, TautologyError
from pcforge.families import gen_psi_qhorn
from pcforge.qhorn import (
    Valuation,
    _resolution_pairs,
    _two_sat_satisfiable,
    compile_urc_encoding,
    normalize,
    phi_q_plus,
    qhorn_sat,
    recognize_qhorn,
)
from pcforge.semantics import entails, enumerate_models, is_encoding_of, satisfiable

from oracles import _resolvent_all_pairs, phi_q_plus_all_pairs, qhorn_brute, resolution_pairs_all_pairs, satisfiable_brute


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
    split = normalize(formula, recognize_qhorn(formula))
    assert split.flipped == frozenset()
    assert split.x1 == (3, 4, 5, 6)
    assert split.x2 == (1, 2)
    assert len(split.phi1.clauses) == 0
    assert len(split.phi2.clauses) == 8
    assert split.phi1.is_horn()


def test_normalize_flips_weight_zero_variables():
    # single clause (x1 or x2): weight 1 on x1 forces weight 0 on x2
    formula = F([[1, 2], [1, 2, 3]], 3)
    valuation = Valuation((2, 0, 0))
    split = normalize(formula, valuation)
    assert split.flipped == frozenset({2, 3})
    assert split.x2 == ()
    assert split.phi1.clauses == ((1, -2), (1, -2, -3))
    assert split.phi1.is_horn()


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
            assert all(l < 0 for l in rest)


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


def _differential_corpus():
    """psi_qhorn for n = 2..6 and seeded random q-Horn formulas, small and wide."""
    cases = [pytest.param(gen_psi_qhorn(n)[0], None, id=f"psi_qhorn({n})") for n in range(2, 7)]
    cases += [pytest.param(f, v, id=f"corpus-1003-{i}") for i, (f, v) in enumerate(qhorn_formulas(1003, 40))]
    wide = qhorn_formulas(77, 6, max_vars=14, max_half=7, max_clauses=24, max_aux=120)
    cases += [pytest.param(f, v, id=f"wide-77-{i}") for i, (f, v) in enumerate(wide)]
    # random 2-CNFs put every variable at weight 1/2; these have closures of 54 to 78 clauses
    rng = random.Random(78)
    for i in range(4):
        clauses = [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 13), 2)] for _ in range(14)]
        cases.append(pytest.param(F(clauses, 12), None, id=f"two-cnf-78-{i}"))
    return cases


@pytest.mark.parametrize("formula,valuation", _differential_corpus())
def test_indexed_resolution_matches_all_pairs_reference(formula, valuation, monkeypatch):
    valuation = valuation if valuation is not None else recognize_qhorn(formula)
    split = normalize(formula, valuation)
    closure = phi_q_plus(split)
    assert list(closure.clauses) == phi_q_plus_all_pairs(split)
    assert list(_resolution_pairs(closure.clauses)) == resolution_pairs_all_pairs(closure.clauses)
    compiled = write_dimacs(compile_urc_encoding(formula, valuation))
    monkeypatch.setattr(qhorn, "phi_q_plus", lambda s: CnfFormula(tuple(phi_q_plus_all_pairs(s)), s.num_vars))
    monkeypatch.setattr(qhorn, "_resolution_pairs", resolution_pairs_all_pairs)
    assert compiled == write_dimacs(compile_urc_encoding(formula, valuation))


def test_binary_resolvent_matches_all_pairs_reference():
    lits = [lit for v in (1, 2, 3) for lit in (v, -v)]
    binary = [make_clause([a, b]) for i, a in enumerate(lits) for b in lits[i + 1:]]
    assert len(binary) == 15  # tautological pairs such as (1, -1) included
    for ci in binary:
        for cj in binary:
            assert qhorn._binary_resolvent(ci, cj) == _resolvent_all_pairs(ci, cj), (ci, cj)
