import pytest
from hypothesis import given, strategies as st

from pcforge.cnf import (
    CnfFormula,
    EncodingFormula,
    apply_assignment,
    literal_masks,
    make_assignment,
    make_clause,
    mask_literals,
    parse_dimacs,
    write_dimacs,
)
from pcforge.errors import DimacsError

from oracles import all_partial_assignments, models_brute, word_matches


def F(clauses, num_vars=None):
    return CnfFormula.from_clauses(clauses, num_vars)


def test_clause_canonical_order():
    assert make_clause([2, -1, 2]) == (-1, 2)
    assert make_clause([-3, 3, 1]) == (1, 3, -3)
    with pytest.raises(ValueError):
        make_clause([0])


def test_assignment_rejects_complementary_pair():
    with pytest.raises(ValueError):
        make_assignment([1, -1])
    assert make_assignment([1, -2]) == frozenset({1, -2})


def test_parse_simple():
    f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
    assert f == F([[1, -2]], 2)


def test_parse_empty_formula_is_tautology():
    f = parse_dimacs("p cnf 1 0\n")
    assert f.num_vars == 1 and len(f.clauses) == 0


def test_parse_aux_header():
    enc = parse_dimacs("c aux 3 0\np cnf 3 1\n1 3 0\n")
    assert isinstance(enc, EncodingFormula)
    assert enc.input_vars == (1, 2)
    assert enc.aux_vars == (3,)


def test_parse_bytes_accepted():
    assert parse_dimacs(b"p cnf 1 1\n1 0\n") == F([[1]], 1)


@pytest.mark.parametrize("text,line", [
    ("p dnf 2 1\n1 0\n", 1),
    ("p cnf 1 1\n2 0\n", 2),
    ("p cnf 2 1\n1 -2\n", 2),
    ("1 0\n", 1),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert err.value.line == line


def test_parse_rejects_second_header():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("p cnf 3 1\np cnf 1 1\n1 0\n")
    assert err.value.line == 2


def test_parse_non_ascii_byte_carries_line_number():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("c first\nc caf\u00e9\np cnf 1 1\n1 0\n".encode("utf-8"))
    assert err.value.line == 2


@pytest.mark.parametrize("text,line", [
    ("p cnf 10 1\n1_0 0\n", 2),
    ("p cnf 2 1\n+1 0\n", 2),
    ("p cnf 2 1\n\u0661 0\n", 2),
    ("p cnf 1_0 1\n1 0\n", 1),
    ("p cnf +2 1\n1 0\n", 1),
    ("p cnf \u0662 1\n1 0\n", 1),
    ("c aux 1_0 0\np cnf 10 0\n", 1),
    ("c x\nc aux +2 0\np cnf 2 0\n", 2),
    ("c aux \u0662 0\np cnf 2 0\n", 1),
])
def test_parse_accepts_only_ascii_decimal_integers(text, line):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert err.value.line == line


def test_parse_signed_zero_and_leading_zeros_still_accepted():
    assert parse_dimacs("p cnf 02 1\n-01 2 -0\n") == F([[-1, 2]], 2)


def test_parse_duplicate_aux_reported_at_repeating_line():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("c x\nc aux 2 0\nc aux 2 0\np cnf 2 0\n")
    assert err.value.line == 3
    with pytest.raises(DimacsError) as err:
        parse_dimacs("c aux 1 1 0\np cnf 2 0\n")
    assert err.value.line == 1


def test_parse_aux_above_count_reported_at_declaring_line():
    with pytest.raises(DimacsError) as err:
        parse_dimacs("c x\nc aux 1 0\nc aux 5 0\np cnf 2 1\n1 2 0\n")
    assert err.value.line == 3


def test_parse_clause_count_mismatch():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 2\n1 0\n")


def test_parse_satlib_tail():
    # SATLIB files end with a "%" line and then "0"; neither is a clause
    text = "c SATLIB uf3\np cnf 3 2\n 1 -2 0\n2 3 0\n%\n0\n\n"
    assert parse_dimacs(text) == F([[1, -2], [2, 3]], 3)
    assert parse_dimacs(text.encode()) == F([[1, -2], [2, 3]], 3)


@pytest.mark.parametrize("text,line,message", [
    ("p cnf 2 2\n1 0\n%\n0\n", 5, "header declares 2 clauses, found 1"),
    ("p cnf 2 1\n1\n%\n0\n", 2, "unterminated clause"),
    ("%\np cnf 1 0\n", 3, "missing p line"),
    ("p cnf 2 1\n1 0\n%0\n", 3, "non-integer token"),
])
def test_parse_satlib_tail_keeps_the_checks(text, line, message):
    with pytest.raises(DimacsError) as err:
        parse_dimacs(text)
    assert err.value.line == line and message in str(err.value)


def test_write_simple():
    assert write_dimacs(F([[1, -2]], 2)) == "p cnf 2 1\n1 -2 0\n"
    assert write_dimacs(CnfFormula((), 0)) == "p cnf 0 0\n"


def test_write_aux_header_before_p_line():
    enc = parse_dimacs("c aux 3 0\np cnf 3 1\n1 3 0\n")
    text = write_dimacs(enc)
    assert text.startswith("c aux 3 0\np cnf 3 1")
    assert parse_dimacs(text) == enc


def test_empty_aux_header_roundtrips_as_encoding():
    # a compiled Horn formula has no auxiliaries but is still an encoding
    enc = EncodingFormula(CnfFormula.from_clauses([[1]], 1), (1,), ())
    text = write_dimacs(enc)
    assert text.startswith("c aux 0\n")
    assert parse_dimacs(text) == enc


def test_tautological_clause_accepted_on_parse():
    f = parse_dimacs("p cnf 1 1\n1 -1 0\n")
    assert f.tautological_clauses() == ((1, -1),)


def test_duplicate_clauses_collapse():
    f = F([[1, 2], [2, 1], [1]])
    assert f.clauses == ((1, 2), (1,))


def test_literal_masks():
    assert literal_masks([1, -3, 4]) == (0b1001, 0b100)
    assert literal_masks([]) == (0, 0)


def test_mask_literals_inverts_literal_masks():
    assert mask_literals(0b1001, 0b100) == [1, -3, 4]
    assert mask_literals(0b11, 0b11) == [1, -1, 2, -2]
    assert mask_literals(0, 0) == []
    for alpha in all_partial_assignments(4):
        assert mask_literals(*literal_masks(alpha)) == sorted(alpha, key=lambda lit: (abs(lit), lit < 0))


def test_apply_assignment_examples():
    f = F([[1, 2], [-1, 3]])
    assert apply_assignment(f, frozenset({1})) == F([[3]], 3)
    g = F([[1]], 1)
    assert apply_assignment(g, frozenset({-1})).clauses == ((),)
    h = F([[1, 2]], 2)
    assert apply_assignment(h, frozenset()) == h


def test_apply_assignment_idempotent():
    f = F([[1, 2, 3], [-2, -3], [2]], 3)
    beta = frozenset({2, -1})
    once = apply_assignment(f, beta)
    assert apply_assignment(once, beta) == once


clause_st = st.lists(
    st.integers(min_value=1, max_value=5).flatmap(lambda v: st.sampled_from([v, -v])),
    min_size=1, max_size=4,
)
formula_st = st.lists(clause_st, min_size=0, max_size=8).map(lambda cls: CnfFormula.from_clauses(cls, 5))


@given(formula_st)
def test_roundtrip(formula):
    assert parse_dimacs(write_dimacs(formula)) == formula


@st.composite
def encoding_st(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    literal = st.integers(min_value=1, max_value=max(n, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=6)) if n else draw(st.lists(st.just([]), max_size=2))
    aux = tuple(sorted(draw(st.sets(st.integers(min_value=1, max_value=n), max_size=n)))) if n else ()
    inputs = tuple(v for v in range(1, n + 1) if v not in aux)
    return EncodingFormula(CnfFormula.from_clauses(clauses, n), inputs, aux)


@given(encoding_st())
def test_encoding_roundtrip(encoding):
    # covers empty aux lists, empty clauses and the 0-variable universe
    assert parse_dimacs(write_dimacs(encoding)) == encoding


@given(formula_st, st.sets(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=3))
def test_apply_assignment_semantics(formula, lits):
    try:
        beta = make_assignment(lits)
    except ValueError:
        return
    reduced = apply_assignment(formula, beta)
    # models of the reduced formula = models of the original compatible with beta,
    # up to the values of the assigned variables
    assigned = {abs(l) for l in beta}
    free_words = set()
    for w in models_brute(formula):
        if word_matches(beta, w):
            masked = w
            for v in assigned:
                masked &= ~(1 << (v - 1))
            free_words.add(masked)
    reduced_words = set()
    for w in models_brute(reduced):
        masked = w
        for v in assigned:
            masked &= ~(1 << (v - 1))
        reduced_words.add(masked)
    assert free_words == reduced_words


def test_universe_may_exceed_occurring_variables():
    f = F([[1]], 5)
    assert f.num_vars == 5
    assert f.occurring_variables() == frozenset({1})
    with pytest.raises(ValueError):
        CnfFormula(((6,),), 5)


def test_encoding_partition_validated():
    f = F([[1, 2]], 3)
    with pytest.raises(ValueError):
        EncodingFormula(f, (1, 2), ())  # 3 missing
    with pytest.raises(ValueError):
        EncodingFormula(f, (1, 2, 3), (3,))  # overlap
