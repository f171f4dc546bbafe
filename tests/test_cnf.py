import copy
import functools
import gc
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from pcforge.cnf import (
    _WRITE_CHUNK,
    UNIVERSE_VARS,
    CnfFormula,
    EncodingFormula,
    apply_assignment,
    formula_cache,
    literal_key,
    literal_table,
    literal_vector,
    make_assignment,
    make_clause,
    parse_dimacs,
    vector_literals,
    write_dimacs,
)
from pcforge.corpus import horn_formulas, qhorn_formulas, satisfiable_formulas
from pcforge.deciders import reduce_pc_irredundant, reduce_urc_irredundant
from pcforge.dual_rail import dual_rail
from pcforge.errors import DimacsError, LimitError
from pcforge.families import GENERATORS, gen_parity, gen_psi_qhorn
from pcforge.qhorn import compile_urc_encoding, normalize, phi_q_plus, recognize_qhorn
from pcforge.semantics import prime_implicates

from oracles import (all_partial_assignments, benchmark_inputs, literal_objects, models_brute, word_matches,
                     write_dimacs_joined)


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


@pytest.mark.parametrize("char", ["\u00a0", "\u3000", "\u2028"])
def test_parse_non_ascii_character_carries_line_number(char):
    # str input follows the bytes rule: an NBSP or ideographic space does not separate
    # literals, and a line separator does not split a line
    with pytest.raises(DimacsError) as err:
        parse_dimacs(f"p cnf 2 1\n1{char}2 0\n")
    assert err.value.line == 2 and f"U+{ord(char):04X}" in str(err.value)
    with pytest.raises(DimacsError) as err:
        parse_dimacs(f"c first\nc {char}\np cnf 1 1\n1 0\n")
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


@pytest.mark.parametrize("text,line,message", [
    ("p cnf 1 1\n\n  \n2 0\n", 4, "literal 2 exceeds declared variable count 1"),  # blank lines count
    ("p cnf 2 0\nc aux 1 0\n", 2, "aux declaration must precede the p line"),
    ("c aux 1 2\np cnf 2 0\n", 1, "aux list must be positive variables terminated by 0"),
    ("c aux -1 0\np cnf 2 0\n", 1, "aux list must be positive variables terminated by 0"),
    ("c aux\np cnf 2 0\n", 1, "aux list must be positive variables terminated by 0"),
    ("p cnf -1 0\n", 1, "negative counts in header"),
    ("p cnf 2 -1\n", 1, "negative counts in header"),
])
def test_parse_reports_the_malformed_line(text, line, message):
    with pytest.raises(DimacsError, match=f"^line {line}: {re.escape(message)}$") as err:
        parse_dimacs(text)
    assert err.value.line == line


def test_parse_skips_blank_lines():
    assert parse_dimacs("\np cnf 2 1\n   \n1 -2 0\n\n") == F([[1, -2]], 2)


def test_huge_declared_universe_fails_closed_before_any_table():
    # 22 bytes declaring 300 million variables: the engines would size per-literal tables by it
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match=r"^300000000 variables exceed UNIVERSE_VARS = 524288$"):
            parse_dimacs(b"p cnf 300000000 1\n1 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert CnfFormula(((1,), (-UNIVERSE_VARS,)), UNIVERSE_VARS).num_vars == UNIVERSE_VARS
    with pytest.raises(LimitError):
        CnfFormula((), UNIVERSE_VARS + 1)


@pytest.mark.parametrize("call,message", [
    (lambda: make_assignment([1, 0]), "literal 0 is not allowed in an assignment"),
    (lambda: CnfFormula((), -1), "num_vars must be nonnegative"),
    (lambda: EncodingFormula(CnfFormula((), 2), (1, 1, 2), ()), "repeated variable in input/aux lists"),
    (lambda: EncodingFormula(CnfFormula((), 2), (1,), (2, 2)), "repeated variable in input/aux lists"),
    (lambda: apply_assignment(F([[1]], 1), frozenset({-2})), "assigned variable 2 outside universe"),
])
def test_data_model_rejects_malformed_values(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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
    # an empty clause is the bare line 0, wherever it stands
    assert write_dimacs(F([[1], [], [-2, 3]], 3)) == "p cnf 3 3\n1 0\n0\n-2 3 0\n"
    assert write_dimacs(CnfFormula(((),), 0)) == "p cnf 0 1\n0\n"


def _writer_corpus():
    out = [CnfFormula((), 0), CnfFormula((), 4), CnfFormula(((),), 0), F([[1], [], [-2, 3]], 3),
           EncodingFormula(F([[1], [-1, 2]], 2), (1, 2), ())]  # an encoding with no auxiliaries
    out += satisfiable_formulas(1001, 40) + horn_formulas(1002, 40)
    out += [formula for formula, _ in qhorn_formulas(1003, 40)]
    for family, generate in GENERATORS.items():
        out += [generate(m) for m in range(3, 6)]
    out += [compile_urc_encoding(gen_psi_qhorn(n)[0]) for n in range(2, 6)]
    out += [compile_urc_encoding(formula, valuation) for formula, valuation in qhorn_formulas(1005, 40)]
    out.append(_interleaved_widths())
    return out


def _interleaved_widths() -> EncodingFormula:
    """An encoding whose clause widths change from run to run, one run spanning several writer chunks."""
    rng = random.Random(1004)
    n = 20
    runs = [(3, 2 * _WRITE_CHUNK // 3 + 1), (1, 3), (2, 5), (0, 1), (3, 1), (2, 1), (4, 7), (1, 1), (3, 50), (2, 2)]
    seen, clauses = set(), []
    for width, length in runs:
        while length:
            clause = make_clause(var * rng.choice((1, -1)) for var in rng.sample(range(1, n + 1), width))
            if clause not in seen:
                seen.add(clause)
                clauses.append(clause)
                length -= 1
    return EncodingFormula(CnfFormula(tuple(clauses), n), tuple(range(1, 11)), tuple(range(11, n + 1)))


def test_writer_matches_joined_writer():
    for obj in _writer_corpus():
        text = write_dimacs(obj)
        assert text.splitlines() == write_dimacs_joined(obj).splitlines()  # a long text diff takes minutes
        assert text.endswith("\n")
        assert parse_dimacs(text) == obj


def test_writer_holds_about_one_copy_of_its_output():
    # the chunks joined into the output are about one more copy of it; per-clause lines took about four
    formula = gen_parity(16, "cnf")
    tracemalloc.start()
    try:
        text = write_dimacs(formula)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


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


def test_parse_shares_literal_objects():
    # values past the small-int cache, written more than once and once with a leading zero
    f = parse_dimacs("c aux 300 0\np cnf 300 4\n-300 299 0\n-300 -0299 0\n-299 300 0\n299 0\n")
    assert f.formula.clauses == ((299, -300), (-299, -300), (-299, 300), (299,))
    assert literal_objects(f.formula) == (4, 4)
    ops, _ = benchmark_inputs().build_encode(1)
    encoding = compile_urc_encoding(parse_dimacs(ops[0]["dimacs"]))
    reparsed = parse_dimacs(write_dimacs(encoding))
    assert reparsed == encoding
    objects, values = literal_objects(reparsed.formula)
    assert objects == values > 500


def test_literal_table_holds_one_object_per_literal():
    table = literal_table(300)
    assert len(table) == 601 and table[0] == 0
    assert all(table[v] == v and table[-v] == -v for v in range(1, 301))
    assert len({id(lit) for lit in table}) == 601
    assert literal_table(0) == [0]


def test_formula_cache_counts_like_lru_cache():
    def size(formula):
        if formula.num_vars > 5:
            raise LimitError("too wide")
        return [len(formula.clauses)]

    weak, bounded = formula_cache(size), functools.lru_cache(maxsize=None)(size)
    formulas = [F([[1, 2]]), F([[1, 2]]), F([[1], [2]]), CnfFormula((), 6), F([[1, 2]], 3)]
    for formula in formulas + formulas[::-1] + formulas:
        results = []
        for fn in (weak, bounded):
            try:
                results.append(fn(formula))
            except LimitError:
                results.append(None)
        assert results[0] == results[1]
        # a failed call counts a miss and caches nothing
        assert weak.cache_info()[:2] == bounded.cache_info()[:2]
    assert weak.cache_info() == (9, 6, None, 3)  # each of the three calls on the 6-variable formula misses
    assert weak(formulas[1]) is weak(formulas[0])  # equal formulas share the entry of the first
    assert weak.__wrapped__ is size and weak.__name__ == "size"
    weak.cache_clear()
    assert weak.cache_info() == (0, 0, None, 0)


def test_formula_cache_entries_live_as_long_as_their_formula():
    cached = formula_cache(lambda formula: [formula.num_vars])
    first, equal = F([[1, 2]]), F([[1, 2]])
    result = cached(first)
    assert cached(equal) is result and cached.cache_info().currsize == 1
    del first
    gc.collect()
    # the entry went with the formula that keyed it; an equal formula computes it afresh
    assert cached.cache_info().currsize == 0
    assert cached(equal) is not result and cached.cache_info().misses == 2


def test_duplicate_clauses_collapse():
    f = F([[1, 2], [2, 1], [1]])
    assert f.clauses == ((1, 2), (1,))


def test_vector_literals_round_trip_over_all_partial_assignments():
    assert vector_literals(0b1001 | 0b0100 << 4, 4) == [1, -3, 4]
    assert vector_literals(0, 4) == vector_literals(0, 0) == []
    for alpha in all_partial_assignments(4):
        assert vector_literals(literal_vector(alpha, 4), 4) == sorted(alpha, key=literal_key)


def test_vector_literals_decodes_complementary_literals():
    # all 2n bits: the semantic closure of an assignment that no model extends
    assert vector_literals(0b1111, 2) == [1, -1, 2, -2]
    assert vector_literals(0b101 | 0b001 << 3, 3) == [1, -1, 3]


@st.composite
def literal_set_st(draw):
    """A universe size n <= 10 and a consistent set of literals over it, in any order."""
    n = draw(st.integers(min_value=0, max_value=10))
    signs = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=n, max_size=n))
    return n, draw(st.permutations([sign * v for v, sign in enumerate(signs, 1) if sign]))


@given(literal_set_st())
def test_vector_literals_inverts_literal_vector(case):
    n, lits = case
    assert vector_literals(literal_vector(lits, n), n) == sorted(lits, key=literal_key)


def test_literal_vector_layout_and_range():
    assert literal_vector([1, -3, 4], 4) == 0b1001 | 0b0100 << 4
    assert literal_vector([], 0) == 0
    for bad in (0, 5, -5):
        with pytest.raises(ValueError):
            literal_vector([1, bad], 4)


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
    with pytest.raises(ValueError):
        CnfFormula(((6,),), 5)


@pytest.mark.parametrize("clauses,bad", [
    (((1,), (2, 0)), 0),
    (((1, 2), (-3,), (4,)), 4),
    (((1, 2), (-1,), (-4,)), -4),
    (((1,), (2, 4), (-5,)), 4),  # the first offending literal in clause order, not the largest
    (((1,), (-5,), (4,)), -5),
])
def test_formula_rejects_literals_outside_the_universe(clauses, bad):
    with pytest.raises(ValueError, match=rf"^literal {bad} outside universe 1\.\.3$"):
        CnfFormula(clauses, 3)


def test_equal_formulas_hash_equal_through_pickle_and_copy():
    first = F([[2, -1], [3], [1, 2]], 3)
    second = CnfFormula(((-1, 2), (3,), (1, 2)), 3)
    assert first is not second and first == second and hash(first) == hash(second)
    for clone in (pickle.loads(pickle.dumps(first)), copy.copy(first), copy.deepcopy(first)):
        assert clone == second and hash(clone) == hash(second)
        assert {clone: "cached"}[second] == "cached"
    assert first != F([[2, -1], [3], [1, 2]], 4) and F([[1]], 2) != F([[2]], 2)


def test_encoding_partition_validated():
    f = F([[1, 2]], 3)
    with pytest.raises(ValueError):
        EncodingFormula(f, (1, 2), ())  # 3 missing
    with pytest.raises(ValueError):
        EncodingFormula(f, (1, 2, 3), (3,))  # overlap


def _assert_canonical(formula):
    assert all(clause == make_clause(clause) for clause in formula.clauses), formula
    assert len(set(formula.clauses)) == len(formula.clauses), formula


def test_formulas_the_package_builds_are_canonical():
    rng = random.Random(139)
    families = [GENERATORS[name](3) for name in GENERATORS]
    formulas = satisfiable_formulas(131, 30, max_vars=6) + horn_formulas(137, 20, max_vars=7)
    formulas += [f if isinstance(f, CnfFormula) else f.formula for f in families]
    for formula in formulas:
        n = formula.num_vars
        beta = [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
        primes = prime_implicates(formula)
        built = [apply_assignment(formula, beta), dual_rail(formula), primes]
        if not primes.has_empty_clause() and n <= 10:
            built += [reduce_pc_irredundant(primes, limit=n), reduce_urc_irredundant(primes, limit=n)]
        for out in built:
            _assert_canonical(out)
    qhorn = qhorn_formulas(149, 30, max_vars=7) + [(f, recognize_qhorn(f)) for f in formulas]
    for formula, valuation in qhorn:
        if valuation is None:
            continue
        split = normalize(formula, valuation)
        encoding = compile_urc_encoding(formula, valuation).formula
        for out in (split.phi1, split.phi2, phi_q_plus(split), encoding):
            _assert_canonical(out)
        if encoding.num_vars <= 10:
            _assert_canonical(reduce_urc_irredundant(encoding, limit=encoding.num_vars))
