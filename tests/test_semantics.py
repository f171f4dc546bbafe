import gc
import inspect
import random
import time
import weakref
import tracemalloc

import numpy as np
import pytest

from pcforge import semantics
from pcforge.cnf import CnfFormula, EncodingFormula, literal_vector, make_clause, parse_dimacs, vector_literals
from pcforge.corpus import horn_formulas, qhorn_formulas, satisfiable_formulas
from pcforge.deciders import is_pc
from pcforge.errors import LimitError, PreconditionError
from pcforge.families import (gen_cycle_extension, gen_gamma, gen_parity, gen_psi_horn, gen_psi_horn_pc, gen_psi_qhorn,
                              gen_psi_qhorn_pc)
from pcforge.propagation import UnitPropagator, all_literals
from pcforge.qhorn import compile_urc_encoding
from pcforge.semantics import (
    FunctionTable,
    _model_words,
    assignment_walk,
    cl_sem,
    closure_vector,
    entails,
    enumerate_models,
    equivalent,
    is_encoding_of,
    prime_implicates,
    satisfiable,
)

from oracles import (all_partial_assignments, assignment_walk_arrays, benchmark_inputs, cl_sem_brute,
                     encoding_onset_brute, entails_brute, is_encoding_of_sorted, model_words_chunked,
                     model_words_doubling, model_words_halves, models_brute, prime_implicates_linear_scan, primes_brute,
                     up_fixpoint_brute)


def F(clauses, num_vars=None):
    return CnfFormula.from_clauses(clauses, num_vars)


def random_formula(rng, max_vars=5, max_clauses=8):
    n = rng.randint(1, max_vars)
    clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
               for _ in range(rng.randint(1, max_clauses))]
    return CnfFormula.from_clauses(clauses, n)


def onset_set(formula):
    return set(enumerate_models(formula).onset.tolist())


def test_enumerate_models_examples():
    assert onset_set(F([[1], [2]])) == {0b11}
    assert onset_set(CnfFormula((), 2)) == {0, 1, 2, 3}
    assert onset_set(F([[1, 2], [-1, -2]])) == {0b01, 0b10}


def test_enumerate_models_shares_the_cached_model_array():
    formula = F([[1, 2], [-1, 3], [2, -3]], 4)
    onset = enumerate_models(formula).onset
    assert np.shares_memory(onset, _model_words(formula))
    assert onset.dtype == np.uint64 and not onset.flags.writeable
    assert onset.tolist() == models_brute(formula)


def test_function_table_canonicalises_its_onset():
    for words in ([5, 1, 3, 1, 5], {3, 1, 5}, (w for w in (3, 5, 1)), np.array([5, 3, 1, 3], dtype=np.int64),
                  np.array([1, 3, 5, 5], dtype=np.uint64)):
        onset = FunctionTable((1, 2, 3), words).onset
        assert onset.dtype == np.uint64 and onset.ndim == 1 and not onset.flags.writeable
        assert onset.tolist() == [1, 3, 5]
    assert FunctionTable((), []).onset.tolist() == []
    assert FunctionTable((), [0]).onset.tolist() == [0]
    # an unsorted read-only uint64 array is sorted, not kept
    unsorted = np.array([3, 1], dtype=np.uint64)
    unsorted.flags.writeable = False
    assert FunctionTable((1, 2), unsorted).onset.tolist() == [1, 3]
    # a canonical array is kept as it is
    canonical = np.array([1, 3], dtype=np.uint64)
    canonical.flags.writeable = False
    assert FunctionTable((1, 2), canonical).onset is canonical
    with pytest.raises(TypeError):
        FunctionTable((1, 2), [1.5])


@pytest.mark.parametrize("word", [-1, 1 << 3, 1 << 64, 1 << 70])
def test_function_table_rejects_words_out_of_range(word):
    with pytest.raises(ValueError):
        FunctionTable((1, 2, 3), [0, word])
    if 0 <= word < 1 << 64:
        array = np.array([0, word], dtype=np.uint64)
        array.flags.writeable = False
        with pytest.raises(ValueError):
            FunctionTable((1, 2, 3), array)


def test_function_tables_with_equal_contents_are_equal():
    a = FunctionTable((1, 2), [3, 0, 3])
    b = FunctionTable((1, 2), np.array([0, 3], dtype=np.uint64))
    c = enumerate_models(F([[1, -2], [-1, 2]], 2))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != FunctionTable((1, 2), [0])
    assert a != FunctionTable((2, 1), [0, 3])
    assert a != FunctionTable((1, 2, 3), [0, 3])
    assert a != (1, 2)


def test_models_match_brute_oracle_with_tautological_clauses():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 5)
        clauses = [[v * rng.choice((1, -1)) for v in rng.choices(range(1, n + 1), k=rng.randint(1, 4))]
                   for _ in range(rng.randint(0, 6))]
        formula = CnfFormula.from_clauses(clauses, n)
        assert onset_set(formula) == set(models_brute(formula))
    assert onset_set(F([[1, -1]], 1)) == {0, 1}
    assert onset_set(F([[1, -1], [-1, 2]], 2)) == {0, 2, 3}


def _model_words_corpus():
    rng = random.Random(53)
    out = [CnfFormula((), 0), CnfFormula(((),), 0), CnfFormula((), 5),
           F([[1, 2], [], [-3]], 3), F([[-2], [1, 3], []], 3),  # an empty clause that is not the first
           F([[-4]], 4), F([[4]], 4), F([[1, -4], [-4]], 4), F([[4, -4]], 4),  # clauses on the top variable only
           F([[1, -2, 4], [-1, 2, -4]], 4), F([[2, 5], [2, -5]], 5),  # a clause and its sign mirror on the top variable
           F([[-3], [3]], 3), F([[1, 2, -2], [-1, 3]], 3),  # both units on the top variable; a tautology
           F([[-2], [1, 6]], 9)]  # runs of variables at which no clause ends, in the middle and at the top
    for _ in range(60):  # tautological clauses among the rest
        n = rng.randint(1, 6)
        clauses = [[v * rng.choice((1, -1)) for v in rng.choices(range(1, n + 1), k=rng.randint(1, 4))]
                   for _ in range(rng.randint(0, 8))]
        out.append(CnfFormula.from_clauses(clauses, n))
    out += satisfiable_formulas(1001, 40) + [formula for formula, _ in qhorn_formulas(1003, 20)]
    out += [gen_psi_horn(3), gen_psi_horn_pc(3), gen_cycle_extension(F([[1, 2], [-1, 3], [2, -3]], 3))]
    for m in (2, 3):
        out += [gen_psi_qhorn(m)[0], gen_psi_qhorn_pc(m).formula]
        out += [gen_gamma(m, variant) for variant in ("base", "prime", "dprime")]
    for m in range(2, 7):
        out += [gen_parity(m, "cnf"), gen_parity(m, "encoding").formula]
    return out


def test_model_words_match_chunked_engine():
    for formula in _model_words_corpus():
        words, reference = _model_words(formula), model_words_chunked(formula)
        assert words.dtype == reference.dtype == np.uint64 and words.ndim == 1
        assert not words.flags.writeable
        assert np.array_equal(words, reference)
        assert np.array_equal(words, model_words_doubling(formula))
        assert words.tolist() == models_brute(formula)


def test_model_words_over_64_variables():
    # the top variable is bit 63; no scan of 2**64 words, so the prefix engine is the reference
    chain = F([[-v, v + 1] for v in range(1, 64)], 64)  # the 65 words 2**64 - 2**k
    expected = [0] + [(1 << 64) - (1 << k) for k in range(63, -1, -1)]
    gap = F([[-v] for v in range(1, 51)] + [[51, 64], [-52, -64]], 64)  # bits 50..62 in one block
    for formula in (chain, gap):
        words = _model_words.__wrapped__(formula)
        assert np.array_equal(words, model_words_doubling(formula))
    assert _model_words.__wrapped__(chain).tolist() == expected
    assert len(_model_words.__wrapped__(gap)) == 1 << 13


def _wide_formulas(seed, count):
    """Random formulas over 12 to 24 variables, with n to 3n clauses of one to four literals each."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(12, 24)
        clauses = [[v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, 4))]
                   for _ in range(rng.randint(n, 3 * n))]
        out.append(CnfFormula.from_clauses(clauses, n))
    return out


def _encode_verify_formulas(seed):
    """The formulas of the benchmark's encode verify operations at the seed, each with its compiled encoding."""
    ops, _ = benchmark_inputs().build_encode(seed)
    out = []
    for op in ops:
        if op["kind"] == "verify":
            formula = parse_dimacs(op["dimacs"])
            out.append((formula, compile_urc_encoding(formula)))
    return out


def _assert_model_words_match(formula):
    words = _model_words.__wrapped__(formula)
    assert words.dtype == np.uint64 and words.ndim == 1 and not words.flags.writeable
    assert np.array_equal(words, model_words_halves(formula))
    if formula.num_vars <= 10:
        assert words.tolist() == models_brute(formula)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_model_words_in_small_blocks_match_the_halves_engine(block, monkeypatch):
    # blocks far shorter than the arrays: every step streams its candidates over many blocks
    corpus = [formula for formula in _model_words_corpus() if formula.num_vars <= (8 if block == 1 else 12)]
    corpus += [F([[1, 2], [-2, 3]], 6), F([[-1], [2, 3]], 7)]  # a last step that only doubles, after a run
    monkeypatch.setattr(semantics, "_BLOCK", block)
    for formula in corpus:
        _assert_model_words_match(formula)


def test_model_words_match_the_halves_engine_on_wide_formulas(monkeypatch):
    chain = F([[-v, v + 1] for v in range(1, 64)], 64)
    gap = F([[-v] for v in range(1, 51)] + [[51, 64], [-52, -64]], 64)
    # one word under a run of 21 clause-free variables; 49,152 words, more than a block, under a run of 3
    corpus = _wide_formulas(61, 40) + [chain, gap, F([[-21, 22]], 22), F([[1, -5, 9, -22]], 22),
                                        F([[-15, 16], [1, -20]], 20)]
    # seed 31: the second verify formula ends in a clause-free variable, so its last step only doubles
    for seed in (1, 31):
        corpus += [f for formula, encoding in _encode_verify_formulas(seed) for f in (formula, encoding.formula)]
    assert max(len(model_words_halves(formula)) for formula in corpus) > 1 << 20
    for block in (semantics._BLOCK, 1 << 10):
        monkeypatch.setattr(semantics, "_BLOCK", block)
        for formula in corpus:
            _assert_model_words_match(formula)


@pytest.mark.parametrize("clause, count", [((-21, 22), 3 << 20), ((1, -5, 9, -22), (1 << 21) + (7 << 18))])
def test_model_words_step_holds_no_array_but_its_prefix_and_output(clause, count):
    # one step, at variable 22, grows the 2**21 candidate words over variables 1..21 into the output;
    # masks and blocks may add a quarter of that, nothing else the size of an array
    formula = F([clause], 22)
    tracemalloc.start()
    try:
        words = _model_words.__wrapped__(formula)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prefix = 8 << 21
    assert peak <= 1.25 * (prefix + words.nbytes) + (1 << 20)
    assert len(words) == count


def test_model_words_step_from_a_multi_block_prefix_holds_no_array_but_its_prefix_and_output():
    # the step at variable 22 grows the 98,304 models over variables 1..17 (three blocks) under the 4
    # clause-free variables 18..21, and clauses filter both of its halves
    formula = F([[1, 17], [2, 5, 22], [-3, -22]], 22)
    tracemalloc.start()
    try:
        words = _model_words.__wrapped__(formula)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    prefix = 8 * 98_304
    assert len(_model_words.__wrapped__(F([[1, 17]], 17))) * 8 == prefix
    assert peak <= 1.25 * (prefix + words.nbytes) + (1 << 20)
    assert len(words) == 98_304 * 16 * 3 // 4 + 98_304 * 16 // 2


def test_model_words_step_makes_its_candidates_once_per_pass(monkeypatch):
    # steps at variables 17 and 22, both with clauses to filter: a pass for the masks and one that writes
    # both halves, each pass one stream of candidates
    formula = F([[1, 17], [2, 5, 22], [-3, -22]], 22)
    streams = []
    candidates = semantics._candidates

    def counted(words, done, v):
        streams.append(v)
        return candidates(words, done, v)

    monkeypatch.setattr(semantics, "_candidates", counted)
    assert np.array_equal(_model_words.__wrapped__(formula), model_words_halves(formula))
    assert streams == [17, 17, 22, 22]


@pytest.mark.parametrize("wall", [1, 2, 3, 8, 40, 1 << 10])
def test_model_wall_raises_at_the_doubling_engines_step(wall, monkeypatch):
    corpus = _model_words_corpus()  # built at the full wall: the satisfiable corpus asks for models
    monkeypatch.setattr(semantics, "MODEL_WORDS", wall)
    for formula in corpus:
        try:
            expected = model_words_doubling(formula)
        except LimitError as exc:
            with pytest.raises(LimitError) as err:
                _model_words.__wrapped__(formula)
            assert str(err.value) == str(exc)
        else:
            assert np.array_equal(_model_words.__wrapped__(formula), expected)


def test_model_array_is_released_with_its_formula():
    formula = gen_gamma(4, "dprime")
    table = enumerate_models(formula)
    words = weakref.ref(_model_words(formula))
    assert words() is table.onset
    del formula, table
    gc.collect()
    assert words() is None


def test_equal_formula_shares_the_model_array_while_the_first_lives():
    first = gen_gamma(3, "dprime")
    equal = CnfFormula(first.clauses, first.num_vars)
    words = _model_words(first)
    hits = _model_words.cache_info().hits
    assert np.shares_memory(_model_words(equal), words)
    assert _model_words.cache_info().hits == hits + 1


def test_model_words_work_follows_the_models():
    # one unit clause per variable: one model over every prefix, so the array never holds more
    # than two words, where a scan of all 2**26 words would hold at least one 8 MiB chunk
    n = 26
    formula = F([[v if v % 3 else -v] for v in range(1, n + 1)], n)
    expected = sum(1 << (v - 1) for v in range(1, n + 1) if v % 3)
    tracemalloc.start()
    try:
        onset = enumerate_models(formula).onset
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert onset.tolist() == [expected]
    assert peak < 1 << 20


def test_enumerate_models_limit():
    # the footprint of 30 free variables is known before their block is allocated
    tracemalloc.start()
    try:
        with pytest.raises(LimitError):
            enumerate_models(CnfFormula((), 30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # few models, but a model word holds no more than 64 variables
    with pytest.raises(LimitError):
        satisfiable(F([[-v, v + 1] for v in range(1, 70)], 70))


def test_model_wall_counts_words_not_variables(monkeypatch):
    monkeypatch.setattr(semantics, "MODEL_WORDS", 8)
    _model_words.cache_clear()
    assert len(enumerate_models(CnfFormula((), 3)).onset) == 8
    with pytest.raises(LimitError):
        enumerate_models(CnfFormula((), 4))
    # a unit clause halves the words over 1..4, and the array fits again
    assert len(enumerate_models(F([[1]], 4)).onset) == 8


def test_answers_past_24_variables():
    # few models over 28 and 30 variables: the prefix model counts, not n, meet the wall
    assert equivalent(gen_gamma(7, "base"), gen_gamma(7, "dprime"))
    chain = F([[-v, v + 1] for v in range(1, 30)], 30)
    assert satisfiable(chain)
    assert entails(chain, (-1, 30))


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


def _primes_small_corpus():
    rng = random.Random(61)
    out = [CnfFormula((), 0), CnfFormula((), 3), F([[1, -1]], 1), F([[1, 2], [], [-2]], 2), F([[-1], [1, -2], [2]], 2)]
    for _ in range(80):  # tautologies, empty clauses and unsatisfiable formulas among them
        n = rng.randint(1, 6)
        clauses = [[v * rng.choice((1, -1)) for v in rng.choices(range(1, n + 1), k=rng.randint(0, 4))]
                   for _ in range(rng.randint(0, 12))]
        out.append(CnfFormula.from_clauses(clauses, n))
    out += satisfiable_formulas(1001, 40) + horn_formulas(1002, 40) + [f for f, _ in qhorn_formulas(1003, 40)]
    return out


def _primes_family_corpus():
    out = [gen_psi_horn(m) for m in range(3, 7)]  # the family starts at m = 3
    out += [gen_parity(m, "cnf") for m in range(3, 8)] + [gen_parity(m, "encoding").formula for m in range(3, 8)]
    out += [gen_gamma(m, variant) for m in range(2, 5) for variant in ("base", "prime", "dprime")]
    out += [gen_psi_qhorn(m)[0] for m in range(2, 6)] + [compile_urc_encoding(gen_psi_qhorn(2)[0]).formula]
    return out


def _primes_bounded(monkeypatch, formula, bound):
    """prime_implicates(formula) computed afresh with PRIME_CLAUSES set to bound for this call."""
    with monkeypatch.context() as patch:
        patch.setattr(semantics, "PRIME_CLAUSES", bound)
        prime_implicates.cache_clear()
        try:
            return prime_implicates(formula)
        finally:
            prime_implicates.cache_clear()


def _limit_threshold(monkeypatch, formula):
    """The least PRIME_CLAUSES at which prime_implicates does not raise LimitError on formula."""
    def raises(limit):
        try:
            _primes_bounded(monkeypatch, formula, limit)
        except LimitError:
            return True
        return False

    if not raises(0):
        return 0
    lo, hi = 0, 1  # raises(lo) holds; find the first hi where it does not, then bisect
    while raises(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if raises(mid) else (lo, mid)
    return hi


def test_prime_implicates_follow_the_literals_of_the_clauses_not_the_universe():
    # 400 two-literal clauses over 201 variables, whose primes are the 200 units v; declared among
    # 16,384 variables they took 4 s while every admission looped over all 32,768 literal bits
    clauses = [clause for v in range(1, 201) for clause in ((v, 201), (v, -201))]
    start = time.perf_counter()
    wide = prime_implicates(F(clauses, 1 << 14))
    elapsed = time.perf_counter() - start
    assert wide.clauses == prime_implicates(F(clauses, 201)).clauses == tuple((v,) for v in range(1, 201))
    assert elapsed < 1.0


def test_prime_implicates_match_linear_scan_engine():
    corpus = _primes_small_corpus() + _primes_family_corpus()
    assert any(prime_implicates(f).has_empty_clause() for f in corpus)
    for formula in corpus:
        primes, reference = prime_implicates(formula), prime_implicates_linear_scan(formula)
        assert primes.num_vars == reference.num_vars
        assert primes.clauses == reference.clauses  # the same clauses in the same order
        if formula.num_vars <= 6:
            assert set(primes.clauses) == primes_brute(formula)


def test_prime_implicates_limit_matches_linear_scan_engine(monkeypatch):
    families = [gen_psi_horn(4), gen_parity(5, "encoding").formula, gen_gamma(3, "dprime"), gen_psi_qhorn(3)[0]]
    for formula in _primes_small_corpus() + families:
        threshold = _limit_threshold(monkeypatch, formula)
        if threshold:
            with pytest.raises(LimitError):
                prime_implicates_linear_scan(formula, max_clauses=threshold - 1)
        assert prime_implicates_linear_scan(formula, max_clauses=threshold) == prime_implicates(formula)


def test_prime_implicates_max_clauses(monkeypatch):
    # the bound is the module constant PRIME_CLAUSES, not a parameter
    assert list(inspect.signature(prime_implicates).parameters) == ["formula"]
    # it counts every clause admitted to the queue: the 8 input clauses and the
    # resolvents later subsumed as well as the 56 primes
    psi4 = gen_psi_horn(4)
    with pytest.raises(LimitError, match="PRIME_CLAUSES = 20 "):
        _primes_bounded(monkeypatch, psi4, 20)
    assert len(prime_implicates(psi4).clauses) == 56
    assert _limit_threshold(monkeypatch, psi4) == 85
    assert _primes_bounded(monkeypatch, psi4, 85) == prime_implicates(psi4)


def test_entails_rejects_clauses_outside_the_universe():
    with pytest.raises(PreconditionError, match="^clause variable 3 outside universe$"):
        entails(F([[1, 2]], 2), (1, -3))


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
    formulas = [random_formula(rng, max_vars=4) for _ in range(40)]
    # unsatisfiable: every clause is entailed, the empty one included
    formulas += [F([[1], [-1]], 2), F([[1, 2], [1, -2], [-1, 2], [-1, -2]], 3), CnfFormula(((),), 2)]
    for formula in formulas:
        n = formula.num_vars
        clauses = [(), make_clause([1, -1])]  # the empty clause and a tautology
        for _ in range(5):
            lits = [v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
            clauses += [make_clause(lits), make_clause(lits + [-lits[0]])]  # plain and tautological
        for clause in clauses:
            assert entails(formula, clause) == entails_brute(formula, clause)


def test_cl_sem_matches_brute_oracle():
    rng = random.Random(37)
    for _ in range(25):
        formula = random_formula(rng, max_vars=4)
        for alpha in all_partial_assignments(formula.num_vars):
            assert cl_sem(formula, alpha) == cl_sem_brute(formula, alpha)


def _table_variants(table):
    """Word sets of the table's arity: the onset itself, and with one word dropped, added or both;
    and word sets holding a word outside 0..2**arity-1, which no table may hold."""
    onset, arity = frozenset(table.onset.tolist()), table.arity
    in_range = [onset, frozenset(), frozenset({0}), onset | {(1 << arity) - 1}]
    missing = next((w for w in range(1 << arity) if w not in onset), None)
    if missing is not None:
        in_range.append(onset | {missing})
    out_of_range = [onset | {1 << arity}, onset | {-1}, onset | {1 << 64}, onset | {1 << 70}]
    if onset:
        dropped = onset - {min(onset)}
        in_range.append(dropped)
        if missing is not None:
            in_range.append(dropped | {missing})  # as many words as the onset, not the same ones
        out_of_range += [dropped | {1 << arity}, dropped | {-1}, dropped | {1 << 64}]
    return in_range, out_of_range


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
    # input x1 in place, x3 moved to bit 1: exists x2 (x1 | x2)(-x2 | x3) is x1 | x3
    cases.append((EncodingFormula(F([[1, 2], [-2, 3]], 3), (1, 3), (2,)), FunctionTable((1, 2), frozenset({1, 2, 3}))))
    # the compiler layout, auxiliaries above the inputs: exists x3 (x1 | x3)(x2 | -x3) is x1 | x2
    cases.append((EncodingFormula(F([[1, 3], [2, -3]], 3), (1, 2), (3,)), FunctionTable((1, 2), frozenset({1, 2, 3}))))
    # no auxiliaries and every input in place: the model array is compared as it is
    plain = F([[1, -2], [-1, 2, 3]], 3)
    cases.append((EncodingFormula(plain, (1, 2, 3), ()), enumerate_models(plain)))
    for encoding, table in cases:
        projected = encoding_onset_brute(encoding)
        in_range, out_of_range = _table_variants(table)
        for words in in_range:
            assert is_encoding_of(encoding, FunctionTable(table.input_vars, words)) == (projected == words)
        for words in out_of_range:
            with pytest.raises(ValueError):
                FunctionTable(table.input_vars, words)
    assert all(is_encoding_of(encoding, table) for encoding, table in cases)


def _dropped_clause_variants(encoding, rng, count):
    """The encoding with one of its clauses removed, for up to count clauses picked by rng."""
    picks = sorted(rng.sample(range(len(encoding.formula.clauses)), min(count, len(encoding.formula.clauses))))
    return [EncodingFormula(encoding.formula.without(i), encoding.input_vars, encoding.aux_vars) for i in picks]


def test_is_encoding_of_matches_the_sorted_projection(monkeypatch):
    rng = random.Random(67)
    cases = [(compile_urc_encoding(psi), psi) for psi in (gen_psi_qhorn(m)[0] for m in (2, 3, 4))]
    cases += [(compile_urc_encoding(formula, valuation), formula)
              for formula, valuation in qhorn_formulas(71, 25, max_vars=9)]
    checks = []
    for encoding, source in cases:
        table = enumerate_models(source)
        checks += [(variant, table) for variant in [encoding] + _dropped_clause_variants(encoding, rng, 12)]
        # the table of a formula is encoded by its own clauses, the inputs in place and no auxiliary
        checks.append((EncodingFormula(source, encoding.input_vars, ()), table))
    expected = [is_encoding_of_sorted(encoding, table) for encoding, table in checks]
    assert True in expected and False in expected
    assert [is_encoding_of(encoding, table) for encoding, table in checks] == expected
    # the model arrays are cached: blocks of 5 words stream only the projection
    monkeypatch.setattr(semantics, "_BLOCK", 5)
    assert [is_encoding_of(encoding, table) for encoding, table in checks] == expected


def test_is_encoding_of_with_the_inputs_in_place_compares_the_model_arrays(monkeypatch):
    # no auxiliary variable and the inputs 1..n in order: the models are the projection, no onset lookup is made
    formula = F([[1, 2], [-1, 3]], 3)
    table, other = enumerate_models(formula), enumerate_models(F([[1, 2]], 3))

    def no_lookup(*args, **kwargs):
        raise AssertionError("the onset was searched")

    monkeypatch.setattr(semantics.np, "searchsorted", no_lookup)
    assert is_encoding_of(EncodingFormula(formula, (1, 2, 3), ()), table)
    assert not is_encoding_of(EncodingFormula(formula, (1, 2, 3), ()), other)
    with pytest.raises(AssertionError, match="searched"):  # inputs out of order are projected and looked up
        is_encoding_of(EncodingFormula(formula, (3, 2, 1), ()), table)


@pytest.mark.parametrize("block", [1, 4])
def test_queries_in_small_blocks_match_brute_oracles(block, monkeypatch):
    rng = random.Random(73)
    formulas = [random_formula(rng, max_vars=5) for _ in range(30)] + [F([[1], [-1]], 3), CnfFormula((), 3)]
    monkeypatch.setattr(semantics, "_BLOCK", block)
    for formula in formulas:
        n = formula.num_vars
        for alpha in all_partial_assignments(n):
            assert cl_sem(formula, alpha) == cl_sem_brute(formula, alpha)
            clause = make_clause([-lit for lit in alpha])
            assert entails(formula, clause) == entails_brute(formula, clause)
        for other in (CnfFormula((), n), CnfFormula(formula.clauses[1:], n), CnfFormula(formula.clauses + ((-1,),), n)):
            assert equivalent(formula, other) == (models_brute(formula) == models_brute(other))


def test_entails_stops_at_the_first_block_with_a_counter_model(monkeypatch):
    formula = CnfFormula((), 20)  # 2**20 models in 32 blocks; the first word, all false, refutes (1)
    blocks, made = semantics._blocks, []

    def counted(words):
        for block in blocks(words):
            made.append(len(block))
            yield block

    monkeypatch.setattr(semantics, "_blocks", counted)
    assert not entails(formula, (1,))
    assert made == [semantics._BLOCK]
    made.clear()
    assert entails(F([[1]], 20), (1,))
    assert len(made) == (1 << 19) // semantics._BLOCK


def _walk_expected(formula):
    """{alpha: (propagation closure, semantic closure)} over every alpha whose propagation does not conflict."""
    models = models_brute(formula)
    engine = UnitPropagator(formula)
    out = {}
    for alpha in all_partial_assignments(formula.num_vars):
        conflict, derived = up_fixpoint_brute(formula, alpha)
        engine_conflict, trail, _ = engine.run(alpha)
        assert engine_conflict == conflict
        if not conflict:
            assert frozenset(trail) == frozenset(derived)
            out[alpha] = (frozenset(derived), cl_sem_brute(formula, alpha, models))
    return out


def _assert_walk_matches_oracle(formula):
    n = formula.num_vars
    got = [tuple(frozenset(vector_literals(vector, n)) for vector in yielded) for yielded in assignment_walk(formula)]
    assert len({alpha for alpha, _, _ in got}) == len(got)  # each assignment once
    assert {alpha: (derived, entailed) for alpha, derived, entailed in got} == _walk_expected(formula)


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


def _array_walk_formulas():
    out = [formula for n in range(7) for formula in _walk_formulas(n)]
    out += (satisfiable_formulas(1001, 40) + horn_formulas(1004, 10, max_vars=6)
            + [formula for formula, _ in qhorn_formulas(1003, 10, max_vars=6)])
    out += [gen_psi_horn(3), gen_gamma(2, "dprime"), gen_parity(4, "encoding").formula]
    out += [CnfFormula((), 0), CnfFormula(((),), 0), F([[1], [-1]], 1), F([[2], [1, 3], [-2]], 3)]
    return out


def test_assignment_walk_matches_array_engine():
    for formula in _array_walk_formulas():
        n = formula.num_vars
        expected = [(literal_vector(alpha, n), up, closure_vector(models, n))
                    for alpha, up, models in assignment_walk_arrays(formula)]
        assert list(assignment_walk(formula)) == expected


def test_assignment_walk_footprint_follows_the_models():
    # one model over 40 variables: the walk's tables hold 40 one-bit ints, not 2**40 bits
    n = 40
    formula = F([[v if v % 3 else -v] for v in range(1, n + 1)], n)
    model = sum(1 << (v - 1) for v in range(1, n + 1) if v % 3)
    tracemalloc.start()
    try:
        alpha, up, sem = next(assignment_walk(formula))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alpha == 0
    assert up == sem == model | ((1 << n) - 1 - model) << n
    assert peak < 1 << 20


def test_closure_vector():
    models = np.array([0b011, 0b111], dtype=np.uint64)
    assert closure_vector(models, 4) == 0b011 | 0b1000 << 4
    assert closure_vector(np.empty(0, dtype=np.uint64), 3) == 0b111 | 0b111 << 3
    assert closure_vector(np.array([0], dtype=np.uint64), 0) == 0
