import tracemalloc

import pytest

from pcforge.cnf import CnfFormula, make_clause, write_dimacs
from pcforge.deciders import is_pc, is_urc
from pcforge.errors import UnsatisfiableError
from pcforge.families import (
    FAMILY_NAMES,
    GENERATORS,
    companions,
    gamma_blocking_clause,
    gamma_even_subsets,
    gen_cycle_extension,
    gen_gamma,
    gen_parity,
    gen_psi_horn,
    gen_psi_horn_pc,
    gen_psi_qhorn,
    gen_psi_qhorn_pc,
    generate,
    psi_horn_base,
    psi_horn_base_primes,
)
from pcforge.qhorn import recognize_qhorn
from pcforge.semantics import enumerate_models, equivalent, is_encoding_of, prime_implicates

from oracles import primes_brute


def test_psi_horn_shape():
    f = gen_psi_horn(3)
    assert len(f.clauses) == 6
    assert f.num_vars == 10
    assert f.is_horn()
    assert make_clause([-3, -6, -7]) in f.clauses  # the wide clause on x_m, z_1, z_2
    with pytest.raises(ValueError):
        gen_psi_horn(2)


def test_psi_horn_base_primes_match_consensus():
    m = 3
    base = psi_horn_base(m)
    explicit = set(psi_horn_base_primes(m))
    assert explicit == set(prime_implicates(base).clauses)
    assert len(explicit) == 2 ** (m - 1) + m - 1


def test_psi_horn_pc_shape_and_status():
    for m in (3, 4):
        pc_form = gen_psi_horn_pc(m)
        assert len(pc_form.clauses) == 2 ** (m - 1) + 2 * m - 1
        assert pc_form.num_vars == 3 * m + 1
        assert equivalent(pc_form, gen_psi_horn(m))
        assert is_pc(pc_form, limit=16).verdict


def test_cycle_extension_prime_count():
    # two unit clauses: p = 2 prime implicates, m = 2, so m*p + m*(m-1) = 6
    base = CnfFormula.from_clauses([[1], [2]], 2)
    extended = gen_cycle_extension(base)
    assert extended.num_vars == 4
    brute = primes_brute(extended)
    assert len(brute) == 6
    assert set(prime_implicates(extended).clauses) == brute


def test_cycle_extension_reproduces_psi_horn():
    ext = gen_cycle_extension(psi_horn_base(3))
    psi = gen_psi_horn(3)
    assert len(ext.clauses) == len(psi.clauses)
    assert len(prime_implicates(ext).clauses) == len(prime_implicates(psi).clauses)


def test_cycle_extension_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        gen_cycle_extension(CnfFormula.from_clauses([[1]], 1))
    with pytest.raises(UnsatisfiableError):
        gen_cycle_extension(CnfFormula.from_clauses([[1], [-1]], 1))


def test_psi_qhorn_shape_and_blockers():
    formula, blockers = gen_psi_qhorn(2)
    assert len(formula.clauses) == 8
    assert formula.num_vars == 6
    assert set(blockers) == {(-3, -4), (-3, -6), (-4, -5), (-5, -6)}
    primes = set(prime_implicates(formula).clauses)
    assert all(clause in primes for clause in blockers)
    # the blockers are exactly the activator-only prime implicates
    activator_only = {c for c in primes if all(abs(l) > 2 for l in c)}
    assert activator_only == set(blockers)


def test_psi_qhorn_generator_builds_no_blockers():
    tracemalloc.start()
    try:
        formula = generate("psi_qhorn", 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(formula.clauses) == 64 and peak < 1 << 20
    with pytest.raises(ValueError):
        gen_psi_qhorn(1)


def test_psi_qhorn_urc_failure():
    formula, _ = gen_psi_qhorn(3)
    report = is_urc(formula, limit=16)
    assert not report.verdict and report.witness == frozenset({4, 5, 6})


def test_psi_qhorn_is_recognized_with_forced_shape():
    for n in (2, 3, 4, 5, 6):
        formula, _ = gen_psi_qhorn(n)
        valuation = recognize_qhorn(formula)
        assert valuation is not None
        assert all(valuation.doubled[i] == 1 for i in range(n))
        assert all(valuation.doubled[i] == 2 for i in range(n, 3 * n))


def test_psi_qhorn_pc_encoding():
    for n in (2, 3):
        encoding = gen_psi_qhorn_pc(n)
        assert len(encoding.formula.clauses) == 4 * n + 1
        assert encoding.aux_vars == tuple(range(3 * n + 1, 4 * n + 1))
        source, _ = gen_psi_qhorn(n)
        assert is_encoding_of(encoding, enumerate_models(source))


def test_gamma_sizes():
    for m in (2, 3, 4):
        assert len(gen_gamma(m, "base").clauses) == 3 * m + 1
        assert len(gen_gamma(m, "prime").clauses) == 4 * m + 1
        assert len(gen_gamma(m, "dprime").clauses) == 3 * m + 2 ** (m - 1)
    with pytest.raises(ValueError):
        gen_gamma(1)
    with pytest.raises(ValueError):
        gen_gamma(3, "other")


def test_gamma_even_subsets():
    assert gamma_even_subsets(3) == ((1, 2), (1, 3), (2, 3))
    assert len(gamma_even_subsets(4)) == 7
    clause = gamma_blocking_clause(3, (1, 2))
    assert clause == make_clause([3, 10, 11])  # a_3 or d_1 or d_2


def test_parity_cnf():
    f = gen_parity(3, "cnf")
    assert len(f.clauses) == 4
    assert all(len(c) == 3 for c in f.clauses)
    assert set(prime_implicates(f).clauses) == set(f.clauses)
    onset = enumerate_models(f).onset
    assert set(onset.tolist()) == {w for w in range(8) if bin(w).count("1") % 2 == 1}


def test_parity_encoding():
    for n in (2, 3, 4):
        enc = gen_parity(n, "encoding")
        assert len(enc.formula.clauses) == 4 * (n - 1) + 1
        assert len(enc.aux_vars) == n - 1
        assert is_encoding_of(enc, enumerate_models(gen_parity(n, "cnf")))


def test_size_formulas_across_the_parameter_range():
    for m in range(3, 11):
        assert len(gen_psi_horn(m).clauses) == 2 * m
        assert gen_psi_horn(m).num_vars == 3 * m + 1
        assert len(gen_psi_horn_pc(m).clauses) == 2 ** (m - 1) + 2 * m - 1
    for m in range(2, 11):
        assert len(gen_gamma(m, "base").clauses) == 3 * m + 1
        assert len(gen_gamma(m, "prime").clauses) == 4 * m + 1
        assert len(gen_gamma(m, "dprime").clauses) == 3 * m + 2 ** (m - 1)
    for n in range(2, 11):
        formula, blockers = gen_psi_qhorn(n)
        assert len(formula.clauses) == 4 * n and formula.num_vars == 3 * n
        assert len(blockers) == 2 ** n
        assert len(gen_psi_qhorn_pc(n).formula.clauses) == 4 * n + 1
        assert len(gen_parity(n, "cnf").clauses) == 2 ** (n - 1)
        assert len(gen_parity(n, "encoding").formula.clauses) == 4 * (n - 1) + 1


def test_generators_are_deterministic():
    pairs = [
        (gen_psi_horn(4), gen_psi_horn(4)),
        (gen_gamma(3, "dprime"), gen_gamma(3, "dprime")),
        (gen_parity(4, "cnf"), gen_parity(4, "cnf")),
    ]
    for left, right in pairs:
        assert left == right
        assert write_dimacs(left) == write_dimacs(right)


def test_generate_registry():
    direct = {
        "psi_horn": gen_psi_horn(3),
        "psi_horn_pc": gen_psi_horn_pc(3),
        "psi_qhorn": gen_psi_qhorn(3)[0],
        "psi_qhorn_pc": gen_psi_qhorn_pc(3),
        "gamma": gen_gamma(3, "base"),
        "gamma_prime": gen_gamma(3, "prime"),
        "gamma_dprime": gen_gamma(3, "dprime"),
        "parity_cnf": gen_parity(3, "cnf"),
        "parity_enc": gen_parity(3, "encoding"),
    }
    assert {name: generate(name, 3) for name in GENERATORS} == direct
    assert FAMILY_NAMES == (*GENERATORS, "cycle_ext")
    with pytest.raises(ValueError):
        generate("nonsense", 3)


def test_companions():
    data = companions("psi_qhorn", 2)
    assert len(data["u_bar"]) == 4
    data = companions("gamma_dprime", 3)
    assert data["even_subsets"] == [[1, 2], [1, 3], [2, 3]]
    assert companions("parity_cnf", 3) is None
