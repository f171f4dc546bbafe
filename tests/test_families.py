import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pcforge import semantics
from pcforge.cnf import CnfFormula, make_clause, write_dimacs
from pcforge.deciders import is_pc, is_urc
from pcforge.errors import LimitError, UnsatisfiableError
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

from oracles import literal_objects, primes_brute


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


def test_parity_cnf_shares_literal_objects():
    # 2^11 clauses of 12 literals: each literal value is one int object
    f = gen_parity(12, "cnf")
    assert literal_objects(f) == (24, 24)


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


def _family_outputs(family):
    """The DIMACS (or, for companions, the JSON) of one family at every valid parameter up to 10."""
    if family in GENERATORS:
        low = 3 if family.startswith("psi_horn") else 2
        return [write_dimacs(GENERATORS[family](p)) for p in range(low, 11)]
    if family == "psi_horn_base":
        return [write_dimacs(psi_horn_base(m)) for m in range(3, 11)]
    if family == "psi_horn_base_primes":
        return [write_dimacs(CnfFormula.from_clauses(psi_horn_base_primes(m), 3 * m + 1)) for m in range(3, 11)]
    if family == "cycle_ext":
        return [write_dimacs(gen_cycle_extension(psi_horn_base(m))) for m in range(3, 7)]
    if family == "psi_qhorn_blockers":
        return [write_dimacs(CnfFormula.from_clauses(gen_psi_qhorn(n)[1], 3 * n)) for n in range(2, 11)]
    name = family.removesuffix("_companions")
    return [json.dumps(companions(name, p), sort_keys=True) for p in range(2, 11)]


# sha256 over the concatenated outputs of each family, taken before the generators were rewritten
FAMILY_OUTPUT_DIGESTS = {
    "psi_horn": "6e93800a96da4c9ad94798ffc69df24c19d7f0b5a4de4029b3f749e93d3fd3a4",
    "psi_horn_pc": "972d5ac3ce13c6e64953fcacefff6536c0ae8d3e38663e37984e69422704ca4e",
    "psi_qhorn": "7957159b1b861d533ec6e7ad1cd697044f44cfb138d8ac99a558ac4758364a31",
    "psi_qhorn_pc": "8368974cf48ef0f3c72dde97f0ccc0598eae360d6cea88cb9cca6adf19cc6c1a",
    "gamma": "9248f90929839ca25d500007bf3faea6a4496cbe25e2aaedf8d28dc057876af2",
    "gamma_prime": "eee201ebba1318d3639d65c1401ba4dec6d8f7df556ab07b9de3f63a94a6fb1d",
    "gamma_dprime": "ca9c476863b4520fa3f19e8d260eaf65407feb0889091ee184cab341dae5d6c7",
    "parity_cnf": "2ae64577c843b729ed9d5c428413c9e6f677fce73c2431aef13bf7bc4debae4c",
    "parity_enc": "9e5810f5ed738d168ceb54ba472e2185acb3cdc81e8a6d2e76d31bdc2eba62dc",
    "psi_horn_base": "f871d4e5613d188b7d6c7724dcba202d680797fd498cd6178e942524f4a66819",
    "psi_horn_base_primes": "d87c8e8a615c74d71a7e972f49d1980058c773bbee44aae8a4e6caaea0fd6804",
    "cycle_ext": "713ea5f61139479d8c04b13359286091df53a8e0750fc3a314be3a17bffa9852",
    "psi_qhorn_blockers": "f95a722db77b5e8b1c1edc0a3eca88e889417cc6643e8ccf60ac8d2d9323eb07",
    "psi_qhorn_companions": "2655f2721e88260e5574045d3184ce3965653d6a04f9910f16206dfa312328cb",
    "gamma_dprime_companions": "b8f554bc43f2e432c8a27e878a4186a1f63fe18c91c0ea27d5483ecba19b9828",
}


@pytest.mark.parametrize("family", sorted(FAMILY_OUTPUT_DIGESTS))
def test_family_output_bytes_are_pinned(family):
    digest = hashlib.sha256("".join(_family_outputs(family)).encode()).hexdigest()
    assert digest == FAMILY_OUTPUT_DIGESTS[family]


@pytest.mark.parametrize("call,message", [
    (lambda: gen_psi_qhorn_pc(1), "psi_qhorn_pc requires n >= 2"),
    (lambda: gen_parity(1), "parity requires n >= 2"),
    (lambda: gen_parity(3, "x"), "unknown parity mode 'x'"),
])
def test_generators_reject_bad_parameters(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_psi_horn_base_primes_requires_the_base_range():
    with pytest.raises(ValueError, match="psi_horn requires m >= 3"):
        psi_horn_base_primes(2)


def _builders(parameter):
    """Every family builder and both companion builders, at one parameter."""
    calls = {name: (lambda build=build: build(parameter)) for name, build in GENERATORS.items()}
    calls["psi_horn_base"] = lambda: psi_horn_base(parameter)
    calls["psi_horn_base_primes"] = lambda: psi_horn_base_primes(parameter)
    calls["gamma_even_subsets"] = lambda: gamma_even_subsets(parameter)
    calls["gen_psi_qhorn"] = lambda: gen_psi_qhorn(parameter)
    for name in ("psi_qhorn", "gamma_dprime"):
        calls[f"{name} companions"] = lambda name=name: companions(name, parameter)
    return calls


def _size(result):
    """The clause count a builder's bound is taken on."""
    if isinstance(result, tuple) and isinstance(result[0], CnfFormula):
        return len(result[1])  # gen_psi_qhorn: the blockers outnumber the formula
    if isinstance(result, dict):
        return len(next(iter(result.values())))
    return len(getattr(result, "formula", result))


@pytest.mark.parametrize("parameter", [4, 5, 8])  # from n = 4 on, psi_qhorn has at least as many blockers as clauses
def test_family_bound_is_each_builders_exact_clause_count(parameter, monkeypatch):
    base = psi_horn_base(parameter)
    calls = _builders(parameter)
    calls["cycle_ext"] = lambda: gen_cycle_extension(base)
    for name, call in calls.items():
        size = _size(call())
        monkeypatch.setattr(semantics, "PRIME_CLAUSES", size)
        assert _size(call()) == size, name
        monkeypatch.setattr(semantics, "PRIME_CLAUSES", size - 1)
        with pytest.raises(LimitError, match="more than PRIME_CLAUSES"):
            call()
        monkeypatch.undo()


def test_family_bound_fails_closed_before_building(monkeypatch):
    # parameter 18 asks for up to 2^17 clauses: a builder that lost its bound shows in the peak
    base = psi_horn_base(18)
    monkeypatch.setattr(semantics, "PRIME_CLAUSES", 16)
    calls = _builders(18)
    calls["cycle_ext"] = lambda: gen_cycle_extension(base)
    for name, call in calls.items():
        tracemalloc.start()
        try:
            with pytest.raises(LimitError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, name


HUGE_PARAMETER_SCRIPT = """
import time
import tracemalloc
from pcforge.errors import LimitError
from test_families import _builders
for name, call in _builders(10**9).items():
    started = time.perf_counter()
    tracemalloc.start()
    try:
        call()
    except LimitError:
        assert tracemalloc.get_traced_memory()[1] < 1 << 20, name
        assert time.perf_counter() - started < 1, name
    else:
        raise SystemExit(name + " built")
    finally:
        tracemalloc.stop()
"""


def test_family_bound_at_a_huge_parameter():
    # in a child capped at 2 GiB of address space, so a builder that lost its bound fails there
    # with MemoryError instead of exhausting the host; 1 << 10**9 alone would be 125 MB
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    # no OPENBLAS_NUM_THREADS set here: the child loads numpy on pcforge's own one-thread default
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent)])}
    result = subprocess.run([sys.executable, "-c", HUGE_PARAMETER_SCRIPT], env=env, preexec_fn=cap,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_family_bound_at_the_default_prime_clauses():
    assert len(generate("psi_qhorn", 30).clauses) == 120
    with pytest.raises(LimitError):
        companions("psi_qhorn", 30)
    assert len(generate("parity_cnf", 18).clauses) == 131_072
    with pytest.raises(LimitError):
        generate("parity_cnf", 19)
