"""The acceptance matrix: eleven exact criteria over families and seeded corpora.

Each criterion returns a result with a pass flag and a short detail string;
the pytest acceptance module and the ``pcforge suite`` subcommand both run
these.  Tolerances are exact; the budgets are wall-clock upper bounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import horn_formulas, qhorn_formulas, satisfiable_formulas
from .deciders import is_pc, is_urc, reduce_pc_irredundant, reduce_urc_irredundant
from .dual_rail import assignment_vector, closed_assignments, dual_rail, pc_via_dual_rail
from .families import (
    gamma_blocking_clause,
    gamma_even_subsets,
    gen_gamma,
    gen_parity,
    gen_psi_horn,
    gen_psi_horn_pc,
    gen_psi_qhorn,
    gen_psi_qhorn_pc,
)
from .propagation import up_closure
from .qhorn import compile_urc_encoding, normalize, qhorn_sat, recognize_qhorn
from .semantics import (_model_words, assignment_walk, cl_sem, closure_masks, enumerate_models, equivalent, is_encoding_of,
                        prime_implicates, satisfiable)

SAT_CORPUS_SEED = 1001
FUNCTION_CORPUS_SEED = 1002
QHORN_CORPUS_SEED = 1003
HORN_CORPUS_SEED = 1004

SAT_CORPUS_SIZE = 500
FUNCTION_CORPUS_SIZE = 120
QHORN_CORPUS_SIZE = 200
HORN_CORPUS_SIZE = 120


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    seconds: float
    budget: float
    detail: str

    @property
    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} criterion {self.number:2d} [{self.seconds:7.2f}s / {self.budget:.0f}s] {self.title}: {self.detail}"


def criterion_1() -> tuple[bool, str]:
    """Prime implicate counts of the Horn cycle family."""
    counts = []
    ok = True
    for m in (3, 4, 5, 6):
        expected = m * (2 ** (m - 1) + m - 1) + m * (m - 1)
        got = len(prime_implicates(gen_psi_horn(m)).clauses)
        counts.append(f"m={m}:{got}")
        ok &= got == expected
    return ok, "counts " + ", ".join(counts) + " (expected 24, 56, 120, 252)"


def criterion_2() -> tuple[bool, str]:
    """Smallest propagation-complete representation of the Horn cycle family."""
    details = []
    ok = True
    for m in (3, 4):
        horn = gen_psi_horn(m)
        pc_form = gen_psi_horn_pc(m)
        size_ok = len(pc_form.clauses) == 2 ** (m - 1) + 2 * m - 1
        equiv_ok = equivalent(horn, pc_form)
        pc_ok = is_pc(pc_form, limit=20).verdict
        report = is_pc(horn, limit=20)
        horn_fails = not report.verdict and report.witness is not None
        witness_ok = False
        if horn_fails:
            alpha, lit = report.witness, report.literal
            implied = lit in cl_sem(horn, alpha)
            closure = up_closure(horn, alpha)
            witness_ok = implied and not closure.conflict and lit not in closure.literals
        ok &= size_ok and equiv_ok and pc_ok and horn_fails and witness_ok
        details.append(f"m={m}: size={len(pc_form.clauses)} equiv={equiv_ok} pc={pc_ok} original_refuted={witness_ok}")
    return ok, "; ".join(details)


def criterion_3() -> tuple[bool, str]:
    """The q-Horn family is recognized, non-URC with the activator witness, and its blockers are prime."""
    details = []
    ok = True
    for n in (2, 3):
        formula, blockers = gen_psi_qhorn(n)
        report = is_urc(formula, limit=16)
        expected_witness = frozenset(range(n + 1, 2 * n + 1))  # all a_i
        witness_ok = not report.verdict and report.witness == expected_witness
        primes = set(prime_implicates(formula).clauses)
        blockers_ok = len(blockers) == 2 ** n and all(clause in primes for clause in blockers)
        recognized = recognize_qhorn(formula) is not None
        ok &= witness_ok and blockers_ok and recognized
        details.append(f"n={n}: witness={'a-set' if witness_ok else report.witness} blockers_prime={blockers_ok} qhorn={recognized}")
    return ok, "; ".join(details)


def criterion_4() -> tuple[bool, str]:
    """The explicit encoding of the q-Horn family is a propagation-complete encoding."""
    details = []
    ok = True
    for n in (2, 3):
        encoding = gen_psi_qhorn_pc(n)
        source, _ = gen_psi_qhorn(n)
        enc_ok = is_encoding_of(encoding, enumerate_models(source))
        pc_ok = is_pc(encoding.formula, limit=20).verdict
        ok &= enc_ok and pc_ok
        details.append(f"n={n}: encoding={enc_ok} pc={pc_ok}")
    return ok, "; ".join(details)


def criterion_5() -> tuple[bool, str]:
    """Sizes, equivalences, and irredundance behavior of the three-way gamma family."""
    details = []
    ok = True
    for m in (2, 3, 4):
        base = gen_gamma(m, "base")
        prime = gen_gamma(m, "prime")
        dprime = gen_gamma(m, "dprime")
        sizes_ok = (len(base.clauses) == 3 * m + 1 and len(prime.clauses) == 4 * m + 1
                    and len(dprime.clauses) == 3 * m + 2 ** (m - 1))
        equiv_ok = equivalent(base, prime) and equivalent(base, dprime)
        pc_ok = is_pc(prime, limit=20).verdict
        urc_ok = is_urc(dprime, limit=20).verdict
        removal_ok = True
        for subset in gamma_even_subsets(m):
            clause = gamma_blocking_clause(m, subset)
            idx = dprime.clauses.index(clause)
            if is_urc(dprime.without(idx), limit=20).verdict:
                removal_ok = False
        reduced = reduce_urc_irredundant(dprime, limit=20)
        reduce_ok = reduced == dprime
        ok &= sizes_ok and equiv_ok and pc_ok and urc_ok and removal_ok and reduce_ok
        details.append(f"m={m}: sizes={sizes_ok} equiv={equiv_ok} pc'={pc_ok} urc''={urc_ok} "
                       f"removals_break={removal_ok} reduce_fixed={reduce_ok}")
    return ok, "; ".join(details)


def criterion_6() -> tuple[bool, str]:
    """Dual-rail equivalence with the prime implicates agrees with the direct PC decider."""
    corpus = satisfiable_formulas(SAT_CORPUS_SEED, SAT_CORPUS_SIZE)
    disagreements = 0
    for formula in corpus:
        direct = is_pc(formula, limit=10).verdict
        via_dr = pc_via_dual_rail(formula)
        if direct != via_dr:
            disagreements += 1
    return disagreements == 0, f"{len(corpus)} formulas, {disagreements} disagreements"


def criterion_7() -> tuple[bool, str]:
    """Dual-rail models = propagation-closed assignments; semantic-closed vectors form a Horn set."""
    corpus = satisfiable_formulas(SAT_CORPUS_SEED, SAT_CORPUS_SIZE)
    bad_models = bad_conjunction = bad_characterization = 0
    for formula in corpus:
        rail = dual_rail(formula)
        dr_vectors = {int(w) for w in _model_words(rail.horn)}
        # the propagation closure contains alpha, so it is alpha when it has as many literals
        up_closed = {assignment_vector(alpha, rail.var_map) for alpha, (pos, neg), _ in assignment_walk(formula)
                     if (pos | neg).bit_count() == len(alpha)}
        if dr_vectors != up_closed:
            bad_models += 1
        closed = closed_assignments(formula)
        sem_vectors = {assignment_vector(alpha, rail.var_map) for alpha in closed}
        vectors = np.fromiter(sem_vectors, dtype=np.uint64, count=len(sem_vectors))
        if not np.isin(vectors[:, None] & vectors[None, :], vectors).all():  # closed under pairwise AND
            bad_conjunction += 1
        represents = dr_vectors == sem_vectors
        if represents != is_pc(formula, limit=10).verdict:
            bad_characterization += 1
    ok = bad_models == bad_conjunction == bad_characterization == 0
    return ok, (f"{len(corpus)} formulas; model-set mismatches={bad_models}, "
                f"non-Horn closed sets={bad_conjunction}, characterization mismatches={bad_characterization}")


def criterion_8() -> tuple[bool, str]:
    """Any two order-greedy PC-irredundant reductions have sizes within a factor n^2."""
    corpus = satisfiable_formulas(FUNCTION_CORPUS_SEED, FUNCTION_CORPUS_SIZE)
    violations = 0
    for idx, formula in enumerate(corpus):
        primes = prime_implicates(formula)
        n = max(1, formula.num_vars)
        first = reduce_pc_irredundant(primes, seed=None, limit=10)
        second = reduce_pc_irredundant(primes, seed=idx + 1, limit=10)
        a, b = max(1, len(first.clauses)), max(1, len(second.clauses))
        if a > n * n * b or b > n * n * a:
            violations += 1
    return violations == 0, f"{len(corpus)} functions, {violations} ratio violations"


def criterion_9() -> tuple[bool, str]:
    """The q-Horn compiler yields verified URC encodings; the satisfiability procedure is exact."""
    corpus = qhorn_formulas(QHORN_CORPUS_SEED, QHORN_CORPUS_SIZE)
    instances = [(formula, valuation if idx % 2 == 0 else None) for idx, (formula, valuation) in enumerate(corpus)]
    for n in (2, 3):
        formula, _ = gen_psi_qhorn(n)
        instances.append((formula, None))
    bad_encoding = bad_urc = bad_bound = bad_sat = 0
    for formula, planted in instances:
        valuation = planted if planted is not None else recognize_qhorn(formula)
        split = normalize(formula, valuation)
        encoding = compile_urc_encoding(formula, valuation=planted)
        if not is_encoding_of(encoding, enumerate_models(formula)):
            bad_encoding += 1
        if not is_urc(encoding.formula, limit=64, method="primes").verdict:
            bad_urc += 1
        if len(encoding.aux_vars) > 2 * len(split.x2) ** 2:
            bad_bound += 1
        if qhorn_sat(split) != satisfiable(formula):
            bad_sat += 1
    psi2, _ = gen_psi_qhorn(2)
    compiled = compile_urc_encoding(psi2)
    not_qhorn_ok = recognize_qhorn(compiled.formula) is None
    ok = bad_encoding == bad_urc == bad_bound == bad_sat == 0 and not_qhorn_ok
    return ok, (f"{len(instances)} instances; encoding fails={bad_encoding}, urc fails={bad_urc}, "
                f"aux-bound fails={bad_bound}, sat mismatches={bad_sat}, psi2-compile not q-Horn={not_qhorn_ok}")


def criterion_10() -> tuple[bool, str]:
    """Parity: canonical CNF is all-prime of size 2^(n-1); the chain encoding is PC."""
    details = []
    ok = True
    for n in (3, 4):
        cnf = gen_parity(n, "cnf")
        primes = prime_implicates(cnf)
        size_ok = len(cnf.clauses) == 2 ** (n - 1)
        prime_ok = set(primes.clauses) == set(cnf.clauses)
        encoding = gen_parity(n, "encoding")
        enc_ok = is_encoding_of(encoding, enumerate_models(cnf))
        pc_ok = is_pc(encoding.formula, limit=20).verdict
        ok &= size_ok and prime_ok and enc_ok and pc_ok
        details.append(f"n={n}: size={size_ok} all_prime={prime_ok} encodes={enc_ok} pc={pc_ok}")
    return ok, "; ".join(details)


def criterion_11() -> tuple[bool, str]:
    """Propagation closure is semantically sound everywhere; Horn formulas are URC."""
    corpus = satisfiable_formulas(SAT_CORPUS_SEED, SAT_CORPUS_SIZE)
    unsound = 0
    for formula in corpus:
        for _, (pos, neg), models in assignment_walk(formula):
            entailed_pos, entailed_neg = closure_masks(models, formula.num_vars)
            if pos & ~entailed_pos or neg & ~entailed_neg:
                unsound += 1
                break
    horn_corpus = horn_formulas(HORN_CORPUS_SEED, HORN_CORPUS_SIZE)
    horn_failures = sum(0 if is_urc(f, limit=10).verdict else 1 for f in horn_corpus)
    ok = unsound == 0 and horn_failures == 0
    return ok, (f"{len(corpus)} formulas closure-sound (violations={unsound}); "
                f"{len(horn_corpus)} Horn formulas URC (failures={horn_failures})")


CRITERIA: list[tuple[int, str, float, Callable[[], tuple[bool, str]]]] = [
    (1, "prime-count reproduction", 60.0, criterion_1),
    (2, "smallest-PC witness", 120.0, criterion_2),
    (3, "q-Horn non-URC family", 60.0, criterion_3),
    (4, "explicit PC encoding of the q-Horn family", 120.0, criterion_4),
    (5, "gamma family sizes and irredundance", 300.0, criterion_5),
    (6, "dual-rail cross-oracle for PC", 300.0, criterion_6),
    (7, "dual-rail model characterization", 300.0, criterion_7),
    (8, "PC-irredundant size ratio", 300.0, criterion_8),
    (9, "q-Horn URC compiler", 600.0, criterion_9),
    (10, "parity folklore", 60.0, criterion_10),
    (11, "closure soundness and Horn URC", 300.0, criterion_11),
]


def run_criterion(number: int) -> CriterionResult:
    for num, title, budget, func in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, detail = func()
            elapsed = time.perf_counter() - start
            return CriterionResult(num, title, passed, elapsed, budget, detail)
    raise ValueError(f"no criterion {number}")


def run_all(numbers=None) -> list[CriterionResult]:
    wanted = set(numbers) if numbers else {num for num, *_ in CRITERIA}
    return [run_criterion(num) for num, *_ in CRITERIA if num in wanted]
