"""Seeded random corpora for the cross-oracle and compiler test matrices.

All generators are deterministic in the seed: the same seed yields the
same formula sequence, including resampling decisions.
"""

from __future__ import annotations

import random

from .cnf import CnfFormula
from .qhorn import Valuation, normalize, phi_q_plus, recognize_qhorn
from .semantics import satisfiable


def random_formula(rng: random.Random, max_vars: int = 6, max_clauses: int = 10) -> CnfFormula:
    """A random duplicate-free CNF without tautological clauses."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return CnfFormula.from_clauses(clauses, n)


def satisfiable_formulas(seed: int, count: int, max_vars: int = 6) -> list[CnfFormula]:
    """Random satisfiable formulas of up to 10 clauses; unsatisfiable draws are discarded."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        formula = random_formula(rng, max_vars)
        if satisfiable(formula):
            out.append(formula)
    return out


def horn_formulas(seed: int, count: int, max_vars: int = 8) -> list[CnfFormula]:
    """Random Horn formulas of up to 10 clauses (at most one positive literal per clause)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_vars)
        m = rng.randint(1, 10)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(4, n))
            variables = rng.sample(range(1, n + 1), width)
            positive = rng.randrange(width + 1)  # index `width` means all-negative
            clauses.append([v if i == positive else -v for i, v in enumerate(variables)])
        out.append(CnfFormula.from_clauses(clauses, n))
    return out


def _random_qhorn_once(rng: random.Random, max_vars: int, max_half: int, max_clauses: int) -> tuple[CnfFormula, Valuation]:
    """One q-Horn formula built from a planted valuation.

    Clause shapes respect the weight budget: either up to two half-weight
    literals, or one weight-1 literal, plus any number of weight-0
    literals (negations of weight-1 variables or positives of weight-0
    variables).
    """
    n = rng.randint(2, max_vars)
    half_count = min(n, rng.choice((0, 1, 2, 2, 3, 3)), max_half)
    variables = list(range(1, n + 1))
    rng.shuffle(variables)
    half = variables[:half_count]
    integral = variables[half_count:]
    doubled = [0] * n
    for v in half:
        doubled[v - 1] = 1
    for v in integral:
        doubled[v - 1] = rng.choice((0, 2))
    valuation = Valuation(tuple(doubled))

    def zero_literal(v: int) -> int:
        return -v if doubled[v - 1] == 2 else v

    def one_literal(v: int) -> int:
        return v if doubled[v - 1] == 2 else -v

    m = rng.randint(2, max_clauses)
    clauses = []
    for _ in range(m):
        half_width = rng.choice((0, 1, 2, 2, 2)) if half else 0
        half_width = min(half_width, len(half))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(half, half_width)]
        budget_left = half_width == 0
        pool = list(integral)
        rng.shuffle(pool)
        extras = rng.randint(0 if lits else 1, 3)
        for v in pool[:extras]:
            if budget_left and rng.random() < 0.4:
                lits.append(one_literal(v))
                budget_left = False
            else:
                lits.append(zero_literal(v))
        if not lits:
            continue
        clauses.append(lits)
    if not clauses:
        clauses.append([zero_literal(integral[0])] if integral else [half[0]])
    return CnfFormula.from_clauses(clauses, n), valuation


def qhorn_formulas(seed: int, count: int, max_vars: int = 8, max_half: int = 3,
                   max_clauses: int = 10, max_aux: int = 16) -> list[tuple[CnfFormula, Valuation]]:
    """Random q-Horn formulas with planted valuations.

    Instances whose binary resolution closure would exceed ``max_aux``
    auxiliary variables are resampled so the exact URC check on the
    compiled encoding stays desk-scale.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        formula, valuation = _random_qhorn_once(rng, max_vars, max_half, max_clauses)
        assert valuation.witnesses(formula)
        closure = phi_q_plus(normalize(formula, valuation))
        if len(closure.clauses) > max_aux:
            continue
        recognized = recognize_qhorn(formula)
        if recognized is None:
            raise AssertionError("planted q-Horn formula not recognized")
        if len(phi_q_plus(normalize(formula, recognized)).clauses) > max_aux:
            continue
        out.append((formula, valuation))
    return out
