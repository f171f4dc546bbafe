"""Exact desk-scale semantic engine.

Model enumeration, entailment, semantic closure, equivalence, the
encoding check, and prime implicates.  Everything here is exponential in
the number of variables by design; limits make the operations fail closed
instead of approximating.

Models of a formula are cached as sorted numpy arrays of assignment words
(bit v-1 of a word holds the value of variable v), so repeated queries
against the same formula are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .cnf import (Clause, CnfFormula, EncodingFormula, Literal, PartialAssignment, is_tautological, literal_masks,
                  make_assignment, make_clause, mask_literals)
from .errors import LimitError, PreconditionError
from .propagation import UnitPropagator

MODEL_LIMIT = 24
_CHUNK = 1 << 20


@dataclass(frozen=True)
class FunctionTable:
    """A boolean function given extensionally by its onset.

    Bit j of an onset word is the value of input_vars[j].
    """

    input_vars: tuple[int, ...]
    onset: frozenset[int]

    @property
    def arity(self) -> int:
        return len(self.input_vars)


def _check_limit(formula: CnfFormula, limit: int):
    if formula.num_vars > limit:
        raise LimitError(f"{formula.num_vars} variables exceed the enumeration limit {limit}")


@lru_cache(maxsize=64)
def _model_words(formula: CnfFormula) -> np.ndarray:
    """Sorted array of satisfying assignment words of the formula."""
    n = formula.num_vars
    # shortest clauses first: they rule out the most words, so later clauses test fewer;
    # a tautological clause rules out none and would break the one-comparison test below
    masks = [(pos, neg) for pos, neg in map(literal_masks, sorted(formula.clauses, key=len)) if not pos & neg]
    total = 1 << n
    chunks = []
    for start in range(0, total, _CHUNK):
        words = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        for pos, neg in masks:
            # a word violates the clause when its positive variables are 0 and its negative ones 1
            words = words[(words & np.uint64(pos | neg)) != np.uint64(neg)]
        chunks.append(words)
    out = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint64)
    out.flags.writeable = False
    return out


def _select(models: np.ndarray, alpha: PartialAssignment) -> np.ndarray:
    pos, neg = literal_masks(alpha)
    pos64, neg64 = np.uint64(pos), np.uint64(neg)
    return models[((models & pos64) == pos64) & ((models & neg64) == 0)]


def enumerate_models(formula: CnfFormula, limit: int = MODEL_LIMIT) -> FunctionTable:
    """Exact onset of the formula over its full universe."""
    _check_limit(formula, limit)
    words = _model_words(formula)
    return FunctionTable(tuple(formula.variables), frozenset(words.tolist()))


def satisfiable(formula: CnfFormula, limit: int = MODEL_LIMIT) -> bool:
    _check_limit(formula, limit)
    return len(_model_words(formula)) > 0


def entails(formula: CnfFormula, clause: Clause, limit: int = MODEL_LIMIT) -> bool:
    """True iff every model of the formula satisfies the clause."""
    clause = make_clause(clause)
    for lit in clause:
        if abs(lit) > formula.num_vars:
            raise PreconditionError(f"clause variable {abs(lit)} outside universe")
    _check_limit(formula, limit)
    models = _model_words(formula)
    pos, neg = literal_masks(clause)
    pos64, neg64 = np.uint64(pos), np.uint64(neg)
    violating = ((models & pos64) == 0) & ((models & neg64) == neg64)
    return not bool(violating.any())


def cl_sem(formula: CnfFormula, alpha: PartialAssignment, limit: int = MODEL_LIMIT) -> frozenset[Literal]:
    """Semantic closure: all literals entailed by the formula plus alpha.

    Equals the full literal set exactly when the formula plus alpha is
    unsatisfiable.
    """
    alpha = make_assignment(alpha)
    for lit in alpha:
        if abs(lit) > formula.num_vars:
            raise ValueError(f"assigned variable {abs(lit)} outside universe")
    _check_limit(formula, limit)
    return frozenset(mask_literals(*closure_masks(_select(_model_words(formula), alpha), formula.num_vars)))


def closure_masks(models: np.ndarray, num_vars: int) -> tuple[int, int]:
    """Masks (pos, neg) of the literals every model agrees on: all 2n literals when there is no model."""
    full = (1 << num_vars) - 1
    if len(models) == 0:
        return full, full
    return int(np.bitwise_and.reduce(models)), full & ~int(np.bitwise_or.reduce(models))


def assignment_walk(formula: CnfFormula) -> Iterator[tuple[PartialAssignment, tuple[int, int], np.ndarray]]:
    """Every partial assignment whose unit propagation does not conflict.

    Yields (alpha, (pos, neg), models): the literal masks of alpha's unit
    propagation closure and the models of the formula that extend alpha.
    The walk is depth first over the variables, each unassigned, true or
    false in that order.  A child extends its parent's propagation state
    and model array by one literal; below a conflict every assignment
    conflicts too (unit propagation is monotone), so the subtree is skipped.
    """
    n = formula.num_vars
    engine = UnitPropagator(formula)
    if engine.empty is not None:
        return
    node = ([0] * (n + 1), engine.lengths.copy(), [False] * len(formula.clauses), 0, 0)
    for lit in engine.units:
        node = _extend(engine, node, lit)
        if node is None:
            return
    stack = [(1, frozenset(), node, _model_words(formula))]
    while stack:
        var, alpha, node, models = stack.pop()
        if var > n:
            yield alpha, node[3:], models
            continue
        true = (models & np.uint64(1 << (var - 1))) != 0
        for lit, keep in ((-var, ~true), (var, true)):
            child = _extend(engine, node, lit)
            if child is not None:
                stack.append((var + 1, alpha | {lit}, child, models if child is node else models[keep]))
        stack.append((var + 1, alpha, node, models))


def _extend(engine: UnitPropagator, node: tuple, lit: Literal) -> tuple | None:
    """The walk node (val, counts, sat, pos, neg) after assuming lit, or None on conflict."""
    val, counts, sat, pos, neg = node
    state = val[abs(lit)]
    if state:  # already derived: nothing changes; its complement: a conflict
        return node if state == (1 if lit > 0 else -1) else None
    val, counts, sat = val.copy(), counts.copy(), sat.copy()
    val[abs(lit)] = 1 if lit > 0 else -1
    trail = [lit]
    if engine._propagate(val, counts, sat, trail) is not None:
        return None
    new_pos, new_neg = literal_masks(trail)
    return val, counts, sat, pos | new_pos, neg | new_neg


def equivalent(f1: CnfFormula, f2: CnfFormula, limit: int = MODEL_LIMIT) -> bool:
    """Onset equality over a shared universe."""
    if f1.num_vars != f2.num_vars:
        raise PreconditionError("equivalence requires a shared universe")
    _check_limit(f1, limit)
    return bool(np.array_equal(_model_words(f1), _model_words(f2)))


def is_encoding_of(encoding: EncodingFormula, table: FunctionTable, limit: int = MODEL_LIMIT) -> bool:
    """Definition check: the existential projection onto the input variables equals the table."""
    if len(encoding.input_vars) != len(table.input_vars):
        raise PreconditionError("encoding and table have different input arity")
    _check_limit(encoding.formula, limit)
    models = _model_words(encoding.formula)
    projected = np.zeros(len(models), dtype=np.uint64)
    for j, v in enumerate(encoding.input_vars):
        projected |= ((models >> np.uint64(v - 1)) & np.uint64(1)) << np.uint64(j)
    projected.sort()
    distinct = np.ones(len(projected), dtype=bool)
    np.not_equal(projected[1:], projected[:-1], out=distinct[1:])
    projected = projected[distinct]
    onset = table.onset
    if len(onset) != len(projected):
        return False
    try:
        expected = np.fromiter(onset, dtype=np.uint64, count=len(onset))
    except OverflowError:
        return False  # a negative word, or one of 64 bits or more, is never a projection
    # distinct ints stay distinct as uint64; a word of 2**arity or more matches no projection
    return bool(np.array_equal(projected, np.sort(expected)))


def _mask_to_clause(mask: int, n: int) -> Clause:
    return tuple(mask_literals(mask & ((1 << n) - 1), mask >> n))


def clause_sort_key(clause: Clause):
    """Deterministic clause order: by size, then (variable, polarity) tuples."""
    return (len(clause), tuple((abs(lit), lit < 0) for lit in clause))


@lru_cache(maxsize=32)
def prime_implicates(formula: CnfFormula, max_clauses: int = 200_000) -> CnfFormula:
    """All prime implicates, by iterated consensus with subsumption.

    For an unsatisfiable formula the result is exactly the empty clause.
    Tautological input clauses are ignored (they are never prime).  Output
    clauses are sorted by clause_sort_key.
    """
    n = formula.num_vars
    lo_mask = (1 << n) - 1
    items: list[int] = []
    alive: list[bool] = []

    def add(cand: int) -> bool:
        for j in range(len(items)):
            if alive[j] and items[j] & ~cand == 0:
                return False
        for j in range(len(items)):
            if alive[j] and cand & ~items[j] == 0:
                alive[j] = False
        items.append(cand)
        alive.append(True)
        return True

    seeds = []
    for clause in formula.clauses:
        if is_tautological(clause):
            continue
        if not clause:
            return CnfFormula(((),), n)
        pos, neg = literal_masks(clause)
        seeds.append(pos | neg << n)
    seeds.sort(key=lambda m: m.bit_count())
    queue: list[int] = []
    for mask in seeds:
        if add(mask):
            queue.append(len(items) - 1)

    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        if not alive[i]:
            continue
        ci = items[i]
        for j in range(len(items)):
            if not alive[j] or j == i or not alive[i]:
                continue
            cj = items[j]
            clash = ((ci & lo_mask) & (cj >> n)) | ((cj & lo_mask) & (ci >> n))
            if clash == 0 or clash & (clash - 1):
                continue  # not resolvable, or a tautological resolvent
            pivot_bits = clash | (clash << n)
            resolvent = (ci | cj) & ~pivot_bits
            if resolvent == 0:
                return CnfFormula(((),), n)
            if add(resolvent):
                queue.append(len(items) - 1)
                if len(queue) > max_clauses:
                    raise LimitError("prime implicate computation exceeded the size limit")
    primes = [_mask_to_clause(m, n) for m, ok in zip(items, alive) if ok]
    primes.sort(key=clause_sort_key)
    return CnfFormula(tuple(primes), n)
