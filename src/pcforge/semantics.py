"""Exact desk-scale semantic engine.

Model enumeration, entailment, semantic closure, equivalence, the
encoding check, and prime implicates.  Everything here is exponential by
design; limits make the operations fail closed instead of approximating.

Models of a formula are cached as sorted, read-only numpy uint64 arrays of
assignment words (bit v-1 of a word holds the value of variable v), so
repeated queries against the same formula are cheap.  The array is grown
one variable at a time: the models over variables 1..v are the models over
1..v-1, each with variable v false and then true, filtered by the clauses
whose highest variable is v.  The cost follows those prefix model counts,
not 2**n.  That growth is also the one model limit: a step that would
make the array longer than MODEL_WORDS words raises LimitError before it
allocates, so a formula over many variables answers exactly when its
prefix model counts stay small.  Every pass over a model array, in the
growth and in the queries alike (the walk's tables excepted), goes block
by block (_BLOCK words): a step streams its candidate words (_candidates)
and keeps the 1-byte mask of those its clauses let through (_keep), so it
holds the array it grows from, the one it grows to at its exact size,
those masks and a few blocks: nothing else the size of an array.  The
table returned by enumerate_models holds that cached array itself as its
onset; no copy is made.  An array is cached for as long as its formula
lives (cnf.formula_cache) and freed with it.

Prime-implicate clauses and the walk's closures are literal vectors
(cnf.literal_vector), the model words of the dual-rail translation.
Prime implicates come from queue-driven consensus with subsumption, the
clauses indexed by per-literal occurrence bitsets, so no scan is made.

The assignment walk pairs each partial assignment with the literal vectors
of its propagation closure and of its semantic closure.  It carries the
models that extend an assignment as a Python-int bitset over the indices
of the cached model array, so a step is one int AND and one XOR.  Its
propagation steps are start and extend of the formula's engine (_engine);
of a node (vector, val, counts) the walk reads only the literal vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Iterator

import numpy as np

from .cnf import (Clause, CnfFormula, EncodingFormula, Literal, PartialAssignment, clause_sort_key, formula_cache,
                  literal_vector, literal_vector_unchecked, make_assignment, make_clause, vector_literals)
from .errors import LimitError, PreconditionError
from .propagation import _engine

MODEL_WORDS = 1 << 24  # the longest model array _model_words builds: 128 MiB of uint64
_BLOCK = 1 << 15  # words per block of a pass over a model array: 256 KiB of uint64
PRIME_CLAUSES = 200_000  # the most clauses prime_implicates admits to its queue


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """A boolean function given extensionally by its onset.

    Bit j of an onset word is the value of input_vars[j].  The onset may be
    given as any iterable of ints; it is kept as a sorted, duplicate-free,
    read-only numpy uint64 array, and a word outside 0..2**arity-1 (or one
    that does not fit 64 bits) raises ValueError.  An array already in that
    form, such as the cached model array enumerate_models passes, is checked
    block by block, each block overlapping the next by one word, and kept
    without a copy.  Tables are equal when their input variables and onset
    words are.
    """

    input_vars: tuple[int, ...]
    onset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "onset", _onset_array(self.onset, self.arity))

    @property
    def arity(self) -> int:
        return len(self.input_vars)

    def __eq__(self, other):
        if not isinstance(other, FunctionTable):
            return NotImplemented
        return self.input_vars == other.input_vars and bool(np.array_equal(self.onset, other.onset))

    def __hash__(self) -> int:
        return hash((self.input_vars, self.onset.tobytes()))


def _onset_array(words: Iterable[int], arity: int) -> np.ndarray:
    """The words as a sorted, duplicate-free, read-only uint64 array, each below 2**arity."""
    bound = 1 << min(arity, 64)
    if (isinstance(words, np.ndarray) and words.dtype == np.uint64 and words.ndim == 1 and not words.flags.writeable
            and (len(words) == 0 or int(words[-1]) < bound)
            and all(np.all(w[1:] > w[:-1]) for w in (words[i:i + _BLOCK + 1] for i in range(0, len(words), _BLOCK)))):
        return words
    ints = sorted({operator.index(w) for w in (words.tolist() if isinstance(words, np.ndarray) else words)})
    if ints and (ints[0] < 0 or ints[-1] >= bound):
        bad = ints[0] if ints[0] < 0 else ints[-1]
        raise ValueError(f"onset word {bad} outside 0..{bound - 1}")
    return _frozen(np.array(ints, dtype=np.uint64))


@formula_cache
def _model_words(formula: CnfFormula) -> np.ndarray:
    """Sorted, read-only array of satisfying assignment words of the formula.

    The array is built one variable at a time.  It starts as the one empty
    word; variable v doubles it into the half where v is false and the half
    where v is true, and each clause whose highest variable is v filters, by
    its other literals, only the half where its literal on v is false: a
    clause holding v the false half, one holding -v the true half.  The
    true half, with bit v-1 set, comes after the false half, which keeps
    the array sorted because every earlier word is below 2**(v-1).  After
    step v the array holds the models of the clauses over variables 1..v,
    so work and memory follow those model counts rather than 2**n.  A run
    of variables at which no clause ends is added in the same step
    (_grow).  LimitError is raised before a step that would make the array
    longer than MODEL_WORDS, and for a universe wider than the 64 bits of a
    word.  A universe small enough that every word meets every clause
    within one block is scanned in one pass instead: no step could reach
    the limit there.

    The array is cached while the formula lives and an equal formula
    shares it; no cache size holds dead arrays beyond their formula.
    """
    n = formula.num_vars
    if n > 64:
        raise LimitError(f"{n} variables do not fit a 64-bit model word")
    full = (1 << n) - 1
    # shortest first: they rule out the most words, so later clauses test fewer; a tautological
    # clause rules out none and would break the one-comparison test below
    vectors = sorted((vector for vector in formula.clause_vectors() if not vector & full & vector >> n),
                     key=int.bit_count)
    if 0 in vectors:  # the empty clause rules out every word
        return _frozen(np.zeros(0, dtype=np.uint64))
    if (1 << n) * max(len(vectors), 1) <= _BLOCK and 1 << n <= MODEL_WORDS:
        words = np.arange(1 << n, dtype=np.uint64)
        if vectors:
            # one broadcast of all words against all clauses, kept for the walk's tiny formulas: on the 464 of
            # benchmark seeds 1 and 5 it took 8.6 ms, a clause-by-clause _keep loop 19.0 ms (BENCH_26.json)
            both = np.array([(vector | vector >> n) & full for vector in vectors], dtype=np.uint64)
            neg = np.array([vector >> n for vector in vectors], dtype=np.uint64)
            words = words[((words[:, None] & both) != neg).all(axis=1)]
        return _frozen(words)
    # per highest variable v, the clauses holding v and those holding -v, each as the masks of its other literals
    levels: list[tuple[list, list]] = [([], []) for _ in range(n + 1)]
    for vector in vectors:
        pos, neg = vector & full, vector >> n
        top = 1 << (pos | neg).bit_length() - 1
        levels[top.bit_length()][not pos & top].append((np.uint64((pos | neg) & ~top), np.uint64(neg & ~top)))
    words = np.zeros(1, dtype=np.uint64)
    done = 0  # words holds the models over variables 1..done
    for v in range(1, n + 1):
        plus, minus = levels[v]
        if not plus and not minus and v < n:
            continue
        if len(words) << (v - done) > MODEL_WORDS:
            raise LimitError(f"more than {MODEL_WORDS} model words over variables 1..{v}")
        words = _grow(words, done, v, plus, minus)
        if not len(words):  # no model over 1..v: none over 1..n
            break
        done = v
    return _frozen(words)


def _grow(words: np.ndarray, done: int, v: int, plus: list, minus: list) -> np.ndarray:
    """One step of _model_words: the models over variables 1..v from those over 1..done.

    _candidates streams the candidate words over 1..v-1, and _keep gives a
    block's 1-byte mask of the candidates a half's clauses let through.  A
    first pass keeps the masks of each half its clauses filter; the result
    is then allocated at its exact size, and a second pass writes what the
    masks keep of each block into both halves, each at its own position:
    the false half from the start, the true half, with bit v-1 set, from
    where the false half ends.  A half no clause filters is written whole.
    """
    halves = [(clauses, np.uint64(bit), []) for clauses, bit in ((plus, 0), (minus, 1 << (v - 1)))]
    for block in _candidates(words, done, v) if plus or minus else ():
        for clauses, _, masks in halves:
            if clauses:
                masks.append(_keep(block, clauses))
    whole = len(words) << (v - 1 - done)  # the candidates of a half
    sizes = [sum(map(np.count_nonzero, masks)) if clauses else whole for clauses, _, masks in halves]
    out = np.empty(sum(sizes), dtype=np.uint64)
    at = [0, sizes[0]]
    for k, block in enumerate(_candidates(words, done, v)):
        for h, (clauses, bit, masks) in enumerate(halves):
            part = block[masks[k]] if clauses else block
            np.bitwise_or(part, bit, out=out[at[h]:at[h] + len(part)])
            at[h] += len(part)
    return out


def _candidates(words: np.ndarray, done: int, v: int) -> Iterator[np.ndarray]:
    """The candidate words over variables 1..v-1, in order, about _BLOCK at a time: views of the words when
    done = v-1, else rows of them, row r the words OR r << done (the clause-free variables done+1..v-1 set to
    r), several rows to a block while the words are shorter than one.  Every word is below 2**done, so the
    rows follow each other in order."""
    rows = 1 << (v - 1 - done)
    per = max(1, _BLOCK // len(words))  # rows per block
    for r in range(0, rows, per):
        high = np.arange(r << done, min(r + per, rows) << done, 1 << done, dtype=np.uint64)[:, None]
        for i in range(0, len(words), _BLOCK):
            yield words[i:i + _BLOCK] if rows == 1 else (high | words[i:i + _BLOCK]).ravel()


def _keep(block: np.ndarray, clauses: list) -> np.ndarray:
    """The 1-byte mask of the words of the block that every clause, as the masks (both, neg) of its
    literals, lets through: a word violates a clause when its bits under both equal neg."""
    (both, neg), *rest = clauses
    keep = (block & both) != neg
    for both, neg in rest:
        keep &= (block & both) != neg
    return keep


def _frozen(words: np.ndarray) -> np.ndarray:
    words.flags.writeable = False
    return words


def _blocks(words: np.ndarray) -> Iterator[np.ndarray]:
    """The array in consecutive views of _BLOCK words, the last one shorter."""
    return (words[i:i + _BLOCK] for i in range(0, len(words), _BLOCK))


def _select(models: np.ndarray, vector: int, n: int) -> Iterator[np.ndarray]:
    """Block by block, the model words that extend the literals of the vector; none if it holds a complementary pair."""
    pos, neg = np.uint64(vector & ((1 << n) - 1)), np.uint64(vector >> n)
    for block in _blocks(models):
        yield block[((block & pos) == pos) & ((block & neg) == 0)] if vector else block


def enumerate_models(formula: CnfFormula) -> FunctionTable:
    """Exact onset of the formula over its full universe; the onset is the cached model array itself."""
    return FunctionTable(tuple(formula.variables), _model_words(formula))


def satisfiable(formula: CnfFormula) -> bool:
    return len(_model_words(formula)) > 0


def entails(formula: CnfFormula, clause: Clause) -> bool:
    """True iff every model of the formula satisfies the clause: no model extends its negation."""
    n = formula.num_vars
    clause = make_clause(clause)
    for lit in clause:
        if abs(lit) > n:
            raise PreconditionError(f"clause variable {abs(lit)} outside universe")
    # the blocks are made one at a time: the first counter-model ends the search
    counter = literal_vector_unchecked([-lit for lit in clause], n)
    return not any(len(words) for words in _select(_model_words(formula), counter, n))


def cl_sem(formula: CnfFormula, alpha: PartialAssignment) -> frozenset[Literal]:
    """Semantic closure: all literals entailed by the formula plus alpha.

    Equals the full literal set exactly when the formula plus alpha is
    unsatisfiable.  A literal outside the universe raises ValueError.
    """
    n = formula.num_vars
    vector = literal_vector(make_assignment(alpha), n)
    # the models of a union agree on the literals each part agrees on, and a part without models on all
    closure = (1 << 2 * n) - 1
    for words in _select(_model_words(formula), vector, n):
        closure &= closure_vector(words, n)
    return frozenset(vector_literals(closure, n))


def closure_vector(models: np.ndarray, n: int) -> int:
    """The literal vector of the literals every model agrees on: all 2n bits when there is no model."""
    full = (1 << n) - 1
    if len(models) == 0:
        return full | full << n
    return int(np.bitwise_and.reduce(models)) | (full & ~int(np.bitwise_or.reduce(models))) << n


def assignment_walk(formula: CnfFormula) -> Iterator[tuple[int, int, int]]:
    """Every partial assignment whose unit propagation does not conflict.

    Yields (alpha, up, sem), three literal vectors (cnf.literal_vector): of
    alpha itself, of its unit propagation closure and of its semantic
    closure, the literals on which every model extending alpha agrees; that
    is all 2n literals, all 2n bits set, when no model extends alpha.  The
    walk is depth first over the variables, each unassigned, true or false
    in that order.  A child extends its parent's propagation node
    (UnitPropagator.extend) and ORs its literal's vector into alpha; below a
    conflict every assignment conflicts too (unit propagation is monotone),
    so the subtree is skipped.

    The models extending alpha are a Python-int bitset over the indices of
    the cached model array: bit i is set when its i-th word extends alpha.
    A step splits them with one AND against the bitset of the models where
    its variable is true, built once per walk, and one XOR.
    At a yield only the variables propagation left free are looked up,
    each with one AND.  These n tables hold n bits per model, never more
    than the model array's own 64-bit words, so the walk's footprint
    follows the model count, not 2**n.
    """
    n = formula.num_vars
    engine = _engine(formula)
    root = engine.start()
    if root is None:
        return
    words = _model_words(formula)
    trues = [int.from_bytes(np.packbits(((words >> np.uint64(v)) & np.uint64(1)) != 0, bitorder="little"), "little")
             for v in range(n)]
    # per variable v: the literal vectors of {v, -v}, {v} and {-v}, and the models where v is true
    tables = [(literal_vector((v, -v), n), literal_vector((v,), n), literal_vector((-v,), n), true)
              for v, true in enumerate(trues, 1)]
    full = (1 << 2 * n) - 1
    stack = [(1, 0, root, (1 << len(words)) - 1)]
    while stack:
        var, alpha, node, models = stack.pop()
        if var > n:
            up = node[0]
            if not models:
                yield alpha, up, full
                continue
            # propagation is sound, so every model agrees on what it derived: only the
            # variables it left free are looked up
            sem = up
            for both, true_lit, false_lit, true in tables:
                if up & both:
                    continue
                agree = models & true
                if agree == models:
                    sem |= true_lit
                elif not agree:
                    sem |= false_lit
            yield alpha, up, sem
            continue
        _, true_lit, false_lit, true = tables[var - 1]
        agree = models & true
        for lit, bit, keep in ((-var, false_lit, models ^ agree), (var, true_lit, agree)):
            child = engine.extend(node, lit)
            if child is not None:
                stack.append((var + 1, alpha | bit, child, keep))
        stack.append((var + 1, alpha, node, models))


def equivalent(f1: CnfFormula, f2: CnfFormula) -> bool:
    """Onset equality over a shared universe."""
    if f1.num_vars != f2.num_vars:
        raise PreconditionError("equivalence requires a shared universe")
    return _equal_words(_model_words(f1), _model_words(f2))


def _equal_words(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two word arrays are equal, compared block by block."""
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(_blocks(a), _blocks(b)))


def is_encoding_of(encoding: EncodingFormula, table: FunctionTable) -> bool:
    """Definition check: the existential projection onto the input variables equals the table.

    The models are projected block by block.  Each projected word is looked
    up in the sorted onset, and a mask over the onset records the words
    met: the projection equals the onset when every projected word is in
    it and every onset word was met.  The first projected word outside the
    onset ends the check.
    """
    if len(encoding.input_vars) != len(table.input_vars):
        raise PreconditionError("encoding and table have different input arity")
    models, onset = _model_words(encoding.formula), table.onset
    # input j is in place when it is variable j+1: its bit needs no move
    in_place = sum(1 << j for j, v in enumerate(encoding.input_vars) if v == j + 1)
    if not encoding.aux_vars and in_place == (1 << len(encoding.input_vars)) - 1:
        # the inputs are the whole universe in order: the models are the projection.  Kept because most
        # of the benchmark's encode verify operations compile to no auxiliary variable: without it they took
        # 54.6 against 16.1 ms per batch at seed 1, and encode wall_s rose from 0.156 to 0.205 s (BENCH_26.json)
        return _equal_words(models, onset)
    if not len(onset):
        return not len(models)
    moved = [(np.uint64(v - 1), np.uint64(j)) for j, v in enumerate(encoding.input_vars) if v != j + 1]
    met = np.zeros(len(onset), dtype=bool)
    for words in _blocks(models):
        projected = words & np.uint64(in_place)
        for at, to in moved:
            projected |= ((words >> at) & np.uint64(1)) << to
        found = np.searchsorted(onset, projected)
        np.minimum(found, len(onset) - 1, out=found)
        if not np.array_equal(onset[found], projected):
            return False
        met[found] = True
    return bool(met.all())


@lru_cache(maxsize=32)
def prime_implicates(formula: CnfFormula) -> CnfFormula:
    """All prime implicates, by iterated consensus with subsumption.

    Clauses are literal vectors (cnf.literal_vector): bit v-1 for v, bit n+v-1 for -v.
    The input clauses, shortest first, and then each new resolvent are
    admitted unless an alive clause subsumes them, and each admission kills
    the alive clauses it subsumes.  A queue takes the admitted clauses in
    turn and, while one stays alive, resolves it with each alive clause
    admitted before its turn, in admission order.

    The admitted clauses are indexed by one occurrence bitset per literal
    bit (occ[b], a Python int with bit j set when clause j holds b) and one
    alive bitset, so each test costs a bigint operation per literal bit the
    input clauses hold (no resolvent holds another), not a scan:

    - cand is subsumed iff alive & ~OR(occ[b] for b not in cand) != 0;
    - cand subsumes the clauses alive & AND(occ[b] for b in cand);
    - ci resolves, without a tautology, with the alive clauses that hold
      the complement of exactly one of its literals, read off
      OR(occ[complement of b] for b in ci) and its pairwise overlaps.

    PRIME_CLAUSES bounds the number of clauses admitted to the queue, input
    clauses and clauses later subsumed included: LimitError is raised when
    the admission of a resolvent takes that number past it.

    For an unsatisfiable formula the result is exactly the empty clause.
    Tautological input clauses are ignored (they are never prime).  Output
    clauses are sorted by clause_sort_key.

    Unlike the model arrays, the results are kept for the 32 most recent
    formulas (lru_cache), not for the formula's lifetime: callers that parse
    each input afresh, such as a worker reading one DIMACS text per
    operation, reuse the primes of an equal formula after its first object
    has died.
    """
    n = formula.num_vars
    lo_mask = (1 << n) - 1
    items: list[int] = []
    occ = [0] * (2 * n)  # occ[b]: the admitted clauses holding literal bit b
    alive = 0

    def add(cand: int) -> bool:
        nonlocal alive
        outside = 0
        for b in used:
            if not cand >> b & 1:
                outside |= occ[b]
        if alive & ~outside:
            return False
        subsumed = alive
        new = 1 << len(items)
        for b in _mask_bits(cand):
            subsumed &= occ[b]
            occ[b] |= new
        alive = (alive & ~subsumed) | new
        items.append(cand)
        return True

    # as in _model_words: a tautological clause is never prime, and the empty clause is the one prime
    seeds = sorted((vector for vector in formula.clause_vectors() if not vector & lo_mask & vector >> n),
                   key=int.bit_count)
    if 0 in seeds:
        return CnfFormula(((),), n)
    used = _mask_bits(reduce(operator.or_, seeds, 0))  # the literal bits of the input: no resolvent holds another
    queue: list[int] = []
    for mask in seeds:
        if add(mask):
            queue.append(len(items) - 1)

    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        me = 1 << i
        if not alive & me:
            continue
        ci = items[i]
        once = twice = 0  # the clauses clashing with ci on at least one, two literals
        for b in _mask_bits(ci):
            other = occ[b + n if b < n else b - n]
            twice |= once & other
            once |= other
        # fixed here: later admissions wait for their own turn; a resolvent of ci that killed a partner cj would
        # hold cj's clash literal, so come from a partner ck ⊆ cj, and add keeps no two such clauses alive
        partners = once & ~twice & alive
        while partners and alive & me:
            low = partners & -partners
            partners ^= low
            cj = items[low.bit_length() - 1]
            clash = ((ci & lo_mask) & (cj >> n)) | ((cj & lo_mask) & (ci >> n))
            resolvent = (ci | cj) & ~(clash | clash << n)
            if resolvent == 0:
                return CnfFormula(((),), n)
            if add(resolvent):
                queue.append(len(items) - 1)
                if len(queue) > PRIME_CLAUSES:
                    raise LimitError(f"prime implicates: more than PRIME_CLAUSES = {PRIME_CLAUSES} clauses admitted")
    primes = [tuple(vector_literals(items[j], n)) for j in _mask_bits(alive)]
    primes.sort(key=clause_sort_key)
    return CnfFormula(tuple(primes), n)


def _mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
