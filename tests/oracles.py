"""Independent brute-force oracles for the test suite.

Everything here is written against the plain meaning of the definitions,
without reusing the package's engines: model sets by direct evaluation,
entailment and closures by scanning models, prime implicates by filtering
all candidate clauses, unit propagation by a quadratic fixpoint scan, and
the completeness properties by quantifying over all partial assignments.
The q-Horn encoding reference uses only the package's data model
(make_clause, CnfFormula.from_clauses).  Sizes are expected to stay small
(around 8 variables or fewer), except for the replaced engines kept as
references for the engines that replaced them: model_words_chunked, the
model enumerator that scanned all 2**n words in chunks;
model_words_doubling, the prefix enumerator whose clauses filtered the
whole doubled array at their highest variable; model_words_halves, the
prefix enumerator that filtered each whole half of the array and built a
run of clause-free variables as one full-size array, and
is_encoding_of_sorted, the encoding check that projected every model,
sorted the projection and removed its duplicates; write_dimacs_joined, the
DIMACS writer that joined the literals of each clause;
compile_urc_encoding_pairs, the q-Horn compiler that found each closure
clause's resolution partners through per-clause sets;
prime_implicates_linear_scan, the consensus procedure that scanned every
admitted clause for each subsumption test and each resolution partner;
prime_urc_per_prime, prime_pc_per_prime and reduce_urc_by_entailment, the
primes deciders that ran propagation for every prime and the URC reducer
that also asked model-based entailment of each removal;
unrefuted_per_run and unabsorbed_per_run, the decider streams that asked
each refutation and absorption question with its own propagation run, here
run on UnitPropagatorSatFlags so that they share no code with the lane
passes that replaced them;
recognize_qhorn_recursive, the recursive q-Horn weight search;
normalize_renamed, the q-Horn split that renamed the weight-0 variables so
that every variable weighed 1 or 1/2, and whose inverse renaming the
compiler applied to every literal it emitted;
assignment_walk_arrays, the partial-assignment walk that carried the models
extending each assignment as a filtered numpy array; and
UnitPropagatorSatFlags, the propagation engine that marked every clause
holding a true literal as satisfied and stopped counting it down.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from itertools import product
from pathlib import Path

import numpy as np

from collections import defaultdict
from typing import NamedTuple

from pcforge import semantics
from pcforge.cnf import CnfFormula, EncodingFormula, is_tautological, literal_key, literal_vector, make_clause
from pcforge.deciders import DecisionReport, is_urc
from pcforge.errors import LimitError, NotQHornError, PreconditionError
from pcforge.propagation import UnitPropagator, all_literals
from pcforge.qhorn import Valuation, phi_q_plus, recognize_qhorn
from pcforge.semantics import _model_words, entails, prime_implicates


def benchmark_inputs():
    """perfbench/inputs.py, the seeded generator of the benchmark workloads (standard library only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def literal_objects(formula) -> tuple[int, int]:
    """(distinct int objects, distinct values) among the literal occurrences of the formula's clauses."""
    lits = [lit for clause in formula.clauses for lit in clause]
    return len({id(lit) for lit in lits}), len(set(lits))


def eval_clause(clause, word: int) -> bool:
    for lit in clause:
        var = abs(lit)
        bit = (word >> (var - 1)) & 1
        if (lit > 0) == bool(bit):
            return True
    return False


def literal_masks(lits) -> tuple[int, int]:
    """Bitmasks (pos, neg) of a literal set: bit v-1 of pos for v, of neg for -v."""
    pos = neg = 0
    for lit in lits:
        if lit > 0:
            pos |= 1 << (lit - 1)
        else:
            neg |= 1 << (-lit - 1)
    return pos, neg


def mask_literals(pos: int, neg: int) -> list[int]:
    """The literals of the masks (pos, neg), by variable and then positive first."""
    return [lit for v in range(1, max(pos, neg).bit_length() + 1)
            for lit, mask in ((v, pos), (-v, neg)) if mask >> (v - 1) & 1]


def models_brute(formula) -> list[int]:
    n = formula.num_vars
    return [w for w in range(1 << n) if all(eval_clause(c, w) for c in formula.clauses)]


def model_words_chunked(formula) -> np.ndarray:
    """Sorted, read-only uint64 array of model words, filtering all 2**n words in chunks of 2**20."""
    n, chunk = formula.num_vars, 1 << 20
    masks = [(pos, neg) for pos, neg in map(literal_masks, sorted(formula.clauses, key=len)) if not pos & neg]
    total = 1 << n
    chunks = []
    for start in range(0, total, chunk):
        words = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        for pos, neg in masks:
            words = words[(words & np.uint64(pos | neg)) != np.uint64(neg)]
        chunks.append(words)
    out = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint64)
    out.flags.writeable = False
    return out


def model_words_doubling(formula) -> np.ndarray:
    """Sorted, read-only uint64 array of model words, grown one variable at a time.

    At variable v the array doubles (the copy with bit v-1 set after the
    rest) and every clause whose highest variable is v filters the whole
    doubled array; a run of variables at which no clause ends is added in
    one block.  It raises LimitError where semantics._model_words does,
    reading semantics.MODEL_WORDS at call time.
    """
    n = formula.num_vars
    if n > 64:
        raise LimitError(f"{n} variables do not fit a 64-bit model word")
    levels = [[] for _ in range(n + 1)]
    for vector in (literal_vector(clause, n) for clause in sorted(formula.clauses, key=len)):
        pos, neg = vector & ((1 << n) - 1), vector >> n
        if not pos & neg:
            levels[(pos | neg).bit_length()].append((np.uint64(pos | neg), np.uint64(neg)))
    words = np.zeros(1, dtype=np.uint64)
    done = 0
    for v, clauses in enumerate(levels):
        if not clauses and v < n:
            continue
        if v > done:
            if len(words) << (v - done) > semantics.MODEL_WORDS:
                raise LimitError(f"more than {semantics.MODEL_WORDS} model words over variables 1..{v}")
            high = np.arange(0, 1 << v, 1 << done, dtype=np.uint64)
            words = (high[:, None] | words).ravel()
            done = v
        for both, neg in clauses:
            words = words[(words & both) != neg]
    words.flags.writeable = False
    return words


def model_words_halves(formula) -> np.ndarray:
    """Sorted, read-only uint64 array of model words, grown one variable at a time.

    At variable v the array splits into the half where v is false and the
    half where v is true, and each clause whose highest variable is v
    filters, by its other literals, the half where its literal on v is
    false; the filtered halves are then copied into the next array.  A run
    of variables at which no clause ends is first added to the whole array
    in one block.  It raises LimitError where semantics._model_words does,
    reading semantics.MODEL_WORDS at call time.
    """
    n = formula.num_vars
    if n > 64:
        raise LimitError(f"{n} variables do not fit a 64-bit model word")
    plus: list[list] = [[] for _ in range(n + 1)]
    minus: list[list] = [[] for _ in range(n + 1)]
    # built from the clauses, not CnfFormula.clause_vectors, so that the tautology filter here is the oracle's own
    for vector in sorted((literal_vector(clause, n) for clause in formula.clauses), key=int.bit_count):
        pos, neg = vector & ((1 << n) - 1), vector >> n
        if pos & neg:
            continue
        if not vector:
            words = np.zeros(0, dtype=np.uint64)
            words.flags.writeable = False
            return words
        top = 1 << (pos | neg).bit_length() - 1
        rest = (np.uint64((pos | neg) & ~top), np.uint64(neg & ~top))
        (plus if pos & top else minus)[top.bit_length()].append(rest)
    words = np.zeros(1, dtype=np.uint64)
    done = 0
    for v in range(1, n + 1):
        if not plus[v] and not minus[v] and v < n:
            continue
        if len(words) << (v - done) > semantics.MODEL_WORDS:
            raise LimitError(f"more than {semantics.MODEL_WORDS} model words over variables 1..{v}")
        if v - 1 > done:
            high = np.arange(0, 1 << (v - 1), 1 << done, dtype=np.uint64)
            words = (high[:, None] | words).ravel()
        false = true = words
        for both, neg in plus[v]:
            false = false[(false & both) != neg]
        for both, neg in minus[v]:
            true = true[(true & both) != neg]
        words = np.empty(len(false) + len(true), dtype=np.uint64)
        words[:len(false)] = false
        np.bitwise_or(true, np.uint64(1 << (v - 1)), out=words[len(false):])
        done = v
    words.flags.writeable = False
    return words


def is_encoding_of_sorted(encoding, table) -> bool:
    """The encoding check by one projection of every model word, sorted and without duplicates, against the onset."""
    if len(encoding.input_vars) != len(table.input_vars):
        raise PreconditionError("encoding and table have different input arity")
    models = _model_words(encoding.formula)
    projected = np.zeros(len(models), dtype=np.uint64)
    for j, v in enumerate(encoding.input_vars):
        projected |= ((models >> np.uint64(v - 1)) & np.uint64(1)) << np.uint64(j)
    return bool(np.array_equal(np.unique(projected), table.onset))


def satisfiable_brute(formula) -> bool:
    return bool(models_brute(formula))


def word_matches(alpha, word: int) -> bool:
    for lit in alpha:
        bit = (word >> (abs(lit) - 1)) & 1
        if (lit > 0) != bool(bit):
            return False
    return True


def entails_brute(formula, clause) -> bool:
    return all(eval_clause(clause, w) for w in models_brute(formula))


def cl_sem_brute(formula, alpha, models=None) -> frozenset[int]:
    """The literals every model extending alpha agrees on; models, when given, is models_brute(formula)."""
    n = formula.num_vars
    compatible = [w for w in (models_brute(formula) if models is None else models) if word_matches(alpha, w)]
    if not compatible:
        return frozenset(range(1, n + 1)) | frozenset(-v for v in range(1, n + 1))
    out = set()
    for v in range(1, n + 1):
        values = {(w >> (v - 1)) & 1 for w in compatible}
        if values == {1}:
            out.add(v)
        elif values == {0}:
            out.add(-v)
    return frozenset(out)


def all_clauses(num_vars: int):
    """Every non-empty, non-tautological clause over the universe."""
    for combo in product((0, 1, -1), repeat=num_vars):
        clause = tuple(sign * (v + 1) for v, sign in enumerate(combo) if sign)
        if clause:
            yield tuple(sorted(clause, key=lambda l: (abs(l), l < 0)))


def primes_brute(formula) -> set[tuple[int, ...]]:
    """The implicates with no implicate among their one-literal-shorter subclauses.

    Implicates are closed under adding literals, so that is minimality under
    inclusion; the empty clause is the one implicate to test for it.
    """
    models = models_brute(formula)
    if not models:
        return {()}
    implicates = {c for c in all_clauses(formula.num_vars) if all(eval_clause(c, w) for w in models)}
    return {c for c in implicates if not any(c[:k] + c[k + 1:] in implicates for k in range(len(c)))}


def prime_implicates_linear_scan(formula, max_clauses: int = 200_000) -> CnfFormula:
    """Prime implicates by queue-driven consensus, every admitted clause scanned per test.

    The same procedure, admission order and LimitError point as
    semantics.prime_implicates, without its occurrence index.
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
    primes = [tuple(mask_literals(m & lo_mask, m >> n)) for m, ok in zip(items, alive) if ok]
    primes.sort(key=_clause_key)
    return CnfFormula(tuple(primes), n)


def up_fixpoint_brute(formula, alpha):
    """(conflict, literal set) by repeated whole-formula scanning."""
    assigned = set(alpha)
    changed = True
    while changed:
        changed = False
        for clause in formula.clauses:
            if any(lit in assigned for lit in clause):
                continue
            open_lits = [lit for lit in clause if -lit not in assigned]
            if not open_lits:
                return True, assigned
            if len(open_lits) == 1:
                assigned.add(open_lits[0])
                changed = True
    return False, assigned


def all_partial_assignments(num_vars: int):
    for combo in product((0, 1, -1), repeat=num_vars):
        yield frozenset(sign * (v + 1) for v, sign in enumerate(combo) if sign)


def urc_brute(formula) -> bool:
    for alpha in all_partial_assignments(formula.num_vars):
        unsat = not any(word_matches(alpha, w) for w in models_brute(formula))
        conflict, _ = up_fixpoint_brute(formula, alpha)
        if unsat and not conflict:
            return False
    return True


def pc_brute(formula) -> bool:
    for alpha in all_partial_assignments(formula.num_vars):
        conflict, derived = up_fixpoint_brute(formula, alpha)
        if conflict:
            continue
        if not cl_sem_brute(formula, alpha) <= derived:
            return False
    return True


def qhorn_brute(formula) -> bool:
    """Exhaustive valuation search over 3^n weight choices."""
    n = formula.num_vars
    for weights in product((0, 1, 2), repeat=n):
        def doubled(lit):
            w = weights[abs(lit) - 1]
            return w if lit > 0 else 2 - w
        if all(sum(doubled(lit) for lit in clause) <= 2 for clause in formula.clauses):
            return True
    return False


class RenamedSplit(NamedTuple):
    """A q-Horn split in the renamed space, where every variable weighs 1 or 1/2.

    ``flipped`` records which variables were renamed; ``phi1`` holds the
    renamed clauses entirely on weight-1 variables (a Horn formula), ``phi2``
    those with one or two half-weight literals.  A named tuple, not a
    dataclass: perfbench/checks.py loads this file without registering it
    as a module, and a dataclass looks its module up.
    """

    num_vars: int
    flipped: frozenset[int]
    x2: tuple[int, ...]
    phi1: CnfFormula
    phi2: CnfFormula

    def unflip(self, lit):
        return -lit if abs(lit) in self.flipped else lit


def normalize_renamed(formula, valuation):
    """qhorn.normalize as the renaming: flip weight-0 variables, then split into the Horn and half-weight parts."""
    formula.reject_tautologies("q-Horn operations do not accept tautological clauses")
    if not valuation.witnesses(formula):
        raise PreconditionError("valuation does not witness the formula")
    n = formula.num_vars
    flipped = frozenset(v for v in range(1, n + 1) if valuation.doubled[v - 1] == 0)
    weight = [2 if valuation.doubled[v - 1] in (0, 2) else 1 for v in range(1, n + 1)]
    x2 = tuple(v for v in range(1, n + 1) if weight[v - 1] == 1)
    x2_set = set(x2)
    # renaming keeps each clause's variables in order and is a bijection: the clauses stay canonical and distinct
    phi1, phi2 = [], []
    for clause in formula.clauses:
        renamed = tuple(-lit if abs(lit) in flipped else lit for lit in clause)
        if any(abs(lit) in x2_set for lit in renamed):
            phi2.append(renamed)
        else:
            phi1.append(renamed)
    return RenamedSplit(n, flipped, x2, CnfFormula(tuple(phi1), n), CnfFormula(tuple(phi2), n))


def _clause_key(clause):
    return (len(clause), tuple((abs(lit), lit < 0) for lit in clause))


def _resolvent_all_pairs(ci, cj):
    """Resolvent of two clauses clashing on exactly one literal, else None."""
    pivots = [lit for lit in ci if -lit in cj]
    if len(pivots) != 1:
        return None
    lits = {lit for lit in ci if lit != pivots[0]} | {lit for lit in cj if lit != -pivots[0]}
    return tuple(sorted(lits, key=lambda l: (abs(l), l < 0)))


def phi_q_plus_all_pairs(split):
    """Binary resolution closure over the half-weight literals, every new clause against all others.

    Returns the clauses in canonical order (size, then (variable, polarity)).
    """
    half = set(split.x2)
    closure = set()
    for clause in split.phi2.clauses:
        projection = tuple(sorted({lit for lit in clause if abs(lit) in half}, key=lambda l: (abs(l), l < 0)))
        if len(projection) == 2:
            closure.add(projection)
    frontier = list(closure)
    while frontier:
        clause = frontier.pop()
        for other in list(closure):
            resolvent = _resolvent_all_pairs(clause, other)
            if resolvent is not None and len(resolvent) == 2 and resolvent not in closure:
                closure.add(resolvent)
                frontier.append(resolvent)
    return sorted(closure, key=_clause_key)


def resolution_pairs_all_pairs(clauses):
    """(ci, cj, resolvent) for every resolvable pair i < j, testing all pairs in (i, j) order."""
    out = []
    for i in range(len(clauses)):
        for j in range(i + 1, len(clauses)):
            resolvent = _resolvent_all_pairs(clauses[i], clauses[j])
            if resolvent is not None:
                out.append((clauses[i], clauses[j], resolvent))
    return out


def resolution_pairs_sets(clauses):
    """(ci, cj, resolvent) for each pair i < j of binary clauses that resolves, in (i, j) order, from per-clause sets."""
    positions = defaultdict(list)
    for j, clause in enumerate(clauses):
        for lit in clause:
            positions[lit].append(j)
    for i, ci in enumerate(clauses):
        a, b = ci
        via_a, via_b = ({j for j in positions[-lit] if j > i} for lit in ci)
        for j in sorted(via_a ^ via_b):
            cj = clauses[j]
            clash, x = (a, b) if j in via_a else (b, a)
            y = cj[1] if cj[0] == -clash else cj[0]
            yield ci, cj, (x,) if x == y else (x, y) if abs(x) < abs(y) else (y, x)


def compile_urc_encoding_pairs(formula, valuation=None):
    """qhorn.compile_urc_encoding on the renamed split, groups 3 and 4 built from (ci, cj, resolvent) triples of sets."""
    if valuation is None:
        valuation = recognize_qhorn(formula)
        if valuation is None:
            raise NotQHornError("input formula is not q-Horn")
    split = normalize_renamed(formula, valuation)
    fq = phi_q_plus(split)
    n = formula.num_vars
    aux_of = {clause: n + 1 + idx for idx, clause in enumerate(fq.clauses)}
    x2_set = set(split.x2)
    unflip = split.unflip

    def canonical(lits):
        return tuple(sorted(lits, key=literal_key))

    group1, group2 = [], []
    for clause in split.phi1.clauses:
        group1.append(canonical(map(unflip, clause)))
    for clause in split.phi2.clauses:
        half = tuple(lit for lit in clause if abs(lit) in x2_set)
        if len(half) <= 1:
            group1.append(canonical(map(unflip, clause)))
        else:
            rest = [unflip(lit) for lit in clause if abs(lit) not in x2_set]
            group2.append(canonical(rest + [aux_of[half]]))
    group3, group4 = [], []
    for ci, cj, resolvent in resolution_pairs_sets(fq.clauses):
        a, b = aux_of[ci], aux_of[cj]
        if len(resolvent) == 1:
            group4.append(canonical((-a, -b, unflip(resolvent[0]))))
        else:
            r = aux_of[resolvent]
            group3.append((r, -a, -b) if r < a else (-a, r, -b) if r < b else (-a, -b, r))
    group5, group6 = [], []
    for clause in fq.clauses:
        u, v = unflip(clause[0]), unflip(clause[1])
        aux = aux_of[clause]
        group5.append(canonical((-aux, u, v)))
        group6 += [canonical((-u, aux)), canonical((-v, aux))]
    all_clauses = group1 + group2 + group3 + group4 + group5 + group6
    encoded = CnfFormula(tuple(dict.fromkeys(all_clauses)), n + len(fq.clauses))
    return EncodingFormula(encoded, tuple(range(1, n + 1)), tuple(range(n + 1, n + 1 + len(fq.clauses))))


def write_dimacs_joined(obj) -> str:
    """DIMACS text with each clause's literals joined by spaces."""
    if isinstance(obj, EncodingFormula):
        formula = obj.formula
        aux = " ".join(str(v) for v in sorted(obj.aux_vars))
        head = f"c aux {aux} 0\n" if aux else "c aux 0\n"
    else:
        formula, head = obj, ""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" if clause else "0" for clause in formula.clauses]
    return head + "\n".join(lines) + "\n"


def encoding_onset_brute(encoding) -> frozenset[int]:
    """Projection of the encoding's models onto its input variables, as a frozenset of words."""
    out = set()
    for w in models_brute(encoding.formula):
        out.add(sum(((w >> (v - 1)) & 1) << j for j, v in enumerate(encoding.input_vars)))
    return frozenset(out)


def compile_urc_encoding_reference(split):
    """The URC encoding of a renamed q-Horn split (normalize_renamed), clause by clause through make_clause.

    One auxiliary per clause of the all-pairs binary closure; the six clause
    groups in order, each clause canonicalised by make_clause, and the list
    canonicalised again and deduplicated by CnfFormula.from_clauses.
    """
    n = split.num_vars
    closure = phi_q_plus_all_pairs(split)
    aux_of = {clause: n + 1 + idx for idx, clause in enumerate(closure)}
    half = set(split.x2)

    def unflip_clause(lits):
        return make_clause(split.unflip(lit) if abs(lit) <= n else lit for lit in lits)

    groups = [[] for _ in range(6)]
    for clause in split.phi1.clauses:
        groups[0].append(unflip_clause(clause))
    for clause in split.phi2.clauses:
        half_lits = [lit for lit in clause if abs(lit) in half]
        if len(half_lits) <= 1:
            groups[0].append(unflip_clause(clause))
        else:
            rest = [lit for lit in clause if abs(lit) not in half]
            groups[1].append(unflip_clause(rest + [aux_of[make_clause(half_lits)]]))
    for ci, cj, resolvent in resolution_pairs_all_pairs(closure):
        if len(resolvent) == 1:
            groups[3].append(unflip_clause([-aux_of[ci], -aux_of[cj], resolvent[0]]))
        else:
            groups[2].append(make_clause([-aux_of[ci], -aux_of[cj], aux_of[resolvent]]))
    for clause in closure:
        u, v = clause
        aux = aux_of[clause]
        groups[4].append(unflip_clause([-aux, u, v]))
        groups[5] += [unflip_clause([-u, aux]), unflip_clause([-v, aux])]
    formula = CnfFormula.from_clauses([c for group in groups for c in group], n + len(closure))
    return EncodingFormula(formula, tuple(range(1, n + 1)), tuple(range(n + 1, n + 1 + len(closure))))


def _least_report(failures):
    if not failures:
        return DecisionReport(True)
    alpha, lit = min(failures, key=lambda pair: ((len(pair[0]), tuple(sorted(literal_key(l) for l in pair[0]))),
                                                  literal_key(pair[1]) if pair[1] is not None else ()))
    return DecisionReport(False, witness=alpha, literal=lit)


def _unrefuted_per_prime(engine, primes):
    for prime in primes.clauses:
        alpha = frozenset(-lit for lit in prime)
        if not engine.run(alpha)[0]:
            yield alpha


def unrefuted_per_run(formula, clauses):
    """deciders._unrefuted with one refutes run per clause not in the formula, on the flag engine, which
    shares no code with the lane passes under test."""
    own, engine = set(formula.clauses), UnitPropagatorSatFlags(formula)
    for clause in clauses:
        if clause not in own and not engine.refutes(clause):
            yield frozenset(-lit for lit in clause), None


def unabsorbed_per_run(formula, clauses):
    """deciders._unabsorbed with one absorbs run per literal of a clause not in the formula, on the flag engine."""
    own, engine = set(formula.clauses), UnitPropagatorSatFlags(formula)
    for clause in clauses:
        if clause not in own:
            for lit in clause:
                if not engine.absorbs(clause, lit):
                    yield frozenset(-other for other in clause if other != lit), lit


def prime_urc_per_prime(formula):
    """The primes URC decider with one propagation run for every prime, clauses of the formula included."""
    failures = [(alpha, None) for alpha in _unrefuted_per_prime(UnitPropagator(formula), prime_implicates(formula))]
    return _least_report(failures)


def prime_pc_per_prime(formula):
    """The primes PC decider with one run per (prime, literal) and a separate path for unsatisfiable input."""
    primes = prime_implicates(formula)
    engine = UnitPropagator(formula)
    if primes.has_empty_clause():
        conflict, trail, _ = engine.run(())
        if conflict:
            return _least_report([])
        missing = min(all_literals(formula.num_vars) - set(trail), key=literal_key)
        return _least_report([(frozenset(), missing)])
    failures = []
    for prime in primes.clauses:
        for lit in prime:
            conflict, trail, _ = engine.run([-e for e in prime if e != lit])
            if not (conflict or lit in trail):
                failures.append((frozenset(-e for e in prime if e != lit), lit))
    return _least_report(failures)


def reduce_urc_by_entailment(formula, seed=None):
    """Greedy URC reduction that drops a clause only when the rest entails it (by models) and stays URC."""
    if not is_urc(formula, limit=formula.num_vars).verdict:
        raise PreconditionError("input formula is not unit refutation complete")
    primes = prime_implicates(formula)
    order = list(range(len(formula.clauses)))
    if seed is not None:
        random.Random(seed).shuffle(order)
    keep = [True] * len(order)
    for idx in order:
        keep[idx] = False
        rest = CnfFormula(tuple(c for c, kept in zip(formula.clauses, keep) if kept), formula.num_vars)
        removable = (entails(rest, formula.clauses[idx])
                     and next(_unrefuted_per_prime(UnitPropagator(rest), primes), None) is None)
        keep[idx] = not removable
    return CnfFormula(tuple(c for c, kept in zip(formula.clauses, keep) if kept), formula.num_vars)


def reduce_pc_by_brute_absorption(formula, seed=None):
    """Greedy PC reduction, same order as the reducer, that drops a clause when whole-formula scanning of
    the rest derives each of its literals, or a conflict, from the negation of the other literals."""
    order = list(range(len(formula.clauses)))
    if seed is not None:
        random.Random(seed).shuffle(order)
    keep = [True] * len(order)
    for idx in order:
        keep[idx] = False
        rest = CnfFormula(tuple(c for c, kept in zip(formula.clauses, keep) if kept), formula.num_vars)
        clause = formula.clauses[idx]
        absorbed = True
        for lit in clause:
            conflict, assigned = up_fixpoint_brute(rest, {-other for other in clause if other != lit})
            absorbed = absorbed and (conflict or lit in assigned)
        keep[idx] = not absorbed
    return CnfFormula(tuple(c for c, kept in zip(formula.clauses, keep) if kept), formula.num_vars)


def recognize_qhorn_recursive(formula):
    """The q-Horn weight search as a recursion over the variables (weights 2, 1, 0 in turn), fast paths first."""
    n = formula.num_vars
    if all(len(clause) <= 2 for clause in formula.clauses):
        return Valuation((1,) * n)
    if formula.is_horn():
        return Valuation((2,) * n)
    occurrences = {v: [] for v in range(1, n + 1)}
    for idx, clause in enumerate(formula.clauses):
        for lit in clause:
            occurrences[abs(lit)].append((idx, lit))
    order = sorted(range(1, n + 1), key=lambda v: (-len(occurrences[v]), v))
    sums = [0] * len(formula.clauses)
    doubled = [2] * n

    def search(depth):
        if depth == len(order):
            return True
        var = order[depth]
        for w in (2, 1, 0):
            doubled[var - 1] = w
            ok = True
            for idx, lit in occurrences[var]:
                sums[idx] += w if lit > 0 else 2 - w
                if sums[idx] > 2:
                    ok = False
            if ok and search(depth + 1):
                return True
            for idx, lit in occurrences[var]:
                sums[idx] -= w if lit > 0 else 2 - w
        return False

    if n + 100 > sys.getrecursionlimit():
        raise ValueError("formula too wide for the recursive reference")
    return Valuation(tuple(doubled)) if search(0) else None


def assignment_walk_arrays(formula):
    """The partial-assignment walk that yields (alpha, up, models), up the node's literal vector, models an array.

    Every partial assignment whose unit propagation does not conflict, depth
    first over the variables, each unassigned, true or false in that order;
    a child extends its parent's propagation node and model array by one
    literal, and the subtree below a conflict is skipped.
    """
    n = formula.num_vars
    engine = UnitPropagator(formula)
    root = engine.start()
    if root is None:
        return
    stack = [(1, frozenset(), root, _model_words(formula))]
    while stack:
        var, alpha, node, models = stack.pop()
        if var > n:
            yield alpha, node[0], models
            continue
        true = (models & np.uint64(1 << (var - 1))) != 0
        for lit, keep in ((-var, ~true), (var, true)):
            child = engine.extend(node, lit)
            if child is not None:
                stack.append((var + 1, alpha | {lit}, child, models if child is node else models[keep]))
        stack.append((var + 1, alpha, node, models))


class UnitPropagatorSatFlags:
    """The propagation engine that kept a satisfied flag per clause beside the counters."""

    __slots__ = ("num_vars", "clauses", "occ", "lengths", "units", "empty")

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.num_vars
        self.clauses = formula.clauses
        self.lengths = [len(clause) for clause in self.clauses]
        # static units in clause order, up to the first empty clause, where every run stops
        self.empty = next((idx for idx, length in enumerate(self.lengths) if length == 0), None)
        stop = len(self.clauses) if self.empty is None else self.empty
        self.units = [clause[0] for clause in self.clauses[:stop] if len(clause) == 1]
        # occ[lit] lists the clauses containing lit; -v indexes from the end, slot 0 is unused
        occ: list[list[int]] = [[] for _ in range(2 * formula.num_vars + 1)]
        for idx, clause in enumerate(self.clauses):
            for lit in clause:
                occ[lit].append(idx)
        self.occ = occ

    def run(self, assumptions=()) -> tuple[bool, list[Literal], int | None]:
        """Propagate to fixpoint; returns (conflict, assigned literals in order, empty clause index)."""
        nv = self.num_vars
        val = [0] * (nv + 1)  # 0 unassigned, 1 true, -1 false (for the positive literal)
        trail: list[Literal] = []
        for lit in assumptions:
            if not (1 <= abs(lit) <= nv):
                raise ValueError(f"assumed literal {lit} outside universe 1..{nv}")
            want = 1 if lit > 0 else -1
            if val[abs(lit)] == -want:
                raise ValueError("inconsistent assumption set")
            if val[abs(lit)] == 0:
                val[abs(lit)] = want
                trail.append(lit)
        for lit in self.units:
            # a falsified static unit conflicts in _propagate, once the assumption is processed
            if val[abs(lit)] == 0:
                val[abs(lit)] = 1 if lit > 0 else -1
                trail.append(lit)
        if self.empty is not None:
            return True, trail, self.empty
        empty = self._propagate(val, self.lengths.copy(), [False] * len(self.clauses), trail)
        return empty is not None, trail, empty

    def refutes(self, clause: Clause) -> bool:
        """Does propagation from the negation of the clause conflict?  A tautology's negation is refuted by itself."""
        return is_tautological(clause) or self.run([-lit for lit in clause])[0]

    def absorbs(self, clause: Clause, lit: Literal) -> bool:
        """Does propagation from the negation of the rest of the clause derive lit or a conflict?"""
        conflict, trail, _ = self.run([-other for other in clause if other != lit])
        return conflict or lit in trail

    def start(self) -> tuple | None:
        """The root node of a walk over partial assignments, or None when the static units conflict.

        A node is (vector, val, counts, sat): the literal vector
        (cnf.literal_vector) of the assignment closed under propagation, then
        the state extend updates.
        """
        if self.empty is not None:
            return None
        node = (0, [0] * (self.num_vars + 1), self.lengths.copy(), [False] * len(self.clauses))
        for lit in self.units:
            node = self.extend(node, lit)
            if node is None:
                break
        return node

    def extend(self, node: tuple, lit: Literal) -> tuple | None:
        """The node after also assuming lit, or None on conflict; node itself when lit is already derived."""
        vector, val, counts, sat = node
        state = val[abs(lit)]
        if state:  # already derived: nothing changes; its complement: a conflict
            return node if state == (1 if lit > 0 else -1) else None
        val, counts, sat = val.copy(), counts.copy(), sat.copy()
        val[abs(lit)] = 1 if lit > 0 else -1
        trail = [lit]
        if self._propagate(val, counts, sat, trail) is not None:
            return None
        return vector | literal_vector(trail, self.num_vars), val, counts, sat

    def _propagate(self, val: list[int], counts: list[int], sat: list[bool], trail: list[Literal]) -> int | None:
        """Process the trail to fixpoint, updating every argument in place.

        val already holds the trail's literals; counts (open literals per
        clause) and sat reflect only the literals assigned before them.
        Returns the index of a clause that became empty, or None.
        """
        occ, clauses = self.occ, self.clauses
        head = 0
        while head < len(trail):
            lit = trail[head]
            head += 1
            for idx in occ[lit]:
                sat[idx] = True
            for idx in occ[-lit]:
                if sat[idx]:
                    continue
                counts[idx] -= 1
                remaining = counts[idx]
                if remaining == 0:
                    return idx
                if remaining == 1:
                    for cand in clauses[idx]:
                        state = val[abs(cand)]
                        if state == 0:
                            val[abs(cand)] = 1 if cand > 0 else -1
                            trail.append(cand)
                            break
                        if state == (1 if cand > 0 else -1):
                            sat[idx] = True
                            break
        return None
