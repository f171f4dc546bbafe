"""Core CNF data model: literals, clauses, formulas, assignments, DIMACS I/O.

Literals are nonzero ints in the DIMACS convention: ``v`` is the positive
literal of variable ``v >= 1`` and ``-v`` its negation.  Clauses are stored
as duplicate-free tuples sorted by (variable, polarity) with the positive
literal first, so equal clauses compare equal and DIMACS output is
reproducible.  A formula carries an explicit universe size ``num_vars``
which may exceed the variables actually occurring in clauses; this keeps
equivalence over a shared universe well defined.  Past UNIVERSE_VARS it
raises LimitError, as engines size their per-literal tables by it.

The large builders (the DIMACS parser, the q-Horn compiler, the dual-rail
translation, the parity family) hold one int object per literal value,
however often it occurs, taking them from a per-parse token table or from
literal_table.  formula_cache keeps an engine's per-formula result for as
long as the formula lives.

All values are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

import re
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain, groupby
from typing import Callable, Iterable, Iterator, TypeVar, Union

from .errors import DimacsError, LimitError, TautologyError

Literal = int
Clause = tuple[Literal, ...]
PartialAssignment = frozenset[Literal]

UNIVERSE_VARS = 1 << 19  # the widest universe a formula may declare; gen psi_horn 100000 declares 300,001


def literal_table(top: int) -> list[Literal]:
    """One int object per literal over variables 1..top: table[lit] is it, -v indexing from the end.

    A formula built from its entries holds each literal value once, however
    often it occurs; table[0] is 0.
    """
    return [*range(top + 1), *range(-top, 0)]


def literal_key(lit: Literal) -> tuple[int, bool]:
    """Canonical sort key: by variable, positive polarity first."""
    return (abs(lit), lit < 0)


def clause_sort_key(clause: Clause) -> tuple:
    """Deterministic clause order: by size, then the literal_key tuples."""
    return (len(clause), tuple(map(literal_key, clause)))


def make_clause(literals: Iterable[Literal]) -> Clause:
    """Canonicalize a clause: drop duplicates, sort by literal_key.

    A complementary pair is retained; use is_tautological to detect it.
    """
    lits = set()
    for lit in literals:
        lit = int(lit)
        if lit == 0:
            raise ValueError("literal 0 is not allowed in a clause")
        lits.add(lit)
    return tuple(sorted(lits, key=literal_key))


def is_tautological(clause: Clause) -> bool:
    seen = set(clause)
    return any(-lit in seen for lit in clause)


def make_assignment(literals: Iterable[Literal]) -> PartialAssignment:
    """Validate and freeze a set of literals as a consistent partial assignment."""
    lits = frozenset(int(lit) for lit in literals)
    if 0 in lits:
        raise ValueError("literal 0 is not allowed in an assignment")
    for lit in lits:
        if -lit in lits:
            raise ValueError(f"assignment contains complementary pair {lit}/{-lit}")
    return lits


def literal_vector_unchecked(lits: Iterable[Literal], n: int) -> int:
    """literal_vector for literals already known to lie in 1..n, such as a formula's or a propagation trail's."""
    vector = 0
    for lit in lits:
        vector |= 1 << (lit - 1 if lit > 0 else n - lit - 1)
    return vector


def literal_vector(lits: Iterable[Literal], n: int) -> int:
    """The 2n-bit vector of literals over variables 1..n: bit v-1 for v, bit n+v-1 for -v.

    It is the word over the dual-rail meta-variables [[v]] = v and [[-v]] = n + v.
    A literal outside 1..n raises ValueError.
    """
    lits = tuple(lits)
    for lit in lits:
        if not 1 <= abs(lit) <= n:
            raise ValueError(f"literal {lit} outside universe 1..{n}")
    return literal_vector_unchecked(lits, n)


def vector_literals(vector: int, n: int) -> list[Literal]:
    """The literals of a 2n-bit literal vector in literal_key order; the inverse of literal_vector."""
    out = []
    pos, neg, var = vector & ((1 << n) - 1), vector >> n, 1
    while pos | neg:
        if pos & 1:
            out.append(var)
        if neg & 1:
            out.append(-var)
        pos, neg, var = pos >> 1, neg >> 1, var + 1
    return out


@dataclass(frozen=True)
class CnfFormula:
    """A set of clauses over the variable universe {1, ..., num_vars}."""

    clauses: tuple[Clause, ...]
    num_vars: int

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        if self.num_vars > UNIVERSE_VARS:
            raise LimitError(f"{self.num_vars} variables exceed UNIVERSE_VARS = {UNIVERSE_VARS}")
        lits = set(chain.from_iterable(self.clauses))  # one C-level pass over the literals
        if lits and (0 in lits or min(lits) < -self.num_vars or max(lits) > self.num_vars):
            bad = next(lit for clause in self.clauses for lit in clause if not 1 <= abs(lit) <= self.num_vars)
            raise ValueError(f"literal {bad} outside universe 1..{self.num_vars}")

    @cached_property
    def _hash(self) -> int:
        return hash((self.clauses, self.num_vars))

    def __hash__(self) -> int:
        """Hashed once per object: formulas key the engine, model and prime caches."""
        return self._hash

    @classmethod
    def from_clauses(cls, clauses: Iterable[Iterable[Literal]], num_vars: int | None = None) -> "CnfFormula":
        """Canonicalize every clause, collapse duplicates, infer the universe if absent."""
        canon = tuple(dict.fromkeys(map(make_clause, clauses)))  # first occurrences, in order
        if num_vars is None:
            num_vars = max(map(abs, chain.from_iterable(canon)), default=0)
        return cls(canon, num_vars)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    @property
    def length(self) -> int:
        """Total number of literal occurrences (the usual CNF length measure)."""
        return sum(len(clause) for clause in self.clauses)

    @property
    def variables(self) -> range:
        return range(1, self.num_vars + 1)

    def clause_vectors(self) -> list[int]:
        """The literal vector (literal_vector) of each clause that is not a tautology, shortest first and in
        clause order among equals; every literal is in range."""
        n = self.num_vars
        full = (1 << n) - 1
        vectors = (literal_vector_unchecked(clause, n) for clause in self.clauses)
        return sorted((vector for vector in vectors if not vector & full & vector >> n), key=int.bit_count)

    def is_horn(self) -> bool:
        return all(sum(1 for lit in clause if lit > 0) <= 1 for clause in self.clauses)

    def has_empty_clause(self) -> bool:
        return any(not clause for clause in self.clauses)

    def tautological_clauses(self) -> tuple[Clause, ...]:
        return tuple(clause for clause in self.clauses if is_tautological(clause))

    def reject_tautologies(self, message: str):
        """Raise TautologyError(message) when a clause holds a complementary pair."""
        if self.tautological_clauses():
            raise TautologyError(message)

    def without(self, index: int) -> "CnfFormula":
        """The formula with the clause at the given position removed."""
        rest = self.clauses[:index] + self.clauses[index + 1:]
        return CnfFormula(rest, self.num_vars)


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
Result = TypeVar("Result")


def formula_cache(fn: Callable[[CnfFormula], Result]) -> Callable[[CnfFormula], Result]:
    """Cache fn(formula) for as long as the formula lives, instead of for a fixed number of formulas.

    The results are kept in a weakref.WeakKeyDictionary keyed by the
    formula: an equal formula shares the entry while the first key object
    lives, and the entry goes when that object does.  A result must
    therefore not reference its formula, or its entry never dies.  As with
    functools.lru_cache, a miss is counted before fn runs, a result is kept
    only when fn returns, and the wrapper has cache_info() (maxsize None),
    cache_clear() and __wrapped__.
    """
    results: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    hits = misses = 0

    @wraps(fn)
    def cached(formula: CnfFormula) -> Result:
        nonlocal hits, misses
        try:
            result = results[formula]
        except KeyError:
            misses += 1
            result = results[formula] = fn(formula)
        else:
            hits += 1
        return result

    def cache_info() -> CacheInfo:
        return CacheInfo(hits, misses, None, len(results))

    def cache_clear():
        nonlocal hits, misses
        results.clear()
        hits = misses = 0

    cached.cache_info, cached.cache_clear = cache_info, cache_clear
    return cached


@dataclass(frozen=True)
class EncodingFormula:
    """A CNF together with a partition of its universe into input and auxiliary variables."""

    formula: CnfFormula
    input_vars: tuple[int, ...]
    aux_vars: tuple[int, ...]

    def __post_init__(self):
        inputs, auxs = set(self.input_vars), set(self.aux_vars)
        if len(inputs) != len(self.input_vars) or len(auxs) != len(self.aux_vars):
            raise ValueError("repeated variable in input/aux lists")
        if inputs & auxs:
            raise ValueError("input and auxiliary variables must be disjoint")
        if inputs | auxs != set(self.formula.variables):
            raise ValueError("input and auxiliary variables must partition the universe")

    @property
    def num_vars(self) -> int:
        return self.formula.num_vars


def apply_assignment(formula: CnfFormula, beta: PartialAssignment) -> CnfFormula:
    """The formula after the partial setting beta.

    Clauses satisfied by beta are removed; falsified literals are deleted from
    the remaining clauses.  A fully falsified clause stays as the empty clause.
    The universe is unchanged.
    """
    beta = make_assignment(beta)
    for lit in beta:
        if abs(lit) > formula.num_vars:
            raise ValueError(f"assigned variable {abs(lit)} outside universe")
    out: list[Clause] = []
    for clause in formula.clauses:
        if any(lit in beta for lit in clause):
            continue
        out.append(tuple(lit for lit in clause if -lit not in beta))
    return CnfFormula.from_clauses(out, formula.num_vars)


# whitespace-separated ASCII integers; int() alone would also take "1_0", "+1" and non-ASCII digits
_INTEGERS = re.compile(r"(?:-?[0-9]+(?:\s+-?[0-9]+)*)?", re.ASCII)
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


class _Tokens(dict):
    """One parse's integer tokens, tokens[text] their value: one int object per value, however often it occurs."""

    def __missing__(self, tok: str) -> int:
        value = int(tok)
        value = self[tok] = self.setdefault(value, value)  # keyed by the value too, so "01" shares the 1 of "1"
        return value


def _integers(text: str, lineno: int, message: str, tokens: _Tokens) -> list[int]:
    if not _INTEGERS.fullmatch(text):
        raise DimacsError(lineno, message)
    return list(map(tokens.__getitem__, text.split()))


def parse_dimacs(text: Union[str, bytes]) -> Union[CnfFormula, EncodingFormula]:
    """Parse DIMACS CNF, with the `c aux` extension for auxiliary variables.

    A comment line ``c aux v1 v2 ... 0`` before the ``p`` line declares the
    listed variables auxiliary; the result is then an EncodingFormula whose
    input variables are the remaining ones.  Header counts, clause literals
    and aux variables are ASCII decimal integers (``-?[0-9]+``).  A line
    holding only ``%`` ends the input, as in the SATLIB benchmark files
    (which follow it with a ``0`` that is not an empty clause); the clause
    count of the header must still match.  The input, bytes or str, must be
    ASCII: the first other byte or character raises, naming its line.
    """
    kind = "byte 0x{:02x}" if isinstance(text, bytes) else "character U+{:04X}"
    if isinstance(text, bytes):
        text = text.decode("latin-1")  # one character per byte, with the byte's value
    if not text.isascii():
        start = _NON_ASCII.search(text).start()
        raise DimacsError(text.count("\n", 0, start) + 1, "non-ASCII " + kind.format(ord(text[start])))
    num_vars = num_clauses = None
    tokens = _Tokens()  # grows with the distinct tokens read, never with the declared universe
    aux_lines: dict[int, int] = {}  # auxiliary variable -> line declaring it
    saw_aux = False
    raw_clauses: list[list[int]] = []
    pending: list[int] = []
    pending_line = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == "%":
            break
        if stripped.startswith("c"):
            fields = stripped.split()
            if len(fields) >= 2 and fields[1] == "aux":
                if num_vars is not None:
                    raise DimacsError(lineno, "aux declaration must precede the p line")
                ids = _integers(" ".join(fields[2:]), lineno, "non-integer auxiliary variable", tokens)
                if not ids or ids[-1] != 0 or any(v <= 0 for v in ids[:-1]):
                    raise DimacsError(lineno, "aux list must be positive variables terminated by 0")
                for var in ids[:-1]:
                    if var in aux_lines:
                        raise DimacsError(lineno, f"duplicate auxiliary variable {var}")
                    aux_lines[var] = lineno
                saw_aux = True
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise DimacsError(lineno, "second p line")
            fields = stripped.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise DimacsError(lineno, f"bad header {stripped!r}")
            num_vars, num_clauses = _integers(" ".join(fields[2:]), lineno, f"bad header {stripped!r}", tokens)
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(lineno, "negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(lineno, "clause before p line")
        literals = _integers(stripped, lineno, "non-integer token in clause", tokens)
        if not pending:
            pending_line = lineno
        for tok in literals:
            if tok == 0:
                raw_clauses.append(pending)
                pending = []
            else:
                if abs(tok) > num_vars:
                    raise DimacsError(lineno, f"literal {tok} exceeds declared variable count {num_vars}")
                pending.append(tok)
                pending_line = lineno
    if pending:
        raise DimacsError(pending_line, "unterminated clause (missing 0)")
    if num_vars is None:
        raise DimacsError(max(1, text.count("\n") + 1), "missing p line")
    if num_clauses is not None and len(raw_clauses) != num_clauses:
        raise DimacsError(max(1, text.count("\n") + 1),
                          f"header declares {num_clauses} clauses, found {len(raw_clauses)}")
    formula = CnfFormula.from_clauses(raw_clauses, num_vars)
    if not saw_aux:
        return formula
    for var, line in aux_lines.items():
        if var > num_vars:
            raise DimacsError(line, f"auxiliary variable {var} exceeds declared count {num_vars}")
    aux = tuple(sorted(aux_lines))
    inputs = tuple(v for v in range(1, num_vars + 1) if v not in aux_lines)
    return EncodingFormula(formula, inputs, aux)


_WRITE_CHUNK = 4096  # literals formatted by one % operation


def write_dimacs(obj: Union[CnfFormula, EncodingFormula]) -> str:
    """Serialize to DIMACS; round-trips bit-exactly through parse_dimacs.

    Each run of consecutive clauses of one width is formatted in chunks of
    at most _WRITE_CHUNK literals, each chunk by one % over its flattened
    literals with that width's line repeated.  The text is joined from the
    chunks, so besides the output only about one more copy of it is held.
    """
    if isinstance(obj, EncodingFormula):
        formula = obj.formula
        aux = " ".join(str(v) for v in sorted(obj.aux_vars))
        head = f"c aux {aux} 0\n" if aux else "c aux 0\n"
    else:
        formula = obj
        head = ""
    clauses = formula.clauses
    pieces = [head, f"p cnf {formula.num_vars} {len(clauses)}\n"]
    for width, run in groupby(clauses, len):
        run = list(run)
        line = "%d " * width + "0\n"
        step = max(1, _WRITE_CHUNK // max(width, 1))
        for begin in range(0, len(run), step):
            chunk = run[begin:begin + step]
            pieces.append(line * len(chunk) % tuple(chain.from_iterable(chunk)))
    return "".join(pieces)
