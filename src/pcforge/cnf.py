"""Core CNF data model: literals, clauses, formulas, assignments, DIMACS I/O.

Literals are nonzero ints in the DIMACS convention: ``v`` is the positive
literal of variable ``v >= 1`` and ``-v`` its negation.  Clauses are stored
as duplicate-free tuples sorted by (variable, polarity) with the positive
literal first, so equal clauses compare equal and DIMACS output is
reproducible.  A formula carries an explicit universe size ``num_vars``
which may exceed the variables actually occurring in clauses; this keeps
equivalence over a shared universe well defined.

All values are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import DimacsError

Literal = int
Clause = tuple[Literal, ...]
PartialAssignment = frozenset[Literal]


def literal_key(lit: Literal) -> tuple[int, bool]:
    """Canonical sort key: by variable, positive polarity first."""
    return (abs(lit), lit < 0)


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


def literal_masks(lits: Iterable[Literal]) -> tuple[int, int]:
    """Bitmasks (pos, neg) of a literal set: bit v-1 of pos for v, of neg for -v."""
    pos = neg = 0
    for lit in lits:
        if lit > 0:
            pos |= 1 << (lit - 1)
        else:
            neg |= 1 << (-lit - 1)
    return pos, neg


def mask_literals(pos: int, neg: int) -> list[Literal]:
    """The literals of the masks (pos, neg) in literal_key order; the inverse of literal_masks."""
    out = []
    var = 1
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
        for clause in self.clauses:
            for lit in clause:
                if not 1 <= abs(lit) <= self.num_vars:
                    raise ValueError(f"literal {lit} outside universe 1..{self.num_vars}")

    @classmethod
    def from_clauses(cls, clauses: Iterable[Iterable[Literal]], num_vars: int | None = None) -> "CnfFormula":
        """Canonicalize every clause, collapse duplicates, infer the universe if absent."""
        canon: list[Clause] = []
        seen: set[Clause] = set()
        occurring = 0
        for raw in clauses:
            clause = make_clause(raw)
            if clause not in seen:
                seen.add(clause)
                canon.append(clause)
            if clause:
                occurring = max(occurring, max(abs(lit) for lit in clause))
        if num_vars is None:
            num_vars = occurring
        return cls(tuple(canon), num_vars)

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

    def occurring_variables(self) -> frozenset[int]:
        return frozenset(abs(lit) for clause in self.clauses for lit in clause)

    def is_horn(self) -> bool:
        return all(sum(1 for lit in clause if lit > 0) <= 1 for clause in self.clauses)

    def has_empty_clause(self) -> bool:
        return any(not clause for clause in self.clauses)

    def tautological_clauses(self) -> tuple[Clause, ...]:
        return tuple(clause for clause in self.clauses if is_tautological(clause))

    def without(self, index: int) -> "CnfFormula":
        """The formula with the clause at the given position removed."""
        rest = self.clauses[:index] + self.clauses[index + 1:]
        return CnfFormula(rest, self.num_vars)


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
_INTEGERS = re.compile(r"(?:-?[0-9]+(?:\s+-?[0-9]+)*)?")


def _integers(text: str, lineno: int, message: str) -> list[int]:
    if not _INTEGERS.fullmatch(text):
        raise DimacsError(lineno, message)
    return [int(tok) for tok in text.split()]


def parse_dimacs(text: Union[str, bytes]) -> Union[CnfFormula, EncodingFormula]:
    """Parse DIMACS CNF, with the `c aux` extension for auxiliary variables.

    A comment line ``c aux v1 v2 ... 0`` before the ``p`` line declares the
    listed variables auxiliary; the result is then an EncodingFormula whose
    input variables are the remaining ones.  Header counts, clause literals
    and aux variables are ASCII decimal integers (``-?[0-9]+``).  A line
    holding only ``%`` ends the input, as in the SATLIB benchmark files
    (which follow it with a ``0`` that is not an empty clause); the clause
    count of the header must still match.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            lineno = text.count(b"\n", 0, exc.start) + 1
            raise DimacsError(lineno, f"non-ASCII byte 0x{text[exc.start]:02x}") from None
    num_vars = num_clauses = None
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
                ids = _integers(" ".join(fields[2:]), lineno, "non-integer auxiliary variable")
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
            num_vars, num_clauses = _integers(" ".join(fields[2:]), lineno, f"bad header {stripped!r}")
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(lineno, "negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(lineno, "clause before p line")
        tokens = _integers(stripped, lineno, "non-integer token in clause")
        if not pending:
            pending_line = lineno
        for tok in tokens:
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


def write_dimacs(obj: Union[CnfFormula, EncodingFormula]) -> str:
    """Serialize to DIMACS; round-trips bit-exactly through parse_dimacs."""
    if isinstance(obj, EncodingFormula):
        formula = obj.formula
        aux = " ".join(str(v) for v in sorted(obj.aux_vars))
        head = f"c aux {aux} 0\n" if aux else "c aux 0\n"
    else:
        formula = obj
        head = ""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        if clause:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        else:
            lines.append("0")
    return head + "\n".join(lines) + "\n"
