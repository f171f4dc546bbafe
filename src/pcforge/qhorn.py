"""q-Horn recognition, satisfiability, and compilation to a URC encoding.

A formula is q-Horn when its literals admit weights in {0, 1/2, 1} with
complementary literals summing to 1 and every clause summing to at most 1.
Renaming the weight-0 variables (x to -x) would make the clauses without a
half-weight variable Horn and leave the others one or two half-weight
literals plus negative ones (Boros, Crama and Hammer, AMAI 1990).  Unit
propagation, clause reduction and the projection onto the half-weight
variables commute with that renaming, so the code works on the formula's
own clauses.  The satisfiability procedure propagates on the Horn part and
projects the rest to a 2-CNF, which is unsatisfiable iff some variable
shares a strongly connected component of its implication graph with its
complement.

The compiler turns the same structure into a unit-propagation-friendly
encoding: one auxiliary variable per binary clause derivable over the
half-weight literals (read off as reachability in the implication graph of
their binary projections), definitional clauses tying each auxiliary to its
clause, and ternary clauses that let unit propagation simulate binary
resolution.  The result represents the same function over the original
variables and is unit refutation complete; it is generally not q-Horn itself.

Weights are stored doubled (0, 1, 2) so all arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .cnf import Clause, CnfFormula, EncodingFormula, Literal, apply_assignment, clause_sort_key, literal_table
from .errors import NotQHornError, PreconditionError
from .propagation import _engine

_TAUTOLOGY_MESSAGE = "q-Horn operations do not accept tautological clauses"


@dataclass(frozen=True)
class Valuation:
    """Literal weights in {0, 1/2, 1}; stored doubled, per positive literal."""

    doubled: tuple[int, ...]  # index v-1 holds 2 * weight(v)

    def __post_init__(self):
        if any(w not in (0, 1, 2) for w in self.doubled):
            raise ValueError("doubled weights must be 0, 1 or 2")

    @property
    def num_vars(self) -> int:
        return len(self.doubled)

    def doubled_weight(self, lit: Literal) -> int:
        w = self.doubled[abs(lit) - 1]
        return w if lit > 0 else 2 - w

    def weight(self, lit: Literal) -> Fraction:
        return Fraction(self.doubled_weight(lit), 2)

    def witnesses(self, formula: CnfFormula) -> bool:
        """True iff every clause weighs at most 1 under this valuation."""
        if formula.num_vars != self.num_vars:
            return False
        return all(sum(self.doubled_weight(lit) for lit in clause) <= 2 for clause in formula.clauses)


def recognize_qhorn(formula: CnfFormula) -> Valuation | None:
    """Find a witnessing valuation, or None when none exists (exact).

    Any 2-CNF takes weight 1/2 everywhere, by policy.  Otherwise a
    backtracking search over per-variable weights, pruning on partial
    clause sums.  It tries weight 1 first for every variable, so a Horn
    formula gets weight 1 everywhere without backtracking.
    """
    formula.reject_tautologies(_TAUTOLOGY_MESSAGE)
    n = formula.num_vars
    if all(len(clause) <= 2 for clause in formula.clauses):
        return Valuation((1,) * n)

    occurrences: dict[int, list[tuple[int, Literal]]] = {v: [] for v in range(1, n + 1)}
    for idx, clause in enumerate(formula.clauses):
        for lit in clause:
            occurrences[abs(lit)].append((idx, lit))
    order = sorted(range(1, n + 1), key=lambda v: (-len(occurrences[v]), v))
    sums = [0] * len(formula.clauses)
    doubled = [2] * n

    # depth-first search without recursion: tried[d] counts the weights 2, 1, 0 tried at depth d, the last
    # still in the sums; undecided literals only add weight, so a sum above 2 prunes soundly
    tried = [0] * len(order)
    depth = 0
    while 0 <= depth < len(order):
        var = order[depth]
        if tried[depth]:
            w = 3 - tried[depth]
            for idx, lit in occurrences[var]:
                sums[idx] -= w if lit > 0 else 2 - w
        if tried[depth] == 3:
            tried[depth] = 0
            depth -= 1
            continue
        w = 2 - tried[depth]
        tried[depth] += 1
        doubled[var - 1] = w
        ok = True
        for idx, lit in occurrences[var]:
            sums[idx] += w if lit > 0 else 2 - w
            if sums[idx] > 2:
                ok = False
        if ok:
            depth += 1
    return Valuation(tuple(doubled)) if depth == len(order) else None


@dataclass(frozen=True)
class QHornSplit:
    """A q-Horn formula's own clauses, split by the half-weight variables x2.

    ``phi1`` holds the clauses without a variable of x2, ``phi2`` those with
    one or two, whose other literals weigh 0: once the weight-0 variables
    are renamed, phi1 is Horn and those literals are negative.
    """

    num_vars: int
    x2: tuple[int, ...]
    phi1: CnfFormula
    phi2: CnfFormula


def normalize(formula: CnfFormula, valuation: Valuation) -> QHornSplit:
    """Split the clauses, in their order, into those without and those with a half-weight variable."""
    formula.reject_tautologies(_TAUTOLOGY_MESSAGE)
    if not valuation.witnesses(formula):
        raise PreconditionError("valuation does not witness the formula")
    n = formula.num_vars
    x2 = tuple(v for v in range(1, n + 1) if valuation.doubled[v - 1] == 1)
    x2_set = set(x2)
    phi1, phi2 = [], []
    for clause in formula.clauses:
        (phi2 if any(abs(lit) in x2_set for lit in clause) else phi1).append(clause)
    return QHornSplit(
        num_vars=n,
        x2=x2,
        phi1=CnfFormula(tuple(phi1), n),
        phi2=CnfFormula(tuple(phi2), n),
    )


def _implication_graph(clauses: list[Clause]) -> tuple[list[Literal], list[list[int]], list[list[int]]]:
    """The implication graph of unit and binary clauses, with its strongly connected components.

    Nodes are the occurring literals and their complements in literal_key
    order, so node ``i ^ 1`` is the complement of node ``i``.  A binary
    clause (a ∨ b) gives the edges ¬a → b and ¬b → a, a unit clause (a) the
    edge ¬a → a.  Returns (nodes, successors, components): one iterative
    Tarjan pass lists the components as node indices, sinks first.
    """
    nodes = [lit for var in sorted({abs(lit) for clause in clauses for lit in clause}) for lit in (var, -var)]
    index_of = {lit: i for i, lit in enumerate(nodes)}
    succ: list[list[int]] = [[] for _ in nodes]
    for clause in clauses:
        a, b = index_of[clause[0]], index_of[clause[-1]]
        succ[a ^ 1].append(b)
        if a != b:
            succ[b ^ 1].append(a)

    listed = len(nodes)  # the DFS number of a node once its component is listed, above every live one
    num = [-1] * len(nodes)
    low = [0] * len(nodes)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = count()
    for root in range(len(nodes)):
        if num[root] != -1:
            continue
        num[root] = low[root] = next(counter)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, successors = work[-1]
            for nxt in successors:
                if num[nxt] == -1:
                    num[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if num[nxt] < low[node]:
                    low[node] = num[nxt]
            else:  # every successor explored
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == num[node]:
                    members = [stack.pop()]
                    while members[-1] != node:
                        members.append(stack.pop())
                    for member in members:
                        num[member] = listed
                    components.append(members)
    return nodes, succ, components


def _two_sat_satisfiable(clauses: list[Clause]) -> bool:
    """Decide a CNF of empty, unit and binary clauses exactly.

    Without an empty clause it is satisfiable iff no variable shares a
    strongly connected component of the implication graph with its
    complement (Aspvall, Plass and Tarjan, IPL 8, 1979).
    """
    if any(not clause for clause in clauses):
        return False
    _, _, components = _implication_graph(clauses)
    return not any(i ^ 1 in members for members in map(set, components) for i in members)


def qhorn_sat(split: QHornSplit) -> bool:
    """Satisfiability of the split formula.

    Unit propagation on phi1, whose engine is kept while the split lives
    (propagation._engine); the derived literals are applied to phi2, whose
    clauses inside the half-weight variables form a 2-CNF deciding the rest.
    The others, and what propagation leaves of phi1, hold a free weight-0
    literal (negative after renaming); making those true satisfies them.
    """
    conflict, trail, _ = _engine(split.phi1).run(())
    if conflict:
        return False
    x2_set = set(split.x2)
    reduced = apply_assignment(split.phi2, frozenset(trail))
    return _two_sat_satisfiable([clause for clause in reduced.clauses if all(abs(lit) in x2_set for lit in clause)])


def phi_q_plus(split: QHornSplit) -> CnfFormula:
    """All binary clauses over the half-weight literals derivable by resolution.

    The binary projections of phi2 onto the half-weight literals form an
    implication graph; their binary resolution closure (unit and
    tautological resolvents discarded) is (x ∨ y) for each literal y, on
    another variable than x, reachable from ¬x.  Reachability rows are
    bitsets over the nodes, folded over the components sinks first.
    """
    x2_set = set(split.x2)
    projections = (tuple(lit for lit in clause if abs(lit) in x2_set) for clause in split.phi2.clauses)
    nodes, succ, components = _implication_graph([pair for pair in projections if len(pair) == 2])
    reach = [0] * len(nodes)  # bit j of reach[i]: node j lies at the end of a path from node i
    for members in components:
        row = 0
        for i in members:
            for j in succ[i]:
                row |= (1 << j) | reach[j]  # reach[j] is still 0 inside this component
        for i in members:
            reach[i] = row
    closure: list[Clause] = []
    for i, x in enumerate(nodes):
        above = (i | 1) + 1  # the first node on a later variable than x
        row = reach[i ^ 1] >> above
        while row:
            low = row & -row
            closure.append((x, nodes[above + low.bit_length() - 1]))
            row ^= low
    return CnfFormula(tuple(sorted(closure, key=clause_sort_key)), split.num_vars)


def compile_urc_encoding(formula: CnfFormula, valuation: Valuation | None = None) -> EncodingFormula:
    """Compile a q-Horn formula into a unit-refutation-complete encoding.

    One auxiliary variable per clause of the binary resolution closure over
    the half-weight literals; auxiliary count is at most 2*|x2|^2.  The
    output is an encoding of the input's function over its own variables,
    which stay variables 1..n.
    """
    if valuation is None:
        valuation = recognize_qhorn(formula)
        if valuation is None:
            raise NotQHornError("input formula is not q-Horn")
    split = normalize(formula, valuation)
    n = formula.num_vars
    fq = phi_q_plus(split)
    top = n + len(fq.clauses)
    # every output literal is an entry of the table, so the encoding holds one int object per literal value
    table = literal_table(top)
    auxs = table[n + 1:top + 1]
    closure = [(table[x], table[y]) for x, y in fq.clauses]
    # aux_at[x][y] and aux_at[y][x] hold the auxiliary of the closure clause (x ∨ y); each row is filled
    # in auxiliary order, so its values ascend
    aux_at: dict[Literal, dict[Literal, int]] = defaultdict(dict)
    for aux, (x, y) in zip(auxs, closure):
        aux_at[x][y] = aux_at[y][x] = aux
    x2_set = set(split.x2)

    # Every output clause is built canonical (the input's are, and auxiliaries lie above inputs) and
    # none repeats: phi1 and phi2 are disjoint and each group has its own auxiliary pattern.
    group1: list[Clause] = [tuple(map(table.__getitem__, clause)) for clause in split.phi1.clauses]
    group2: list[Clause] = []
    for clause in split.phi2.clauses:
        clause = tuple(map(table.__getitem__, clause))
        half = tuple(lit for lit in clause if abs(lit) in x2_set)
        if len(half) <= 1:
            group1.append(clause)
        else:
            rest = tuple(lit for lit in clause if abs(lit) not in x2_set)
            group2.append(rest + (aux_at[half[0]][half[1]],))

    # Groups 3 and 4: for each pair a < b of closure auxiliaries whose clauses clash on exactly one
    # literal, in (a, b) order.  The partners b of (p ∨ q) are merged from the ascending auxiliaries
    # of the clauses holding -p and -q, each list ending in the sentinel `end`; one in both lists
    # clashes twice.  mates[lit] lists the other literal of each of those clauses.
    group3: list[Clause] = []
    group4: list[Clause] = []
    end = top + 1
    positions = {lit: [*row.values(), end] for lit, row in aux_at.items()}
    mates = {lit: list(row) for lit, row in aux_at.items()}
    unlisted = [end]
    for a, (p, q) in zip(auxs, closure):
        via_p, via_q = positions.get(-p, unlisted), positions.get(-q, unlisted)
        mates_p, mates_q = mates.get(-p), mates.get(-q)
        k, m = bisect_right(via_p, a), bisect_right(via_q, a)
        not_a = table[-a]
        while True:
            bp, bq = via_p[k], via_q[m]
            if bp < bq:
                b, x, y = bp, q, mates_p[k]
                k += 1
            elif bq < bp:
                b, x, y = bq, p, mates_q[m]
                m += 1
            elif bp == end:
                break
            else:
                k += 1
                m += 1
                continue
            not_b = table[-b]
            if x == y:
                group4.append((x, not_a, not_b))
            else:
                # the resolvent differs from both parents, so only its auxiliary needs placing
                r = aux_at[x][y]
                group3.append((r, not_a, not_b) if r < a else (not_a, r, not_b) if r < b else (not_a, not_b, r))

    group5: list[Clause] = []
    group6: list[Clause] = []
    for aux, (x, y) in zip(auxs, closure):
        group5.append((x, y, table[-aux]))
        group6.append((table[-x], aux))
        group6.append((table[-y], aux))

    encoded = CnfFormula(tuple(group1 + group2 + group3 + group4 + group5 + group6), top)
    inputs = tuple(table[1:n + 1])
    aux_vars = tuple(auxs)
    return EncodingFormula(encoded, inputs, aux_vars)
