"""q-Horn recognition, satisfiability, and compilation to a URC encoding.

A formula is q-Horn when its literals admit weights in {0, 1/2, 1} with
complementary literals summing to 1 and every clause summing to at most 1.
After renaming so that no variable has weight 0, the weight-1 part is Horn
and the remaining clauses carry one or two half-weight literals.  The
satisfiability procedure propagates on the Horn part, projects the rest to
a 2-CNF and decides it by implication-graph reachability.

The compiler turns the same structure into a unit-propagation-friendly
encoding: one auxiliary variable per binary clause derivable over the
half-weight literals, definitional clauses tying each auxiliary to its
clause, and ternary clauses that let unit propagation simulate binary
resolution.  The result represents the same function over the original
variables and is unit refutation complete; it is generally not q-Horn
itself.

Weights are stored doubled (0, 1, 2) so all arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .cnf import Clause, CnfFormula, EncodingFormula, Literal, apply_assignment, make_clause
from .errors import NotQHornError, PreconditionError, TautologyError
from .propagation import UnitPropagator
from .semantics import clause_sort_key


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


def _check_no_tautologies(formula: CnfFormula):
    if formula.tautological_clauses():
        raise TautologyError("q-Horn operations do not accept tautological clauses")


def recognize_qhorn(formula: CnfFormula) -> Valuation | None:
    """Find a witnessing valuation, or None when none exists (exact).

    Fast paths first: any 2-CNF takes weight 1/2 everywhere, any Horn
    formula weight 1 everywhere.  Otherwise a backtracking search over
    per-variable weights, pruning on partial clause sums.
    """
    _check_no_tautologies(formula)
    n = formula.num_vars
    if all(len(clause) <= 2 for clause in formula.clauses):
        return Valuation((1,) * n)
    if formula.is_horn():
        return Valuation((2,) * n)

    occurrences: dict[int, list[tuple[int, Literal]]] = {v: [] for v in range(1, n + 1)}
    for idx, clause in enumerate(formula.clauses):
        for lit in clause:
            occurrences[abs(lit)].append((idx, lit))
    order = sorted(range(1, n + 1), key=lambda v: (-len(occurrences[v]), v))
    sums = [0] * len(formula.clauses)
    doubled = [2] * n

    def search(depth: int) -> bool:
        if depth == len(order):
            return True
        var = order[depth]
        for w in (2, 1, 0):
            doubled[var - 1] = w
            ok = True
            for idx, lit in occurrences[var]:
                sums[idx] += w if lit > 0 else 2 - w
                if sums[idx] > 2:
                    ok = False  # undecided literals only add weight, so this prunes soundly
            if ok and search(depth + 1):
                return True
            for idx, lit in occurrences[var]:
                sums[idx] -= w if lit > 0 else 2 - w
        return False

    if search(0):
        return Valuation(tuple(doubled))
    return None


@dataclass(frozen=True)
class QHornSplit:
    """Renaming-normalized view of a q-Horn formula.

    All clauses live in the renamed space where every variable weighs 1 or
    1/2; ``flipped`` records which variables were renamed.  ``phi1`` holds
    the clauses entirely on weight-1 variables (a Horn formula), ``phi2``
    the clauses with one or two half-weight literals.
    """

    num_vars: int
    flipped: frozenset[int]
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    phi1: CnfFormula
    phi2: CnfFormula

    def unflip(self, lit: Literal) -> Literal:
        return -lit if abs(lit) in self.flipped else lit


def normalize(formula: CnfFormula, valuation: Valuation) -> QHornSplit:
    """Rename weight-0 variables and split into the Horn and half-weight parts."""
    _check_no_tautologies(formula)
    if not valuation.witnesses(formula):
        raise PreconditionError("valuation does not witness the formula")
    n = formula.num_vars
    flipped = frozenset(v for v in range(1, n + 1) if valuation.doubled[v - 1] == 0)
    weight = [2 if valuation.doubled[v - 1] in (0, 2) else 1 for v in range(1, n + 1)]
    x1 = tuple(v for v in range(1, n + 1) if weight[v - 1] == 2)
    x2 = tuple(v for v in range(1, n + 1) if weight[v - 1] == 1)
    x2_set = set(x2)
    phi1, phi2 = [], []
    for clause in formula.clauses:
        renamed = make_clause(-lit if abs(lit) in flipped else lit for lit in clause)
        if any(abs(lit) in x2_set for lit in renamed):
            phi2.append(renamed)
        else:
            phi1.append(renamed)
    return QHornSplit(
        num_vars=n,
        flipped=flipped,
        x1=x1,
        x2=x2,
        phi1=CnfFormula.from_clauses(phi1, n),
        phi2=CnfFormula.from_clauses(phi2, n),
    )


def _two_sat_satisfiable(clauses: list[Clause]) -> bool:
    """Decide a CNF of empty, unit and binary clauses exactly.

    Unit propagation settles the units.  Without a conflict, every binary
    clause touching an assigned variable is then satisfied, and the binary
    clauses with neither variable assigned are decided through the strongly
    connected components of their implication graph.
    """
    num_vars = max((abs(lit) for clause in clauses for lit in clause), default=0)
    conflict, trail, _ = UnitPropagator(CnfFormula(tuple(clauses), num_vars)).run(())
    if conflict:
        return False
    assigned = {abs(lit) for lit in trail}
    residue = [c for c in clauses if len(c) == 2 and abs(c[0]) not in assigned and abs(c[1]) not in assigned]

    nodes = sorted({lit for pair in residue for lit in pair} | {-lit for pair in residue for lit in pair})
    index_of = {lit: i for i, lit in enumerate(nodes)}
    edges: list[list[int]] = [[] for _ in nodes]
    for a, b in residue:
        edges[index_of[-a]].append(index_of[b])
        edges[index_of[-b]].append(index_of[a])

    # iterative Tarjan
    comp = [-1] * len(nodes)
    low = [0] * len(nodes)
    num = [-1] * len(nodes)
    stack: list[int] = []
    on_stack = [False] * len(nodes)
    counter = 0
    comp_count = 0
    for root in range(len(nodes)):
        if num[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, edge_idx = work.pop()
            if edge_idx == 0:
                num[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for next_idx in range(edge_idx, len(edges[node])):
                succ = edges[node][next_idx]
                if num[succ] == -1:
                    work.append((node, next_idx + 1))
                    work.append((succ, 0))
                    advanced = True
                    break
                if on_stack[succ]:
                    low[node] = min(low[node], num[succ])
            if advanced:
                continue
            if low[node] == num[node]:
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp[top] = comp_count
                    if top == node:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    for lit in nodes:
        if lit > 0 and -lit in index_of and comp[index_of[lit]] == comp[index_of[-lit]]:
            return False
    return True


def qhorn_sat(split: QHornSplit) -> bool:
    """Satisfiability of the split formula.

    Unit propagation on the Horn part; its derived literals are applied to
    the half-weight part, whose clauses that fall entirely inside the
    half-weight literals form a 2-CNF deciding the rest.  Clauses still
    mentioning weight-1 variables are satisfiable by an autark assignment
    setting those variables false, so they can be dropped.
    """
    engine = UnitPropagator(split.phi1)
    conflict, trail, _ = engine.run(())
    if conflict:
        return False
    x2_set = set(split.x2)
    reduced = apply_assignment(split.phi2, frozenset(trail))
    return _two_sat_satisfiable([clause for clause in reduced.clauses if all(abs(lit) in x2_set for lit in clause)])


def _binary_resolvent(ci: Clause, cj: Clause) -> Clause | None:
    """The canonical resolvent of two binary clauses clashing on exactly one literal, else None."""
    (a, b), (c, d) = ci, cj
    if -a in cj:
        if -b in cj:
            return None
        x, y = b, d if c == -a else c
    elif -b in cj:
        x, y = a, d if c == -b else c
    else:
        return None
    if x == y:
        return (x,)
    return (x, y) if abs(x) < abs(y) else (y, x)  # x == -y would need a second clash


def phi_q_plus(split: QHornSplit) -> CnfFormula:
    """All binary clauses over the half-weight literals derivable by resolution.

    Seeded by the binary projections of phi2 onto the half-weight literals
    and closed under binary-by-binary resolution; unit or tautological
    resolvents are discarded (units cannot breed new binary clauses here).
    """
    x2_set = set(split.x2)
    seeds = set()
    for clause in split.phi2.clauses:
        projection = make_clause(lit for lit in clause if abs(lit) in x2_set)
        if len(projection) == 2:
            seeds.add(projection)
    closure = set(seeds)
    by_lit: dict[Literal, list[Clause]] = defaultdict(list)
    for clause in seeds:
        for lit in clause:
            by_lit[lit].append(clause)
    frontier = list(seeds)
    while frontier:
        clause = frontier.pop()
        # a partner must contain the complement of one of the clause's two literals
        for other in by_lit[-clause[0]] + by_lit[-clause[1]]:
            resolvent = _binary_resolvent(clause, other)
            if resolvent is not None and len(resolvent) == 2 and resolvent not in closure:
                closure.add(resolvent)
                frontier.append(resolvent)
                for lit in resolvent:
                    by_lit[lit].append(resolvent)
    ordered = sorted(closure, key=clause_sort_key)
    return CnfFormula(tuple(ordered), split.num_vars)


def _resolution_pairs(clauses: tuple[Clause, ...]) -> Iterator[tuple[Clause, Clause, Clause]]:
    """(ci, cj, resolvent) for each pair i < j of binary clauses that resolves, in (i, j) order."""
    positions: dict[Literal, list[int]] = defaultdict(list)
    for j, clause in enumerate(clauses):
        for lit in clause:
            positions[lit].append(j)
    for i, ci in enumerate(clauses):
        # a partner contains the complement of one of ci's literals
        for j in sorted({j for lit in ci for j in positions[-lit] if j > i}):
            resolvent = _binary_resolvent(ci, clauses[j])
            if resolvent is not None:
                yield ci, clauses[j], resolvent


def compile_urc_encoding(formula: CnfFormula, valuation: Valuation | None = None) -> EncodingFormula:
    """Compile a q-Horn formula into a unit-refutation-complete encoding.

    One auxiliary variable per clause of the binary resolution closure over
    the half-weight literals; auxiliary count is at most 2*|x2|^2.  The
    output is an encoding of the input's function over the original,
    un-renamed variables.
    """
    _check_no_tautologies(formula)
    if valuation is None:
        valuation = recognize_qhorn(formula)
        if valuation is None:
            raise NotQHornError("input formula is not q-Horn")
    split = normalize(formula, valuation)
    fq = phi_q_plus(split)
    n = formula.num_vars
    aux_of = {clause: n + 1 + idx for idx, clause in enumerate(fq.clauses)}
    x2_set = set(split.x2)

    def unflip_clause(lits) -> Clause:
        return make_clause(split.unflip(lit) if abs(lit) <= n else lit for lit in lits)

    group1: list[Clause] = []
    group2: list[Clause] = []
    for clause in split.phi1.clauses:
        group1.append(unflip_clause(clause))
    for clause in split.phi2.clauses:
        half = [lit for lit in clause if abs(lit) in x2_set]
        if len(half) <= 1:
            group1.append(unflip_clause(clause))
        else:
            key = make_clause(half)
            rest = [lit for lit in clause if abs(lit) not in x2_set]
            group2.append(unflip_clause(rest + [aux_of[key]]))

    group3: list[Clause] = []
    group4: list[Clause] = []
    clauses_list = fq.clauses
    for ci, cj, resolvent in _resolution_pairs(clauses_list):
        if len(resolvent) == 1:
            group4.append(unflip_clause([-aux_of[ci], -aux_of[cj], resolvent[0]]))
        else:
            group3.append(make_clause([-aux_of[ci], -aux_of[cj], aux_of[resolvent]]))

    group5: list[Clause] = []
    group6: list[Clause] = []
    for clause in clauses_list:
        u, v = clause
        aux = aux_of[clause]
        group5.append(unflip_clause([-aux, u, v]))
        group6.append(unflip_clause([-u, aux]))
        group6.append(unflip_clause([-v, aux]))

    all_clauses = group1 + group2 + group3 + group4 + group5 + group6
    encoded = CnfFormula.from_clauses(all_clauses, n + len(clauses_list))
    inputs = tuple(range(1, n + 1))
    aux_vars = tuple(range(n + 1, n + 1 + len(clauses_list)))
    return EncodingFormula(encoded, inputs, aux_vars)
