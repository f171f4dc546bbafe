"""Deterministic generators for the formula families used by the test matrix.

Every generator is a pure function of its parameter: identical calls give
identical clause order and hence byte-identical DIMACS.  Each one computes
its clause count from the parameter first and raises LimitError, before
any clause is built, when the count is past semantics.PRIME_CLAUSES.

Variable numbering, fixed per family:

* psi_horn / psi_horn_pc (parameter m): x_1..x_m are variables 1..m,
  y_1..y_{m-1} follow, then z_1..z_{m-1}.  The declared universe is 3m+1
  variables; the three highest indices do not occur in any clause.
* psi_qhorn / psi_qhorn_pc (parameter n): x_i = i, a_i = n+i, b_i = 2n+i;
  the explicit encoding appends auxiliaries c_i = 3n+i.
* gamma variants (parameter m): a_i = i, b_i = m+i, c_i = 2m+i, d_i = 3m+i.
* parity (parameter n): inputs x_1..x_n; chain mode appends y_2..y_n as
  n+1..2n-1 (y_1 is constant-folded onto x_1).
"""

from __future__ import annotations

from itertools import combinations, product

from . import semantics
from .cnf import Clause, CnfFormula, EncodingFormula, literal_table, make_clause
from .errors import LimitError, UnsatisfiableError


def _pow2(k: int) -> int:
    """2^k as a clause count, capped just past PRIME_CLAUSES so that a huge k forms no huge int."""
    return 1 << max(0, min(k, semantics.PRIME_CLAUSES.bit_length()))


def _bound(family: str, parameter: int, clauses: int) -> None:
    """Fail closed before a family instance of more than PRIME_CLAUSES clauses is built."""
    if clauses > semantics.PRIME_CLAUSES:
        bound = semantics.PRIME_CLAUSES
        raise LimitError(f"{family}, parameter {parameter}: more than PRIME_CLAUSES = {bound} clauses")


def _cycle(xs) -> list[list[int]]:
    """The clauses of the implication cycle x_1 -> x_2 -> ... -> x_k -> x_1."""
    return [[-a, b] for a, b in zip(xs, [*xs[1:], xs[0]])]


def gen_psi_horn(m: int) -> CnfFormula:
    """Horn formula whose smallest propagation-complete equivalent is exponential.

    2m clauses: the core clauses of psi_horn_base, the i-th widened by -x_i,
    then an implication cycle on x_1..x_m.
    """
    _bound("psi_horn", m, 2 * m)
    base = psi_horn_base(m)
    widened = [[-x, *clause] for x, clause in enumerate(base.clauses, start=1)]
    return CnfFormula.from_clauses(widened + _cycle(range(1, m + 1)), base.num_vars)


def psi_horn_base(m: int) -> CnfFormula:
    """The cycle-free core of psi_horn on the y/z variables (same numbering).

    m clauses: y_i -> z_i for i < m, then one wide negative clause on the z_i.
    """
    if m < 3:
        raise ValueError("psi_horn requires m >= 3")
    _bound("psi_horn_base", m, m)
    y = lambda i: m + i
    z = lambda i: 2 * m - 1 + i
    clauses = [[-y(i), z(i)] for i in range(1, m)]
    clauses.append([-z(i) for i in range(1, m)])
    return CnfFormula.from_clauses(clauses, 3 * m + 1)


def psi_horn_base_primes(m: int) -> tuple[Clause, ...]:
    """All 2^(m-1) + m - 1 prime implicates of the psi_horn core, explicitly.

    The binary clauses of psi_horn_base plus, for every subset S of indices,
    the wide clause with -y_i for i in S and -z_i otherwise; S is read as the
    bits of a counter, bit i-1 for index i.
    """
    _bound("psi_horn_base_primes", m, _pow2(m - 1) + m - 1)
    *binary, _ = psi_horn_base(m).clauses
    # each binary clause (-y_i, z_i) offers -z_i or -y_i; the last factor of product turns fastest
    choices = product(*[(-z, neg_y) for neg_y, z in reversed(binary)])
    return (*binary, *map(make_clause, choices))


def gen_psi_horn_pc(m: int) -> CnfFormula:
    """The smallest propagation-complete equivalent of psi_horn.

    The cycle clauses plus every core prime implicate widened by -x_1:
    2^(m-1) + 2m - 1 clauses in total.
    """
    if m < 3:
        raise ValueError("psi_horn_pc requires m >= 3")
    _bound("psi_horn_pc", m, _pow2(m - 1) + 2 * m - 1)
    widened = [[-1, *prime] for prime in psi_horn_base_primes(m)]
    return CnfFormula.from_clauses(_cycle(range(1, m + 1)) + widened, 3 * m + 1)


def gen_cycle_extension(phi: CnfFormula) -> CnfFormula:
    """Attach an implication cycle of fresh variables to a satisfiable base.

    With m = |phi| clauses and p prime implicates of phi, the result has
    exactly m*p + m*(m-1) prime implicates.  Its 2m clauses are the cycle,
    then the i-th base clause widened by -x_i.
    """
    m = len(phi.clauses)
    if m < 2:
        raise ValueError("cycle extension requires at least 2 clauses")
    _bound("cycle_ext", m, 2 * m)
    if not semantics.satisfiable(phi):
        raise UnsatisfiableError("cycle extension requires a satisfiable base formula")
    xs = range(phi.num_vars + 1, phi.num_vars + m + 1)
    widened = [[-x, *clause] for x, clause in zip(xs, phi.clauses)]
    return CnfFormula.from_clauses(_cycle(xs) + widened, phi.num_vars + m)


def _activators(n: int) -> list[tuple[int, int]]:
    """(a_i, b_i) of psi_qhorn for i = 1..n."""
    return [(n + i, 2 * n + i) for i in range(1, n + 1)]


def _row(n: int, i: int, act: int) -> list[list[int]]:
    """x_i <-> x_{i+1} activated by act; the wrap-around row i = n is x_n <-> -x_1."""
    nxt = i + 1 if i < n else -1
    return [[-act, -i, nxt], [-act, i, -nxt]]


def gen_psi_qhorn(n: int) -> tuple[CnfFormula, tuple[Clause, ...]]:
    """q-Horn family that no polynomial clause set makes unit refutation complete.

    Each of a_i, b_i activates an equivalence x_i <-> x_{i+1} (negated for
    the wrap-around row), so picking one activator per row is inconsistent
    but invisible to unit propagation.  Returns the 4n-clause formula and
    the companion set of the 2^n blocking clauses, one per activator
    choice, which are exactly its prime implicates on the activator
    literals.
    """
    _bound("psi_qhorn blockers", n, _pow2(n))
    formula = _psi_qhorn_formula(n)
    rows = [(-a, -b) for a, b in _activators(n)]
    return formula, tuple(make_clause(choice) for choice in product(*rows))


def _psi_qhorn_formula(n: int) -> CnfFormula:
    """The psi_qhorn formula alone, without its 2^n blocking clauses."""
    if n < 2:
        raise ValueError("psi_qhorn requires n >= 2")
    _bound("psi_qhorn", n, 4 * n)
    clauses = [clause for i, acts in enumerate(_activators(n), start=1) for act in acts for clause in _row(n, i, act)]
    return CnfFormula.from_clauses(clauses, 3 * n)


def gen_psi_qhorn_pc(n: int) -> EncodingFormula:
    """Explicit propagation-complete encoding of the psi_qhorn function.

    Auxiliaries c_i collect a_i and b_i; a single wide clause forbids all
    c_i simultaneously and the equivalence rows hang off c_i: 4n+1 clauses.
    """
    if n < 2:
        raise ValueError("psi_qhorn_pc requires n >= 2")
    _bound("psi_qhorn_pc", n, 4 * n + 1)
    c = lambda i: 3 * n + i
    clauses = [[-act, c(i)] for i, acts in enumerate(_activators(n), start=1) for act in acts]
    clauses.append([-c(i) for i in range(1, n + 1)])
    for i in range(1, n + 1):
        clauses += _row(n, i, c(i))
    formula = CnfFormula.from_clauses(clauses, 4 * n)
    return EncodingFormula(formula, tuple(range(1, 3 * n + 1)), tuple(range(3 * n + 1, 4 * n + 1)))


def gamma_even_subsets(m: int) -> tuple[tuple[int, ...], ...]:
    """Non-empty even-size subsets of {1..m}, by size then lexicographically: 2^(m-1) - 1 of them."""
    _bound("gamma_even_subsets", m, _pow2(m - 1) - 1)
    out = []
    for k in range(2, m + 1, 2):
        out.extend(combinations(range(1, m + 1), k))
    return tuple(out)


def gen_gamma(m: int, variant: str = "base") -> CnfFormula:
    """The three-way family separating irredundant URC sizes.

    base: one wide positive clause over the a_i plus m definite-Horn blocks
    (a_i -> b_i, a_i -> c_i, b_i & c_i -> d_i); 3m+1 clauses.
    prime: base plus the resolved shortcuts a_i -> d_i; 4m+1 clauses,
    propagation complete.
    dprime: base plus one blocking clause per non-empty even subset I
    (gamma_blocking_clause); 3m + 2^(m-1) clauses, unit refutation
    complete and URC-irredundant.
    """
    if m < 2:
        raise ValueError("gamma requires m >= 2")
    sizes = {"base": 3 * m + 1, "prime": 4 * m + 1, "dprime": 3 * m + _pow2(m - 1)}
    if variant not in sizes:
        raise ValueError(f"unknown gamma variant {variant!r}")
    _bound(f"gamma {variant}", m, sizes[variant])
    a = lambda i: i
    b = lambda i: m + i
    c = lambda i: 2 * m + i
    d = lambda i: 3 * m + i
    clauses: list = [[a(i) for i in range(1, m + 1)]]
    for i in range(1, m + 1):
        clauses.append([-a(i), b(i)])
        clauses.append([-a(i), c(i)])
        clauses.append([-b(i), -c(i), d(i)])
    if variant == "prime":
        clauses += [[-a(i), d(i)] for i in range(1, m + 1)]
    elif variant == "dprime":
        clauses += [gamma_blocking_clause(m, subset) for subset in gamma_even_subsets(m)]
    return CnfFormula.from_clauses(clauses, 4 * m)


def gamma_blocking_clause(m: int, subset: tuple[int, ...]) -> Clause:
    """The dprime clause attached to one even subset I: a_j for j outside I, d_i for i inside."""
    inside = set(subset)
    d = lambda i: 3 * m + i
    return make_clause([j for j in range(1, m + 1) if j not in inside] + [d(i) for i in subset])


def gen_parity(n: int, mode: str = "cnf") -> CnfFormula | EncodingFormula:
    """Odd parity of n inputs.

    cnf: the canonical representation, all 2^(n-1) full-width clauses each
    excluding one even-parity point; every one of them is prime.
    encoding: the chain y_i = y_{i-1} xor x_i with y_1 folded onto x_1,
    four clauses per stage plus the unit y_n; 4(n-1)+1 clauses and n-1
    auxiliary variables, and the result is propagation complete.
    """
    if n < 2:
        raise ValueError("parity requires n >= 2")
    if mode == "cnf":
        _bound("parity cnf", n, _pow2(n - 1))
        # the clause excluding the point word, built canonical: variables ascending, x_v negated where bit v-1 is
        # set; both literals of x_v come from one table, so the 2^(n-1) clauses share 2n int objects
        table = literal_table(n)
        literals = [(table[v], table[-v]) for v in range(1, n + 1)]
        clauses = tuple(tuple([pair[word >> j & 1] for j, pair in enumerate(literals)])
                        for word in range(1 << n) if not word.bit_count() & 1)
        return CnfFormula(clauses, n)
    if mode == "encoding":
        _bound("parity encoding", n, 4 * (n - 1) + 1)
        y = lambda i: n + i - 1  # y_i for i >= 2
        clauses = []
        for i in range(2, n + 1):
            prev = 1 if i == 2 else y(i - 1)
            cur = y(i)
            xi = i
            clauses.append([-cur, prev, xi])
            clauses.append([-cur, -prev, -xi])
            clauses.append([cur, -prev, xi])
            clauses.append([cur, prev, -xi])
        clauses.append([y(n)])
        formula = CnfFormula.from_clauses(clauses, 2 * n - 1)
        return EncodingFormula(formula, tuple(range(1, n + 1)), tuple(range(n + 1, 2 * n)))
    raise ValueError(f"unknown parity mode {mode!r}")


GENERATORS = {
    "psi_horn": gen_psi_horn,
    "psi_horn_pc": gen_psi_horn_pc,
    "psi_qhorn": _psi_qhorn_formula,
    "psi_qhorn_pc": gen_psi_qhorn_pc,
    "gamma": lambda m: gen_gamma(m, "base"),
    "gamma_prime": lambda m: gen_gamma(m, "prime"),
    "gamma_dprime": lambda m: gen_gamma(m, "dprime"),
    "parity_cnf": lambda n: gen_parity(n, "cnf"),
    "parity_enc": lambda n: gen_parity(n, "encoding"),
}

# cycle_ext takes a base formula, not a parameter, so generate does not serve it
FAMILY_NAMES = (*GENERATORS, "cycle_ext")


def generate(family: str, parameter: int) -> CnfFormula | EncodingFormula:
    """Uniform entry point used by the command line tool."""
    if family not in GENERATORS:
        raise ValueError(f"unknown family {family!r}")
    return GENERATORS[family](parameter)


def companions(family: str, parameter: int) -> dict | None:
    """Companion test fixtures (index sets, blocking clauses) for a family."""
    if family == "psi_qhorn":
        _, blockers = gen_psi_qhorn(parameter)
        return {"u_bar": [list(clause) for clause in blockers]}
    if family == "gamma_dprime":
        return {"even_subsets": [list(s) for s in gamma_even_subsets(parameter)]}
    return None
