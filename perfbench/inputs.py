"""Seeded inputs of the three benchmark workloads.

Everything here is plain Python over clause lists and produces DIMACS text
with the benchmark's own writer.  The random formulas never go through
``pcforge.corpus`` or ``pcforge.semantics``: a change to the program cannot
silently change a workload, and generating inputs does not warm the program
caches that the measured worker starts without.  The paper's family
instances do come from ``pcforge.families``; their DIMACS digest is pinned
below, so a change to a generator stops the benchmark instead of quietly
moving the workload.

Each workload builder returns a list of operations (JSON-ready dicts) and
a ``meta`` list, aligned with it, that holds what the checks need but the
worker must not see (planted valuations, expected closed forms).
"""

from __future__ import annotations

import hashlib
import random

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "walk": ("Hundreds of small random satisfiable and Horn CNFs (n <= 8): stresses the 3^n assignment "
             "walks, short unit-propagation runs and cl_sem on tiny model arrays."),
    "primes": ("The paper's separation families at the largest sizes that fit a run: the prime-implicate "
               "engine does the work and the deciders and reducers reuse its cached result."),
    "encode": ("Seeded q-Horn formulas through recognize, normalize, 2-SAT, compile and DIMACS output, "
               "then propagation queries and exact encoding checks over up to 2^22 words."),
}

# sha256 over the DIMACS of every family instance in the primes workload.
FAMILY_DIGEST = "4da4775519561b2dc917933c3180d58ffbca982a44fb4385723e6f98ed3714f6"

# walk: (variables, clauses, count) per stratum.  Fixed counts per size keep
# the 3^n cost of a batch close to equal across seeds.
WALK_STRATA = ((3, 5, 30), (4, 7, 50), (5, 9, 60), (6, 10, 30), (7, 12, 12), (8, 14, 4))
WALK_HORN_STRATA = ((5, 8, 20), (6, 9, 20), (7, 10, 6))

# primes: family instances and the operations run on them.
PSI_HORN_M = 7
PSI_HORN_PC_M = 6
PARITY_ENC_N = 7
PARITY_CNF_N = 8
GAMMA_DPRIME_M = 4
PSI_QHORN_N = 5
COMPILED_PSI_QHORN_N = 2

# encode: large compiles with queries, and exactly verified mid-size ones.
# (horn vars, half vars, horn clauses, half-part edges, horn clause widths, renamed share)
LARGE_QHORN = (30, 12, 40, 20, (2, 4), 0.5)
LARGE_COUNT = 8
QUERIES_PER_LARGE = 26
# The same shapes with no renamed variables, so the recognizer's split is the
# planted one and n + aux stays within enumeration range; the last field is
# the most auxiliaries allowed.  The first two have about 10^6 models, so
# onset and model-cache memory show; the last has 4 auxiliaries, so checking
# it scans 2^22 words.
MID_QHORN = ((18, 2, 6, 1, (5, 7), 0.0, 2), (18, 2, 6, 1, (5, 7), 0.0, 2), (16, 2, 20, 2, (2, 4), 0.0, 4))


def to_dimacs(clauses, num_vars: int) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" if clause else "0" for clause in clauses)
    return "\n".join(lines) + "\n"


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def eval_clauses(clauses, word: int) -> bool:
    """True iff the assignment word (bit v-1 = variable v) satisfies every clause."""
    for clause in clauses:
        if not any(((word >> (abs(lit) - 1)) & 1) == (lit > 0) for lit in clause):
            return False
    return True


def models(clauses, num_vars: int) -> list[int]:
    return [w for w in range(1 << num_vars) if eval_clauses(clauses, w)]


def _canon(lits) -> list[int]:
    return sorted(set(lits), key=lambda lit: (abs(lit), lit < 0))


# --- walk -----------------------------------------------------------------

def _random_cnf(rng: random.Random, n: int, m: int, horn: bool) -> list[list[int]]:
    while True:
        clauses = []
        for _ in range(m):
            width = min(n, rng.choice((1, 2, 2, 3, 3, 3)))
            variables = rng.sample(range(1, n + 1), width)
            if horn:
                positive = rng.randrange(width + 1)  # index `width`: all negative
                lits = [v if i == positive else -v for i, v in enumerate(variables)]
            else:
                lits = [v if rng.random() < 0.5 else -v for v in variables]
            clause = _canon(lits)
            if clause not in clauses:
                clauses.append(clause)
        if models(clauses, n):
            return clauses


def build_walk(seed: int):
    rng = random.Random(seed * 7919 + 1)
    ops, meta = [], []
    for strata, horn in ((WALK_STRATA, False), (WALK_HORN_STRATA, True)):
        for n, m, count in strata:
            for _ in range(count):
                clauses = _random_cnf(rng, n, m, horn)
                ops.append({"kind": "walk", "dimacs": to_dimacs(clauses, n)})
                meta.append({"clauses": clauses, "n": n, "horn": horn})
    # interleave sizes so a prefix of the list is a fair sample of the whole
    order = list(range(len(ops)))
    random.Random(seed).shuffle(order)
    return [ops[i] for i in order], [meta[i] for i in order]


# --- primes ---------------------------------------------------------------

def family_instances():
    """(label, clauses, num_vars) of every family instance, in a fixed order."""
    from pcforge.families import gen_gamma, gen_parity, gen_psi_horn, gen_psi_horn_pc, gen_psi_qhorn
    from pcforge.qhorn import compile_urc_encoding

    compiled = compile_urc_encoding(gen_psi_qhorn(COMPILED_PSI_QHORN_N)[0])
    out = [
        ("psi_horn", gen_psi_horn(PSI_HORN_M)),
        ("parity_enc", gen_parity(PARITY_ENC_N, "encoding").formula),
        ("parity_cnf", gen_parity(PARITY_CNF_N, "cnf")),
        ("gamma_dprime", gen_gamma(GAMMA_DPRIME_M, "dprime")),
        ("psi_qhorn", gen_psi_qhorn(PSI_QHORN_N)[0]),
        ("psi_horn_pc", gen_psi_horn_pc(PSI_HORN_PC_M)),
        ("compiled_psi_qhorn", compiled.formula),
    ]
    return [(label, [list(c) for c in f.clauses], f.num_vars) for label, f in out]


def build_primes(seed: int):
    instances = family_instances()
    texts = {label: to_dimacs(clauses, n) for label, clauses, n in instances}
    rng = random.Random(seed * 7919 + 2)
    reduce_seeds = {"gamma_dprime": rng.randrange(1 << 30), "psi_horn_pc": rng.randrange(1 << 30)}
    plan = [
        ("psi_horn", "primes"), ("psi_horn", "urc"), ("psi_horn", "pc"),
        ("parity_enc", "urc"), ("parity_enc", "pc"),
        ("parity_cnf", "primes"),
        ("gamma_dprime", "urc"), ("gamma_dprime", "reduce_urc"),
        ("psi_qhorn", "primes"), ("psi_qhorn", "urc"),
        ("psi_horn_pc", "reduce_pc"),
        ("compiled_psi_qhorn", "urc"),
    ]
    clauses_of = {label: (clauses, n) for label, clauses, n in instances}
    ops, meta = [], []
    for label, action in plan:
        op = {"kind": "primes", "action": action, "dimacs": texts[label]}
        if action.startswith("reduce"):
            op["seed"] = reduce_seeds[label]
        ops.append(op)
        clauses, n = clauses_of[label]
        meta.append({"family": label, "clauses": clauses, "n": n})
    return ops, meta, digest(texts[label] for label, _, _ in instances)


# --- encode ---------------------------------------------------------------

def _qhorn_instance(rng: random.Random, horn_vars: int, half_vars: int, horn_clauses: int,
                    edges: int, horn_width: tuple[int, int], renamed_share: float):
    """A satisfiable q-Horn formula with a planted valuation.

    The half part is a graph on the half variables: each edge (u, v) is an
    equivalence (u = v) or an exclusion (u != v), written as two ternary
    clauses guarded by the negation of a Horn variable, as in psi_qhorn.  A
    spanning cycle with an odd number of exclusions forces weight 1/2 on
    every half variable, so the recognizer finds the planted split.  Guards
    of edges the planted model violates are false in that model, which keeps
    the formula satisfiable.  Clauses are drawn in the renamed space, where
    Horn variables weigh 1; then a random share of them is renamed back.
    """
    n = horn_vars + half_vars
    variables = list(range(1, n + 1))
    rng.shuffle(variables)
    x1, x2 = sorted(variables[:horn_vars]), sorted(variables[horn_vars:])
    flipped = {v for v in x1 if rng.random() < renamed_share}
    model = {v: rng.random() < 0.5 for v in range(1, n + 1)}
    model[x1[0]] = False
    false_horn = [v for v in x1 if not model[v]]

    def satisfied(lits) -> bool:
        return any(model[abs(lit)] == (lit > 0) for lit in lits)

    renamed: list[list[int]] = []
    while len(renamed) < horn_clauses:
        width = rng.randint(*horn_width)
        vs = rng.sample(x1, width)
        positive = rng.randrange(width + 1)
        lits = _canon(v if i == positive else -v for i, v in enumerate(vs))
        if satisfied(lits) and lits not in renamed:
            renamed.append(lits)
    ring = x2[:]
    rng.shuffle(ring)
    pairs = list(zip(ring, ring[1:] + ring[:1])) if len(ring) > 2 else [tuple(ring)]
    kinds = [rng.random() < 0.5 for _ in pairs]  # True: exclusion
    if sum(kinds) % 2 == 0:
        kinds[0] = not kinds[0]
    while len(pairs) < edges:
        pairs.append(tuple(rng.sample(x2, 2)))
        kinds.append(rng.random() < 0.5)
    if len(x2) == 2 and len(kinds) > 1:
        kinds[1] = not kinds[0]  # both kinds on one pair force the two half weights
    for (u, v), exclusion in zip(pairs, kinds):
        if exclusion:
            rows = ([u, v], [-u, -v])
        else:
            rows = ([-u, v], [u, -v])
        violated = not all(satisfied(row) for row in rows)
        guard = rng.choice(false_horn if violated else x1)
        for row in rows:
            lits = _canon(row + [-guard])
            if lits not in renamed:
                renamed.append(lits)
    clauses = [_canon(-lit if abs(lit) in flipped else lit for lit in c) for c in renamed]
    doubled = [1 if v in x2 else (0 if v in flipped else 2) for v in range(1, n + 1)]
    return clauses, n, doubled, x2


def binary_closure_size(clauses, half) -> int:
    """Number of binary clauses over the half variables derivable by binary resolution.

    Written independently of ``pcforge.qhorn.phi_q_plus``: seeds are the
    two-literal projections of clauses onto the half variables; unit and
    tautological resolvents are dropped.
    """
    half = set(half)
    closure = set()
    for clause in clauses:
        proj = frozenset(lit for lit in clause if abs(lit) in half)
        if len(proj) == 2:
            closure.add(proj)
    changed = True
    while changed:
        changed = False
        for c1 in list(closure):
            for c2 in list(closure):
                pivots = [lit for lit in c1 if -lit in c2]
                if len(pivots) != 1:
                    continue
                res = (c1 - {pivots[0]}) | (c2 - {-pivots[0]})
                if len(res) == 2 and not any(-lit in res for lit in res) and res not in closure:
                    closure.add(res)
                    changed = True
    return len(closure)


def build_encode(seed: int):
    rng = random.Random(seed * 7919 + 3)
    ops, meta = [], []
    for _ in range(LARGE_COUNT):
        clauses, n, doubled, x2 = _qhorn_instance(rng, *LARGE_QHORN)
        compile_index = len(ops)
        ops.append({"kind": "compile", "dimacs": to_dimacs(clauses, n)})
        meta.append({"clauses": clauses, "n": n, "doubled": doubled})
        for _ in range(QUERIES_PER_LARGE):
            size = rng.randint(2, 8)
            alpha = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), size)]
            ops.append({"kind": "query", "compile": compile_index, "alpha": _canon(alpha)})
            meta.append({"clauses": clauses, "n": n, "doubled": doubled})
    for *shape, max_aux in MID_QHORN:
        while True:
            clauses, n, doubled, x2 = _qhorn_instance(rng, *shape)
            aux = binary_closure_size(clauses, x2)
            if aux <= max_aux:
                break
        ops.append({"kind": "verify", "dimacs": to_dimacs(clauses, n)})
        meta.append({"clauses": clauses, "n": n, "doubled": doubled})
    return ops, meta


def build(workload: str, seed: int):
    """(ops, meta, provenance) of one workload at one seed."""
    family_digest = None
    if workload == "walk":
        ops, meta = build_walk(seed)
    elif workload == "primes":
        ops, meta, family_digest = build_primes(seed)
    elif workload == "encode":
        ops, meta = build_encode(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    texts = [op.get("dimacs", "") + str(op.get("alpha", "")) + str(op.get("seed", "")) for op in ops]
    provenance = {"operations": len(ops), "input_digest": digest(texts), "why": WHY[workload]}
    if family_digest is not None:
        provenance["family_digest"] = family_digest
    return ops, meta, provenance
