#!/usr/bin/env python3
"""Propagation completeness through the dual-rail lens.

Translating a CNF into its implicational dual-rail Horn formula turns
"sets of literals closed under unit propagation" into plain models.  A
satisfiable formula is PC exactly when its translation is equivalent to
the translation of its full prime implicate set, which Horn reasoning
decides with unit propagation alone.
"""

from pcforge import (
    CnfFormula,
    closed_assignments,
    dual_rail,
    gen_gamma,
    gen_psi_qhorn,
    horn_equivalent,
    is_pc,
    pc_via_dual_rail,
    prime_implicates,
)
from pcforge.cnf import literal_vector
from pcforge.semantics import _model_words

print(__doc__)

formula = CnfFormula.from_clauses([[1, 2]], 2)
rail = dual_rail(formula)
print("source: (x1 or x2); translation over [[x1]]=1, [[x2]]=2, [[-x1]]=3, [[-x2]]=4:")
for clause in rail.clauses:
    print("   ", clause)
print()

# a model word of the translation is the literal vector of the assignment it stands for
models = {int(w) for w in _model_words(rail)}
closed = closed_assignments(formula)
vectors = {literal_vector(alpha, formula.num_vars) for alpha in closed}
print("models of the translation:", len(models), "- semantically closed assignments:", len(vectors))
print("equal:", models == vectors, "=> (x1 or x2) is PC:", is_pc(formula).verdict)
print()

print("the same check as a Horn-equivalence cross-oracle:")
for name, candidate in [("gamma_prime(3)", gen_gamma(3, "prime")),
                        ("psi_qhorn(3)", gen_psi_qhorn(3)[0])]:
    direct = is_pc(candidate).verdict
    via_rail = pc_via_dual_rail(candidate)
    source = dual_rail(candidate)
    target = dual_rail(prime_implicates(candidate))
    print(f"  {name}: direct decider={direct}, dual-rail={via_rail},"
          f" translations equivalent={horn_equivalent(source, target)}")
