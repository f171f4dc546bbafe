#!/usr/bin/env python3
"""From a q-Horn formula to a unit-refutation-complete encoding.

The pipeline: find a literal valuation witnessing q-Horn-ness, rename so
every variable weighs 1 or 1/2, split into a Horn part and a 2-CNF-like
part, close the half-weight projections under binary resolution, and emit
one auxiliary variable per closure clause together with clauses that let
unit propagation replay any resolution refutation.
"""

from pcforge import (
    compile_urc_encoding,
    enumerate_models,
    gen_psi_qhorn,
    is_encoding_of,
    is_urc,
    normalize,
    phi_q_plus,
    qhorn_sat,
    recognize_qhorn,
)
from pcforge.cnf import CnfFormula
from pcforge.semantics import satisfiable

print(__doc__)

formula, _ = gen_psi_qhorn(2)
print("input: the activator family with n=2 (8 clauses, 6 variables)")
valuation = recognize_qhorn(formula)
print("recognized weights:", {v: str(valuation.weight(v)) for v in formula.variables})

split = normalize(formula, valuation)
print("split: weight-1 block has", len(split.phi1.clauses), "clauses;",
      len(split.phi2.clauses), "clauses carry half-weight literals")
closure = phi_q_plus(split)
print("binary closure over the half-weight literals:", list(closure.clauses))

print("satisfiability by the split procedure:", qhorn_sat(split),
      "(exhaustive check:", satisfiable(formula), ")")
print()

encoding = compile_urc_encoding(formula)
print(f"compiled encoding: {len(encoding.formula.clauses)} clauses,"
      f" {len(encoding.aux_vars)} auxiliary variables")
print("  encodes the same function:", is_encoding_of(encoding, enumerate_models(formula)))
print("  input URC:", is_urc(formula).verdict,
      "-> encoding URC:", is_urc(encoding.formula).verdict)
print("  encoding itself q-Horn:", recognize_qhorn(encoding.formula) is not None)
print()

# the same machinery on a formula where activating both rows is forced
hard = CnfFormula.from_clauses(list(formula.clauses) + [[3], [4]], 6)
print("adding units a1, a2 makes the input unsatisfiable:")
print("  split procedure says:", "SAT" if qhorn_sat(normalize(hard, recognize_qhorn(hard))) else "UNSAT")
compiled_hard = compile_urc_encoding(hard)
print("  compiled encoding refutes it by unit propagation alone:",
      is_urc(compiled_hard.formula).verdict)
