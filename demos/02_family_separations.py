#!/usr/bin/env python3
"""The formula families behind the size separations.

Three constructions, each showing a different gap:

* psi_horn: a small Horn formula whose smallest PC equivalent needs
  2^(m-1) + 2m - 1 clauses (prime implicate counts grow like m * 2^m).
* psi_qhorn: a q-Horn formula where *every* equivalent URC formula needs
  all 2^n activator blocking clauses.
* gamma: one function with a 4m+1-clause PC representation and a
  URC-irredundant representation of size 3m + 2^(m-1) - irredundancy is
  a size guarantee for PC but not for URC.
"""

from pcforge import (
    gen_gamma,
    gen_psi_horn,
    gen_psi_horn_pc,
    gen_psi_qhorn,
    is_pc,
    is_urc,
    prime_implicates,
    reduce_urc_irredundant,
)
from pcforge.semantics import equivalent

print(__doc__)

print("psi_horn: clause count vs. prime implicates vs. smallest PC size")
for m in (3, 4, 5):
    formula = gen_psi_horn(m)
    primes = prime_implicates(formula)
    pc_form = gen_psi_horn_pc(m)
    print(f"  m={m}:  |formula|={len(formula.clauses):2d}   #primes={len(primes.clauses):3d}"
          f"   |smallest PC|={len(pc_form.clauses):2d}   equivalent={equivalent(formula, pc_form)}")
print()

print("psi_qhorn: unit propagation cannot see the activator conflict")
for n in (2, 3):
    formula, blockers = gen_psi_qhorn(n)
    report = is_urc(formula)
    print(f"  n={n}: URC={report.verdict}, witness={sorted(report.witness)} "
          f"(choose one activator per row), blocking clauses needed: {len(blockers)}")
print()

print("gamma: PC-irredundant vs URC-irredundant sizes for one function")
for m in (2, 3, 4):
    prime_variant = gen_gamma(m, "prime")
    dprime_variant = gen_gamma(m, "dprime")
    fixed = reduce_urc_irredundant(dprime_variant, limit=dprime_variant.num_vars)
    print(f"  m={m}: PC formula has {len(prime_variant.clauses)} clauses"
          f" (PC={is_pc(prime_variant, limit=prime_variant.num_vars).verdict});"
          f" URC-irredundant formula keeps {len(fixed.clauses)} clauses"
          f" (URC={is_urc(dprime_variant, limit=dprime_variant.num_vars).verdict})")
print()
print("Both columns represent the same function; the URC-irredundant one is")
print("exponentially larger and no clause of it can be removed.")
