"""Propagation-complete and unit-refutation-complete CNF toolkit."""

import os as _os

# pcforge runs on one thread and calls no BLAS routine, but OpenBLAS starts a pool thread per further core
# when numpy loads it, and each spins for about 0.1 s.  OpenBLAS reads OPENBLAS_NUM_THREADS once, at that
# load, so the variable is set to 1 for the numpy import only: a caller's own value wins, and the caller's
# environment (and so every child process's) is left as it was.
if "OPENBLAS_NUM_THREADS" in _os.environ:
    import numpy as _numpy
else:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .cnf import (
    Clause,
    CnfFormula,
    EncodingFormula,
    Literal,
    PartialAssignment,
    apply_assignment,
    make_assignment,
    make_clause,
    parse_dimacs,
    write_dimacs,
)
from .deciders import DecisionReport, is_absorbed, is_pc, is_urc, reduce_pc_irredundant, reduce_urc_irredundant
from .dual_rail import closed_assignments, dual_rail, horn_equivalent, pc_via_dual_rail
from .families import (
    gen_cycle_extension,
    gen_gamma,
    gen_parity,
    gen_psi_horn,
    gen_psi_horn_pc,
    gen_psi_qhorn,
    gen_psi_qhorn_pc,
)
from .propagation import PropagationResult, UnitPropagator, up_closure
from .qhorn import QHornSplit, Valuation, compile_urc_encoding, normalize, phi_q_plus, qhorn_sat, recognize_qhorn
from .semantics import FunctionTable, cl_sem, entails, enumerate_models, equivalent, is_encoding_of, prime_implicates, satisfiable

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
