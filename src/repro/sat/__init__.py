"""SAT substrate: CNF, CDCL solver, Tseitin encoding, equivalence checking."""

from .cnf import CNF
from .solver import ConflictBudgetExceeded, SatResult, SatSolver, solve
from .tseitin import CircuitEncoder, encode_circuit
from .equivalence import (
    structurally_identical,
    structurally_equivalent,
    EquivalenceResult,
    check_equivalence,
    equivalent,
    miter_cnf,
)

__all__ = [
    "CNF",
    "ConflictBudgetExceeded",
    "SatResult",
    "SatSolver",
    "solve",
    "CircuitEncoder",
    "encode_circuit",
    "EquivalenceResult",
    "check_equivalence",
    "equivalent",
    "miter_cnf",
    "structurally_identical",
    "structurally_equivalent",
]
