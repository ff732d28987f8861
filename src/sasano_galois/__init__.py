"""Exact symbolic verification of a meromorphic non-integrability proof.

The package builds a Hamiltonian system on an affine chart, linearizes it
along an explicit rational solution, reduces the resulting variational
system to a pair of Whittaker equations through an exact gauge chain, and
classifies the differential Galois groups of the factors.  All arithmetic
runs over a fixed algebraic number field represented as a tower of
radical extensions, so every intermediate matrix entry is exact.
"""

from __future__ import annotations

from .algnum import (
    AlgNum,
    TowerError,
    TowerSpec,
    VerificationError,
    canonical_constants,
    canonical_tower,
    sqrt_in_tower,
    wasow_constants,
    wasow_tower,
)
from .diffsys import DiffSystem, char_poly
from .exprparse import parse_ratfunc
from .galois import (
    GaloisError,
    GaloisOutcome,
    classify_blocks,
    morales_ramis_verdict,
    normalize_whittaker,
    stokes_triviality,
)
from .puiseux import AlgPoly, PuiseuxPoly
from .ratfunc import RatFunc
from .reduction import (
    ReductionError,
    ReductionTrace,
    canonical_config,
    run_canonical_chain,
    verify_trace_consistency,
    wasow_config,
)
from .report import ProofReport, build_proof, report_to_json, report_to_markdown
from .sasano import hamiltonian, seed_solution, seed_variational_system, verify_solution
from .weyl import (
    WeylError,
    enumerate_orbit,
    matsuda_check,
    seed_state,
    verify_group_relations,
)

__version__ = "0.1.0"

__all__ = [
    "AlgNum",
    "AlgPoly",
    "DiffSystem",
    "GaloisError",
    "GaloisOutcome",
    "ProofReport",
    "PuiseuxPoly",
    "RatFunc",
    "ReductionError",
    "ReductionTrace",
    "TowerError",
    "TowerSpec",
    "VerificationError",
    "build_proof",
    "canonical_config",
    "canonical_constants",
    "canonical_tower",
    "char_poly",
    "classify_blocks",
    "enumerate_orbit",
    "hamiltonian",
    "matsuda_check",
    "morales_ramis_verdict",
    "normalize_whittaker",
    "parse_ratfunc",
    "report_to_json",
    "report_to_markdown",
    "run_canonical_chain",
    "seed_solution",
    "seed_state",
    "seed_variational_system",
    "sqrt_in_tower",
    "stokes_triviality",
    "verify_group_relations",
    "verify_solution",
    "verify_trace_consistency",
    "wasow_config",
    "wasow_constants",
    "wasow_tower",
]
