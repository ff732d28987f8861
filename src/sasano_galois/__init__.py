"""Exact symbolic verification of a meromorphic non-integrability proof.

The package builds a Hamiltonian system on an affine chart, linearizes it
along an explicit rational solution, reduces the resulting variational
system to a pair of Whittaker equations through an exact gauge chain, and
classifies the differential Galois groups of the factors.  All arithmetic
runs over a fixed algebraic number field represented as a tower of
radical extensions, so every intermediate matrix entry is exact.

Importing the package loads none of its modules: each public name below
imports its submodule on first access (PEP 562).
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "AlgNum": "algnum", "TowerError": "algnum", "TowerSpec": "algnum", "VerificationError": "ratfunc",
    "canonical_constants": "algnum", "canonical_tower": "algnum", "sqrt_in_tower": "algnum",
    "wasow_constants": "algnum", "wasow_tower": "algnum",
    "DiffSystem": "diffsys", "char_poly": "diffsys",
    "parse_ratfunc": "exprparse",
    "GaloisError": "galois", "GaloisOutcome": "galois", "classify_blocks": "galois",
    "morales_ramis_verdict": "galois", "normalize_whittaker": "galois", "stokes_triviality": "galois",
    "PuiseuxPoly": "puiseux",
    "RatFunc": "ratfunc",
    "ReductionError": "reduction", "ReductionTrace": "reduction", "canonical_config": "reduction",
    "run_canonical_chain": "reduction", "verify_trace_consistency": "reduction", "wasow_config": "reduction",
    "ProofReport": "report", "build_proof": "report", "report_to_json": "report", "report_to_markdown": "report",
    "hamiltonian": "sasano", "seed_solution": "sasano", "seed_variational_system": "sasano",
    "verify_solution": "sasano",
    "WeylError": "weyl", "enumerate_orbit": "weyl", "matsuda_check": "weyl", "seed_state": "weyl",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
