"""Entanglement measures used to cross-validate the certification quantities.

``triangle_tau_stack`` and ``global_q_stack`` evaluate a stack of pure-state
density matrices at once; ``triangle_tau`` and ``global_q`` are their
one-state calls.
"""

from __future__ import annotations

from math import fsum, sqrt

import numpy as np

from .linalg import InvariantError, StateVector, density_defect, partial_trace_stack


def _tangle(det: float) -> float:
    return min(max(4.0 * det, 0.0), 1.0)


def _one_party_reductions(entries: np.ndarray) -> np.ndarray:
    """Each qubit's reduced matrix of each matrix of the (T, 2^n, 2^n) stack,
    shape (T, n, 2, 2), checked as density matrices in one stack."""
    n = entries.shape[-1].bit_length() - 1
    if entries.ndim != 3 or n < 1 or entries.shape[-2:] != (1 << n,) * 2:
        raise ValueError(f"expected a stack of n-qubit matrices, got shape {entries.shape}")
    dims = (2,) * n
    reductions = np.stack([partial_trace_stack(entries, dims, [k]) for k in range(n)], axis=1)
    defect = density_defect(reductions)
    if defect is not None:
        row, message = defect
        raise InvariantError(f"party {row % n} reduction: {message}", row // n)
    return reductions


def triangle_tau_stack(entries: np.ndarray) -> list[float]:
    """Triangle measure of each three-qubit pure state in the (T, 8, 8) stack of
    their density matrices.

    The three one-tangles act as triangle side lengths; the measure is
    sqrt((16/3) * Heron product).  The radicand is clamped at zero to
    absorb float noise in degenerate triangles.  The matrices must be
    density matrices; their reductions are checked, and one that fails
    raises InvariantError naming its matrix in ``row``.
    """
    if entries.shape[-2:] != (8, 8):
        raise ValueError(f"triangle_tau needs three qubits, got matrices of shape {entries.shape[-2:]}")
    taus = []
    for dets in np.linalg.det(_one_party_reductions(entries)).real.tolist():
        a1, a2, a3 = map(_tangle, dets)
        s = 0.5 * (a1 + a2 + a3)
        radicand = (16.0 / 3.0) * s * (s - a1) * (s - a2) * (s - a3)
        taus.append(sqrt(max(radicand, 0.0)))
    return taus


def global_q_stack(entries: np.ndarray) -> list[float]:
    """Global entanglement measure, 2 (1 - mean single-party purity), of each
    n-qubit pure state in the (T, 2^n, 2^n) stack of their density matrices;
    checked as in ``triangle_tau_stack``."""
    reductions = _one_party_reductions(entries)
    purities = np.trace(reductions @ reductions, axis1=-2, axis2=-1).real.tolist()
    return [2.0 * (1.0 - fsum(row) / len(row)) for row in purities]


def triangle_tau(psi: StateVector) -> float:
    """``triangle_tau_stack`` of one three-qubit pure state."""
    if psi.dims != (2, 2, 2):
        raise ValueError(f"triangle_tau needs three qubits, got dims {psi.dims}")
    return triangle_tau_stack(psi.density().entries[None])[0]


def global_q(psi: StateVector) -> float:
    """``global_q_stack`` of one pure state of qubits."""
    if any(d != 2 for d in psi.dims):
        raise ValueError(f"global_q is defined for qubits, got dims {psi.dims}")
    return global_q_stack(psi.density().entries[None])[0]
