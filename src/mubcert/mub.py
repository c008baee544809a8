"""Construction and validation of mutually unbiased bases (MUBs).

Two orthonormal bases of a d-dimensional space are mutually unbiased when
every cross overlap satisfies |<b_i|c_j>|^2 = 1/d.  This module builds the
qubit Pauli triple, complete families for odd prime dimension, and the
computational/Fourier pair that exists for every d >= 2.  Families are
immutable, so each constructor builds its family once per argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import CONSTRUCTION_TOL


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal basis of C^d; column j of ``vectors`` is the j-th vector."""

    d: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        d = int(self.d)
        if d < 2:
            raise ValueError(f"local dimension must be at least 2, got {d}")
        v = np.array(self.vectors, dtype=np.complex128)
        if v.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} column matrix, got shape {v.shape}")
        gram = v.conj().T @ v
        defect = float(np.max(np.abs(gram - np.eye(d))))
        if defect > CONSTRUCTION_TOL:
            raise ValueError(f"columns are not orthonormal (defect {defect:.3e})")
        v.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "vectors", v)


@dataclass(frozen=True, eq=False)
class MubFamily:
    """A list of pairwise mutually unbiased bases sharing one dimension."""

    d: int
    bases: tuple[Basis, ...]

    def __post_init__(self) -> None:
        bases = tuple(self.bases)
        if len(bases) < 2:
            raise ValueError("a MUB family needs at least two bases")
        if any(b.d != self.d for b in bases):
            raise ValueError("all bases in a family must share the local dimension")
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                if not is_unbiased(bases[i], bases[j], CONSTRUCTION_TOL):
                    raise ValueError(f"bases {i} and {j} are not mutually unbiased")
        object.__setattr__(self, "bases", bases)

    @property
    def m(self) -> int:
        return len(self.bases)


def is_unbiased(b1: Basis, b2: Basis, tol: float = CONSTRUCTION_TOL) -> bool:
    """True iff every cross overlap has | |<b_i|c_j>|^2 - 1/d | <= tol."""
    if b1.d != b2.d:
        raise ValueError(f"dimension mismatch: {b1.d} vs {b2.d}")
    overlaps = np.abs(b1.vectors.conj().T @ b2.vectors) ** 2
    return bool(np.max(np.abs(overlaps - 1.0 / b1.d)) <= tol)


def computational_basis(d: int) -> Basis:
    return Basis(d, np.eye(d, dtype=np.complex128))


def fourier_basis(d: int) -> Basis:
    """Discrete-Fourier basis: vector k has components (1/sqrt d) w^(jk)."""
    j = np.arange(d)
    w = np.exp(2j * np.pi / d)
    return Basis(d, w ** np.outer(j, j) / np.sqrt(d))


@lru_cache(maxsize=None)
def qubit_mub_triple() -> MubFamily:
    """The three qubit MUBs: eigenbases of the Pauli Z, X and Y operators."""
    s = 1.0 / np.sqrt(2.0)
    z = computational_basis(2)
    x = Basis(2, np.array([[s, s], [s, -s]], dtype=np.complex128))
    y = Basis(2, np.array([[s, s], [1j * s, -1j * s]], dtype=np.complex128))
    return MubFamily(2, (z, x, y))


def is_odd_prime(d: int) -> bool:
    if d < 3 or d % 2 == 0:
        return False
    return all(d % q for q in range(3, int(d**0.5) + 1, 2))


@lru_cache(maxsize=None)
def prime_mub_family(d: int) -> MubFamily:
    """Complete family of d+1 MUBs for odd prime d.

    Basis b (b = 0..d-1) has vector k with components
    (1/sqrt d) * w^(b*j^2 + k*j), w = exp(2 pi i / d), alongside the
    computational basis.  The quadratic exponent trick needs odd prime d.
    """
    d = int(d)
    if not is_odd_prime(d):
        raise ValueError(f"d must be an odd prime, got {d}")
    j = np.arange(d)
    w = np.exp(2j * np.pi / d)
    bases = [computational_basis(d)]
    for b in range(d):
        exponents = b * j[:, None] ** 2 + j[:, None] * j[None, :]
        bases.append(Basis(d, w**exponents / np.sqrt(d)))
    return MubFamily(d, tuple(bases))


@lru_cache(maxsize=None)
def fourier_pair(d: int) -> MubFamily:
    """Computational + Fourier pair, unbiased for every d >= 2."""
    d = int(d)
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    return MubFamily(d, (computational_basis(d), fourier_basis(d)))
