"""Mutually unbiased basis constructions and the unbiasedness predicate."""

import math

import numpy as np
import pytest

from mubcert import (
    Basis,
    MubFamily,
    computational_basis,
    fourier_basis,
    fourier_pair,
    is_unbiased,
    prime_mub_family,
    qubit_mub_triple,
)


def _assert_orthonormal(basis: Basis):
    gram = basis.vectors.conj().T @ basis.vectors
    assert np.max(np.abs(gram - np.eye(basis.d))) <= 1e-10


def _assert_family_unbiased(family: MubFamily):
    for i in range(family.m):
        _assert_orthonormal(family.bases[i])
        for j in range(i + 1, family.m):
            assert is_unbiased(family.bases[i], family.bases[j], tol=1e-10)


def test_qubit_triple():
    triple = qubit_mub_triple()
    assert triple.m == 3
    _assert_family_unbiased(triple)
    # first member is the computational basis
    assert np.allclose(triple.bases[0].vectors, np.eye(2), atol=1e-12)


def test_prime_families():
    for d in (3, 5, 7):
        family = prime_mub_family(d)
        assert family.m == d + 1
        _assert_family_unbiased(family)


def test_prime_family_rejects_non_odd_primes():
    for d in (2, 4, 6, 9):
        with pytest.raises(ValueError):
            prime_mub_family(d)


def test_fourier_pairs():
    for d in (2, 3, 4, 5):
        pair = fourier_pair(d)
        assert pair.m == 2
        _assert_family_unbiased(pair)


def test_fourier_d2_is_hadamard():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    assert np.max(np.abs(fourier_basis(2).vectors - h)) <= 1e-12


def test_fourier_d3_column_zero_uniform():
    v = fourier_basis(3).vectors[:, 0]
    assert np.max(np.abs(v - np.full(3, 1 / math.sqrt(3)))) <= 1e-12


def test_fourier_d4_unbiased_despite_composite_dimension():
    assert is_unbiased(computational_basis(4), fourier_basis(4), tol=1e-10)


def test_is_unbiased_rejects_equal_bases():
    comp = computational_basis(3)
    assert not is_unbiased(comp, comp, tol=1e-10)


def test_unbiasedness_survives_global_phases():
    rng = np.random.default_rng(8)
    for d in (2, 3, 5):
        pair = fourier_pair(d)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, d))
        rephased = Basis(d=d, vectors=pair.bases[1].vectors * phases)
        assert is_unbiased(pair.bases[0], rephased, tol=1e-10)


def test_basis_rejects_non_orthonormal_columns():
    with pytest.raises(ValueError):
        Basis(d=2, vectors=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_family_rejects_biased_pair():
    comp = computational_basis(2)
    with pytest.raises(ValueError):
        MubFamily(d=2, bases=(comp, comp))


def test_family_requires_two_bases():
    with pytest.raises(ValueError):
        MubFamily(d=2, bases=(computational_basis(2),))
