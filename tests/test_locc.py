"""Local two-outcome POVM family, the monotonicity residual, grid sweeps."""

import math
import tracemalloc

import numpy as np
import pytest

import mubcert.locc
from mubcert import (
    InvariantError,
    PovmParams,
    Witness,
    apply_branch,
    build_povm,
    convexity_probe,
    dagger,
    fourier_pair,
    i_m_witness,
    mix,
    omega,
    prime_mub_family,
    psi_lambda,
    qubit_mub_triple,
    random_pure,
    sweep,
)

IDENTITY_POVM = PovmParams(chi=math.pi / 2, zeta=math.pi / 2, xi=0.0, theta_cap=0.0)


def _random_params(rng) -> PovmParams:
    chi, zeta, xi, cap = rng.uniform(-math.pi, math.pi, 4)
    return PovmParams(chi=float(chi), zeta=float(zeta), xi=float(xi), theta_cap=float(cap))


def _random_mixed(seed) -> "DensityMatrix":
    rng = np.random.default_rng(seed)
    parts = [random_pure((2, 2), [int(seed), k]).density() for k in range(3)]
    return mix(parts, rng.dirichlet(np.ones(3)).tolist())


def test_params_validate_range():
    with pytest.raises(ValueError):
        PovmParams(chi=4.0, zeta=0.0, xi=0.0, theta_cap=0.0)
    with pytest.raises(ValueError):
        PovmParams(chi=0.0, zeta=0.0, xi=0.0, theta_cap=-4.0)


def test_povm_completeness_over_many_draws():
    rng = np.random.default_rng(314)
    eye = np.eye(2)
    for _ in range(10000):
        e1, e2 = build_povm(_random_params(rng))
        closure = dagger(e1) @ e1 + dagger(e2) @ e2
        assert np.max(np.abs(closure - eye)) <= 1e-12


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(2718)
    states = [psi_lambda(0.5).density(), _random_mixed(5)] + [
        random_pure((2, 2), s).density() for s in range(8)
    ]
    for rho in states:
        for _ in range(20):
            e1, e2 = build_povm(_random_params(rng))
            p1, _ = apply_branch(rho, e1)
            p2, _ = apply_branch(rho, e2)
            assert -1e-12 <= p1 <= 1.0 + 1e-12
            assert abs(p1 + p2 - 1.0) <= 1e-10


def test_identity_povm_is_a_fixed_point():
    e1, e2 = build_povm(IDENTITY_POVM)
    assert np.max(np.abs(e1 - np.eye(2))) <= 1e-12
    assert np.max(np.abs(e2)) <= 1e-12
    for seed in range(25):
        rho = random_pure((2, 2), [9, seed]).density()
        assert abs(omega(rho, IDENTITY_POVM)) <= 1e-11


def test_zero_probability_branch_is_skipped():
    # E_1 = diag(0, 1) annihilates |00>, so that branch carries p = 0
    rho = psi_lambda(1.0).density()
    params = PovmParams(chi=0.0, zeta=math.pi / 2, xi=0.0, theta_cap=0.0)
    e1, _ = build_povm(params)
    p1, branch = apply_branch(rho, e1)
    assert p1 <= 1e-12
    assert branch is None
    assert math.isfinite(omega(rho, params))


def test_apply_branch_validation():
    rho = psi_lambda(0.5).density()
    with pytest.raises(ValueError):
        apply_branch(rho, np.eye(3))
    with pytest.raises(ValueError):
        apply_branch(rho, np.eye(2), party=2)


def test_sweep_matches_scalar_omega():
    rho = psi_lambda(0.5).density()
    grid = ((-math.pi, math.pi, 7),) * 3
    result = sweep(rho, grid=grid)
    chis, zetas, xis = result.axes()
    cube = result.omega.reshape(7, 7, 7)
    rng = np.random.default_rng(55)
    for _ in range(25):
        i, j, k = (int(v) for v in rng.integers(0, 7, 3))
        params = PovmParams(chi=float(chis[i]), zeta=float(zetas[j]), xi=float(xis[k]), theta_cap=0.0)
        assert abs(cube[i, j, k] - omega(rho, params)) <= 1e-12


def test_sweep_result_structure():
    rho = psi_lambda(0.5).density()
    result = sweep(rho, grid=((-math.pi, math.pi, 9),) * 3)
    assert result.omega.size == 9**3
    assert not result.omega.flags.writeable
    assert result.min_omega == float(result.omega.min())
    # the reported argmin reproduces the reported minimum
    assert abs(omega(rho, result.argmin) - result.min_omega) <= 1e-12
    assert result.density_min_over_xi().shape == (9, 9)
    assert result.min_omega >= -1e-9


def test_sweep_mirror_party_on_symmetric_state():
    rho = psi_lambda(0.5).density()
    grid = ((-math.pi, math.pi, 7),) * 3
    a = sweep(rho, grid=grid, party=0)
    b = sweep(rho, grid=grid, party=1)
    assert np.max(np.abs(a.omega - b.omega)) <= 1e-12


def test_sweep_nonzero_theta_cap():
    rho = psi_lambda(0.3).density()
    result = sweep(rho, grid=((-math.pi, math.pi, 5),) * 3, theta_cap=0.5)
    assert result.argmin.theta_cap == 0.5
    assert result.min_omega >= -1e-9


def test_sweep_validation():
    rho = psi_lambda(0.5).density()
    with pytest.raises(ValueError):
        sweep(rho, grid=((-math.pi, math.pi, 0),) * 3)
    with pytest.raises(ValueError):
        sweep(rho, grid=((-7.0, math.pi, 5),) * 3)
    with pytest.raises(ValueError):
        sweep(random_pure((2, 2, 2), 1).density())


def _kron_projector(family):
    """Reference: M = sum over bases, outcomes of |ii><ii|, from kron products."""
    d = family.d
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for basis in family.bases:
        for i in range(d):
            v = np.kron(basis.vectors[:, i], basis.vectors[:, i])
            m += np.outer(v, v.conj())
    return m


@pytest.mark.parametrize(
    "family",
    [fourier_pair(2), fourier_pair(3), prime_mub_family(3), prime_mub_family(5), qubit_mub_triple()],
    ids=["pair2", "pair3", "complete3", "complete5", "triple"],
)
def test_witness_operator_is_the_kron_projector(family):
    assert np.array_equal(i_m_witness(family).operator(), _kron_projector(family))


def _whole_grid_sweep(rho, grid, theta_cap, party):
    """Reference: the sweep as one vectorized pass over every grid point.

    Returns (omega, argmin params).  Peak memory grows with grid^3.
    """
    family = mubcert.locc.fourier_pair(2)
    chi_ax, zeta_ax, xi_ax = (np.linspace(lo, hi, s) for lo, hi, s in grid)
    ch, ze, xi = (a.reshape(-1) for a in np.meshgrid(chi_ax, zeta_ax, xi_ax, indexing="ij"))
    phase = np.exp(1j * theta_cap)
    cxi, sxi = np.cos(xi), np.sin(xi)

    def elements(top, bottom):
        e = np.empty((ch.size, 2, 2), dtype=np.complex128)
        e[:, 0, 0] = top * cxi
        e[:, 0, 1] = -top * phase * sxi
        e[:, 1, 0] = bottom * sxi
        e[:, 1, 1] = bottom * phase * cxi
        return e

    e1 = elements(np.sin(ch), np.sin(ze))
    e2 = elements(np.cos(ch), np.cos(ze))
    completeness = np.einsum("nji,njk->nik", e1.conj(), e1) + np.einsum(
        "nji,njk->nik", e2.conj(), e2
    )
    assert float(np.max(np.abs(completeness - np.eye(2)))) <= mubcert.locc.COMPLETENESS_TOL

    projector = _kron_projector(family)
    base = float(np.real(np.trace(rho.entries @ projector)))
    m4 = projector.reshape(2, 2, 2, 2)
    rho4 = rho.entries.reshape(2, 2, 2, 2)
    if party == 0:
        t = np.einsum("abAB,CBcb->caCA", rho4, m4)
        subscripts = "nca,nCA,caCA->n"
    else:
        t = np.einsum("abAB,ACac->cbCB", rho4, m4)
        subscripts = "ncb,nCB,cbCB->n"
    branch1 = np.real(np.einsum(subscripts, e1, e1.conj(), t, optimize=True))
    branch2 = np.real(np.einsum(subscripts, e2, e2.conj(), t, optimize=True))
    values = base - branch1 - branch2

    i, j, k = np.unravel_index(int(np.argmin(values)), (chi_ax.size, zeta_ax.size, xi_ax.size))
    argmin = PovmParams(float(chi_ax[i]), float(zeta_ax[j]), float(xi_ax[k]), theta_cap)
    return values, argmin


GRID_61 = ((-math.pi, math.pi, 61),) * 3
# Unequal bounds and steps per axis catch an axis-order mistake.
GRID_UNEVEN = ((-3.0, 2.0, 5), (-1.0, 1.0, 9), (0.0, 3.0, 13))


@pytest.mark.parametrize(
    "lam, grid, party, theta_cap",
    [
        (0.5, GRID_61, 0, 0.0),
        (0.3137, GRID_61, 1, 0.0),
        (0.5, GRID_61, 1, 0.5),
        (0.77, GRID_61, 0, 0.5),
        (0.3137, GRID_UNEVEN, 0, 0.5),
        (0.77, GRID_UNEVEN, 1, -2.0),
    ],
)
def test_sweep_matches_whole_grid_reference(lam, grid, party, theta_cap):
    rho = psi_lambda(lam).density()
    expected, argmin = _whole_grid_sweep(rho, grid, theta_cap, party)
    result = sweep(rho, grid=grid, theta_cap=theta_cap, party=party)
    assert np.array_equal(result.omega, expected)
    assert result.min_omega == float(expected.min())
    assert result.argmin == argmin


@pytest.mark.parametrize(
    "grid, theta_cap",
    [
        (GRID_61, 4.0),
        (GRID_61, -math.pi - 1e-12),
        (((-math.pi - 1e-12, math.pi, 61),) + GRID_61[1:], 0.0),
        ((GRID_61[0], (-math.pi, math.pi + 1e-12, 61), GRID_61[2]), 0.0),
        ((GRID_61[0], GRID_61[1], (1.0, -1.0, 61)), 0.0),
    ],
)
def test_sweep_rejects_angles_before_any_grid_work(monkeypatch, grid, theta_cap):
    def no_grid_work(witness):
        raise AssertionError("sweep started grid work before validating its angles")

    monkeypatch.setattr(Witness, "operator", no_grid_work)
    with pytest.raises(ValueError, match="must"):
        sweep(psi_lambda(0.5).density(), grid=grid, theta_cap=theta_cap)


def test_sweep_accepts_the_closed_angle_range():
    result = sweep(psi_lambda(0.5).density(), grid=((-math.pi, math.pi, 3),) * 3, theta_cap=math.pi)
    assert result.argmin.theta_cap == math.pi


def test_sweep_peak_memory_does_not_scale_with_grid():
    rho = psi_lambda(0.5).density()
    sweep(rho, grid=((-math.pi, math.pi, 5),) * 3)  # lazy imports and caches
    tracemalloc.start()
    try:
        sweep(rho, grid=GRID_61)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The whole-grid pass peaks at about 113 MB here; omega alone is 1.8 MB.
    assert peak < 16e6


def test_convexity_probe():
    bell = psi_lambda(0.5).density()
    flat = psi_lambda(1.0).density()
    assert convexity_probe(bell, flat, (0.0, 0.25, 0.5, 0.75, 1.0)) <= 1e-10
    # identical inputs: deviation is pure weight-arithmetic rounding
    assert convexity_probe(bell, bell, (0.3, 0.6)) <= 1e-12
    assert convexity_probe(_random_mixed(1), _random_mixed(2), np.linspace(0, 1, 11)) <= 1e-10
