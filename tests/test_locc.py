"""Local two-outcome POVM family, the monotonicity residual, grid sweeps."""

import importlib
import math
import pkgutil
import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubcert
import mubcert.locc
from mubcert import (
    BasisAssignment,
    DensityMatrix,
    InvariantError,
    MubFamily,
    PovmParams,
    PovmSweepResult,
    Witness,
    fourier_pair,
    i_m_witness,
    min_omega_family,
    mix,
    omega,
    omega_stack,
    prime_mub_family,
    psi_lambda,
    qubit_mub_triple,
    random_pure,
    sweep,
)
from mubcert.cli import main
from mubcert.locc import ZERO_BRANCH_TOL, _branch_stack, _povm_stack

IDENTITY_POVM = PovmParams(chi=math.pi / 2, zeta=math.pi / 2, xi=0.0, theta_cap=0.0)


def _random_params(rng) -> PovmParams:
    chi, zeta, xi, cap = rng.uniform(-math.pi, math.pi, 4)
    return PovmParams(chi=float(chi), zeta=float(zeta), xi=float(xi), theta_cap=float(cap))


def _random_mixed(seed) -> "DensityMatrix":
    rng = np.random.default_rng(seed)
    parts = [random_pure((2, 2), [int(seed), k]).density() for k in range(3)]
    return mix(parts, rng.dirichlet(np.ones(3)).tolist())


def _reference_povm(p: PovmParams) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the former build_povm, one POVM's 2x2 products."""
    phase = np.exp(1j * p.theta_cap)
    v = np.array(
        [[math.cos(p.xi), -phase * math.sin(p.xi)], [math.sin(p.xi), phase * math.cos(p.xi)]],
        dtype=np.complex128,
    )
    e1 = np.diag([math.sin(p.chi), math.sin(p.zeta)]).astype(np.complex128) @ v
    e2 = np.diag([math.cos(p.chi), math.cos(p.zeta)]).astype(np.complex128) @ v
    residual = float(np.max(np.abs(e1.conj().T @ e1 + e2.conj().T @ e2 - np.eye(2))))
    if residual > mubcert.locc.COMPLETENESS_TOL:
        raise InvariantError(f"POVM completeness residual {residual:.3e}")
    return e1, e2


def _reference_branch(rho, e, party):
    """Reference: the former apply_branch, one np.kron and one DensityMatrix."""
    eye = np.eye(rho.dims[1 - party], dtype=np.complex128)
    k = np.kron(e, eye) if party == 0 else np.kron(eye, e)
    raw = k @ rho.entries @ k.conj().T
    p = float(np.real(np.trace(raw)))
    if p < ZERO_BRANCH_TOL:
        return max(p, 0.0), None
    return p, DensityMatrix(rho.dims, raw / p)


def _reference_omega(rho, params, party=0) -> float:
    """Reference: the former scalar omega, which walks the definition one POVM
    at a time through Witness.evaluate."""
    witness = i_m_witness(fourier_pair(2))
    e1, e2 = _reference_povm(params)
    value = witness.evaluate(rho).i_value
    total_p = 0.0
    for e in (e1, e2):
        p, branch = _reference_branch(rho, e, party)
        total_p += p
        if branch is not None:
            value -= p * witness.evaluate(branch).i_value
    if abs(total_p - 1.0) > mubcert.locc.BRANCH_SUM_TOL:
        raise InvariantError(f"branch probabilities sum to {total_p!r}, not 1")
    return value


def test_params_validate_range():
    with pytest.raises(ValueError):
        PovmParams(chi=4.0, zeta=0.0, xi=0.0, theta_cap=0.0)
    with pytest.raises(ValueError):
        PovmParams(chi=0.0, zeta=0.0, xi=0.0, theta_cap=-4.0)


def test_povm_completeness_over_many_draws():
    rng = np.random.default_rng(314)
    e, _ = _povm_stack([_random_params(rng) for _ in range(10000)])
    closure = (e.conj().swapaxes(-1, -2) @ e).sum(axis=1)
    assert np.max(np.abs(closure - np.eye(2))) <= 1e-12


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(2718)
    states = [psi_lambda(0.5).density(), _random_mixed(5)] + [
        random_pure((2, 2), s).density() for s in range(8)
    ]
    for rho in states:
        e, _ = _povm_stack([_random_params(rng) for _ in range(20)])
        _, p = _branch_stack(rho, e.reshape(-1, 2, 2), 0)
        p1, p2 = p.reshape(-1, 2).T
        assert np.all((-1e-12 <= p1) & (p1 <= 1.0 + 1e-12))
        assert np.max(np.abs(p1 + p2 - 1.0)) <= 1e-10


def test_identity_povm_is_a_fixed_point():
    e, _ = _povm_stack([IDENTITY_POVM])
    e1, e2 = e[0]
    assert np.max(np.abs(e1 - np.eye(2))) <= 1e-12
    assert np.max(np.abs(e2)) <= 1e-12
    for seed in range(25):
        rho = random_pure((2, 2), [9, seed]).density()
        assert abs(omega(rho, IDENTITY_POVM)) <= 1e-11


def test_zero_probability_branch_is_skipped():
    # E_1 = diag(0, 1) annihilates |00>, so that branch carries p = 0
    rho = psi_lambda(1.0).density()
    params = PovmParams(chi=0.0, zeta=math.pi / 2, xi=0.0, theta_cap=0.0)
    e, _ = _povm_stack([params])
    _, (p1, _) = _branch_stack(rho, e[0], 0)
    assert p1 <= 1e-12
    assert p1 < ZERO_BRANCH_TOL  # so omega_stack skips the branch
    assert math.isfinite(omega(rho, params))


# POVMs that zero branch 1 (chi = zeta = 0) or branch 2 (chi = zeta = pi/2),
# and the ends of the theta_cap range.
EDGE_POVMS = [
    PovmParams(chi=0.0, zeta=0.0, xi=0.7, theta_cap=0.3),
    PovmParams(chi=0.0, zeta=0.0, xi=-2.1, theta_cap=-math.pi),
    PovmParams(chi=math.pi / 2, zeta=math.pi / 2, xi=1.3, theta_cap=math.pi),
    PovmParams(chi=math.pi / 2, zeta=math.pi / 2, xi=0.0, theta_cap=0.0),
    PovmParams(chi=0.4, zeta=-1.2, xi=2.5, theta_cap=math.pi),
    PovmParams(chi=-math.pi, zeta=math.pi, xi=-math.pi, theta_cap=-math.pi),
]


@pytest.mark.parametrize("party", [0, 1])
@pytest.mark.parametrize(
    "state",
    [0.5, 0.3137] + [(9, k) for k in range(6)],
    ids=lambda s: f"psi_lambda({s})" if isinstance(s, float) else f"random_pure{list(s)}",
)
def test_omega_stack_equals_the_scalar_walk_bit_for_bit(state, party):
    rho = (psi_lambda(state) if isinstance(state, float) else random_pure((2, 2), list(state))).density()
    rng = np.random.default_rng([31, party])
    params = [_random_params(rng) for _ in range(300)] + EDGE_POVMS
    stacked = omega_stack(rho, params, party)
    assert stacked.dtype == np.float64 and stacked.shape == (len(params),)
    assert stacked.tolist() == [_reference_omega(rho, p, party) for p in params]
    checked = params[:20] + EDGE_POVMS
    e, _ = _povm_stack(checked)
    raw, probs = _branch_stack(rho, e.reshape(-1, 2, 2), party)
    for row, p in enumerate(checked):
        assert omega(rho, p, party) == omega_stack(rho, [p] + params[:3], party)[0]
        for k, expected in enumerate(_reference_povm(p)):
            assert np.array_equal(e[row, k], expected)
            prob = float(probs[2 * row + k])
            ref_prob, ref_branch = _reference_branch(rho, expected, party)
            if ref_branch is None:
                assert prob < ZERO_BRANCH_TOL and max(prob, 0.0) == ref_prob
            else:
                assert prob == ref_prob and np.array_equal(raw[2 * row + k] / prob, ref_branch.entries)


def test_edge_povms_zero_each_branch():
    rho = psi_lambda(0.3137).density()
    dead = [[_reference_branch(rho, e, 0)[1] is None for e in _reference_povm(p)] for p in EDGE_POVMS]
    assert dead[:4] == [[True, False], [True, False], [False, True], [False, True]]


def test_omega_stack_names_the_povm_whose_branch_fails(monkeypatch):
    rho = random_pure((2, 2), [9, 2]).density()
    params = [_random_params(np.random.default_rng(seed)) for seed in range(5)]
    target = _reference_branch(rho, _reference_povm(params[3])[1], 0)[1].entries
    real = mubcert.correlations.density_defect

    def reject_target(m):
        hits = [row for row, matrix in enumerate(m) if np.array_equal(matrix, target)]
        return (hits[0], "matrix has a negative eigenvalue (-1.000e-03)") if hits else real(m)

    monkeypatch.setattr(mubcert.correlations, "density_defect", reject_target)
    with pytest.raises(InvariantError, match="negative eigenvalue") as caught:
        omega_stack(rho, params)
    assert caught.value.row == 3
    monkeypatch.setattr(mubcert.locc, "BRANCH_SUM_TOL", -1.0)
    with pytest.raises(InvariantError, match="branch probabilities sum to") as caught:
        omega_stack(rho, params[:3])
    assert caught.value.row == 0
    monkeypatch.setattr(mubcert.locc, "COMPLETENESS_TOL", -1.0)
    with pytest.raises(InvariantError, match="POVM completeness residual") as caught:
        omega_stack(rho, params)
    assert caught.value.row == 0


def test_omega_stack_validation():
    with pytest.raises(ValueError, match="do not match witness dims"):
        omega_stack(random_pure((2, 3), 4).density(), [IDENTITY_POVM])
    with pytest.raises(ValueError, match="party must be 0 or 1"):
        omega_stack(psi_lambda(0.5).density(), [IDENTITY_POVM], party=2)
    assert omega_stack(psi_lambda(0.5).density(), []).shape == (0,)


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


@pytest.mark.parametrize("steps", [5.9, 5.0, True, np.bool_(True), "5", None])
def test_sweep_rejects_non_integer_steps_naming_the_axis(steps):
    grid = ((-math.pi, math.pi, 5), (-math.pi, math.pi, steps), (-math.pi, math.pi, 5))
    with pytest.raises(ValueError, match="zeta axis steps must be an integer"):
        sweep(psi_lambda(0.5).density(), grid=grid)
    with pytest.raises(ValueError, match="zeta axis steps must be an integer"):
        PovmSweepResult(grid, 0.0, np.zeros(125))


@pytest.mark.parametrize("omega", [np.arange(8), np.arange(8, dtype=np.float32), np.arange(8).astype(">f8")])
def test_sweep_result_rejects_omega_other_than_float64_naming_the_dtype(omega):
    # An int64 omega printed 1 as 4.9406564584124654e-324 in grid.csv; a
    # float32 one failed inside the writer.
    with pytest.raises(ValueError, match=f"omega must be float64, got {omega.dtype}"):
        PovmSweepResult(((-1.0, 1.0, 2),) * 3, 0.0, omega)


def test_sweep_accepts_numpy_integer_steps():
    rho = psi_lambda(0.5).density()
    plain = sweep(rho, grid=((-math.pi, math.pi, 5),) * 3)
    for kind in (np.int64, np.int32, np.uint8):
        result = sweep(rho, grid=((-math.pi, math.pi, kind(5)),) * 3)
        assert result.grid == plain.grid
        assert all(type(s) is int for _, _, s in result.grid)
        assert np.array_equal(result.omega, plain.omega)


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
    """Reference: the former sweep, both elements contracted at every grid point.

    Returns omega.  Peak memory grows with grid^3.
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
    return base - branch1 - branch2


GRID_61 = ((-math.pi, math.pi, 61),) * 3
GRID_33 = ((-math.pi, math.pi, 33),) * 3
GRID_2 = ((-math.pi, math.pi, 2),) * 3
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
        pytest.param((7, 1), GRID_61, 0, -1.1, id="random_pure71-61-0--1.1"),
        pytest.param((7, 1), GRID_61, 1, -1.1, id="random_pure71-61-1--1.1"),
        pytest.param(0.5, GRID_2, 0, 0.0, id="0.5-2-0-0.0"),
        pytest.param((7, 1), GRID_2, 1, -1.1, id="random_pure71-2-1--1.1"),
        pytest.param(0.3137, GRID_33, 1, 0.5, id="0.3137-33-1-0.5"),
        pytest.param((7, 1), GRID_33, 0, -1.1, id="random_pure71-33-0--1.1"),
    ],
)
def test_sweep_matches_whole_grid_reference(lam, grid, party, theta_cap):
    # lam is psi_lambda's parameter, or the seed of a random pure state
    state = psi_lambda(lam) if isinstance(lam, float) else random_pure((2, 2), list(lam))
    rho = state.density()
    expected = _whole_grid_sweep(rho, grid, theta_cap, party)
    result = sweep(rho, grid=grid, theta_cap=theta_cap, party=party)
    # The closed form rounds differently from the per-point contraction, so
    # argmin ties at omega ~ 0 may resolve to another grid point.
    assert np.max(np.abs(result.omega - expected)) <= 1e-14
    assert abs(result.min_omega - float(expected.min())) <= 1e-14
    assert abs(omega(rho, result.argmin, party=party) - float(expected.min())) <= 1e-12


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


def _per_point_completeness_residual(chi_trig, zeta_trig, xi_trig, phase) -> float:
    """Reference: E1'E1 + E2'E2 - I by batched 2x2 products at every grid point."""
    (s_chi, c_chi), (s_zeta, c_zeta), (s_xi, c_xi) = chi_trig, zeta_trig, xi_trig
    i, j, k = (a.reshape(-1) for a in np.meshgrid(
        np.arange(s_chi.size), np.arange(s_zeta.size), np.arange(s_xi.size), indexing="ij"
    ))
    cxi, sxi = c_xi[k], s_xi[k]

    def elements(top, bottom):
        e = np.empty((top.size, 2, 2), dtype=np.complex128)
        e[:, 0, 0] = top * cxi
        e[:, 0, 1] = -top * phase * sxi
        e[:, 1, 0] = bottom * sxi
        e[:, 1, 1] = bottom * phase * cxi
        return e

    e1 = elements(s_chi[i], s_zeta[j])
    e2 = elements(c_chi[i], c_zeta[j])
    completeness = np.einsum("nji,njk->nik", e1.conj(), e1) + np.einsum(
        "nji,njk->nik", e2.conj(), e2
    )
    return float(np.max(np.abs(completeness - np.eye(2))))


@pytest.mark.parametrize(
    "theta_cap, broken",
    [
        (0.0, None),
        (0.5, None),
        (-math.pi, None),
        (math.pi, None),
        (0.5, "phase"),
        (-math.pi, "phase"),
        (0.5, "chi sin"),
        (0.0, "zeta sin"),
        (math.pi, "xi sin"),
    ],
)
@pytest.mark.parametrize("grid", [GRID_61, GRID_UNEVEN], ids=["61", "uneven"])
def test_completeness_tables_match_per_point_products(grid, theta_cap, broken):
    trig = [[np.sin(a), np.cos(a)] for a in (np.linspace(lo, hi, s) for lo, hi, s in grid)]
    phase = np.exp(1j * theta_cap)
    if broken == "phase":
        phase *= 1.001
    elif broken is not None:
        axis = ("chi sin", "zeta sin", "xi sin").index(broken)
        noise = np.random.default_rng(axis).normal(0.0, 1e-3, trig[axis][0].size)
        trig[axis][0] = trig[axis][0] + noise
    residual = mubcert.locc._largest_residual(*mubcert.locc._completeness_tables(*trig, phase))
    expected = _per_point_completeness_residual(*trig, phase)
    assert abs(residual - expected) <= 1e-15
    assert (residual > mubcert.locc.COMPLETENESS_TOL) == (broken is not None)


def test_sweep_checks_completeness_before_any_grid_work(monkeypatch):
    def no_grid_work(witness):
        raise AssertionError("sweep started grid work before checking completeness")

    monkeypatch.setattr(Witness, "operator", no_grid_work)
    monkeypatch.setattr(mubcert.locc, "COMPLETENESS_TOL", -1.0)
    with pytest.raises(InvariantError, match="POVM completeness residual .* on the grid"):
        sweep(psi_lambda(0.5).density(), grid=GRID_61)


def _perturbed_trig(grid, theta_cap, broken, scale, seed):
    trig = [[np.sin(a), np.cos(a)] for a in (np.linspace(lo, hi, s) for lo, hi, s in grid)]
    phase = np.exp(1j * theta_cap)
    if broken == "phase":
        phase *= 1.0 + scale
    elif broken is not None:
        name, part = broken.split()
        axis, column = ("chi", "zeta", "xi").index(name), ("sin", "cos").index(part)
        noise = np.random.default_rng(seed).normal(0.0, scale, trig[axis][column].size)
        trig[axis][column] = trig[axis][column] + noise
    return trig, phase


BROKEN = [None, "phase", "chi sin", "zeta sin", "xi sin", "chi cos", "zeta cos", "xi cos"]


def test_completeness_bound_accepts_only_complete_grids():
    # Perturbations from 1e-13 to 1e-11 put the residual on both sides of
    # COMPLETENESS_TOL; the 1e-3 ones are the broken cases above.
    tol = mubcert.locc.COMPLETENESS_TOL
    rng = np.random.default_rng(1212)
    paths = []
    for seed in range(240):
        steps = [int(v) for v in rng.integers(1, 18, 3)]
        grid = tuple((lo, hi, n) for (lo, hi), n in zip(np.sort(rng.uniform(-math.pi, math.pi, (3, 2))), steps))
        theta_cap = float(rng.choice([0.0, math.pi, -math.pi, rng.uniform(-math.pi, math.pi)]))
        broken = BROKEN[seed % len(BROKEN)]
        scale = 1e-3 if seed % 16 == 15 else float(10.0 ** rng.uniform(-13, -11))
        trig, phase = _perturbed_trig(grid, theta_cap, broken, scale, seed)
        exact = _per_point_completeness_residual(*trig, phase)
        tables = mubcert.locc._completeness_tables(*trig, phase)
        residual = mubcert.locc._largest_residual(*tables)
        assert abs(residual - exact) <= 1e-15
        if mubcert.locc._completeness_bound(*tables) <= tol / 2:
            assert exact <= tol
            paths.append("bound")
        elif residual <= tol:
            paths.append("exact pass")
        else:
            with pytest.raises(InvariantError, match=f"POVM completeness residual {residual:.3e} on the grid"):
                mubcert.locc._check_completeness(trig, phase)
            paths.append("reject")
            continue
        mubcert.locc._check_completeness(trig, phase)
    # Every path is taken: accepted by the bound, accepted by the exact pass
    # alone, and rejected (57, 37 and 146 times when written).
    assert all(paths.count(path) >= 20 for path in ("bound", "exact pass", "reject"))


def test_sweep_words_a_completeness_rejection_with_the_exact_residual(monkeypatch):
    # Below every real grid's rounding, so the bound cannot accept and the
    # exact pass rejects, naming its own residual.
    monkeypatch.setattr(mubcert.locc, "COMPLETENESS_TOL", 1e-17)
    trig = [(np.sin(a), np.cos(a)) for a in (np.linspace(lo, hi, s) for lo, hi, s in GRID_61)]
    residual = mubcert.locc._largest_residual(*mubcert.locc._completeness_tables(*trig, np.exp(0.5j)))
    with pytest.raises(InvariantError, match=f"POVM completeness residual {residual:.3e} on the grid"):
        sweep(psi_lambda(0.5).density(), grid=GRID_61, theta_cap=0.5)


def _sweep_peak(rho, **kwargs) -> int:
    sweep(rho, grid=((-math.pi, math.pi, 5),) * 3)  # lazy imports and caches
    tracemalloc.start()
    try:
        sweep(rho, grid=GRID_61, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_peak_memory_does_not_scale_with_grid():
    # The whole-grid pass peaks at about 113 MB here; omega alone is 1.8 MB.
    assert _sweep_peak(psi_lambda(0.5).density()) < 16e6


def test_sweep_peak_memory_on_a_mixed_state_mirrored():
    assert _sweep_peak(_random_mixed(4), theta_cap=0.5, party=1) < 16e6


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-math.pi, math.pi),
    st.sampled_from([0, 1]),
)
def test_sweep_matches_scalar_omega_on_mixed_states(seed, theta_cap, party):
    rho = _random_mixed(seed)
    result = sweep(rho, grid=GRID_UNEVEN, theta_cap=theta_cap, party=party)
    axes = result.axes()
    cube = result.omega.reshape(tuple(ax.size for ax in axes))
    rng = np.random.default_rng(seed)
    for _ in range(10):
        index = tuple(int(rng.integers(0, ax.size)) for ax in axes)
        chi, zeta, xi = (float(ax[i]) for ax, i in zip(axes, index))
        params = PovmParams(chi=chi, zeta=zeta, xi=xi, theta_cap=theta_cap)
        assert abs(cube[index] - omega(rho, params, party=party)) <= 1e-12


RANDOM_71 = random_pure((2, 2), [7, 1]).density()


@pytest.mark.parametrize(
    "rho, theta_cap, party",
    [
        (psi_lambda(0.5).density(), 0.0, 0),
        (psi_lambda(0.3137).density(), 0.5, 1),
        (RANDOM_71, -1.1, 0),
        (RANDOM_71, -1.1, 1),
        (_random_mixed(11), 2.3, 0),
        (_random_mixed(12), -0.4, 1),
    ],
)
def test_min_omega_family_bounds_the_grid_and_random_povms(rho, theta_cap, party):
    lowest = min_omega_family(rho, theta_cap, party)
    assert lowest <= sweep(rho, grid=GRID_61, theta_cap=theta_cap, party=party).min_omega + 1e-12
    rng = np.random.default_rng(2024)
    for _ in range(500):
        chi, zeta, xi = (float(v) for v in rng.uniform(-math.pi, math.pi, 3))
        params = PovmParams(chi=chi, zeta=zeta, xi=xi, theta_cap=theta_cap)
        assert omega(rho, params, party=party) >= lowest - 1e-12


@pytest.mark.parametrize("party, expected", [(0, -1.1661943), (1, -1.1807932)])
def test_min_omega_family_pinned_for_a_random_pure_state(party, expected):
    # below the 61^3 grid minima, -1.16578 and -1.18053
    assert min_omega_family(RANDOM_71, -1.1, party) == pytest.approx(expected, abs=1e-7)


def test_min_omega_family_validation():
    with pytest.raises(ValueError):
        min_omega_family(psi_lambda(0.5).density(), theta_cap=4.0)
    with pytest.raises(ValueError):
        min_omega_family(psi_lambda(0.5).density(), party=2)
    with pytest.raises(ValueError):
        min_omega_family(random_pure((2, 2, 2), 1).density())


def test_verify_paths_reach_i2_only_through_the_witness(monkeypatch, tmp_path):
    # Every mubcert module that binds i_m_bipartite or outcome_distribution
    # gets a version that raises; omega and the verify paths read I_2
    # through its Witness, so they must not notice.
    modules = [importlib.import_module(f"mubcert.{m.name}") for m in pkgutil.iter_modules(mubcert.__path__)
               if m.name != "__main__"] + [mubcert]
    for name in ("i_m_bipartite", "outcome_distribution"):
        original = getattr(mubcert.correlations, name)

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    assert main(["locc", "--grid", "5", "--verify", "--out-dir", str(tmp_path / "locc")]) == 0
    assert main(["figures", "--steps", "3", "--grid", "3", "--verify", "--out-dir", str(tmp_path / "figures")]) == 0


def test_omega_builds_no_family_or_product_unitary_after_warm_up(monkeypatch):
    rng = np.random.default_rng(99)
    states = [psi_lambda(0.5).density(), _random_mixed(3)]
    omega(states[0], IDENTITY_POVM)  # warm-up: builds the pair and its witness
    families, products = [], []
    build_family = MubFamily.__post_init__

    def counted_family(self):
        families.append(1)
        build_family(self)

    product = BasisAssignment.__dict__["product_unitary"].func

    def counted_product(self):
        products.append(1)
        return product(self)

    counted = cached_property(counted_product)
    counted.__set_name__(BasisAssignment, "product_unitary")
    monkeypatch.setattr(MubFamily, "__post_init__", counted_family)
    monkeypatch.setattr(BasisAssignment, "product_unitary", counted)
    for k in range(50):
        assert math.isfinite(omega(states[k % 2], _random_params(rng), party=k // 2 % 2))
    assert families == [] and products == []
    # The counters see a build made outside the caches.
    fourier_pair.__wrapped__(2)
    assert BasisAssignment(fourier_pair(2).bases).product_unitary.shape == (4, 4)
    assert families == [1] and products == [1]
