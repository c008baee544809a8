"""Entanglement measures: triangle area measure, global measure.

``triangle_tau`` and ``global_q`` are one-row calls of stacked cores over
stacked one-party reductions.  The reference below is the per-matrix route
they replace: one ``partial_trace`` per party and matrix, each validated,
then the one-tangle or the purity of each reduction; the cores must match it
bit for bit.
"""

import itertools
import math

import numpy as np
import pytest

import mubcert.measures

from mubcert import (
    DensityMatrix,
    InvariantError,
    StateVector,
    ghz3,
    ghz4,
    global_q,
    partial_trace,
    psi_lambda,
    random_pure,
    triangle_tau,
    w3,
)
from mubcert.linalg import partial_trace_stack
from mubcert.measures import global_q_stack, triangle_tau_stack
from mubcert.states import W3_STANDARD_ALPHA, W3_STANDARD_THETA, biseparable_sample


def _random_su2(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return np.linalg.qr(g)[0]


def _one_tangle(rho: DensityMatrix) -> float:
    """4 det(rho) of a single-qubit state, clamped to [0, 1]."""
    return min(max(4.0 * float(np.real(np.linalg.det(rho.entries))), 0.0), 1.0)


def _purity(rho: DensityMatrix) -> float:
    return float(np.real(np.trace(rho.entries @ rho.entries)))


def test_triangle_tau_ghz_curve():
    for theta in np.linspace(0.0, math.pi / 2, 50):
        theta = float(theta)
        expected = 4.0 * (1.0 - math.sin(theta) ** 4 - math.cos(theta) ** 4) ** 2
        assert abs(triangle_tau(ghz3(theta)) - expected) <= 1e-9


def test_triangle_tau_pinned_points():
    assert triangle_tau(ghz3(0.0)) == 0.0
    assert abs(triangle_tau(ghz3(math.pi / 4)) - 1.0) <= 1e-12
    w_std = w3(W3_STANDARD_THETA, W3_STANDARD_ALPHA)
    assert abs(triangle_tau(w_std) - 64.0 / 81.0) <= 1e-9


def test_triangle_tau_requires_three_qubits():
    with pytest.raises(ValueError):
        triangle_tau(ghz4(0.5))


def test_triangle_radicand_never_meaningfully_negative():
    # recompute the Heron radicand directly; the clamp must only absorb
    # float dust, never a real triangle-inequality violation
    families = [ghz3(t) for t in np.linspace(0, math.pi / 2, 40)]
    families += [w3(t, math.pi / 4) for t in np.linspace(0.01, math.pi / 2, 40)]
    for psi in families:
        rho = psi.density()
        a = [_one_tangle(partial_trace(rho, [k])) for k in range(3)]
        s = 0.5 * math.fsum(a)
        radicand = (16.0 / 3.0) * s * (s - a[0]) * (s - a[1]) * (s - a[2])
        assert radicand >= -1e-8


def test_global_q_ghz4_curve():
    for theta in np.linspace(0.0, math.pi / 2, 50):
        theta = float(theta)
        assert abs(global_q(ghz4(theta)) - math.sin(2 * theta) ** 2) <= 1e-9


def test_global_q_pinned_points():
    assert global_q(ghz4(0.0)) == 0.0
    assert abs(global_q(ghz4(math.pi / 4)) - 1.0) <= 1e-12
    assert abs(global_q(ghz3(math.pi / 4)) - 1.0) <= 1e-12
    w_std = w3(W3_STANDARD_THETA, W3_STANDARD_ALPHA)
    assert abs(global_q(w_std) - 8.0 / 9.0) <= 1e-9


def test_global_q_range_and_dims():
    rng = np.random.default_rng(6)
    for seed in range(50):
        q = global_q(random_pure((2, 2, 2), seed))
        assert -1e-12 <= q <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        global_q(StateVector((3, 3), np.eye(9)[0]))


def test_local_unitary_invariance():
    rng = np.random.default_rng(99)
    base3 = ghz3(0.6)
    base4 = ghz4(0.6)
    tau0 = triangle_tau(base3)
    q0 = global_q(base4)
    for _ in range(100):
        u3 = np.kron(np.kron(_random_su2(rng), _random_su2(rng)), _random_su2(rng))
        dressed3 = StateVector((2, 2, 2), u3 @ base3.amplitudes)
        assert abs(triangle_tau(dressed3) - tau0) <= 1e-9
        u4 = np.kron(np.kron(np.kron(_random_su2(rng), _random_su2(rng)), _random_su2(rng)), _random_su2(rng))
        dressed4 = StateVector((2, 2, 2, 2), u4 @ base4.amplitudes)
        assert abs(global_q(dressed4) - q0) <= 1e-9


# ---------------------------------------------------------- stacked cores


def _ref_partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    # The one-matrix einsum, with no stack axis.
    n, kept = rho.n_parties, sorted(keep)
    columns = [n + p if p in kept else p for p in range(n)]
    tensor = rho.entries.reshape(rho.dims + rho.dims)
    sub = np.einsum(tensor, list(range(n)) + columns, kept + [n + p for p in kept])
    d_keep = math.prod(rho.dims[k] for k in kept)
    return DensityMatrix(tuple(rho.dims[k] for k in kept), sub.reshape(d_keep, d_keep))


def _ref_triangle_tau(rho: DensityMatrix) -> float:
    a1, a2, a3 = (_one_tangle(_ref_partial_trace(rho, [k])) for k in range(3))
    s = 0.5 * (a1 + a2 + a3)
    radicand = (16.0 / 3.0) * s * (s - a1) * (s - a2) * (s - a3)
    return math.sqrt(max(radicand, 0.0))


def _ref_global_q(rho: DensityMatrix) -> float:
    n = rho.n_parties
    return 2.0 * (1.0 - math.fsum(_purity(_ref_partial_trace(rho, [k])) for k in range(n)) / n)


def _stack(n):
    """Seeded Haar states and biseparable samples on n qubits: their states
    (None for a mixed sample) and their density matrices as one stack."""
    pure = [random_pure((2,) * n, seed) for seed in range(60)]
    mixed = [biseparable_sample(n, trial, 11) for trial in range(40)]
    entries = np.array([psi.density().entries for psi in pure] + [rho.entries for rho in mixed])
    return pure + [None] * len(mixed), entries


def _same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_stacked_partial_trace_matches_the_one_matrix_route(n):
    _, entries = _stack(n)
    dims = (2,) * n
    for size in range(1, n + 1):
        for keep in itertools.combinations(range(n), size):
            stacked = partial_trace_stack(entries, dims, keep[::-1])
            for row, m in zip(stacked, entries):
                rho = DensityMatrix(dims, m)
                assert _same_bits(row, partial_trace(rho, keep).entries)
                assert _same_bits(row, _ref_partial_trace(rho, keep).entries)


@pytest.mark.parametrize("n", [3, 4])
def test_stacked_measures_match_the_one_state_calls(n):
    states, entries = _stack(n)
    rhos = [DensityMatrix((2,) * n, m) for m in entries]
    taus = triangle_tau_stack(entries) if n == 3 else [None] * len(rhos)
    qs = global_q_stack(entries)
    assert len(qs) == len(taus) == len(entries)
    for psi, rho, tau, q in zip(states, rhos, taus, qs):
        assert repr(q) == repr(_ref_global_q(rho))
        if psi is not None:
            assert repr(q) == repr(global_q(psi))
        if n == 3:
            assert repr(tau) == repr(_ref_triangle_tau(rho))
            if psi is not None:
                assert repr(tau) == repr(triangle_tau(psi))


@pytest.mark.parametrize("core", [triangle_tau_stack, global_q_stack])
@pytest.mark.parametrize("breach, message", [(2.0, "trace must be 1"), (np.nan, "entries must be finite")])
def test_stacked_measures_name_the_row_with_a_bad_reduction(core, breach, message):
    _, entries = _stack(3)
    entries = entries[:10].copy()
    entries[7] *= breach
    with pytest.raises(InvariantError, match=f"party 0 reduction: {message}") as info:
        core(entries)
    assert info.value.row == 7


def test_stacked_measures_reject_other_shapes():
    with pytest.raises(ValueError):
        triangle_tau_stack(np.eye(16, dtype=complex)[None] / 16)
    with pytest.raises(ValueError):
        global_q_stack(np.eye(9, dtype=complex)[None] / 9)
    with pytest.raises(ValueError):
        partial_trace_stack(np.eye(8, dtype=complex)[None] / 8, (2, 2, 2), [0, 0])


def _scalar_triangle_taus(entries) -> list[float]:
    """Reference: the per-row Python formula on the stacked one-party
    determinants, each one-tangle clamped with min/max and the radicand with max."""
    taus = []
    for dets in np.linalg.det(mubcert.measures._one_party_reductions(entries)).real.tolist():
        a1, a2, a3 = (min(max(4.0 * det, 0.0), 1.0) for det in dets)
        s = 0.5 * (a1 + a2 + a3)
        radicand = (16.0 / 3.0) * s * (s - a1) * (s - a2) * (s - a3)
        taus.append(math.sqrt(max(radicand, 0.0)))
    return taus


def _mixed_three_qubit_rows(rng, count):
    """Product, Bell x qubit (both orders), GHZ-like, W-like and Haar-random
    pure three-qubit states, in a seeded random order."""
    def qubit():
        return random_pure((2,), int(rng.integers(1 << 30))).amplitudes

    def bell():
        return psi_lambda(float(rng.random())).amplitudes

    kinds = [
        lambda: np.kron(np.kron(qubit(), qubit()), qubit()),
        lambda: np.kron(bell(), qubit()),
        lambda: np.kron(qubit(), bell()),
        lambda: ghz3(float(rng.uniform(0.0, np.pi))).amplitudes,
        lambda: w3(float(rng.uniform(0.0, np.pi)), float(rng.uniform(0.0, np.pi))).amplitudes,
        lambda: random_pure((2, 2, 2), int(rng.integers(1 << 30))).amplitudes,
    ]
    rows = [StateVector((2, 2, 2), kinds[int(rng.integers(len(kinds)))]()) for _ in range(count)]
    return np.array([psi.density().entries for psi in rows])


@pytest.mark.parametrize("seed", range(4))
def test_triangle_tau_stack_matches_the_scalar_formula_bit_for_bit(seed):
    entries = _mixed_three_qubit_rows(np.random.default_rng(seed), 64)
    got = np.array(triangle_tau_stack(entries))
    assert np.array_equal(got.view(np.int64), np.array(_scalar_triangle_taus(entries)).view(np.int64))
