"""Core linear-algebra layer: construction invariants, partial trace,
party permutation."""

import numpy as np
import pytest

from mubcert import (
    DensityMatrix,
    StateVector,
    ghz3,
    mix,
    partial_trace,
    permute_parties,
    psi_lambda,
    random_pure,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from mubcert.linalg import PSD_TOL, StackError, density_defect, normalise
from mubcert.states import biseparable_sample


def test_state_vector_normalizes_and_reports_original_norm():
    psi = StateVector((2,), np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-10
    assert abs(psi.original_norm - 5.0) <= 1e-12
    assert abs(psi.amplitudes[0] - 0.6) <= 1e-12


def test_normalise_takes_the_norm_of_np_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(4)
    for size in (1, 2, 3, 8, 16, 25, 256):
        for scale in (1e-3, 1.0, 1e150):
            amps = scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
            unit, norm = normalise(amps)
            assert norm == float(np.linalg.norm(amps))
            assert np.array_equal(unit, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("size", [2, 4, 8, 16, 25])
def test_normalise_on_a_stack_equals_the_one_row_call_bit_for_bit(size):
    rng = np.random.default_rng(size)
    stack = rng.standard_normal((3, 40, size)) + 1j * rng.standard_normal((3, 40, size))
    units, norms = normalise(stack)
    assert units.shape == stack.shape and norms.shape == (3, 40)
    for i in range(3):
        for j in range(40):
            unit, norm = normalise(stack[i, j])
            assert norms[i, j] == norm
            assert np.array_equal(units[i, j].view(float), unit.view(float)), (i, j)


def test_normalise_on_a_stack_names_the_first_bad_row():
    stack = np.ones((4, 5), dtype=complex)
    stack[2] = 0.0
    stack[3, 1] = np.nan
    with pytest.raises(StackError, match="cannot normalise a zero vector") as zero:
        normalise(stack)
    assert zero.value.row == 2
    stack[1, 4] = np.inf
    with pytest.raises(StackError, match="amplitudes must be finite") as finite:
        normalise(stack)
    assert finite.value.row == 1
    for row, message in [(np.zeros(3), "cannot normalise a zero vector"), (np.array([1.0, np.nan]), "amplitudes must be finite")]:
        with pytest.raises(ValueError, match=message):
            normalise(row)


def test_density_defect_names_the_first_failing_matrix_of_a_stack():
    good = np.eye(4, dtype=complex) / 4
    skew = good.copy()
    skew[0, 1] = 1e-3
    heavy = 2 * good
    negative = np.diag([0.5, 0.5, 0.1, -0.1]).astype(complex)
    nan = good.copy()
    nan[2, 2] = np.nan
    # Each check runs over the whole stack before the next one.
    for stack, want in [
        ([good, heavy, skew], (2, "matrix is not hermitian (residual 1.000e-03)")),
        ([good, negative, heavy, negative], (2, "trace must be 1, got (2+0j)")),
        ([good, good, negative], (2, "matrix has a negative eigenvalue (-1.000e-01)")),
        ([skew, nan], (1, "entries must be finite")),
    ]:
        assert density_defect(np.array(stack)) == want
        with pytest.raises(ValueError) as exc:
            DensityMatrix((2, 2), stack[want[0]])
        assert str(exc.value) == want[1]
    assert density_defect(np.array([good] * 3)) is None
    assert density_defect(np.array([[good] * 2] * 3)) is None


def _eigvalsh_defect(m):
    """density_defect's verdict on one hermitian unit-trace matrix, from eigvalsh alone."""
    lo = np.linalg.eigvalsh(m)[0]
    return None if lo >= -PSD_TOL else (0, f"matrix has a negative eigenvalue ({lo:.3e})")


def _with_lowest_eigenvalue(lo, d, seed, zeros=0):
    # Random eigenvectors; the rest of the spectrum is positive, with
    # ``zeros`` exact zeros, and sums to 1 - lo.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rest = rng.dirichlet(np.ones(d - 1 - zeros)) * (1.0 - lo)
    spectrum = np.concatenate([[lo], np.zeros(zeros), rest])
    m = (q * spectrum) @ q.conj().T
    return (m + m.conj().T) / 2


def test_psd_check_accepts_and_rejects_at_psd_tol():
    at = np.diag([0.5 + 5e-10, -1e-9, 0, 0, 0, 0, 0, 0.5 + 5e-10]).astype(complex)
    assert density_defect(at) is None
    beyond = np.diag([0.5 + 5.0005e-10, -1.0001e-9, 0, 0, 0, 0, 0, 0.5 + 5.0005e-10]).astype(complex)
    assert density_defect(beyond) == (0, "matrix has a negative eigenvalue (-1.000e-09)")


def test_psd_check_names_the_one_bad_row_of_a_stack():
    stack = np.array([biseparable_sample(3, t, 7).entries for t in range(64)])
    stack[37] = _with_lowest_eigenvalue(-2e-9, 8, 37)
    assert density_defect(stack) == (37, "matrix has a negative eigenvalue (-2.000e-09)")
    stack[37] = _with_lowest_eigenvalue(-0.9e-9, 8, 37)
    assert density_defect(stack) is None


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from([2, 4, 8, 16, 25]),
    seed=st.integers(0, 2**32 - 1),
    gap=st.floats(1e-12, 3e-9),
    below=st.booleans(),
    zeros=st.integers(0, 3),
)
def test_psd_check_agrees_with_eigvalsh(d, seed, gap, below, zeros):
    # The lowest eigenvalue lies at least 1e-12 from -PSD_TOL, on either side.
    lo = -PSD_TOL + (-gap if below else gap)
    m = _with_lowest_eigenvalue(lo, d, seed, min(zeros, d - 2))
    assert density_defect(m) == _eigvalsh_defect(m)


def test_state_vector_rejects_zero_vector():
    with pytest.raises(ValueError):
        StateVector((2,), np.array([0.0, 0.0]))


def test_state_vector_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        StateVector((2, 2), np.ones(6))


def test_state_vector_amplitudes_immutable():
    psi = psi_lambda(0.5)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


def test_constructed_states_are_normalized():
    # every constructor output obeys the norm invariant at 1e-10
    states = [
        psi_lambda(0.3),
        ghz3(0.7),
        random_pure((2, 2, 2, 2), 5),
        StateVector((3,), np.array([1.0, 1.0j, -1.0])),
    ]
    for psi in states:
        assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) <= 1e-10


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix(dims=(2,), entries=np.array([[0.6, 0.3], [0.2, 0.4]]))
    with pytest.raises(ValueError):
        DensityMatrix(dims=(2,), entries=np.array([[0.8, 0.0], [0.0, 0.4]]))
    with pytest.raises(ValueError):
        DensityMatrix(dims=(2,), entries=np.array([[1.2, 0.0], [0.0, -0.2]]))


def test_purity_of_pure_projectors():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        psi = random_pure((2,) * n, int(rng.integers(0, 2**31)))
        rho = psi.density().entries
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-10


def test_partial_trace_bell_marginal_is_maximally_mixed():
    rho = psi_lambda(0.5).density()
    marg = partial_trace(rho, keep=[0])
    assert np.max(np.abs(marg.entries - np.eye(2) / 2)) <= 1e-12


def test_partial_trace_composes():
    for seed in range(20):
        rho = random_pure((2, 2, 2), seed).density()
        via_two_steps = partial_trace(partial_trace(rho, keep=[0, 1]), keep=[0])
        direct = partial_trace(rho, keep=[0])
        assert np.max(np.abs(via_two_steps.entries - direct.entries)) <= 1e-12


def test_partial_trace_keeps_trace_one():
    rho = random_pure((2, 3, 2), 7).density()
    marg = partial_trace(rho, keep=[1])
    assert abs(np.trace(marg.entries) - 1.0) <= 1e-10
    assert marg.dims == (3,)


def test_permute_parties_roundtrip():
    psi = random_pure((2, 3, 2), 13)
    cycled = permute_parties(permute_parties(psi, (1, 2, 0)), (2, 0, 1))
    assert np.max(np.abs(cycled.amplitudes - psi.amplitudes)) <= 1e-14
    assert cycled.dims == psi.dims


def test_permute_parties_moves_amplitudes():
    # |01> -> |10> under the swap permutation
    psi = StateVector((2, 2), np.array([0.0, 1.0, 0.0, 0.0]))
    swapped = permute_parties(psi, (1, 0))
    assert abs(swapped.amplitudes[2] - 1.0) <= 1e-12


def test_mix_weights():
    r1 = psi_lambda(1.0).density()  # |00><00|
    r2 = psi_lambda(0.0).density()  # |11><11|
    rho = mix([r1, r2], [3.0, 1.0])
    assert abs(rho.entries[0, 0] - 0.75) <= 1e-12
    assert abs(np.trace(rho.entries) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        mix([r1, r2], [0.5, -0.5])


def test_mix_needs_one_weight_per_part_after_the_dims_check():
    r1 = psi_lambda(1.0).density()
    r2 = psi_lambda(0.0).density()
    with pytest.raises(ValueError, match="need one weight per term"):
        mix([], [])
    with pytest.raises(ValueError, match="need one weight per term"):
        mix([r1, r2], [1.0])
    with pytest.raises(ValueError, match="need one weight per term"):
        mix([r1], [0.5, -0.5])
    # Mismatched dims are reported first, whatever the weights.
    with pytest.raises(ValueError, match="same dims"):
        mix([r1, ghz3(0.3).density()], [1.0])

