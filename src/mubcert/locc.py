"""Numerical check that the bipartite MUB correlation does not grow under
local two-outcome POVMs.

The POVM family is E_i = D_i V with D_1 = diag(sin chi, sin zeta),
D_2 = diag(cos chi, cos zeta) and V a rotation through xi with relative
phase theta_cap, so completeness E1'E1 + E2'E2 = I holds identically.
omega_stack checks it for each POVM it is given.  The sweep bounds it over
the whole grid in closed form, from the axis's sin and cos, before it
evaluates omega anywhere.
The monitored residual is

    omega = I2(rho) - sum_k p_k I2(rho_k),

where rho_k are the normalized post-measurement branches on one party.
Branches with probability below 1e-12 contribute zero.  The sweep
evaluates omega on a (chi, zeta, xi) grid at fixed theta_cap using a
vectorized trace identity: p_k I2(rho_k) = Tr[(E_k x I) rho (E_k x I)' M]
with M the sum of the matched-outcome projectors of the MUB pair, which
needs no per-branch normalization and is exact for zero-probability
branches.  Both elements share V, so omega = A(xi) + B(xi) cos(chi - zeta)
exactly; the sweep evaluates that form, and min_omega_family minimises it
over the whole continuous family.  omega_stack walks the definition
instead, building each POVM's normalized branches and reading them with one
stacked read of the I2 witness, an independent point check for sweep output;
omega is its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import cos, hypot, sin, sqrt

import numpy as np

from .correlations import i_m_witness
from .linalg import BRANCH_SUM_TOL, COMPLETENESS_TOL, DensityMatrix, InvariantError
from .mub import fourier_pair

ZERO_BRANCH_TOL = 1e-12


def _check_angle(name: str, value: float) -> None:
    """The one angle-range rule: closed [-pi, pi]."""
    if not -np.pi <= value <= np.pi:
        raise ValueError(f"{name} must lie in [-pi, pi], got {value}")


def _axis(steps) -> np.ndarray:
    """The read-only grid axis of chi, zeta and xi: steps >= 1 points from -pi to pi."""
    # int() would truncate 5.9 to 5 steps and read True as 1
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"axis steps must be an integer of at least 1, got {steps!r}")
    axis = np.linspace(-np.pi, np.pi, steps)
    axis.flags.writeable = False
    return axis


@dataclass(frozen=True)
class PovmParams:
    """POVM family parameters; all angles in radians within [-pi, pi]."""

    chi: float
    zeta: float
    xi: float
    theta_cap: float

    def __post_init__(self) -> None:
        for name in ("chi", "zeta", "xi", "theta_cap"):
            _check_angle(name, getattr(self, name))


@dataclass(frozen=True, eq=False)
class PovmSweepResult:
    """Omega over the (chi, zeta, xi) grid at fixed theta_cap, each angle on ``axis``.

    omega is float64, flat in C order over (chi, zeta, xi); min_omega and
    argmin are read from it, argmin ties resolving to the lexicographically
    smallest grid index.
    """

    steps: int
    theta_cap: float
    omega: np.ndarray

    def __post_init__(self) -> None:
        axis = self.axis  # refuses a steps that is not an integer >= 1
        # The grid writers read omega's bit patterns as float64.
        if self.omega.dtype != np.float64:
            raise ValueError(f"omega must be float64, got {self.omega.dtype}")
        if self.omega.size != axis.size**3:
            raise InvariantError(f"omega length {self.omega.size} does not match {self.steps} grid steps")
        self.omega.flags.writeable = False

    @cached_property
    def axis(self) -> np.ndarray:
        return _axis(self.steps)

    @cached_property
    def min_omega(self) -> float:
        return float(self.omega.min())

    @cached_property
    def argmin(self) -> PovmParams:
        index = np.unravel_index(int(np.argmin(self.omega)), (self.steps,) * 3)
        chi, zeta, xi = (float(self.axis[i]) for i in index)
        return PovmParams(chi=chi, zeta=zeta, xi=xi, theta_cap=self.theta_cap)

    def density_min_over_xi(self) -> np.ndarray:
        """Per (chi, zeta) cell, the minimum of omega over the xi axis."""
        return self.omega.reshape((self.steps,) * 3).min(axis=2)


def _rotation(s_xi, c_xi, phase) -> np.ndarray:
    """V = [[cos xi, -phase sin xi], [sin xi, phase cos xi]] for each xi, shape (N, 2, 2)."""
    v = np.empty((len(s_xi), 2, 2), dtype=np.complex128)
    v[:, 0, 0] = c_xi
    v[:, 0, 1] = -phase * s_xi
    v[:, 1, 0] = s_xi
    v[:, 1, 1] = phase * c_xi
    return v


def _povm_stack(params) -> tuple[np.ndarray, np.ndarray]:
    """Each POVM's elements E_1 = D_1 V and E_2 = D_2 V, shape (T, 2, 2, 2), and
    its completeness residual max |E1'E1 + E2'E2 - I|, shape (T,).

    The angles go through math.sin/cos and np.exp one POVM at a time, and
    every product is a stacked matmul of one POVM's shapes, so each row is
    bit for bit what that POVM gives alone.
    """
    params = list(params)
    trig = np.array(
        [(sin(p.chi), cos(p.chi), sin(p.zeta), cos(p.zeta), sin(p.xi), cos(p.xi)) for p in params]
    ).reshape(-1, 6)
    phase = np.exp(1j * np.array([p.theta_cap for p in params]))
    d = np.zeros((len(trig), 2, 2, 2), dtype=np.complex128)
    d[:, :, 0, 0], d[:, :, 1, 1] = trig[:, 0:2], trig[:, 2:4]
    e = d @ _rotation(trig[:, 4], trig[:, 5], phase)[:, None]
    gram = e.conj().swapaxes(-1, -2) @ e
    residual = np.abs(gram[:, 0] + gram[:, 1] - np.eye(2)).max(axis=(1, 2))
    return e, residual


def _branch_stack(rho: DensityMatrix, ops: np.ndarray, party: int) -> tuple[np.ndarray, np.ndarray]:
    """K rho K' and its probability Re Tr for each operator E of the (N, d, d)
    stack ``ops``, K = E x I on party 0 or I x E on party 1, unnormalized.

    K is taken by broadcasting as np.kron does, and each product is a
    stacked matmul, so each row is bit for bit the one-operator result.
    """
    n, dims = len(ops), rho.dims
    if party == 0:
        k = ops[:, :, None, :, None] * np.eye(dims[1], dtype=np.complex128)[:, None, :]
    else:
        k = np.eye(dims[0], dtype=np.complex128)[:, None, :, None] * ops[:, None, :, None, :]
    k = k.reshape(n, rho.dim, rho.dim)
    raw = k @ rho.entries @ k.conj().swapaxes(-1, -2)
    return raw, np.real(np.trace(raw, axis1=1, axis2=2))


def omega_stack(rho: DensityMatrix, params, party: int = 0) -> np.ndarray:
    """omega(rho, p, party) for each p of the sequence ``params``, bit for bit.

    One read of the I2 witness takes rho and every normalized branch of
    probability at least ZERO_BRANCH_TOL, and validates them.  A failed
    check raises InvariantError whose row is the index into ``params`` of
    the first POVM that fails it: completeness first, then the read, then
    the branch sum.
    """
    witness = i_m_witness(fourier_pair(2))
    if rho.dims != witness.dims:
        raise ValueError(f"state dims {rho.dims} do not match witness dims {witness.dims}")
    if party not in (0, 1):
        raise ValueError(f"party must be 0 or 1, got {party}")
    e, residual = _povm_stack(params)
    bad = residual > COMPLETENESS_TOL
    if bad.any():
        row = int(bad.argmax())
        raise InvariantError(f"POVM completeness residual {residual[row]:.3e}", row)
    raw, p = _branch_stack(rho, e.reshape(-1, 2, 2), party)
    dead = p < ZERO_BRANCH_TOL
    live = np.flatnonzero(~dead)
    stack = np.concatenate((rho.entries[None], raw[live] / p[live, None, None]))
    try:
        values = witness.read(stack)[0]
    except InvariantError as exc:
        # Row 0 is rho, which the first POVM's walk reads first.
        owner = live[exc.row - 1] // 2 if exc.row else 0
        raise InvariantError(str(exc), int(owner)) from None
    # The scalar walk: I2(rho) less p_k I2(rho_k) for each live branch in
    # turn, and the probabilities summed from 0.0, a dead one as max(p, 0).
    loss = np.zeros(p.shape)
    loss[live] = p[live] * values[1:]
    loss = loss.reshape(-1, 2)
    counted = np.where(dead, np.maximum(p, 0.0), p).reshape(-1, 2)
    total = (0.0 + counted[:, 0]) + counted[:, 1]
    off = abs(total - 1.0) > BRANCH_SUM_TOL
    if off.any():
        row = int(off.argmax())
        raise InvariantError(f"branch probabilities sum to {float(total[row])!r}, not 1", row)
    return (values[0] - loss[:, 0]) - loss[:, 1]


def omega(rho: DensityMatrix, params: PovmParams, party: int = 0) -> float:
    """Monotonicity residual I2(rho) - sum_k p_k I2(rho_k) for one POVM."""
    return float(omega_stack(rho, [params], party)[0])


def _completeness_bound(s, c, phase) -> float:
    """An upper bound on every grid point's |E1'E1 + E2'E2 - I|, from the
    sin and cos arrays ``s``, ``c`` of the axis values and the phase alone.

    With E_k = D_k V the sum is V' diag(a, b) V, a and b the s^2 + c^2 of chi
    and of zeta.  Let e = max |s^2 + c^2 - 1|, g = ||phase|^2 - 1| and n the
    s^2 + c^2 of xi, so n <= 1 + e.  V'V - I = diag(n - 1, |phase|^2 n - 1)
    has entries of size at most g + (1 + g) e, and V' diag(a - 1, b - 1) V
    at most (1 + g) n e, so every entry of the residual is at most
    g + (1 + g) e (2 + e).
    """
    e = float(np.max(np.abs(s * s + c * c - 1.0)))
    g = abs(abs(phase) ** 2 - 1.0)
    return g + (1.0 + g) * e * (2.0 + e)


def _check_completeness(s, c, phase) -> None:
    """Raise InvariantError unless the bound proves every grid point's POVM
    complete.  It accepts at COMPLETENESS_TOL / 2, which leaves room for the
    rounding between the bound and a per-point product.
    """
    bound = _completeness_bound(s, c, phase)
    if bound > COMPLETENESS_TOL / 2:
        raise InvariantError(f"POVM completeness residual up to {bound:.3e} on the grid")


def _coefficients(rho: DensityMatrix, phase: complex, party: int, s_xi, c_xi):
    """A(xi) and B(xi) of omega = A(xi) + B(xi) cos(chi - zeta), per xi value.

    Both elements share V(xi), E_k = D_k V, so with
    X[c, C] = sum over a, A of V[c, a] conj(V[C, A]) t[c, a, C, A] the two
    branches add to X00 + X11 + (sin chi sin zeta + cos chi cos zeta)(X01 + X10).
    """
    projector, _ = next(i_m_witness(fourier_pair(2)).operators())
    base = float(np.real(np.trace(rho.entries @ projector)))
    m4 = projector.reshape(2, 2, 2, 2)
    rho4 = rho.entries.reshape(2, 2, 2, 2)
    if party == 0:
        t = np.einsum("abAB,CBcb->caCA", rho4, m4)
    else:
        t = np.einsum("abAB,ACac->cbCB", rho4, m4)
    v = _rotation(s_xi, c_xi, phase)
    x = np.real(np.einsum("nca,nCA,caCA->ncC", v, v.conj(), t))
    return base - x[:, 0, 0] - x[:, 1, 1], -(x[:, 0, 1] + x[:, 1, 0])


def _check_sweep_args(rho: DensityMatrix, theta_cap: float, party: int) -> None:
    if rho.dims != (2, 2):
        raise ValueError(f"sweep needs a two-qubit state, got dims {rho.dims}")
    if party not in (0, 1):
        raise ValueError(f"party must be 0 or 1, got {party}")
    _check_angle("theta_cap", theta_cap)


def sweep(rho: DensityMatrix, steps: int, theta_cap: float = 0.0, party: int = 0) -> PovmSweepResult:
    """Omega on the (chi, zeta, xi) grid of steps points per angle at fixed theta_cap.

    Completeness of the POVM at every grid point is checked once, by a
    closed-form bound over the axis values, before any grid work.  Omega is
    then the closed form A(xi) + B(xi) C(chi, zeta),
    C = sin chi sin zeta + cos chi cos zeta, filled by one broadcast into
    the omega array; deterministic.
    """
    _check_sweep_args(rho, theta_cap, party)
    axis = _axis(steps)
    s, c = np.sin(axis), np.cos(axis)
    phase = np.exp(1j * theta_cap)
    _check_completeness(s, c, phase)

    a, b = _coefficients(rho, phase, party, s, c)
    cos_diff = np.outer(s, s) + np.outer(c, c)
    values = cos_diff[:, :, None] * b
    values += a
    return PovmSweepResult(steps=steps, theta_cap=theta_cap, omega=values.reshape(-1))


def min_omega_family(rho: DensityMatrix, theta_cap: float = 0.0, party: int = 0) -> float:
    """Exact minimum of omega over every POVM of the family at fixed theta_cap.

    cos(chi - zeta) takes every value in [-1, 1], so the minimum is that of
    A(xi) - s B(xi) over xi and s = +-1.  Each is a0 + a1 cos 2xi + a2 sin 2xi,
    read off at xi = 0, pi/4, pi/2, with minimum a0 - hypot(a1, a2).
    """
    _check_sweep_args(rho, theta_cap, party)
    half = sqrt(0.5)
    a, b = _coefficients(
        rho, np.exp(1j * theta_cap), party, np.array([0.0, half, 1.0]), np.array([1.0, half, 0.0])
    )

    def lowest(f) -> float:
        a0 = (f[0] + f[2]) / 2
        return a0 - hypot(f[0] - a0, f[1] - a0)

    return float(min(lowest(a - b), lowest(a + b)))

