"""Numerical check that the bipartite MUB correlation does not grow under
local two-outcome POVMs.

The POVM family is E_i = D_i V with D_1 = diag(sin chi, sin zeta),
D_2 = diag(cos chi, cos zeta) and V a rotation through xi with relative
phase theta_cap, so completeness E1'E1 + E2'E2 = I holds identically.
omega_stack checks it for each POVM it is given.  The sweep bounds it over
the whole grid from per-axis tables before it evaluates omega anywhere, and
checks every grid point only when that bound does not accept.
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

DEFAULT_GRID = ((-np.pi, np.pi, 61), (-np.pi, np.pi, 61), (-np.pi, np.pi, 61))


def _check_angle(name: str, value: float) -> None:
    """The one angle-range rule: closed [-pi, pi]."""
    if not -np.pi <= value <= np.pi:
        raise ValueError(f"{name} must lie in [-pi, pi], got {value}")


def _check_steps(grid) -> None:
    """The one grid-shape rule: three (lo, hi, steps) axes, steps an integer >= 1."""
    if len(grid) != 3:
        raise ValueError(f"grid must give (lo, hi, steps>=1) for three axes, got {grid}")
    for name, (_, _, s) in zip(("chi", "zeta", "xi"), grid):
        # int() would truncate 5.9 to 5 steps and read True as 1
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
            raise ValueError(f"{name} axis steps must be an integer, got {s!r}")
        if s < 1:
            raise ValueError(f"grid must give (lo, hi, steps>=1) for three axes, got {grid}")


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
    """Omega over a full (chi, zeta, xi) grid at fixed theta_cap.

    omega is float64, flat in C order over (chi, zeta, xi); min_omega and
    argmin are read from it, argmin ties resolving to the lexicographically
    smallest grid index.
    """

    grid: tuple[tuple[float, float, int], ...]
    theta_cap: float
    omega: np.ndarray

    def __post_init__(self) -> None:
        _check_steps(self.grid)
        # The grid writers read omega's bit patterns as float64.
        if self.omega.dtype != np.float64:
            raise ValueError(f"omega must be float64, got {self.omega.dtype}")
        steps = [int(s) for _, _, s in self.grid]
        if self.omega.size != steps[0] * steps[1] * steps[2]:
            raise InvariantError(
                f"omega length {self.omega.size} does not match grid {self.grid}"
            )
        self.omega.flags.writeable = False

    @cached_property
    def min_omega(self) -> float:
        return float(self.omega.min())

    @cached_property
    def argmin(self) -> PovmParams:
        index = np.unravel_index(int(np.argmin(self.omega)), tuple(int(s) for _, _, s in self.grid))
        chi, zeta, xi = (float(ax[i]) for ax, i in zip(self.axes(), index))
        return PovmParams(chi=chi, zeta=zeta, xi=xi, theta_cap=self.theta_cap)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.linspace(lo, hi, s) for lo, hi, s in self.grid)

    def density_min_over_xi(self) -> np.ndarray:
        """Per (chi, zeta) cell, the minimum of omega over the xi axis."""
        shape = tuple(int(s) for _, _, s in self.grid)
        return self.omega.reshape(shape).min(axis=2)


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
    s_xi, c_xi = trig[:, 4], trig[:, 5]
    v = np.empty((len(trig), 1, 2, 2), dtype=np.complex128)
    v[:, 0, 0, 0] = c_xi
    v[:, 0, 0, 1] = -phase * s_xi
    v[:, 0, 1, 0] = s_xi
    v[:, 0, 1, 1] = phase * c_xi
    d = np.zeros((len(trig), 2, 2, 2), dtype=np.complex128)
    d[:, :, 0, 0], d[:, :, 1, 1] = trig[:, 0:2], trig[:, 2:4]
    e = d @ v
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


def _completeness_tables(chi_trig, zeta_trig, xi_trig, phase) -> tuple[np.ndarray, np.ndarray]:
    """The (chi, xi) and (zeta, xi) tables whose sum at a grid point is
    E1'E1 + E2'E2 - I there, the second less I.

    Each *_trig is the (sin, cos) pair of one axis.  With E_k = D_k V, row 0
    of E_k depends on (chi, xi) only and row 1 on (zeta, xi) only, so each
    entry of the sum at a grid point is a (chi, xi) table entry plus a
    (zeta, xi) one.
    """
    s_xi, c_xi = xi_trig

    def gram(first, second) -> np.ndarray:
        # conj(r_i) r_k for the row r = (first, second), over the table axes
        r = np.stack((first, second), axis=-1)
        return r.conj()[..., :, None] * r[..., None, :]

    # the products E_k = D_k V: row 0 from chi, row 1 from zeta
    chi_part = sum(gram(t[:, None] * c_xi, -t[:, None] * phase * s_xi) for t in chi_trig)
    zeta_part = sum(gram(t[:, None] * s_xi, t[:, None] * phase * c_xi) for t in zeta_trig)
    return chi_part, zeta_part - np.eye(2)


def _largest_residual(chi_part, zeta_part) -> float:
    """Largest |E1'E1 + E2'E2 - I| over every grid point, from the tables.

    The tables are added one chi value at a time, so the largest temporary
    is one (zeta, xi) slab of 2x2 matrices.
    """
    return max(float(np.max(np.abs(zeta_part + part))) for part in chi_part)


def _completeness_bound(chi_part, zeta_part) -> float:
    """An upper bound on every grid point's residual, read off the tables alone.

    With r the zeta table's first row over xi, A + B = (A + r) + (B - r) at
    every grid point, so the triangle inequality bounds |A + B| by
    max |A + r| + max |B - r|.
    """
    r = zeta_part[0]
    return float(np.max(np.abs(chi_part + r))) + float(np.max(np.abs(zeta_part - r)))


def _check_completeness(trig, phase) -> None:
    """Raise InvariantError unless every grid point's POVM is complete.

    The bound accepts at COMPLETENESS_TOL / 2, which leaves room for the
    rounding in its own sums.  Only a grid it does not accept takes the
    exact pass over every point, which decides and words every rejection.
    """
    tables = _completeness_tables(*trig, phase)
    if _completeness_bound(*tables) <= COMPLETENESS_TOL / 2:
        return
    residual = _largest_residual(*tables)
    if residual > COMPLETENESS_TOL:
        raise InvariantError(f"POVM completeness residual {residual:.3e} on the grid")


def _coefficients(rho: DensityMatrix, phase: complex, party: int, s_xi, c_xi):
    """A(xi) and B(xi) of omega = A(xi) + B(xi) cos(chi - zeta), per xi value.

    Both elements share V(xi), E_k = D_k V, so with
    X[c, C] = sum over a, A of V[c, a] conj(V[C, A]) t[c, a, C, A] the two
    branches add to X00 + X11 + (sin chi sin zeta + cos chi cos zeta)(X01 + X10).
    """
    projector = i_m_witness(fourier_pair(2)).operator()
    base = float(np.real(np.trace(rho.entries @ projector)))
    m4 = projector.reshape(2, 2, 2, 2)
    rho4 = rho.entries.reshape(2, 2, 2, 2)
    if party == 0:
        t = np.einsum("abAB,CBcb->caCA", rho4, m4)
    else:
        t = np.einsum("abAB,ACac->cbCB", rho4, m4)
    v = np.empty((s_xi.size, 2, 2), dtype=np.complex128)
    v[:, 0, 0] = c_xi
    v[:, 0, 1] = -phase * s_xi
    v[:, 1, 0] = s_xi
    v[:, 1, 1] = phase * c_xi
    x = np.real(np.einsum("nca,nCA,caCA->ncC", v, v.conj(), t))
    return base - x[:, 0, 0] - x[:, 1, 1], -(x[:, 0, 1] + x[:, 1, 0])


def _check_sweep_args(rho: DensityMatrix, theta_cap: float, party: int) -> None:
    if rho.dims != (2, 2):
        raise ValueError(f"sweep needs a two-qubit state, got dims {rho.dims}")
    if party not in (0, 1):
        raise ValueError(f"party must be 0 or 1, got {party}")
    _check_angle("theta_cap", theta_cap)


def sweep(
    rho: DensityMatrix,
    grid=DEFAULT_GRID,
    theta_cap: float = 0.0,
    party: int = 0,
) -> PovmSweepResult:
    """Omega on the full (chi, zeta, xi) grid at fixed theta_cap.

    Completeness of the POVM at every grid point is checked once, from
    per-axis tables, before any grid work.  Omega is then the closed form
    A(xi) + B(xi) C(chi, zeta), C = sin chi sin zeta + cos chi cos zeta,
    filled by one broadcast into the omega array; deterministic.
    """
    _check_sweep_args(rho, theta_cap, party)
    grid = tuple(grid)
    _check_steps(grid)
    for name, (lo, hi, _) in zip(("chi", "zeta", "xi"), grid):
        _check_angle(f"{name} axis start", lo)
        _check_angle(f"{name} axis end", hi)
        if lo > hi:
            raise ValueError(f"{name} axis must run from low to high, got {grid}")
    grid = tuple((float(lo), float(hi), int(s)) for lo, hi, s in grid)

    trig = [(np.sin(a), np.cos(a)) for a in (np.linspace(lo, hi, s) for lo, hi, s in grid)]
    (s_chi, c_chi), (s_zeta, c_zeta), (s_xi, c_xi) = trig
    phase = np.exp(1j * theta_cap)
    _check_completeness(trig, phase)

    a, b = _coefficients(rho, phase, party, s_xi, c_xi)
    c = np.outer(s_chi, s_zeta) + np.outer(c_chi, c_zeta)
    values = c[:, :, None] * b
    values += a
    return PovmSweepResult(grid=grid, theta_cap=theta_cap, omega=values.reshape(-1))


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

