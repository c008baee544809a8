"""Numerical check that the bipartite MUB correlation does not grow under
local two-outcome POVMs.

The POVM family is E_i = D_i V with D_1 = diag(sin chi, sin zeta),
D_2 = diag(cos chi, cos zeta) and V a rotation through xi with relative
phase theta_cap, so completeness E1'E1 + E2'E2 = I holds identically.
The monitored residual is

    omega = I2(rho) - sum_k p_k I2(rho_k),

where rho_k are the normalized post-measurement branches on one party.
Branches with probability below 1e-12 contribute zero.  The sweep
evaluates omega on a (chi, zeta, xi) grid at fixed theta_cap using a
vectorized trace identity: p_k I2(rho_k) = Tr[(E_k x I) rho (E_k x I)' M]
with M the sum of the matched-outcome projectors of the MUB pair, which
needs no per-branch normalization and is exact for zero-probability
branches.  The scalar omega() walks the definition literally, giving an
independent point check for sweep output.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

from .correlations import i_m_bipartite, i_m_witness
from .linalg import COMPLETENESS_TOL, DensityMatrix, InvariantError, dagger, kron, mix
from .mub import MubFamily, fourier_pair

ZERO_BRANCH_TOL = 1e-12

DEFAULT_GRID = ((-np.pi, np.pi, 61), (-np.pi, np.pi, 61), (-np.pi, np.pi, 61))

# Grid points per sweep block.  A multiple of every gemm unroll width, so
# that only the last rows of the grid reach BLAS's edge kernel, exactly as
# in one whole-grid contraction; blocks cut at chi slabs (61^2 points) would
# put an edge row in every block, and that kernel rounds differently.
SWEEP_BLOCK = 8192


def _check_angle(name: str, value: float) -> None:
    """The one angle-range rule: closed [-pi, pi]."""
    if not -np.pi <= value <= np.pi:
        raise ValueError(f"{name} must lie in [-pi, pi], got {value}")


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

    omega is flat in C order over (chi, zeta, xi); argmin ties resolve to
    the lexicographically smallest grid index.
    """

    grid: tuple[tuple[float, float, int], ...]
    theta_cap: float
    omega: np.ndarray
    min_omega: float
    argmin: PovmParams

    def __post_init__(self) -> None:
        steps = [int(s) for _, _, s in self.grid]
        if len(self.grid) != 3 or any(s < 1 for s in steps):
            raise ValueError(f"grid must give (lo, hi, steps>=1) for three axes, got {self.grid}")
        if self.omega.size != steps[0] * steps[1] * steps[2]:
            raise InvariantError(
                f"omega length {self.omega.size} does not match grid {self.grid}"
            )
        if self.omega.size and float(self.omega.min()) != self.min_omega:
            raise InvariantError("min_omega is not the minimum of the omega array")
        self.omega.flags.writeable = False

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.linspace(lo, hi, s) for lo, hi, s in self.grid)

    def density_min_over_xi(self) -> np.ndarray:
        """Per (chi, zeta) cell, the minimum of omega over the xi axis."""
        shape = tuple(int(s) for _, _, s in self.grid)
        return self.omega.reshape(shape).min(axis=2)


def build_povm(p: PovmParams) -> tuple[np.ndarray, np.ndarray]:
    """The two POVM elements E_1 = D_1 V, E_2 = D_2 V; completeness checked."""
    phase = np.exp(1j * p.theta_cap)
    v = np.array(
        [[cos(p.xi), -phase * sin(p.xi)], [sin(p.xi), phase * cos(p.xi)]],
        dtype=np.complex128,
    )
    e1 = np.diag([sin(p.chi), sin(p.zeta)]).astype(np.complex128) @ v
    e2 = np.diag([cos(p.chi), cos(p.zeta)]).astype(np.complex128) @ v
    residual = float(np.max(np.abs(dagger(e1) @ e1 + dagger(e2) @ e2 - np.eye(2))))
    if residual > COMPLETENESS_TOL:
        raise InvariantError(f"POVM completeness residual {residual:.3e}")
    return e1, e2


def apply_branch(rho: DensityMatrix, e: np.ndarray, party: int = 0):
    """One measurement branch: probability and normalized post-state.

    Returns (p, state); state is None when p < 1e-12.
    """
    if rho.n_parties != 2:
        raise ValueError(f"apply_branch needs a bipartite state, got {rho.n_parties} parties")
    if party not in (0, 1):
        raise ValueError(f"party must be 0 or 1, got {party}")
    d = rho.dims[party]
    e = np.asarray(e, dtype=np.complex128)
    if e.shape != (d, d):
        raise ValueError(f"operator shape {e.shape} does not match local dimension {d}")
    if party == 0:
        k = kron(e, np.eye(rho.dims[1]))
    else:
        k = kron(np.eye(rho.dims[0]), e)
    raw = k @ rho.entries @ dagger(k)
    p = float(np.real(np.trace(raw)))
    if p < ZERO_BRANCH_TOL:
        return max(p, 0.0), None
    return p, DensityMatrix(rho.dims, raw / p)


def _i2(rho: DensityMatrix, family: MubFamily) -> float:
    return i_m_bipartite(rho, family).i_value


def omega(rho: DensityMatrix, params: PovmParams, family: MubFamily | None = None, party: int = 0) -> float:
    """Monotonicity residual I2(rho) - sum_k p_k I2(rho_k) for one POVM."""
    if family is None:
        family = fourier_pair(2)
    e1, e2 = build_povm(params)
    value = _i2(rho, family)
    total_p = 0.0
    for e in (e1, e2):
        p, branch = apply_branch(rho, e, party)
        total_p += p
        if branch is not None:
            value -= p * _i2(branch, family)
    if abs(total_p - 1.0) > 1e-10:
        raise InvariantError(f"branch probabilities sum to {total_p!r}, not 1")
    return value


def sweep(
    rho: DensityMatrix,
    grid=DEFAULT_GRID,
    theta_cap: float = 0.0,
    family: MubFamily | None = None,
    party: int = 0,
) -> PovmSweepResult:
    """Omega on the full (chi, zeta, xi) grid at fixed theta_cap.

    Vectorized over blocks of SWEEP_BLOCK grid points in C order, so peak
    memory does not grow with the grid beyond the omega array itself;
    deterministic; the argmin reports the first minimum in C order
    (lexicographic in the axis indices).
    """
    if rho.dims != (2, 2):
        raise ValueError(f"sweep needs a two-qubit state, got dims {rho.dims}")
    if party not in (0, 1):
        raise ValueError(f"party must be 0 or 1, got {party}")
    _check_angle("theta_cap", theta_cap)
    grid = tuple((float(lo), float(hi), int(s)) for lo, hi, s in grid)
    if len(grid) != 3 or any(s < 1 for _, _, s in grid):
        raise ValueError(f"grid must give (lo, hi, steps>=1) for three axes, got {grid}")
    for name, (lo, hi, _) in zip(("chi", "zeta", "xi"), grid):
        _check_angle(f"{name} axis start", lo)
        _check_angle(f"{name} axis end", hi)
        if lo > hi:
            raise ValueError(f"{name} axis must run from low to high, got {grid}")
    if family is None:
        family = fourier_pair(2)

    projector = i_m_witness(family).operator()
    base = float(np.real(np.trace(rho.entries @ projector)))
    m4 = projector.reshape(2, 2, 2, 2)
    rho4 = rho.entries.reshape(2, 2, 2, 2)
    if party == 0:
        t = np.einsum("abAB,CBcb->caCA", rho4, m4)
        subscripts = "nca,nCA,caCA->n"
    else:
        t = np.einsum("abAB,ACac->cbCB", rho4, m4)
        subscripts = "ncb,nCB,cbCB->n"

    shape = tuple(s for _, _, s in grid)
    chi_ax, zeta_ax, xi_ax = (np.linspace(lo, hi, s) for lo, hi, s in grid)
    phase = np.exp(1j * theta_cap)

    def elements(top, bottom, cxi, sxi) -> np.ndarray:
        e = np.empty((top.size, 2, 2), dtype=np.complex128)
        e[:, 0, 0] = top * cxi
        e[:, 0, 1] = -top * phase * sxi
        e[:, 1, 0] = bottom * sxi
        e[:, 1, 1] = bottom * phase * cxi
        return e

    values = np.empty(chi_ax.size * zeta_ax.size * xi_ax.size)
    residual = 0.0
    for start in range(0, values.size, SWEEP_BLOCK):
        stop = min(start + SWEEP_BLOCK, values.size)
        i, j, k = np.unravel_index(np.arange(start, stop), shape)
        ch, ze, xi = chi_ax[i], zeta_ax[j], xi_ax[k]
        cxi, sxi = np.cos(xi), np.sin(xi)
        e1 = elements(np.sin(ch), np.sin(ze), cxi, sxi)
        e2 = elements(np.cos(ch), np.cos(ze), cxi, sxi)
        completeness = np.einsum("nji,njk->nik", e1.conj(), e1) + np.einsum(
            "nji,njk->nik", e2.conj(), e2
        )
        residual = max(residual, float(np.max(np.abs(completeness - np.eye(2)))))
        branch1 = np.real(np.einsum(subscripts, e1, e1.conj(), t, optimize=True))
        branch2 = np.real(np.einsum(subscripts, e2, e2.conj(), t, optimize=True))
        values[start:stop] = base - branch1 - branch2
    if residual > COMPLETENESS_TOL:
        raise InvariantError(f"POVM completeness residual {residual:.3e} on the grid")

    i, j, k = np.unravel_index(int(np.argmin(values)), shape)
    argmin = PovmParams(
        chi=float(chi_ax[i]), zeta=float(zeta_ax[j]), xi=float(xi_ax[k]), theta_cap=theta_cap
    )
    return PovmSweepResult(
        grid=grid,
        theta_cap=theta_cap,
        omega=values,
        min_omega=float(values.min()),
        argmin=argmin,
    )


def convexity_probe(rho1: DensityMatrix, rho2: DensityMatrix, weights, family: MubFamily | None = None) -> float:
    """Max deviation of I2 from exact mixing linearity over the given weights."""
    if rho1.dims != rho2.dims:
        raise ValueError(f"dims differ: {rho1.dims} vs {rho2.dims}")
    if family is None:
        if rho1.dims[0] != rho1.dims[1]:
            raise ValueError(f"need equal local dims, got {rho1.dims}")
        family = fourier_pair(rho1.dims[0])
    a, b = _i2(rho1, family), _i2(rho2, family)
    worst = 0.0
    for w in weights:
        w = float(w)
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"weights must lie in [0, 1], got {w}")
        mixed = mix([rho1, rho2], [w, 1.0 - w])
        worst = max(worst, abs(_i2(mixed, family) - (w * a + (1.0 - w) * b)))
    return worst
