"""Dense complex linear algebra for small multi-party quantum states.

Conventions used across the package: parties are numbered from 0, party 0
is the leftmost tensor factor, and composite indices are row-major over
the local dimensions, so the outcome string (i, j, k) of a three-party
system with dimensions (d0, d1, d2) maps to the flat index
(i * d1 + j) * d2 + k.  State vectors and density matrices are immutable
after construction and every construction re-checks its defining
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, prod

import numpy as np

# Tolerance hierarchy.  Construction invariants are the tightest thing we
# can hold against accumulated float error from a handful of matmuls;
# derived equalities get one order of magnitude more slack; completeness
# and unitarity residuals of 2x2 blocks sit at machine-level precision.
CONSTRUCTION_TOL = 1e-10
EQUALITY_TOL = 1e-9
COMPLETENESS_TOL = 1e-12
PSD_TOL = 1e-9
# A vector whose 2-norm is at or below this is a zero vector.
ZERO_NORM = 1e-12
# certify reports a state's original norm when it is further than this from 1.
UNIT_NORM_TOL = 1e-12
# A report's i_value may differ from c_first + c_second by this much.
REPORT_SUM_TOL = 1e-12
# A POVM's branch probabilities must sum to 1 within this.
BRANCH_SUM_TOL = 1e-10


def probability_slack(dim: int) -> float:
    """How far a probability, or a sum of probabilities of orthogonal
    outcomes, may lie outside [0, 1] on a ``dim``-dimensional
    DensityMatrix: its trace slack plus PSD_TOL for each eigenvalue."""
    return CONSTRUCTION_TOL + dim * PSD_TOL


class InvariantError(RuntimeError):
    """An internal consistency check failed.

    Bad caller input raises ValueError.  InvariantError is reserved for
    conditions that indicate a bug or numerical breakdown inside the
    package itself, such as a probability distribution that does not sum
    to one.  These are never silently absorbed.  A check run over a stack
    of matrices names the first failing one in ``row``.
    """

    def __init__(self, message: str, row: int = 0) -> None:
        super().__init__(message)
        self.row = row


def _check_dims(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("dims must contain at least one party")
    if any(d < 2 for d in out):
        raise ValueError(f"every local dimension must be at least 2, got {out}")
    return out


class StackError(ValueError):
    """Bad input in a stack of vectors; ``row`` is the flat index of the first
    bad one over the leading axes."""

    def __init__(self, message: str, row: int = 0) -> None:
        super().__init__(message)
        self.row = row


def normalise(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the (..., n) stack ``amps`` divided by its 2-norm, and the norms
    (a 0-d array for a single vector).

    A non-finite norm means a non-finite (or overflowing) amplitude; a
    norm at or below ZERO_NORM means a zero vector.  Both raise StackError
    naming the first such row.
    """
    # np.linalg.norm's own formula for a complex vector, without its
    # dispatch.  A stacked (1, n) @ (n, 1) matmul calls, row by row, the BLAS
    # ddot that ndarray.dot calls, so a row's norm does not depend on the
    # stack it sits in; einsum and sum round differently.
    re, im = amps.real[..., None, :], amps.imag[..., None, :]
    squares = np.matmul(re, re.swapaxes(-1, -2)) + np.matmul(im, im.swapaxes(-1, -2))
    norms = np.sqrt(squares[..., 0, 0])
    ok = np.isfinite(norms) & (norms > ZERO_NORM)
    if not ok.all():
        row = int(ok.argmin())
        finite = isfinite(norms.flat[row])
        raise StackError("cannot normalise a zero vector" if finite else "amplitudes must be finite", row)
    return amps / norms[..., None], norms


def density_defect(m: np.ndarray) -> tuple[int, str] | None:
    """The first check that the (..., D, D) stack ``m`` fails, or None.

    Each matrix must have finite entries, a hermitian residual at most
    CONSTRUCTION_TOL, a trace within CONSTRUCTION_TOL of 1 and no eigenvalue
    below -PSD_TOL; the checks run in that order over the whole stack.  A
    failure is (flat index of the first matrix failing it, message).
    """
    # Each check reduces the whole stack first and finds the failing matrix
    # only when there is one.
    stack = m.reshape((-1,) + m.shape[-2:])
    finite = np.isfinite(stack)
    if not finite.all():
        return int(finite.all(axis=(1, 2)).argmin()), "entries must be finite"
    resid = stack.conj().transpose(0, 2, 1)
    resid = np.abs(np.subtract(stack, resid, out=resid))
    if resid.max() > CONSTRUCTION_TOL:
        herm = resid.max(axis=(1, 2))
        row = int((herm > CONSTRUCTION_TOL).argmax())
        return row, f"matrix is not hermitian (residual {herm[row]:.3e})"
    # Freed before the factorisation's two stack-sized temporaries.
    del resid
    tr = stack.trace(axis1=1, axis2=2)
    off = np.abs(tr - 1.0)
    if off.max() > CONSTRUCTION_TOL:
        row = int((off > CONSTRUCTION_TOL).argmax())
        return row, f"trace must be 1, got {complex(tr[row])}"
    # One Cholesky factorisation of the stack shifted by PSD_TOL / 2 accepts
    # it: a matrix it factors has no eigenvalue below -PSD_TOL / 2, up to
    # rounding far below that.  Only a stack it cannot factor runs eigvalsh,
    # which decides and words every rejection.
    try:
        np.linalg.cholesky(stack + 0.5 * PSD_TOL * np.eye(stack.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        pass
    lo = np.linalg.eigvalsh(stack)[:, 0]
    if lo.min() < -PSD_TOL:
        row = int((lo < -PSD_TOL).argmax())
        return row, f"matrix has a negative eigenvalue ({lo[row]:.3e})"
    return None


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalised pure state over ``prod(dims)`` complex amplitudes.

    Amplitudes handed to the constructor are renormalised; the norm of
    the raw input is kept in ``original_norm`` so callers can inspect
    how far their parameterisation was from unit length.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    original_norm: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != prod(dims):
            raise ValueError(
                f"expected {prod(dims)} amplitudes for dims {dims}, got {amps.size}"
            )
        amps, norm = normalise(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "original_norm", float(norm))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def density(self) -> "DensityMatrix":
        """Rank-one projector onto this state."""
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over ``dims``.

    The constructor validates hermiticity and trace at 1e-10 and rejects
    eigenvalues below -1e-9, through ``density_defect``.  It never repairs
    its input.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        d = prod(dims)
        m = np.array(self.entries, dtype=np.complex128)
        if m.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix for dims {dims}, got shape {m.shape}")
        defect = density_defect(m)
        if defect is not None:
            raise ValueError(defect[1])
        m.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", m)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def partial_trace_stack(entries: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """Each matrix of the (..., D, D) stack ``entries`` over ``dims`` with every
    party not listed in ``keep`` traced out, unvalidated.

    ``keep`` lists the party indices to retain, in any order; duplicates are
    rejected.  The retained parties come out in ascending order.
    """
    keep_list = [int(k) for k in keep]
    n = len(dims)
    if not keep_list:
        raise ValueError("keep must name at least one party")
    if len(set(keep_list)) != len(keep_list):
        raise ValueError(f"duplicate party index in keep: {keep_list}")
    if any(k < 0 or k >= n for k in keep_list):
        raise ValueError(f"party index out of range in keep={keep_list} for {n} parties")
    kept = sorted(keep_list)
    # Axis p is party p's row, axis n + p its column; a traced party's
    # column shares its row label, so einsum sums that diagonal.  The
    # leading axes ride along, and each matrix sums as it would alone.
    columns = [n + p if p in kept else p for p in range(n)]
    tensor = entries.reshape(entries.shape[:-2] + tuple(dims) * 2)
    sub = np.einsum(tensor, [..., *range(n), *columns], [..., *kept, *(n + p for p in kept)])
    d_keep = prod(dims[k] for k in kept)
    return sub.reshape(entries.shape[:-2] + (d_keep, d_keep))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every party not listed in ``keep`` (as in ``partial_trace_stack``).

    Returns a DensityMatrix on the retained parties, in ascending party order.
    """
    keep = [int(k) for k in keep]
    sub = partial_trace_stack(rho.entries, rho.dims, keep)
    return DensityMatrix(tuple(rho.dims[k] for k in sorted(keep)), sub)


def permute_parties(psi: StateVector, order) -> StateVector:
    """Relabel parties so that new party i is old party ``order[i]``."""
    order = tuple(int(o) for o in order)
    if sorted(order) != list(range(psi.n_parties)):
        raise ValueError(f"order must be a permutation of 0..{psi.n_parties - 1}, got {order}")
    tensor = psi.amplitudes.reshape(psi.dims)
    new = np.transpose(tensor, axes=order)
    return StateVector(tuple(psi.dims[o] for o in order), new.reshape(-1))


def mixture_weights(weights) -> np.ndarray:
    """``weights`` renormalised to sum to one, as ``mix`` takes them.

    Weights must be finite, non-negative and not all zero.
    """
    w = np.asarray(list(weights), dtype=float)
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and non-negative")
    total = float(w.sum())
    if total <= 0:
        raise ValueError("weights must not all vanish")
    return w / total


def mix(parts, weights) -> DensityMatrix:
    """Convex mixture of density matrices with matching dims, one weight per
    part, renormalised by ``mixture_weights`` so the result keeps unit trace
    exactly; the sum is accumulated term by term in listing order."""
    parts = list(parts)
    if any(p.dims != parts[0].dims for p in parts):
        raise ValueError("all density matrices must share the same dims")
    weights = list(weights)
    if len(parts) == 0 or len(weights) != len(parts):
        raise ValueError("need one weight per term")
    entries = np.zeros_like(parts[0].entries)
    for wi, p in zip(mixture_weights(weights), parts):
        entries = entries + wi * p.entries
    return DensityMatrix(parts[0].dims, entries)
