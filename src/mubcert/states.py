"""State-family constructors and seeded random-state generators."""

from __future__ import annotations

from functools import lru_cache
from math import cos, prod, sin, sqrt
from typing import NamedTuple

import numpy as np

from .linalg import DensityMatrix, InvariantError, StackError, StateVector, convex_sum, normalise


def psi_lambda(lam: float) -> StateVector:
    """Two-qubit sqrt(lam)|00> + sqrt(1-lam)|11>."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return StateVector((2, 2), [sqrt(lam), 0.0, 0.0, sqrt(1.0 - lam)])


def ghz3(theta: float) -> StateVector:
    """cos(theta)|000> + sin(theta)|111>."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = cos(theta)
    amps[7] = sin(theta)
    return StateVector((2, 2, 2), amps)


def w3(theta: float, alpha: float) -> StateVector:
    """cos(theta)|001> + cos(alpha)sin(theta)|010> + sin(alpha)sin(theta)|100>.

    Already unit-norm for every (theta, alpha).
    """
    amps = np.zeros(8, dtype=np.complex128)
    amps[1] = cos(theta)
    amps[2] = cos(alpha) * sin(theta)
    amps[4] = sin(alpha) * sin(theta)
    return StateVector((2, 2, 2), amps)


# The standard W state (all three amplitudes 1/sqrt(3)) sits at alpha=pi/4,
# theta = arccos(1/sqrt(3)).
W3_STANDARD_THETA = float(np.arccos(1.0 / np.sqrt(3.0)))
W3_STANDARD_ALPHA = float(np.pi / 4.0)


def acin_canonical(l0: float, l1: float, l2: float, l3: float, l4: float, phi: float = 0.0) -> StateVector:
    """Three-qubit canonical five-term form.

    l0|000> + e^{i phi} l1|001> + l2|010> + l3|100> + l4|111>, renormalized.
    The |111> weight is an independent l4.
    """
    weights = (l0, l1, l2, l3, l4)
    if any(w < 0 for w in weights):
        raise ValueError(f"weights must be non-negative, got {weights}")
    if not 0.0 <= phi <= np.pi:
        raise ValueError(f"phi must lie in [0, pi], got {phi}")
    if sum(w * w for w in weights) <= 0.0:
        raise ValueError("at least one weight must be positive")
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000] = l0
    amps[0b001] = l1 * np.exp(1j * phi)
    amps[0b010] = l2
    amps[0b100] = l3
    amps[0b111] = l4
    return StateVector((2, 2, 2), amps)


def ghz4(theta: float) -> StateVector:
    """cos(theta)|0000> + sin(theta)|1111>."""
    amps = np.zeros(16, dtype=np.complex128)
    amps[0] = cos(theta)
    amps[15] = sin(theta)
    return StateVector((2, 2, 2, 2), amps)


def wg4(theta: float, mu: float, nu: float) -> StateVector:
    """Four-qubit W-like family.

    cos(theta)|0001> + sin(mu)sin(theta)|0010> + cos(mu)sin(nu)sin(theta)|0100>
    + sin(mu)sin(nu)sin(theta)|1000>, renormalized.  The raw coefficients are
    not unit-norm for general parameters; the pre-normalization norm is kept
    on the returned state's ``original_norm``.
    """
    amps = np.zeros(16, dtype=np.complex128)
    amps[0b0001] = cos(theta)
    amps[0b0010] = sin(mu) * sin(theta)
    amps[0b0100] = cos(mu) * sin(nu) * sin(theta)
    amps[0b1000] = sin(mu) * sin(nu) * sin(theta)
    return StateVector((2, 2, 2, 2), amps)


def random_pure(dims, seed) -> StateVector:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    dim = int(np.prod(dims))
    return StateVector(dims, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def bipartitions(n: int) -> list[tuple[int, ...]]:
    """All bipartitions of n qubit parties, each named by the block holding party 0."""
    if n < 2:
        raise ValueError("need at least two parties to cut")
    cuts = []
    for mask in range(2 ** (n - 1)):
        block = (0,) + tuple(p for p in range(1, n) if mask >> (p - 1) & 1)
        if len(block) < n:
            cuts.append(block)
    return cuts


# The seeded samplers share one core.  Each trial draws from its own
# generator: the component count, the Dirichlet weights, then all its
# Gaussian amplitudes in one standard_normal call (the numbers of one call
# per factor, in the same order).  _fill builds the product vectors of all
# components that share a cut as one stack and accumulates each trial's
# projectors through convex_sum.  Its float operations are those of building
# StateVector and DensityMatrix objects and mixing them, so seeded samples
# are the same bit for bit.  Trial states are internal, so a guard that
# fails raises InvariantError naming the trial's row.


class _Cut(NamedTuple):
    """A component's draws are [re a | im a | re b | im b], a of length
    ``left`` and b of ``right``.  A qubit cut normalises a and b and, after
    the product, restores party order with ``axes``; a d x d pair (``axes``
    None) takes the product of a and b as drawn."""

    left: int
    right: int
    axes: tuple[int, ...] | None


# A trial: the weights of its parts (None for one part) and its parts, each
# (cut, component weights, draws).
_Part = tuple[_Cut, np.ndarray, np.ndarray]
_Mixture = tuple[list[float] | None, list[_Part]]


@lru_cache(maxsize=None)
def _qubit_cut(n: int, block: tuple[int, ...]) -> _Cut:
    other = tuple(p for p in range(n) if p not in block)
    order = np.argsort(np.array(block + other))
    return _Cut(2 ** len(block), 2 ** len(other), (0,) + tuple(1 + int(o) for o in order))


@lru_cache(maxsize=None)
def _qubit_cuts(n: int) -> tuple[_Cut, ...]:
    return tuple(_qubit_cut(n, block) for block in bipartitions(n))


def _draw(rng: np.random.Generator, cut: _Cut, k_min: int, terms: int | None = None) -> _Part:
    k = int(terms) if terms is not None else int(rng.integers(k_min, 6))
    if k < 1:
        raise ValueError("terms must be at least 1")
    weights = rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1)
    return cut, weights, rng.standard_normal(k * 2 * (cut.left + cut.right)).reshape(k, -1)


def _unit_products(cut: _Cut, draws: np.ndarray) -> np.ndarray:
    """One unit product vector per row of ``draws``."""
    k, left = len(draws), cut.left
    a = draws[:, :left] + 1j * draws[:, left : 2 * left]
    b = draws[:, 2 * left : 2 * left + cut.right] + 1j * draws[:, 2 * left + cut.right :]
    if cut.axes is not None:
        a, _ = normalise(a)
        b, _ = normalise(b)
    psi, _ = normalise((a[:, :, None] * b[:, None, :]).reshape(k, -1))
    if cut.axes is not None:
        tensor = psi.reshape((k,) + (2,) * (len(cut.axes) - 1))
        psi, _ = normalise(tensor.transpose(cut.axes).reshape(k, -1))
    return psi


def _fill(out: np.ndarray, mixtures: list[_Mixture]) -> None:
    """Write the entries of ``mixtures[t]`` into ``out[t]``, unvalidated."""
    parts = [part for _, row_parts in mixtures for part in row_parts]
    owners = [row for row, (_, row_parts) in enumerate(mixtures) for _ in row_parts]
    by_cut: dict[_Cut, list[int]] = {}
    for i, (cut, _, _) in enumerate(parts):
        by_cut.setdefault(cut, []).append(i)
    vectors = [None] * len(parts)
    for cut, members in by_cut.items():
        draws = [parts[i][2] for i in members]
        sizes = [len(d) for d in draws]
        try:
            stack = _unit_products(cut, np.concatenate(draws))
        except StackError as exc:
            owner = np.repeat([owners[i] for i in members], sizes)[exc.row]
            raise InvariantError(str(exc), int(owner)) from None
        for i, psi in zip(members, np.split(stack, np.cumsum(sizes)[:-1])):
            vectors[i] = psi
    unit = iter(vectors)
    for row, (weights, row_parts) in enumerate(mixtures):
        # row_parts leads the zip, so it ends without taking a vector of the next row.
        projectors = [(psi[:, :, None] * psi.conj()[:, None, :], w) for (_, w, _), psi in zip(row_parts, unit)]
        try:
            mats = [convex_sum(p, w) for p, w in projectors]
            entries = mats[0] if weights is None else convex_sum(mats, weights)
        except ValueError as exc:
            raise InvariantError(str(exc), row) from None
        out[row] = entries


def _entries(dim: int, mixture: _Mixture) -> np.ndarray:
    out = np.empty((1, dim, dim), dtype=np.complex128)
    _fill(out, [mixture])
    return out[0]


def random_biseparable(n: int, cut, seed, terms: int | None = None) -> DensityMatrix:
    """Convex mixture of Haar-random products across one fixed bipartition.

    cut names one block of parties; the complement is the other block.
    terms fixes the number of mixture components (default: 2-5, drawn
    uniformly), with Dirichlet-uniform weights.
    """
    if n not in (3, 4):
        raise ValueError(f"n must be 3 or 4, got {n}")
    block = tuple(sorted(int(p) for p in cut))
    if len(set(block)) != len(block) or not block:
        raise ValueError(f"cut must be a nonempty set of distinct parties, got {cut}")
    if any(p < 0 or p >= n for p in block) or len(block) >= n:
        raise ValueError(f"cut must be a proper subset of 0..{n - 1}, got {cut}")
    part = _draw(np.random.default_rng(seed), _qubit_cut(n, block), 2, terms)
    return DensityMatrix((2,) * n, _entries(2**n, (None, [part])))


def random_separable(d: int, seed, terms: int | None = None) -> DensityMatrix:
    """Bipartite d x d separable state: mixture of Haar-random pure products."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    part = _draw(np.random.default_rng(seed), _Cut(d, d, None), 1, terms)
    return DensityMatrix((d, d), _entries(d * d, (None, [part])))


def _biseparable_mixture(n: int, trial: int, seed: int) -> _Mixture:
    cuts = _qubit_cuts(n)
    slot = trial % (len(cuts) + 1)
    rng = np.random.default_rng([seed, trial])
    if slot < len(cuts):
        return None, [_draw(rng, cuts[slot], 2)]
    i, j = rng.choice(len(cuts), size=2, replace=False)
    w = float(rng.uniform(0.05, 0.95))
    parts = [_draw(np.random.default_rng([seed, trial, s]), cuts[c], 2) for s, c in enumerate((i, j))]
    return [w, 1.0 - w], parts


def biseparable_block(n: int, start: int, seed: int, out: np.ndarray) -> None:
    """Fill ``out[t]`` with the unvalidated entries of
    ``biseparable_sample(n, start + t, seed)`` for every row t."""
    if n not in (3, 4):
        raise ValueError(f"n must be 3 or 4, got {n}")
    _fill(out, [_biseparable_mixture(n, start + t, seed) for t in range(len(out))])


def biseparable_sample(n: int, trial: int, seed: int) -> DensityMatrix:
    """Trial state for the biseparability bound campaigns.

    Deterministic in (n, trial, seed).  Trials cycle through every
    bipartition; one slot in each cycle mixes two components taken across
    two different cuts, which is still biseparable by definition.
    """
    out = np.empty((1, 2**n, 2**n), dtype=np.complex128)
    biseparable_block(n, trial, seed, out)
    return DensityMatrix((2,) * n, out[0])


def separable_block(d: int, start: int, seed: int, out: np.ndarray) -> None:
    """Fill ``out[t]`` with the unvalidated entries of
    ``separable_sample(d, start + t, seed)`` for every row t."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    cut = _Cut(d, d, None)
    _fill(out, [(None, [_draw(np.random.default_rng([seed, start + t]), cut, 1)]) for t in range(len(out))])


def separable_sample(d: int, trial: int, seed: int) -> DensityMatrix:
    """Trial state for the bipartite separable bound campaign."""
    out = np.empty((1, d * d, d * d), dtype=np.complex128)
    separable_block(d, trial, seed, out)
    return DensityMatrix((d, d), out[0])


# Largest prod(dims) a state file may declare: an outcome distribution costs
# O(D^3), so 16 x 16 certifies in about half a second and 48 x 48 takes minutes.
MAX_STATE_DIM = 256


def state_to_json_dict(psi: StateVector) -> dict:
    """Serializable form: {"dims": [...], "amplitudes": [[re, im], ...]}."""
    return {
        "dims": list(psi.dims),
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def state_from_json_dict(data: dict) -> StateVector:
    if not isinstance(data, dict) or "dims" not in data or "amplitudes" not in data:
        raise ValueError('state JSON must carry "dims" and "amplitudes"')
    dims = data["dims"]
    # int() would truncate 2.9 to 2 and read true as 1, so only JSON integers pass.
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise ValueError(f'"dims" must be a list of integers, got {dims!r}')
    if prod(dims) > MAX_STATE_DIM:
        raise ValueError(f"total dimension {prod(dims)} of dims {dims} exceeds {MAX_STATE_DIM}")
    raw = data["amplitudes"]
    try:
        amps = np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed amplitude list: {exc}") from None
    # An overflowing norm is rejected as non-finite; numpy need not warn first.
    with np.errstate(over="ignore"):
        return StateVector(tuple(dims), amps)
