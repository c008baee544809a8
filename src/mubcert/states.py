"""State-family constructors and seeded random-state generators."""

from __future__ import annotations

from math import cos, prod, sin, sqrt

import numpy as np

from .linalg import DensityMatrix, StateVector, convex_sum, normalise


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


def _gaussian_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_pure(dims, seed) -> StateVector:
    """Haar-random pure state: normalized i.i.d. complex Gaussian amplitudes."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    return StateVector(dims, _gaussian_amplitudes(rng, int(np.prod(dims))))


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


# The campaign samplers build every mixture component from raw arrays:
# pure vectors pass the scalar norm guard of normalise, weights the guards
# of convex_sum, and only the returned state is validated as a
# DensityMatrix.  The float operations (normalise, 1-D kron taken as an
# outer product, renormalise, transpose, renormalise, projector, weighted
# accumulation) are those of building StateVector and DensityMatrix objects
# and mixing them, so seeded samples are the same bit for bit.


def _product_across_cut(rng: np.random.Generator, n: int, block: tuple[int, ...]) -> np.ndarray:
    """Projector onto a Haar-random product across block|rest, as a raw matrix."""
    other = tuple(p for p in range(n) if p not in block)
    left, _ = normalise(_gaussian_amplitudes(rng, 2 ** len(block)))
    right, _ = normalise(_gaussian_amplitudes(rng, 2 ** len(other)))
    joined, _ = normalise(np.outer(left, right).reshape(-1))
    order = np.argsort(np.array(block + other))
    psi, _ = normalise(np.transpose(joined.reshape((2,) * n), axes=order).reshape(-1))
    return np.outer(psi, psi.conj())


def _mixture_weights(rng: np.random.Generator, k: int) -> np.ndarray:
    if k < 1:
        raise ValueError("terms must be at least 1")
    return rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1)


def _biseparable_entries(n: int, block: tuple[int, ...], seed, terms: int | None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    k = int(terms) if terms is not None else int(rng.integers(2, 6))
    weights = _mixture_weights(rng, k)
    return convex_sum([_product_across_cut(rng, n, block) for _ in range(k)], weights)


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
    return DensityMatrix((2,) * n, _biseparable_entries(n, block, seed, terms))


def random_separable(d: int, seed, terms: int | None = None) -> DensityMatrix:
    """Bipartite d x d separable state: mixture of Haar-random pure products."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    rng = np.random.default_rng(seed)
    k = int(terms) if terms is not None else int(rng.integers(1, 6))
    weights = _mixture_weights(rng, k)
    parts = []
    for _ in range(k):
        a = _gaussian_amplitudes(rng, d)
        b = _gaussian_amplitudes(rng, d)
        psi, _ = normalise(np.outer(a, b).reshape(-1))
        parts.append(np.outer(psi, psi.conj()))
    return DensityMatrix((d, d), convex_sum(parts, weights))


def biseparable_sample(n: int, trial: int, seed: int) -> DensityMatrix:
    """Trial state for the biseparability bound campaigns.

    Deterministic in (n, trial, seed).  Trials cycle through every
    bipartition; one slot in each cycle mixes two components taken across
    two different cuts, which is still biseparable by definition.
    """
    cuts = bipartitions(n)
    slot = trial % (len(cuts) + 1)
    if slot < len(cuts):
        return random_biseparable(n, cuts[slot], [seed, trial])
    rng = np.random.default_rng([seed, trial])
    i, j = rng.choice(len(cuts), size=2, replace=False)
    w = float(rng.uniform(0.05, 0.95))
    part_a = _biseparable_entries(n, cuts[i], [seed, trial, 0], None)
    part_b = _biseparable_entries(n, cuts[j], [seed, trial, 1], None)
    return DensityMatrix((2,) * n, convex_sum([part_a, part_b], [w, 1.0 - w]))


def separable_sample(d: int, trial: int, seed: int) -> DensityMatrix:
    """Trial state for the bipartite separable bound campaign."""
    return random_separable(d, [seed, trial])


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
