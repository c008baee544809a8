"""State-family constructors and seeded random-state generators."""

from __future__ import annotations

import operator
from collections.abc import Callable
from functools import lru_cache
from math import cos, prod, sin, sqrt
from typing import NamedTuple

import numpy as np

from .linalg import DensityMatrix, InvariantError, StackError, StateVector, mixture_weights, normalise


# Each family's amplitude function gives its raw amplitude tensor, party k
# along axis k, so the tensor's shape is the state's dims; its builder wraps
# that tensor in a StateVector.  A sweep stacks the tensors of many rows.


def psi_lambda_amplitudes(lam: float) -> np.ndarray:
    """The amplitudes of ``psi_lambda(lam)``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return np.array([[sqrt(lam), 0.0], [0.0, sqrt(1.0 - lam)]], dtype=np.complex128)


def psi_lambda(lam: float) -> StateVector:
    """Two-qubit sqrt(lam)|00> + sqrt(1-lam)|11>."""
    amps = psi_lambda_amplitudes(lam)
    return StateVector(amps.shape, amps)


def ghz3_amplitudes(theta: float) -> np.ndarray:
    """The amplitudes of ``ghz3(theta)``."""
    amps = np.zeros((2, 2, 2), dtype=np.complex128)
    amps[0, 0, 0] = cos(theta)
    amps[1, 1, 1] = sin(theta)
    return amps


def ghz3(theta: float) -> StateVector:
    """cos(theta)|000> + sin(theta)|111>."""
    amps = ghz3_amplitudes(theta)
    return StateVector(amps.shape, amps)


def w3_amplitudes(theta: float, alpha: float) -> np.ndarray:
    """The amplitudes of ``w3(theta, alpha)``."""
    amps = np.zeros((2, 2, 2), dtype=np.complex128)
    amps[0, 0, 1] = cos(theta)
    amps[0, 1, 0] = cos(alpha) * sin(theta)
    amps[1, 0, 0] = sin(alpha) * sin(theta)
    return amps


def w3(theta: float, alpha: float) -> StateVector:
    """cos(theta)|001> + cos(alpha)sin(theta)|010> + sin(alpha)sin(theta)|100>.

    Already unit-norm for every (theta, alpha).
    """
    amps = w3_amplitudes(theta, alpha)
    return StateVector(amps.shape, amps)


# The standard W state (all three amplitudes 1/sqrt(3)) sits at alpha=pi/4,
# theta = arccos(1/sqrt(3)).
W3_STANDARD_THETA = float(np.arccos(1.0 / np.sqrt(3.0)))
W3_STANDARD_ALPHA = float(np.pi / 4.0)


def ghz4_amplitudes(theta: float) -> np.ndarray:
    """The amplitudes of ``ghz4(theta)``."""
    amps = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    amps[0, 0, 0, 0] = cos(theta)
    amps[1, 1, 1, 1] = sin(theta)
    return amps


def ghz4(theta: float) -> StateVector:
    """cos(theta)|0000> + sin(theta)|1111>."""
    amps = ghz4_amplitudes(theta)
    return StateVector(amps.shape, amps)


def wg4_amplitudes(theta: float, mu: float, nu: float) -> np.ndarray:
    """The raw, not yet normalised, amplitudes of ``wg4(theta, mu, nu)``."""
    amps = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    amps[0, 0, 0, 1] = cos(theta)
    amps[0, 0, 1, 0] = sin(mu) * sin(theta)
    amps[0, 1, 0, 0] = cos(mu) * sin(nu) * sin(theta)
    amps[1, 0, 0, 0] = sin(mu) * sin(nu) * sin(theta)
    return amps


def wg4(theta: float, mu: float, nu: float) -> StateVector:
    """Four-qubit W-like family.

    cos(theta)|0001> + sin(mu)sin(theta)|0010> + cos(mu)sin(nu)sin(theta)|0100>
    + sin(mu)sin(nu)sin(theta)|1000>, renormalized.  The raw coefficients are
    not unit-norm for general parameters; the pre-normalization norm is kept
    on the returned state's ``original_norm``.
    """
    amps = wg4_amplitudes(theta, mu, nu)
    return StateVector(amps.shape, amps)


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


# The seeded samplers share one core.  Each trial draws from its own stream,
# default_rng([seed, trial]): the component count, the Dirichlet weights, then
# all its Gaussian amplitudes in one standard_normal call (the numbers of one
# call per factor, in the same order).  A block seeds the streams of all its
# trials at once (_pcg64_seeds) and sets one generator of its own to each
# stream's start in turn.  _fill builds the product vectors of all components
# that share a cut as one stack, and sums the weighted projectors of every
# trial of the block at once, term by term.  Its float operations are those
# of building StateVector and DensityMatrix objects and mixing them with
# convex_sum, so seeded samples are the same bit for bit.  Trial states are
# internal, so a guard that fails raises InvariantError naming the trial's
# row.


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


def _draw(rng: np.random.Generator, cut: _Cut, k_min: int) -> _Part:
    k = int(rng.integers(k_min, 6))
    weights = np.ones(1)
    if k > 1:
        # Dirichlet(1, ..., 1) as numpy's dirichlet draws it: k unit-shape
        # gammas, which are standard exponentials, times 1 / their sum taken
        # left to right (builtin sum compensates from Python 3.12).
        weights = rng.standard_exponential(k)
        acc = 0.0
        for x in weights.tolist():
            acc += x
        weights *= 1.0 / acc
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
    """Write the entries of ``mixtures[t]`` into ``out[t]``, unvalidated.

    A trial is one part, or two parts mixed by its weights.
    """
    parts = [part for _, row_parts in mixtures for part in row_parts]
    counts = np.array([len(row_parts) for _, row_parts in mixtures])
    owners = np.repeat(np.arange(len(mixtures)), counts)
    terms = np.array([len(draws) for _, _, draws in parts])
    # Component c is term term_of[c] of part part_of[c].
    part_of = np.repeat(np.arange(len(parts)), terms)
    term_of = np.arange(len(part_of)) - np.repeat(np.cumsum(terms) - terms, terms)
    vectors = np.empty((len(parts), terms.max(), out.shape[-1]), dtype=np.complex128)
    cut_ids: dict[_Cut, int] = {}
    cut_of = np.array([cut_ids.setdefault(cut, len(cut_ids)) for cut, _, _ in parts])
    for cut, cut_id in cut_ids.items():
        members = np.flatnonzero(cut_of == cut_id)
        components = np.flatnonzero(cut_of[part_of] == cut_id)
        try:
            vectors[part_of[components], term_of[components]] = _unit_products(
                cut, np.concatenate([parts[i][2] for i in members])
            )
        except StackError as exc:
            raise InvariantError(str(exc), int(owners[part_of[components[exc.row]]])) from None
    # Row i of weights holds part i's weights and row len(parts) + m the two
    # that mix the parts of trial mixed[m], padded with zeros.
    mixed = np.flatnonzero(counts > 1)
    widths = np.concatenate([terms, np.full(len(mixed), 2)])
    weights = np.zeros((len(widths), max(widths.max(), 2)))
    weights[part_of, term_of] = np.concatenate([w for _, w, _ in parts])
    weights[len(parts) :, :2] = np.reshape([mixtures[row][0] for row in mixed], (-1, 2))
    # Each row is summed over its own width, as convex_sum sums it: numpy
    # adds fewer than 8 numbers in order but more pairwise.
    total = np.empty(len(widths))
    for width in set(widths.tolist()):
        total[widths == width] = weights[widths == width, :width].sum(axis=1)
    if not (np.isfinite(weights).all() and (weights >= 0).all() and (total > 0).all()):
        # Name the first trial that fails convex_sum's guard, with its message.
        for row, (row_weights, row_parts) in enumerate(mixtures):
            try:
                for _, w, _ in row_parts:
                    mixture_weights(w)
                if row_weights is not None:
                    mixture_weights(row_weights)
            except ValueError as exc:
                raise InvariantError(str(exc), row) from None
    # Renormalised as floats, then made complex, as numpy does when it
    # multiplies a complex array by one of them, so that no multiply casts.
    weights = (weights / total[:, None]).astype(np.complex128)
    buffer = np.empty_like(out)

    def weighted_sums(acc: np.ndarray, rows: np.ndarray) -> None:
        # acc[r] = sum over j of weights[p, j] |v><v| for p = rows[r] and v =
        # vectors[p, j], added term by term from zero as convex_sum adds them.
        # The parts are summed in order of falling term count, so that those
        # with a term j lead the stack, and put back in order at the end.
        order = np.argsort(-terms[rows], kind="stable")
        rows = rows[order]
        acc[...] = 0
        for j in range(terms[rows[0]]):
            live = rows[: np.count_nonzero(terms[rows] > j)]
            psi = vectors[live, j]
            term = np.multiply(psi[:, :, None], psi.conj()[:, None, :], out=buffer[: len(live)])
            acc[: len(live)] += np.multiply(weights[live, j, None, None], term, out=term)
        buffer[: len(acc)] = acc
        acc[order] = buffer[: len(acc)]

    first = np.cumsum(counts) - counts
    weighted_sums(out, first)
    if len(mixed):
        second = np.empty((len(mixed),) + out.shape[1:], dtype=np.complex128)
        weighted_sums(second, first[mixed] + 1)
        mix = weights[len(parts) :, :2, None, None]
        acc = np.zeros_like(second)
        acc += mix[:, 0] * out[mixed]
        acc += mix[:, 1] * second
        out[mixed] = acc


# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 seeding, with
# numpy's constants.  numpy's stream-compatibility policy (NEP 19) keeps both
# algorithms fixed; the tests compare the result with numpy's own.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(value) -> list[int]:
    """SeedSequence's entropy words of one non-negative integer, low word first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seeds must be non-negative, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix of uint32 arrays, its multiplier stepping by
    ``mult`` at each call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _entropy_pool(words: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's mix_entropy on every row of ``words`` (uint32, at least
    four columns): the four pool words, each as a column."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ result >> 16

    pool = [hashmix(words[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, words.shape[1]):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    return pool


def _pcg64_seeds(keys) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that ``np.random.default_rng(list(key))``
    starts from, for each key (a tuple of non-negative integers).

    The keys' entropy is hashed as uint32 arrays, one array per word count;
    a key of fewer than four words hashes as if padded with zero words, so
    those share one array.
    """
    entropy = [[w for v in key for w in _uint32_words(v)] for key in keys]
    groups: dict[int, list[int]] = {}
    for i, words in enumerate(entropy):
        groups.setdefault(max(len(words), 4), []).append(i)
    seeds: list[tuple[int, int]] = [(0, 0)] * len(keys)
    for width, rows in groups.items():
        pool = _entropy_pool(np.array([entropy[i] + [0] * (width - len(entropy[i])) for i in rows], dtype=np.uint32))
        # generate_state(4, np.uint64): eight words from the cycled pool,
        # paired into little-endian uint64s, the high half of each 128-bit
        # number first.
        hashmix = _hasher(_INIT_B, _MULT_B)
        generated = [hashmix(pool[i % 4]) for i in range(8)]
        halves = np.stack(generated, axis=1).astype("<u4").view("<u8").tolist()
        for row, (state_hi, state_lo, inc_hi, inc_lo) in zip(rows, halves):
            # PCG64's seeding: two steps of its generator from state 0.
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            seeds[row] = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128, inc
    return seeds


def _streams(keys) -> Callable[..., np.random.Generator]:
    """A function that sets one generator to the start of
    ``np.random.default_rng(list(key))``, for any key in ``keys``, and
    returns it."""
    seeds = dict(zip(keys, _pcg64_seeds(keys)))
    # Seeded only to skip reading OS entropy: every use sets the state.
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def at(*key: int) -> np.random.Generator:
        state, inc = seeds[key]
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng

    return at


def _biseparable_mixture(n: int, trial: int, seed: int, streams: Callable[..., np.random.Generator]) -> _Mixture:
    cuts = _qubit_cuts(n)
    slot = trial % (len(cuts) + 1)
    rng = streams(seed, trial)
    if slot < len(cuts):
        return None, [_draw(rng, cuts[slot], 2)]
    i, j = rng.choice(len(cuts), size=2, replace=False)
    w = float(rng.uniform(0.05, 0.95))
    parts = [_draw(streams(seed, trial, s), cuts[c], 2) for s, c in enumerate((i, j))]
    return [w, 1.0 - w], parts


def biseparable_block(n: int, start: int, seed: int, out: np.ndarray) -> None:
    """Fill ``out[t]`` with the unvalidated entries of
    ``biseparable_sample(n, start + t, seed)`` for every row t."""
    if n not in (3, 4):
        raise ValueError(f"n must be 3 or 4, got {n}")
    trials = range(start, start + len(out))
    cycle = len(_qubit_cuts(n)) + 1
    mixed = [(seed, t, s) for t in trials if t % cycle == cycle - 1 for s in (0, 1)]
    streams = _streams([(seed, t) for t in trials] + mixed)
    _fill(out, [_biseparable_mixture(n, t, seed, streams) for t in trials])


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
    trials = range(start, start + len(out))
    streams = _streams([(seed, t) for t in trials])
    _fill(out, [(None, [_draw(streams(seed, t), cut, 1)]) for t in trials])


def separable_sample(d: int, trial: int, seed: int) -> DensityMatrix:
    """Trial state for the bipartite separable bound campaign."""
    out = np.empty((1, d * d, d * d), dtype=np.complex128)
    separable_block(d, trial, seed, out)
    return DensityMatrix((d, d), out[0])


# Largest prod(dims) a state file may declare: a certify costs O(D^3).  A 16 x 16
# state took 13 ms, and 4.4 ms once its witness was built (one BLAS thread, x86-64).
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
    # complex() reads true as 1, so, as in dims, a JSON boolean is refused.
    if any(type(part) is bool for pair in raw for part in pair):
        raise ValueError("amplitude parts must be numbers, not booleans")
    # An overflowing norm is rejected as non-finite; numpy need not warn first.
    with np.errstate(over="ignore"):
        return StateVector(tuple(dims), amps)
