"""Mutual-predictability correlations and the entanglement certification quantities.

The certification scheme measures every party in two mutually unbiased
product settings (computational and Hadamard by default) and sums joint
probabilities over fixed index-pattern sets:

* bipartite: the diagonal patterns (i, i) summed in each of m MUB settings
  give I_m with separable bound 1 + (m-1)/d;
* three qubits: I3 = [diagonal sum P(000)+P(111) in the first setting]
  + [maximum over the six canonical 5-pattern sets in the second setting],
  with biseparable bound 13/8;
* four qubits: I4 = [diagonal sum P(0000)+P(1111) in the first setting]
  + [12-pattern sum in the second setting], with biseparable bound 7/4.

One rule covers all arities: the first term is the n-party mutual
predictability (all parties agree on the outcome index), the second term
is the maximized pattern-set sum in the unbiased setting.  The diagonal
first term is what makes the biseparability bounds hold: promoting it to
a maximized pattern sum lets product states overshoot them (three qubits:
a Bell pair on parties 1,2 times |0> reaches 2 > 13/8; four qubits: a
GHZ triple times cos(pi/8)|0>+sin(pi/8)|1> reaches ~1.85 > 7/4).  For
the tripartite collection the diagonal is also exactly the intersection
of all six sets.

Every quantity is linear in the density matrix, so mixed states are
accepted throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import cos, fsum, sin, sqrt

import numpy as np

from .linalg import DensityMatrix, InvariantError
from .mub import Basis, MubFamily, computational_basis, fourier_basis, qubit_mub_triple

# A state violates its bound only beyond this margin; values at the bound
# (products sit exactly there) must not be flagged.
VIOLATION_MARGIN = 1e-9
TRIPARTITE_BOUND = 13.0 / 8.0
QUADRIPARTITE_BOUND = 7.0 / 4.0

IndexPattern = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class BasisAssignment:
    """One measurement basis per party, defining a global product setting."""

    bases: tuple[Basis, ...]

    def __post_init__(self) -> None:
        bases = tuple(self.bases)
        if not bases:
            raise ValueError("a setting needs at least one party")
        object.__setattr__(self, "bases", bases)

    @property
    def n_parties(self) -> int:
        return len(self.bases)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.d for b in self.bases)

    @cached_property
    def product_unitary(self) -> np.ndarray:
        """Column k (row-major over per-party outcomes) is the product vector."""
        u = self.bases[0].vectors
        for b in self.bases[1:]:
            u = np.kron(u, b.vectors)
        u.flags.writeable = False
        return u

    def product_vector(self, outcome: IndexPattern) -> np.ndarray:
        if len(outcome) != self.n_parties:
            raise ValueError(f"outcome {outcome} does not match {self.n_parties} parties")
        if any(not 0 <= o < b.d for o, b in zip(outcome, self.bases)):
            raise ValueError(f"outcome {outcome} out of range for dims {self.dims}")
        flat = int(np.ravel_multi_index(tuple(outcome), self.dims))
        return self.product_unitary[:, flat]


def uniform_setting(basis: Basis, n: int) -> BasisAssignment:
    return BasisAssignment((basis,) * n)


@lru_cache(maxsize=None)
def computational_setting(n: int, d: int = 2) -> BasisAssignment:
    return uniform_setting(computational_basis(d), n)


@lru_cache(maxsize=None)
def hadamard_setting(n: int) -> BasisAssignment:
    """All parties in the Hadamard basis (d=2 Fourier basis)."""
    return uniform_setting(fourier_basis(2), n)


@dataclass(frozen=True, eq=False)
class LbpsPatternSet:
    """A named set of distinct outcome-index patterns of one arity."""

    name: str
    patterns: tuple[IndexPattern, ...]

    def __post_init__(self) -> None:
        patterns = tuple(tuple(int(i) for i in p) for p in self.patterns)
        if not patterns:
            raise ValueError("a pattern set must not be empty")
        arity = len(patterns[0])
        if any(len(p) != arity for p in patterns):
            raise ValueError(f"patterns of mixed arity in set {self.name!r}")
        if len(set(patterns)) != len(patterns):
            raise ValueError(f"duplicate pattern in set {self.name!r}")
        object.__setattr__(self, "patterns", patterns)

    @property
    def arity(self) -> int:
        return len(self.patterns[0])


_TRI_PATTERNS: tuple[tuple[str, tuple[IndexPattern, ...]], ...] = (
    ("tri1", ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1))),
    ("tri2", ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1))),
    ("tri3", ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1))),
    ("tri4", ((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))),
    ("tri5", ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1))),
    ("tri6", ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))),
)

_QUAD_PATTERNS: tuple[IndexPattern, ...] = (
    (0, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
    (1, 0, 0, 0),
    (1, 0, 0, 1),
    (1, 0, 1, 0),
    (1, 0, 1, 1),
    (1, 1, 0, 0),
    (1, 1, 0, 1),
    (1, 1, 1, 0),
    (1, 1, 1, 1),
)


# Pattern sets are immutable, so the canonical ones are built once.
_TRI_SETS = tuple(LbpsPatternSet(name, pats) for name, pats in _TRI_PATTERNS)
_QUAD_SET = LbpsPatternSet("quad1", _QUAD_PATTERNS)


def lbps_tripartite() -> list[LbpsPatternSet]:
    """The six canonical 5-pattern sets for three qubits, in listing order."""
    return list(_TRI_SETS)


def lbps_quadripartite() -> LbpsPatternSet:
    """The single canonical 12-pattern set for four qubits."""
    return _QUAD_SET


@lru_cache(maxsize=None)
def diagonal_set(arity: int, d: int = 2) -> LbpsPatternSet:
    """The matched-outcome patterns (i, i, ..., i): the n-party diagonal."""
    if arity < 2:
        raise ValueError(f"arity must be at least 2, got {arity}")
    return LbpsPatternSet("diagonal", tuple((i,) * arity for i in range(d)))


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of one certification: the two C terms, their sum, the verdict.

    c_first is the pattern sum taken in the first (computational) setting,
    c_second the maximized pattern sum in the second (Hadamard) setting.
    For the bipartite quantity, c_first is the first MUB's diagonal sum and
    c_second the total over the remaining MUBs, with the per-basis values
    kept in c_per_basis.
    """

    c_first: float
    c_second: float
    i_value: float
    bound: float
    violated: bool
    attaining_set_first: str
    attaining_set_second: str
    c_per_basis: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if abs(self.i_value - (self.c_first + self.c_second)) > 1e-12:
            raise InvariantError(
                f"i_value {self.i_value!r} != c_first + c_second "
                f"{self.c_first + self.c_second!r}"
            )
        if self.violated != (self.i_value > self.bound + VIOLATION_MARGIN):
            raise InvariantError("violated flag inconsistent with i_value and bound")

    def to_dict(self) -> dict:
        out = {
            "c_first": self.c_first,
            "c_second": self.c_second,
            "i_value": self.i_value,
            "bound": self.bound,
            "violated": self.violated,
            "attaining_set_first": self.attaining_set_first,
            "attaining_set_second": self.attaining_set_second,
        }
        if self.c_per_basis is not None:
            out["c_per_basis"] = list(self.c_per_basis)
        return out


def _make_report(c_first, c_second, bound, name_first, name_second, c_per_basis=None):
    i_value = c_first + c_second
    return CertificationReport(
        c_first=c_first,
        c_second=c_second,
        i_value=i_value,
        bound=bound,
        violated=bool(i_value > bound + VIOLATION_MARGIN),
        attaining_set_first=name_first,
        attaining_set_second=name_second,
        c_per_basis=c_per_basis,
    )


def _check_state_setting(rho: DensityMatrix, setting: BasisAssignment) -> None:
    if rho.dims != setting.dims:
        raise ValueError(f"state dims {rho.dims} do not match setting dims {setting.dims}")


def joint_probability(rho: DensityMatrix, setting: BasisAssignment, outcome: IndexPattern) -> float:
    """Probability of one product-basis outcome string: <v| rho |v>."""
    _check_state_setting(rho, setting)
    v = setting.product_vector(tuple(outcome))
    p = float(np.real(v.conj() @ (rho.entries @ v)))
    if p < -1e-10 or p > 1.0 + 1e-10:
        raise InvariantError(f"probability {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def outcome_distribution(rho: DensityMatrix, setting: BasisAssignment) -> np.ndarray:
    """All d^n outcome probabilities (flat, row-major); checked to sum to 1."""
    _check_state_setting(rho, setting)
    u = setting.product_unitary
    probs = np.real(np.einsum("ji,jk,ki->i", u.conj(), rho.entries, u))
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvariantError(f"outcome probabilities sum to {total!r}, not 1")
    return np.clip(probs, 0.0, 1.0)


def mutual_predictability(rho: DensityMatrix, setting: BasisAssignment) -> float:
    """Sum of diagonal joint probabilities P(i, i) for a bipartite state."""
    if rho.n_parties != 2:
        raise ValueError(f"mutual predictability needs two parties, got {rho.n_parties}")
    d0, d1 = rho.dims
    if d0 != d1:
        raise ValueError(f"local dimensions must match, got {rho.dims}")
    probs = outcome_distribution(rho, setting).reshape(d0, d1)
    return fsum(float(probs[i, i]) for i in range(d0))


def mub_settings(family: MubFamily) -> tuple[BasisAssignment, ...]:
    """One two-party setting per basis of the family, both parties in that basis."""
    return tuple(uniform_setting(b, 2) for b in family.bases)


def i_m_bipartite(rho: DensityMatrix, family: MubFamily, settings=None) -> CertificationReport:
    """Sum of mutual predictabilities over the m settings of a MUB family.

    Separable bound 1 + (m-1)/d; for a complete family (m = d+1) that is 2.
    settings, if given, must be ``mub_settings(family)``: a caller that
    certifies many states against one family builds them once.
    """
    if rho.n_parties != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError(f"need a bipartite state with equal dims, got {rho.dims}")
    if rho.dims[0] != family.d:
        raise ValueError(f"family dimension {family.d} does not match state dims {rho.dims}")
    if settings is None:
        settings = mub_settings(family)
    elif [s.bases for s in settings] != [(b, b) for b in family.bases]:
        raise ValueError("settings must be mub_settings(family)")
    per_basis = tuple(mutual_predictability(rho, s) for s in settings)
    bound = 1.0 + (family.m - 1) / family.d
    return _make_report(
        per_basis[0],
        fsum(per_basis[1:]),
        bound,
        "diagonal",
        "diagonal",
        c_per_basis=per_basis,
    )


def _pattern_sum(probs: np.ndarray, setting: BasisAssignment, pattern_set: LbpsPatternSet) -> float:
    if pattern_set.arity != setting.n_parties:
        raise ValueError(
            f"pattern arity {pattern_set.arity} does not match {setting.n_parties} parties"
        )
    flat = np.ravel_multi_index(np.array(pattern_set.patterns).T, setting.dims)
    value = float(np.sum(probs[flat]))
    if value > 1.0 + 1e-10:
        raise InvariantError(f"pattern sum {value!r} exceeds 1")
    return min(value, 1.0)


def c_pattern_sum(rho: DensityMatrix, setting: BasisAssignment, pattern_set: LbpsPatternSet) -> float:
    """Sum of joint probabilities over one pattern set."""
    return c_max(rho, setting, [pattern_set])[0]


def _best_set(probs: np.ndarray, setting: BasisAssignment, sets) -> tuple[float, str]:
    # The one pattern-set max: first attaining set wins ties.
    best_value, best_name = -1.0, ""
    for s in sets:
        value = _pattern_sum(probs, setting, s)
        if value > best_value:
            best_value, best_name = value, s.name
    return best_value, best_name


def c_max(rho: DensityMatrix, setting: BasisAssignment, sets) -> tuple[float, str]:
    """Maximum pattern sum over a collection of sets; first attaining set wins ties.

    Every set is summed from one outcome distribution of the setting.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one pattern set")
    return _best_set(outcome_distribution(rho, setting), setting, sets)


def _certify(rho: DensityMatrix, sets, bound: float, basis_search: bool) -> CertificationReport:
    n = rho.n_parties
    diagonal = diagonal_set(n)
    if not basis_search:
        c1 = c_pattern_sum(rho, computational_setting(n), diagonal)
        c2, name2 = c_max(rho, hadamard_setting(n), sets)
        return _make_report(c1, c2, bound, diagonal.name, name2)
    # One distribution per choice of one basis of the qubit MUB triple per
    # party (3^n), read for both terms: the diagonal sum if the choice is
    # the first setting, the best pattern set if it is the second.
    triple = qubit_mub_triple().bases
    terms = {}
    for choice in itertools.product(range(3), repeat=n):
        setting = BasisAssignment(tuple(triple[k] for k in choice))
        probs = outcome_distribution(rho, setting)
        terms[choice] = (_pattern_sum(probs, setting, diagonal), *_best_set(probs, setting, sets))
    # Each party takes an ordered pair of distinct bases (distinct members
    # of the triple are unbiased); of the 6^n assignments the first maximum
    # wins ties.
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    best = None
    for assignment in itertools.product(pairs, repeat=n):
        c1 = terms[tuple(pair[0] for pair in assignment)][0]
        _, c2, name2 = terms[tuple(pair[1] for pair in assignment)]
        if best is None or c1 + c2 > best[0] + best[1]:
            best = (c1, c2, name2)
    c1, c2, name2 = best
    return _make_report(c1, c2, bound, diagonal.name, name2)


def i3(rho: DensityMatrix, basis_search: bool = False) -> CertificationReport:
    """Three-qubit certification quantity with biseparable bound 13/8.

    First term: the diagonal sum P(000) + P(111) in the computational
    setting (also the intersection of all six canonical sets).  Second
    term: maximum over the six sets of the Hadamard-setting pattern sum.
    With basis_search, both settings additionally range over per-party
    ordered pairs of distinct bases from the qubit MUB triple.
    """
    if rho.dims != (2, 2, 2):
        raise ValueError(f"i3 needs three qubits, got dims {rho.dims}")
    return _certify(rho, lbps_tripartite(), TRIPARTITE_BOUND, basis_search)


def i4(rho: DensityMatrix, basis_search: bool = False) -> CertificationReport:
    """Four-qubit certification quantity with biseparable bound 7/4.

    First term: the diagonal sum P(0000) + P(1111) in the computational
    setting.  Second term: the single canonical 12-pattern set summed in
    the Hadamard setting.
    """
    if rho.dims != (2, 2, 2, 2):
        raise ValueError(f"i4 needs four qubits, got dims {rho.dims}")
    return _certify(rho, [lbps_quadripartite()], QUADRIPARTITE_BOUND, basis_search)


def _oracle_probability(rho: DensityMatrix, setting: BasisAssignment, pattern: IndexPattern) -> float:
    # Deliberately independent route: the product vector is accumulated
    # per party by broadcasting, and the probability is taken as a single
    # quadratic form.  No shared machinery with outcome_distribution.
    vec = np.ones(1, dtype=np.complex128)
    for basis, k in zip(setting.bases, pattern):
        column = basis.vectors[:, k]
        vec = (vec[:, None] * column[None, :]).reshape(-1)
    return float(np.real(np.vdot(vec, rho.entries @ vec)))


def i_value_oracle(rho: DensityMatrix, settings, sets) -> float:
    """Brute-force recomputation of i3/i4 along an independent code path.

    settings is the (first, second) pair of BasisAssignment values.  The
    first term sums the matched-outcome (all-parties-agree) patterns in
    the first setting; the second term is the maximum over the supplied
    sets of the second-setting pattern sum.  Matches i3/i4 within 1e-10
    by contract.
    """
    setting1, setting2 = settings
    sets = list(sets)
    n = rho.n_parties
    first = 0.0
    for i in range(min(rho.dims)):
        first = first + _oracle_probability(rho, setting1, (i,) * n)
    best = None
    for s in sets:
        total = 0.0
        for pattern in s.patterns:
            total = total + _oracle_probability(rho, setting2, pattern)
        if best is None or total > best:
            best = total
    return first + best


def i3_oracle(rho: DensityMatrix) -> float:
    return i_value_oracle(rho, (computational_setting(3), hadamard_setting(3)), lbps_tripartite())


def i4_oracle(rho: DensityMatrix) -> float:
    return i_value_oracle(rho, (computational_setting(4), hadamard_setting(4)), [lbps_quadripartite()])


def paper_i2_psi_lambda(lam: float) -> float:
    """Reference closed form for the two-qubit sqrt(lam)|00>+sqrt(1-lam)|11> family."""
    return 1.5 + sqrt(lam * (1.0 - lam))


def paper_i3_ghz3(theta: float) -> float:
    """Reference closed form for the three-qubit GHZ family: (13 + sin 2theta)/8."""
    return (13.0 + sin(2.0 * theta)) / 8.0


def paper_i3_w3(theta: float, alpha: float) -> float:
    """Published reference curve for the w3 family; comparison only, not an oracle."""
    return (
        13.0
        - 2.0 * sin(alpha) * cos(alpha) * sin(theta) ** 2
        + sin(2.0 * theta) * (3.0 * sin(alpha) + cos(alpha))
    ) / 8.0


def paper_i4_ghz4(theta: float) -> float:
    """Published reference curve for the four-qubit GHZ family; comparison only."""
    return (25.0 + 7.0 * sin(theta)) / 16.0
