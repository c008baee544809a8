"""Mutual-predictability correlations and the entanglement certification quantities.

The certification scheme measures every party in two mutually unbiased
product settings (computational and Hadamard by default) and sums joint
probabilities over fixed index-pattern sets:

* bipartite: the diagonal patterns (i, i) summed in each of m MUB settings
  give I_m with separable bound 1 + (m-1)/d;
* three qubits: I3 = [diagonal sum P(000)+P(111) in the first setting]
  + [maximum over the six canonical 5-pattern sets in the second setting],
  with the paper's biseparability bound 13/8;
* four qubits: I4 = [diagonal sum P(0000)+P(1111) in the first setting]
  + [12-pattern sum in the second setting], with the paper's bound 7/4.

One rule covers all arities: the first term is the n-party mutual
predictability (all parties agree on the outcome index), the second term
is the maximized pattern-set sum in the unbiased setting; each quantity is
one ``Witness``.  ``violated`` compares with the paper's 13/8 and 7/4, but
fully product states exceed both: with qubits cos(t/2)|0> + sin(t/2)|1>,
t = (0.14, -0.6, 0.14) gives I3 = 1.756751, above GHZ3's 1.75, and
t = (-0.37, -0.16, 0.16, 0.16) gives I4 = 1.825992 (ROADMAP item 1).

Every quantity is linear in the density matrix, so mixed states are
accepted throughout: each set sum is read as Tr(rho W_s), for the
projector W_s onto the set's product vectors (``Witness``).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from math import cos, fsum, prod, sin, sqrt

import numpy as np

from .linalg import (
    COMPLETENESS_TOL, EQUALITY_TOL, REPORT_SUM_TOL, DensityMatrix, InvariantError, density_defect, probability_slack,
)
from .mub import Basis, MubFamily, fourier_pair, qubit_mub_triple

# A state violates its bound only beyond this margin; values at the bound
# (products sit exactly there) must not be flagged.
VIOLATION_MARGIN = 1e-9
TRIPARTITE_BOUND = 13.0 / 8.0
QUADRIPARTITE_BOUND = 7.0 / 4.0

IndexPattern = tuple[int, ...]

# OpenBLAS runs a ddot of more than this many elements on several threads,
# and its bits then depend on their count.
DOT_LIMIT = 10_000


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
        """Column k (row-major over per-party outcomes) is the product vector.

        The Kronecker product of the bases' column matrices, left to right,
        each factor taken by broadcasting as np.kron does.
        """
        u = self.bases[0].vectors
        for b in self.bases[1:]:
            v = b.vectors
            u = (u[:, None, :, None] * v[None, :, None, :]).reshape(u.shape[0] * b.d, -1)
        u.flags.writeable = False
        return u


def uniform_setting(basis: Basis, n: int) -> BasisAssignment:
    return BasisAssignment((basis,) * n)


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


# Pattern sets are immutable, so the canonical ones are built once.
_TRI_SETS = (
    LbpsPatternSet("tri1", ((0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1))),
    LbpsPatternSet("tri2", ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1))),
    LbpsPatternSet("tri3", ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1))),
    LbpsPatternSet("tri4", ((0, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))),
    LbpsPatternSet("tri5", ((0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1))),
    LbpsPatternSet("tri6", ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))),
)
_QUAD_SET = LbpsPatternSet(
    "quad1",
    (
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
    ),
)


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
    """Outcome of one ``Witness.evaluate``: the first term (c_first), the sum
    of the others (c_second), their sum, the verdict, and for I_m every
    basis's term in c_per_basis.
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
        if abs(self.i_value - (self.c_first + self.c_second)) > REPORT_SUM_TOL:
            raise InvariantError(
                f"i_value {self.i_value!r} != c_first + c_second "
                f"{self.c_first + self.c_second!r}"
            )
        if self.violated != (self.i_value > self.bound + VIOLATION_MARGIN):
            raise InvariantError("violated flag inconsistent with i_value and bound")

    def to_dict(self) -> dict:
        """The fields with None dropped."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _check_state_setting(rho: DensityMatrix, setting: BasisAssignment) -> None:
    if rho.dims != setting.dims:
        raise ValueError(f"state dims {rho.dims} do not match setting dims {setting.dims}")


def joint_probability(rho: DensityMatrix, setting: BasisAssignment, outcome: IndexPattern) -> float:
    """Probability of one product-basis outcome string: <v| rho |v>."""
    _check_state_setting(rho, setting)
    outcome = tuple(outcome)
    if len(outcome) != setting.n_parties:
        raise ValueError(f"outcome {outcome} does not match {setting.n_parties} parties")
    if any(not 0 <= o < b.d for o, b in zip(outcome, setting.bases)):
        raise ValueError(f"outcome {outcome} out of range for dims {setting.dims}")
    v = setting.product_unitary[:, np.ravel_multi_index(outcome, setting.dims)]
    p = float(np.real(v.conj() @ (rho.entries @ v)))
    slack = probability_slack(rho.dim)
    if p < -slack or p > 1.0 + slack:
        raise InvariantError(f"probability {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def outcome_distribution(rho: DensityMatrix, setting: BasisAssignment) -> np.ndarray:
    """All d^n outcome probabilities (flat, row-major); checked to sum to 1."""
    _check_state_setting(rho, setting)
    u = setting.product_unitary
    probs = np.einsum("ji,jk,ki->i", u.conj(), rho.entries, u).real
    total = float(probs.sum())
    if abs(total - 1.0) > EQUALITY_TOL:
        raise InvariantError(f"outcome probabilities sum to {total!r}, not 1")
    return probs.clip(0.0, 1.0)


def _projectors(pairs: list, dim: int) -> np.ndarray:
    """The projectors W_s = U_S U_S^dagger of the pairs of a product unitary
    U and flat outcome indices S, then the identity, each a (dim, dim)
    complex matrix stored as a float64 row of 2 dim^2: Tr(rho W) of a hermitian
    W is then a real dot product.  Each W_s is rescaled to trace |S|, which
    takes off the norm rounding of the basis vectors, and checked to be
    hermitian with ||W^2 - W|| at most COMPLETENESS_TOL: every eigenvalue
    lies within about that of 0 or 1."""
    ops = np.zeros((len(pairs) + 1, 2 * dim * dim))
    matrices = ops.view(np.complex128).reshape(-1, dim, dim)
    for w, (u, flat) in zip(matrices, pairs):
        columns = u[:, flat]
        np.matmul(columns, columns.conj().T, out=w)
        w *= flat.size / w.trace().real
        if max(abs(w - w.conj().T).max(), np.linalg.norm(w @ w - w)) > COMPLETENESS_TOL:
            raise InvariantError(f"a set of {flat.size} outcomes gives no projector")
    np.fill_diagonal(matrices[-1], 1.0)
    return ops


@dataclass(frozen=True, eq=False)
class Witness:
    """A certification quantity: terms, each a (setting, pattern sets) pair, and a bound.

    Each pattern set s of a term is read as Tr(rho W_s), for the projector
    W_s onto the set's product vectors in the term's setting, built once at
    construction and rescaled to trace |s|.  A term's value is the largest
    set value, clipped to [0, 1], the first attaining set winning ties;
    c_first is the first term's value and c_second the math.fsum of the
    rest.  A witness whose terms share their pattern sets, as I_m's do,
    reports every term in c_per_basis.
    """

    terms: tuple[tuple[BasisAssignment, tuple[LbpsPatternSet, ...]], ...]
    bound: float

    def __post_init__(self) -> None:
        terms = tuple((setting, tuple(sets)) for setting, sets in self.terms)
        if len(terms) < 2 or not all(sets for _, sets in terms):
            raise ValueError("a witness needs two or more terms, each with a pattern set")
        if len({setting.dims for setting, _ in terms}) > 1:
            raise ValueError(f"witness terms have different dims: {[s.dims for s, _ in terms]}")
        object.__setattr__(self, "terms", terms)
        # Every set is raveled to flat outcome indices once, here; a pattern
        # that does not fit its setting's dims raises ValueError.
        flat = [[np.ravel_multi_index(np.array(s.patterns).T, t.dims) for s in sets] for t, sets in terms]
        object.__setattr__(self, "_flat", flat)
        # Term k's sets are the columns _slices[k] of every set-value row.
        ends = np.cumsum([len(flats) for flats in flat]).tolist()
        object.__setattr__(self, "_slices", [slice(a, b) for a, b in zip([0] + ends, ends)])
        pairs = [(setting.product_unitary, f) for (setting, _), flats in zip(terms, flat) for f in flats]
        object.__setattr__(self, "_ops", _projectors(pairs, prod(self.dims)))

    @property
    def dims(self) -> tuple[int, ...]:
        """The local dimensions of the states it applies to, shared by every term."""
        return self.terms[0][0].dims

    @cached_property
    def _search(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # The search plan (ops, i, j).  ops holds every set of every term in
        # each of the 3^n search settings, in itertools.product order.  Each
        # of the 6^n assignments gives every party an ordered pair of distinct,
        # so unbiased, members of the triple; i and j index the settings of the
        # first and second members, in itertools.product order.
        n = len(self.dims)
        flats = [f for term in self._flat for f in term]
        settings = itertools.product(qubit_mub_triple().bases, repeat=n)
        unitaries = (BasisAssignment(bases).product_unitary for bases in settings)
        ops = _projectors([(u, f) for u in unitaries for f in flats], prod(self.dims))
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        assignments = np.array(list(itertools.product(pairs, repeat=n)))
        return (ops, *np.ravel_multi_index(assignments.transpose(1, 2, 0), (3,) * n))

    def _set_values(self, entries: np.ndarray, ops: np.ndarray) -> np.ndarray:
        """Tr(m W) of each matrix m of the (T, D, D) stack ``entries`` for each
        row W of ``ops`` but the last, the identity, whose value must be 1;
        checked, clipped to [0, 1] and shaped (-1, number of sets).

        Each value is one BLAS ddot, as a stacked (1, n) @ (n, 1) matmul takes
        it, so it does not depend on the stack.  A matrix of more than
        DOT_LIMIT floats is read one row at a time, the rows' ddots summed."""
        dim = entries.shape[-1]
        parts = 1 if 2 * dim * dim <= DOT_LIMIT else dim
        rows = np.ascontiguousarray(entries, dtype=complex).view(np.float64).reshape(len(entries), 1, parts, 1, -1)
        values = np.matmul(rows, ops.reshape(len(ops), parts, -1, 1)).reshape(len(entries), len(ops), parts).sum(-1)
        off = abs(values[:, -1] - 1.0) > EQUALITY_TOL
        if off.any():
            row = int(off.argmax())
            raise InvariantError(f"outcome probabilities sum to {float(values[row, -1])!r}, not 1", row)
        values = values[:, :-1]
        # A set value is a sum of probabilities of orthogonal outcomes.
        slack = probability_slack(dim)
        bad = (values > 1.0 + slack) | (values < -slack)
        if bad.any():
            row = int(bad.any(axis=1).argmax())
            high, low = float(values[row].max()), float(values[row].min())
            problem = f"{high!r} exceeds 1" if high > 1.0 + slack else f"{low!r} is below 0"
            raise InvariantError(f"pattern sum {problem}", row)
        return values.clip(0.0, 1.0).reshape(-1, self._slices[-1].stop)

    def _term_values(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each term's value and first attaining set, for each row of set values."""
        sets = [values[:, columns] for columns in self._slices]
        return np.array([s.max(axis=1) for s in sets]).T, np.array([s.argmax(axis=1) for s in sets]).T

    def read(self, entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The value, term values and attaining set indices for each matrix of
        the (T, D, D) stack ``entries``: shapes (T,), (T, K) and (T, K).

        D is the product of the witness's dims, or ValueError is raised first.
        The first matrix that is not a density matrix raises InvariantError
        naming its row.  ``report`` turns row t of the last two into its report.
        """
        dim = prod(self.dims)
        if entries.shape[1:] != (dim, dim):
            raise ValueError(f"expected a (T, {dim}, {dim}) stack for dims {self.dims}, got shape {entries.shape}")
        defect = density_defect(entries)
        if defect is not None:
            raise InvariantError(defect[1], defect[0])
        values, sets = self._term_values(self._set_values(entries, self._ops))
        c_second = np.array([fsum(rest) for rest in values[:, 1:].tolist()])
        return values[:, 0] + c_second, values, sets

    def report(self, values, sets) -> CertificationReport:
        """The report from each term's value and the index of its attaining set."""
        values = [float(v) for v in values]
        c_first, c_second = values[0], fsum(values[1:])
        i_value = c_first + c_second
        names = [self.terms[k][1][int(index)].name for k, index in enumerate(sets)]
        per_basis = all(term_sets == self.terms[0][1] for _, term_sets in self.terms)
        return CertificationReport(
            c_first=c_first,
            c_second=c_second,
            i_value=i_value,
            bound=self.bound,
            violated=bool(i_value > self.bound + VIOLATION_MARGIN),
            attaining_set_first=names[0],
            attaining_set_second=names[-1],
            c_per_basis=tuple(values) if per_basis else None,
        )

    def evaluate(self, rho: DensityMatrix, basis_search: bool = False) -> CertificationReport:
        """The report for ``rho``, read as a stack of one matrix.

        ``rho`` must have the witness's dims.  With basis_search, a two-term
        qubit witness instead maximizes over each party's ordered pair of
        distinct bases of the qubit MUB triple.  Its first search builds one
        plan, the projector stack of the 3^n settings and the index arrays of
        the 6^n assignments, and the witness keeps it for later searches.
        """
        if rho.dims != self.dims:
            raise ValueError(f"state dims {rho.dims} do not match witness dims {self.dims}")
        if basis_search and (len(self.terms) != 2 or set(self.dims) != {2}):
            raise ValueError("basis search needs a two-term witness on qubits")
        # Searched, row r of the values is the r-th of the 3^n settings.
        ops = self._search[0] if basis_search else self._ops
        values, sets = self._term_values(self._set_values(rho.entries[None], ops))
        if not basis_search:
            return self.report(values[0], sets[0])
        (v1, v2), (s1, s2), (_, i, j) = values.T, sets.T, self._search
        # argmax takes the first maximum, so ties go to the first assignment.
        a = (v1[i] + v2[j]).argmax()
        return self.report((v1[i[a]], v2[j[a]]), (s1[i[a]], s2[j[a]]))

    def operators(self):
        """One (W, set names) pair for each choice of one pattern set per term,
        in itertools.product order: W sums |v><v| over the chosen sets' product
        vectors v, term by term, so the witness value is the largest Tr(rho W),
        up to the clip of each set value to [0, 1]."""
        dim = prod(self.dims)
        for choice in itertools.product(*(range(len(sets)) for _, sets in self.terms)):
            w = np.zeros((dim, dim), dtype=np.complex128)
            for (setting, _), flats, k in zip(self.terms, self._flat, choice):
                for v in setting.product_unitary[:, flats[k]].T:
                    w += np.outer(v, v.conj())
            yield w, tuple(sets[k].name for (_, sets), k in zip(self.terms, choice))


@lru_cache(maxsize=None)
def i_m_witness(family: MubFamily) -> Witness:
    """I_m: the diagonal with both parties in each basis of the family; bound 1 + (m-1)/d.

    Built once per family, as the family itself is, so its set projectors
    are built once.
    """
    diagonal = (diagonal_set(2, family.d),)
    terms = tuple((uniform_setting(b, 2), diagonal) for b in family.bases)
    return Witness(terms, 1.0 + (family.m - 1) / family.d)


@lru_cache(maxsize=None)
def i3_witness() -> Witness:
    """I3: the diagonal P(000) + P(111) in the computational setting (also the
    intersection of all six tri sets) plus the best tri set in the Hadamard setting."""
    z, x = (uniform_setting(b, 3) for b in fourier_pair(2).bases)
    terms = ((z, (diagonal_set(3),)), (x, _TRI_SETS))
    return Witness(terms, TRIPARTITE_BOUND)


@lru_cache(maxsize=None)
def i4_witness() -> Witness:
    """I4: the diagonal P(0000) + P(1111) in the computational setting plus quad1
    in the Hadamard setting."""
    z, x = (uniform_setting(b, 4) for b in fourier_pair(2).bases)
    terms = ((z, (diagonal_set(4),)), (x, (_QUAD_SET,)))
    return Witness(terms, QUADRIPARTITE_BOUND)


def i_m_bipartite(rho: DensityMatrix, family: MubFamily) -> CertificationReport:
    """Sum of mutual predictabilities over the m settings of a MUB family.

    Separable bound 1 + (m-1)/d; for a complete family (m = d+1) that is 2.
    """
    return i_m_witness(family).evaluate(rho)


def i3(rho: DensityMatrix) -> CertificationReport:
    """Three-qubit certification quantity ``i3_witness()``, paper bound 13/8."""
    return i3_witness().evaluate(rho)


def i4(rho: DensityMatrix) -> CertificationReport:
    """Four-qubit certification quantity ``i4_witness()``, paper bound 7/4."""
    return i4_witness().evaluate(rho)


def _oracle_probability(rho: DensityMatrix, setting: BasisAssignment, pattern: IndexPattern) -> float:
    # Deliberately independent route: the product vector is accumulated
    # per party by broadcasting, and the probability is taken as a single
    # quadratic form.  No shared machinery with the Witness set projectors.
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
    # The sets overlap: each pattern's probability is taken once per call.
    second = {}
    best = None
    for s in sets:
        total = 0.0
        for pattern in s.patterns:
            if pattern not in second:
                second[pattern] = _oracle_probability(rho, setting2, pattern)
            total = total + second[pattern]
        if best is None or total > best:
            best = total
    return first + best


def i3_oracle(rho: DensityMatrix) -> float:
    return i_value_oracle(rho, [uniform_setting(b, 3) for b in fourier_pair(2).bases], lbps_tripartite())


def i4_oracle(rho: DensityMatrix) -> float:
    return i_value_oracle(rho, [uniform_setting(b, 4) for b in fourier_pair(2).bases], [lbps_quadripartite()])


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
