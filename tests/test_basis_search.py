"""Basis search: the 3^n-distribution search against the 6^n reference.

The reference below is the search it replaces: every assignment of an
ordered pair of distinct qubit MUBs to each party, with one distribution
for each setting of the pair, read by an unsearched two-term ``Witness``.
Both must give equal reports, floats and set names included, so ties must
go to the same first assignment.
"""

import itertools
import math

import numpy as np
import pytest

from mubcert import (
    BasisAssignment,
    CertificationReport,
    DensityMatrix,
    StateVector,
    Witness,
    diagonal_set,
    ghz3,
    ghz4,
    i3,
    i4,
    kron,
    lbps_quadripartite,
    lbps_tripartite,
    qubit_mub_triple,
    random_pure,
    w3,
)
from mubcert.correlations import QUADRIPARTITE_BOUND, TRIPARTITE_BOUND, VIOLATION_MARGIN
from mubcert.states import W3_STANDARD_ALPHA, biseparable_sample

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


def _reference_search(rho: DensityMatrix) -> CertificationReport:
    if rho.n_parties == 3:
        sets, bound = lbps_tripartite(), TRIPARTITE_BOUND
    else:
        sets, bound = [lbps_quadripartite()], QUADRIPARTITE_BOUND
    triple = qubit_mub_triple().bases
    pairs = [(triple[i], triple[j]) for i in range(3) for j in range(3) if i != j]
    diagonal = diagonal_set(rho.n_parties)
    best = None
    for assignment in itertools.product(pairs, repeat=rho.n_parties):
        setting1 = BasisAssignment(tuple(pair[0] for pair in assignment))
        setting2 = BasisAssignment(tuple(pair[1] for pair in assignment))
        fixed = Witness(((setting1, (diagonal,)), (setting2, tuple(sets))), bound).evaluate(rho)
        c1, c2, name2 = fixed.c_first, fixed.c_second, fixed.attaining_set_second
        if best is None or c1 + c2 > best[0] + best[1]:
            best = (c1, c2, name2)
    c1, c2, name2 = best
    return CertificationReport(
        c_first=c1,
        c_second=c2,
        i_value=c1 + c2,
        bound=bound,
        violated=c1 + c2 > bound + VIOLATION_MARGIN,
        attaining_set_first="diagonal",
        attaining_set_second=name2,
    )


def _product(n: int) -> DensityMatrix:
    return StateVector((2,) * n, [1] + [0] * (2**n - 1)).density()


S = 1 / math.sqrt(2)
PAULI_KETS = {"0": [1, 0], "1": [0, 1], "+": [S, S], "-": [S, -S], "j": [S, -1j * S]}


def _pauli_product(labels: str) -> DensityMatrix:
    # Products of Pauli eigenstates tie many assignments with different
    # (c_first, c_second) splits: they fail if the pair order changes.
    amps = np.ones(1)
    for label in labels:
        amps = np.kron(amps, PAULI_KETS[label])
    return StateVector((2,) * len(labels), amps).density()


def _rotated_ghz3() -> DensityMatrix:
    h3 = kron(kron(HADAMARD, HADAMARD), HADAMARD)
    return StateVector((2, 2, 2), h3 @ ghz3(math.pi / 4).amplitudes).density()


THETAS = np.linspace(0.0, math.pi / 2, 5)
SEED = 20261018

CASES = {
    **{f"haar3-{s}": lambda s=s: random_pure((2, 2, 2), [SEED, s]).density() for s in range(6)},
    **{f"haar4-{s}": lambda s=s: random_pure((2, 2, 2, 2), [SEED, s]).density() for s in range(2)},
    **{f"biseparable3-{t}": lambda t=t: biseparable_sample(3, t, SEED) for t in range(4)},
    **{f"biseparable4-{t}": lambda t=t: biseparable_sample(4, t, SEED) for t in range(2)},
    "mixed3": lambda: DensityMatrix((2, 2, 2), np.eye(8) / 8),
    "mixed4": lambda: DensityMatrix((2, 2, 2, 2), np.eye(16) / 16),
    **{f"ghz3-{i}": lambda t=t: ghz3(t).density() for i, t in enumerate(THETAS)},
    **{f"w3-{i}": lambda t=t: w3(t, W3_STANDARD_ALPHA).density() for i, t in enumerate(THETAS)},
    **{f"ghz4-{i}": lambda t=t: ghz4(t).density() for i, t in enumerate(THETAS)},
    "product3": lambda: _product(3),
    "product4": lambda: _product(4),
    **{f"pauli-{k}": lambda k=k: _pauli_product(k) for k in ("00-", "00j", "0+1", "0--", "00-1", "0--0")},
    "rotated-ghz3": _rotated_ghz3,
}


@pytest.mark.parametrize("name", list(CASES))
def test_search_matches_the_reference(name):
    rho = CASES[name]()
    certify = i3 if rho.n_parties == 3 else i4
    assert certify(rho, basis_search=True) == _reference_search(rho)
