"""Basis search: the search over 3^n settings against the 6^n reference.

The reference below is the search it replaces: every assignment of an
ordered pair of distinct qubit MUBs to each party, read by an unsearched
two-term ``Witness`` of the pair's two settings.
Both must give equal reports, floats and set names included, so ties must
go to the same first assignment.
"""

import functools
import itertools
import json
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
    fourier_pair,
    ghz3,
    ghz4,
    i3_witness,
    i4_witness,
    i_m_witness,
    lbps_quadripartite,
    lbps_tripartite,
    qubit_mub_triple,
    random_pure,
    w3,
)
import mubcert.correlations as correlations
from mubcert.cli import main
from mubcert.correlations import QUADRIPARTITE_BOUND, TRIPARTITE_BOUND, VIOLATION_MARGIN
from mubcert.states import W3_STANDARD_ALPHA, biseparable_sample, state_to_json_dict

HADAMARD = (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)).astype(np.complex128)


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
    h3 = np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD)
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
    witness = i3_witness() if rho.n_parties == 3 else i4_witness()
    assert witness.evaluate(rho, basis_search=True) == _reference_search(rho)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_search_settings_are_built_once_in_product_order(monkeypatch, n):
    # A witness builds its search plan on its first search only.  Block r of
    # its projectors holds every set of every term, read in the r-th setting
    # of itertools.product; assignment r, the r-th of itertools.product over
    # each party's ordered pair, reads the settings i[r] and j[r].
    witness = {2: i_m_witness(fourier_pair(2)), 3: i3_witness(), 4: i4_witness()}[n]
    monkeypatch.delitem(witness.__dict__, "_search", raising=False)
    calls, plan_calls = [], []
    build, build_plan = correlations._projectors, Witness._search.func
    monkeypatch.setattr(correlations, "_projectors", lambda *args: calls.append(1) or build(*args))
    counted = functools.cached_property(lambda self: plan_calls.append(1) or build_plan(self))
    counted.__set_name__(Witness, "_search")
    monkeypatch.setattr(Witness, "_search", counted)
    rho = random_pure((2,) * n, [SEED, n]).density()
    assert witness.evaluate(rho, basis_search=True) == witness.evaluate(rho, basis_search=True)
    assert len(calls) == len(plan_calls) == 1
    sets = [s for _, term_sets in witness.terms for s in term_sets]
    for r, bases in enumerate(itertools.product(qubit_mub_triple().bases, repeat=n)):
        setting = BasisAssignment(bases)
        plain = Witness(((setting, sets), (setting, sets[:1])), witness.bound)._ops
        assert np.array_equal(witness._search[0][r * len(sets) : (r + 1) * len(sets)], plain[: len(sets)])
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    first, second = [], []
    for assignment in itertools.product(pairs, repeat=n):
        first.append(sum(pair[0] * 3 ** (n - 1 - k) for k, pair in enumerate(assignment)))
        second.append(sum(pair[1] * 3 ** (n - 1 - k) for k, pair in enumerate(assignment)))
    i, j = witness._search[1:]
    assert np.array_equal(i, first) and np.array_equal(j, second)


def test_cached_search_settings_give_the_reports_of_fresh_ones(monkeypatch, capsys, tmp_path):
    paths = []
    for k in range(100):
        path = tmp_path / f"state{k}.json"
        path.write_text(json.dumps(state_to_json_dict(random_pure((2,) * (3 + k % 2), [SEED, k]))))
        paths.append(str(path))

    def reports():
        for path in paths:
            assert main(["certify", "--state", path, "--basis-search"]) == 0
        return capsys.readouterr().out

    cached = reports()
    # Each witness keeps its search plan: build it afresh for each state.
    monkeypatch.setattr(Witness, "_search", property(Witness._search.func))
    assert reports() == cached
