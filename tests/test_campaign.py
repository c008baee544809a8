"""Bound campaigns: sampler reference, pinned outputs and per-trial costs.

The campaign samplers build trials from raw arrays.  The reference below is
the object-based construction they replace (StateVector -> permute_parties
-> density() -> mix); both must give the same matrix entries bit for bit.
"""

import numpy as np
import pytest

import mubcert.correlations as correlations
from mubcert import (
    DensityMatrix,
    StateVector,
    bipartitions,
    ghz4,
    i3,
    i4,
    mix,
    permute_parties,
    random_biseparable,
    random_pure,
    random_separable,
)
from mubcert.cli import DEFAULT_SEED, main, run_bound_campaign
from mubcert.states import biseparable_sample, separable_sample

# ------------------------------------------------------ reference sampler


def _ref_haar_block(rng, n_qubits):
    dim = 2**n_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector((2,) * n_qubits, amps)


def _ref_product_across_cut(rng, n, block):
    other = tuple(p for p in range(n) if p not in block)
    left = _ref_haar_block(rng, len(block))
    right = _ref_haar_block(rng, len(other))
    joined = StateVector((2,) * n, np.kron(left.amplitudes, right.amplitudes))
    order = np.argsort(np.array(block + other))
    return permute_parties(joined, order)


def _ref_random_biseparable(n, cut, seed, terms=None):
    block = tuple(sorted(int(p) for p in cut))
    rng = np.random.default_rng(seed)
    k = int(terms) if terms is not None else int(rng.integers(2, 6))
    weights = rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1)
    parts = [_ref_product_across_cut(rng, n, block).density() for _ in range(k)]
    return mix(parts, weights)


def _ref_random_separable(d, seed, terms=None):
    rng = np.random.default_rng(seed)
    k = int(terms) if terms is not None else int(rng.integers(1, 6))
    weights = rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1)
    parts = []
    for _ in range(k):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        parts.append(StateVector((d, d), np.kron(a, b)).density())
    return mix(parts, weights)


def _ref_biseparable_sample(n, trial, seed):
    cuts = bipartitions(n)
    slot = trial % (len(cuts) + 1)
    if slot < len(cuts):
        return _ref_random_biseparable(n, cuts[slot], [seed, trial])
    rng = np.random.default_rng([seed, trial])
    i, j = rng.choice(len(cuts), size=2, replace=False)
    w = float(rng.uniform(0.05, 0.95))
    part_a = _ref_random_biseparable(n, cuts[i], [seed, trial, 0])
    part_b = _ref_random_biseparable(n, cuts[j], [seed, trial, 1])
    return mix([part_a, part_b], [w, 1.0 - w])


@pytest.mark.parametrize("n", [3, 4])
def test_biseparable_sample_matches_reference_on_every_slot(n):
    # three full cycles: every cut and the mixed-cut slot, three draws each
    slots = len(bipartitions(n)) + 1
    for seed in (DEFAULT_SEED, 5):
        for trial in range(3 * slots):
            got = biseparable_sample(n, trial, seed)
            want = _ref_biseparable_sample(n, trial, seed)
            assert got.dims == want.dims
            assert np.array_equal(got.entries, want.entries), (n, trial, seed)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("terms", [None, 1, 3])
def test_random_biseparable_matches_reference_on_every_cut(n, terms):
    for cut in bipartitions(n):
        for seed in range(4):
            got = random_biseparable(n, cut, seed, terms=terms)
            want = _ref_random_biseparable(n, cut, seed, terms=terms)
            assert np.array_equal(got.entries, want.entries), (cut, seed)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("terms", [None, 1])
def test_random_separable_matches_reference(d, terms):
    for seed in range(8):
        got = random_separable(d, seed, terms=terms)
        want = _ref_random_separable(d, seed, terms=terms)
        assert got.dims == (d, d)
        assert np.array_equal(got.entries, want.entries), seed
    for trial in range(8):
        got = separable_sample(d, trial, DEFAULT_SEED)
        want = _ref_random_separable(d, [DEFAULT_SEED, trial])
        assert np.array_equal(got.entries, want.entries), trial


def test_sampler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_biseparable(3, (0,), 1, terms=0)
    with pytest.raises(ValueError):
        random_biseparable(3, (0, 1, 2), 1)
    with pytest.raises(ValueError):
        random_separable(3, 1, terms=0)
    with pytest.raises(ValueError):
        random_separable(1, 1)


# ------------------------------------------------------- pinned outputs

# check-bounds stdout at 200 trials and the default seed, recorded before
# the samplers moved to raw arrays.
GOLDEN_CHECK_BOUNDS = {
    ("--class", "biseparable3"): """{
  "bound": 1.625,
  "class": "biseparable3",
  "max_i": 1.3818053513780908,
  "pass": true,
  "seed": 20260816,
  "trials": 200,
  "worst_trial": 146
}
""",
    ("--class", "biseparable4"): """{
  "bound": 1.75,
  "class": "biseparable4",
  "max_i": 1.1613316494349895,
  "pass": true,
  "seed": 20260816,
  "trials": 200,
  "worst_trial": 73
}
""",
    ("--class", "separable-bipartite", "--d", "3"): """{
  "bound": 1.3333333333333333,
  "class": "separable-bipartite",
  "d": 3,
  "m": 2,
  "max_i": 1.0530083489461668,
  "pass": true,
  "seed": 20260816,
  "trials": 200,
  "worst_trial": 145
}
""",
    ("--class", "separable-bipartite", "--d", "5", "--complete-family"): """{
  "bound": 2.0,
  "class": "separable-bipartite",
  "d": 5,
  "m": 6,
  "max_i": 1.5599580189846662,
  "pass": true,
  "seed": 20260816,
  "trials": 200,
  "worst_trial": 34
}
""",
}


@pytest.mark.parametrize("args", list(GOLDEN_CHECK_BOUNDS))
def test_check_bounds_stdout_is_pinned(args, capsys):
    code = main(["check-bounds", *args, "--trials", "200"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_CHECK_BOUNDS[args]


# ----------------------------------------------------------- trial costs


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_i3_and_i4_take_one_distribution_per_setting(monkeypatch):
    rho3 = random_pure((2, 2, 2), 11).density()
    rho4 = ghz4(0.4).density()
    calls = _count_calls(monkeypatch, correlations, "outcome_distribution")
    i3(rho3)
    assert len(calls) == 2
    calls.clear()
    i4(rho4)
    assert len(calls) == 2
    # A basis search takes one distribution per local setting: 3^n.
    calls.clear()
    i3(rho3, basis_search=True)
    assert len(calls) == 27
    calls.clear()
    i4(rho4, basis_search=True)
    assert len(calls) == 81


@pytest.mark.parametrize(
    "klass, options",
    [
        ("biseparable3", {}),
        ("biseparable4", {}),
        ("separable-bipartite", {"d": 3}),
        ("separable-bipartite", {"d": 5, "complete_family": True}),
    ],
)
def test_campaign_validates_each_trial_once(monkeypatch, klass, options):
    densities = _count_calls(monkeypatch, DensityMatrix, "__post_init__")
    vectors = _count_calls(monkeypatch, StateVector, "__post_init__")
    trials = 17
    run_bound_campaign(klass, trials, DEFAULT_SEED, **options)
    assert len(densities) == trials
    assert len(vectors) == 0
