"""Bound campaigns: sampler reference, pinned outputs and per-trial costs.

The campaign samplers build trials from raw arrays.  The reference below is
the object-based construction they replace (StateVector -> permute_parties
-> density() -> mix); both must give the same matrix entries bit for bit.
The campaign evaluates blocks of trials as one stack; its per-trial
reference is a loop of ``Witness.evaluate`` over the validated samples.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubcert.correlations as correlations
import mubcert.linalg as linalg
import mubcert.states as states
from mubcert import (
    StateVector,
    bipartitions,
    fourier_pair,
    ghz4,
    i3,
    i3_witness,
    i4,
    i4_witness,
    i_m_witness,
    mix,
    permute_parties,
    prime_mub_family,
    random_biseparable,
    random_pure,
    random_separable,
)
from mubcert import cli
from mubcert.cli import BLOCK_ROWS, DEFAULT_SEED, main, run_bound_campaign
from mubcert.states import biseparable_block, biseparable_sample, separable_block, separable_sample

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


# (n or d, block sampler, reference of one trial, matrix dimension)
BLOCK_SAMPLERS = [
    (3, biseparable_block, lambda trial, seed: _ref_biseparable_sample(3, trial, seed), 8),
    (4, biseparable_block, lambda trial, seed: _ref_biseparable_sample(4, trial, seed), 16),
    (2, separable_block, lambda trial, seed: _ref_random_separable(2, [seed, trial]), 4),
    (3, separable_block, lambda trial, seed: _ref_random_separable(3, [seed, trial]), 9),
    (5, separable_block, lambda trial, seed: _ref_random_separable(5, [seed, trial]), 25),
]


def _check_block(sampler, start, rows, seed):
    size, fill, reference, dim = sampler
    out = np.empty((rows, dim, dim), dtype=np.complex128)
    fill(size, start, seed, out)
    for row in range(rows):
        assert np.array_equal(out[row], reference(start + row, seed).entries), (size, start + row, seed)


@pytest.mark.parametrize("sampler", BLOCK_SAMPLERS, ids=lambda s: f"{s[1].__name__}-{s[0]}")
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_block_sampler_matches_reference_on_every_trial(sampler, seed):
    # A full block holds every cut and every mixed-cut slot of both qubit
    # classes (cycles of 4 and 8 trials); then partial blocks of 1 and 63.
    for start, rows in [(0, BLOCK_ROWS), (BLOCK_ROWS, 1), (BLOCK_ROWS + 1, BLOCK_ROWS - 1)]:
        _check_block(sampler, start, rows, seed)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10**9))
def test_block_sampler_matches_reference_at_any_seed_and_start(seed, start):
    for sampler in BLOCK_SAMPLERS:
        _check_block(sampler, start, 9, seed)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("terms", [1, 3])
def test_one_stack_of_every_cut_matches_reference(n, terms):
    # Components of every cut and of several seeds, with a fixed count,
    # built as one stack per cut.
    cuts = bipartitions(n)
    cases = [(cut, seed) for cut in cuts for seed in (DEFAULT_SEED, 5, 6)]
    mixtures = [
        (None, [states._draw(np.random.default_rng(seed), states._qubit_cut(n, cut), 2, terms)])
        for cut, seed in cases
    ]
    out = np.empty((len(cases), 2**n, 2**n), dtype=np.complex128)
    states._fill(out, mixtures)
    for row, (cut, seed) in enumerate(cases):
        want = _ref_random_biseparable(n, cut, seed, terms=terms)
        assert np.array_equal(out[row], want.entries), (cut, seed)


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


CAMPAIGNS = [
    ("biseparable3", {}),
    ("biseparable4", {}),
    ("separable-bipartite", {"d": 3}),
    ("separable-bipartite", {"d": 5, "complete_family": True}),
]


@pytest.mark.parametrize("klass, options", CAMPAIGNS)
def test_campaign_validates_each_trial_once(monkeypatch, klass, options):
    # Every validation, of one matrix or of a stack, goes through
    # linalg.density_defect; count the matrices it sees.
    rows = []
    original = linalg.density_defect

    def counted(m):
        rows.append(m.reshape(-1, *m.shape[-2:]).shape[0])
        return original(m)

    for module in (linalg, correlations):
        monkeypatch.setattr(module, "density_defect", counted)
    vectors = _count_calls(monkeypatch, StateVector, "__post_init__")
    trials = 2 * BLOCK_ROWS + 2
    run_bound_campaign(klass, trials, DEFAULT_SEED, **options)
    assert sum(rows) == trials
    assert len(vectors) == 0


# ------------------------------------------------------ block evaluation


def _reference_campaign(klass, options, trials, seed, sample=None):
    """(max_i, worst_trial, violated) from one Witness.evaluate per trial,
    the first maximum winning (strict >)."""
    if klass == "separable-bipartite":
        d = options["d"]
        family = prime_mub_family(d) if options.get("complete_family") else fourier_pair(d)
        witness = i_m_witness(family)
        sample = sample or (lambda trial: separable_sample(d, trial, seed))
    else:
        n = int(klass[-1])
        witness = {3: i3_witness, 4: i4_witness}[n]()
        sample = sample or (lambda trial: biseparable_sample(n, trial, seed))
    worst, worst_trial = None, None
    for trial in range(trials):
        report = witness.evaluate(sample(trial))
        if worst is None or report.i_value > worst.i_value:
            worst, worst_trial = report, trial
    return worst.i_value, worst_trial, worst.violated


@pytest.mark.parametrize("klass, options", CAMPAIGNS)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_block_campaign_matches_the_per_trial_loop(klass, options, seed):
    for trials in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2):
        summary = run_bound_campaign(klass, trials, seed, **options)
        max_i, worst_trial, violated = _reference_campaign(klass, options, trials, seed)
        assert summary["max_i"] == max_i, (trials, summary["max_i"], max_i)
        assert summary["worst_trial"] == worst_trial, trials
        assert summary["pass"] is not violated


def test_block_campaign_keeps_the_first_of_tied_trials(monkeypatch):
    # Trials t and t + 50 share a state, so the maximum ties within a block
    # and across blocks; the first trial attaining it must win.
    original = cli.biseparable_block

    def tied(n, start, seed, out):
        for row in range(len(out)):
            original(n, (start + row) % 50, seed, out[row : row + 1])

    monkeypatch.setattr(cli, "biseparable_block", tied)
    trials = 2 * BLOCK_ROWS + 2
    summary = run_bound_campaign("biseparable3", trials, DEFAULT_SEED)
    sample = lambda trial: biseparable_sample(3, trial % 50, DEFAULT_SEED)  # noqa: E731
    max_i, worst_trial, _ = _reference_campaign("biseparable3", {}, trials, DEFAULT_SEED, sample)
    assert (summary["max_i"], summary["worst_trial"]) == (max_i, worst_trial)
    assert worst_trial < 50


def _campaign_peak(klass, trials, options) -> int:
    tracemalloc.start()
    try:
        run_bound_campaign(klass, trials, DEFAULT_SEED, **options)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("klass, options", [CAMPAIGNS[1], CAMPAIGNS[3]])
def test_campaign_memory_is_flat_in_the_trial_count(klass, options):
    # Blocks are fixed-size: ten times the trials may not raise the peak by
    # more than a small margin.  Keeping each trial's matrix would add 3.7 MB
    # (four qubits) and 9 MB (d = 5).  The warm-up run fills the caches and
    # free lists that a first long run in a process leaves behind.
    run_bound_campaign(klass, 1000, DEFAULT_SEED, **options)
    small = _campaign_peak(klass, 100, options)
    large = _campaign_peak(klass, 1000, options)
    assert large <= small + 64_000, (small, large)


# ------------------------------------------------------ internal breaches

BREACH_TRIAL = BLOCK_ROWS + 6
BREACH_SEED = 5


def _breach(monkeypatch, capsys, entries, validate=True):
    """Run a 3-qubit campaign whose trial BREACH_TRIAL has ``entries``."""
    original = cli.biseparable_block

    def sample(n, start, seed, out):
        original(n, start, seed, out)
        row = BREACH_TRIAL - start
        if 0 <= row < len(out):
            out[row] = entries(out[row].copy())

    monkeypatch.setattr(cli, "biseparable_block", sample)
    if not validate:
        monkeypatch.setattr(correlations, "density_defect", lambda m: None)
    return _breach_stderr(capsys)


def _breach_stderr(capsys):
    code = main(["check-bounds", "--class", "biseparable3", "--trials", "100", "--seed", str(BREACH_SEED)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    return captured.err


def test_sampler_breach_exits_3_naming_the_trial(monkeypatch, capsys):
    err = _breach(monkeypatch, capsys, lambda m: 1.5 * m)
    assert err.startswith(f"invariant breach: biseparable3 seed {BREACH_SEED} trial {BREACH_TRIAL}: trace must be 1")


def test_probability_sum_breach_exits_3_naming_the_trial(monkeypatch, capsys):
    # Unvalidated, a trace of 1.5 reaches the outcome-sum check.
    err = _breach(monkeypatch, capsys, lambda m: 1.5 * m, validate=False)
    prefix = f"invariant breach: biseparable3 seed {BREACH_SEED} trial {BREACH_TRIAL}: "
    assert err.startswith(prefix + "outcome probabilities sum to 1.5")


def test_pattern_sum_breach_exits_3_naming_the_trial(monkeypatch, capsys):
    # Unit trace but not positive: Hadamard-basis outcomes of even parity
    # get 1/8 + 1/2 and odd ones 1/8 - 1/2, which sum to 1, and tri5 holds
    # three even-parity patterns, 1.875 after clipping.
    def indefinite(m):
        out = np.eye(8, dtype=complex) / 8
        out[0, 7] = out[7, 0] = 2.0
        return out

    err = _breach(monkeypatch, capsys, indefinite, validate=False)
    prefix = f"invariant breach: biseparable3 seed {BREACH_SEED} trial {BREACH_TRIAL}: "
    assert err.startswith(prefix + "pattern sum 1.87")
    assert err.endswith(" exceeds 1\n")


def _poison(monkeypatch, change):
    """Let ``change`` rewrite the first part that trial BREACH_TRIAL draws."""
    original = states._biseparable_mixture

    def mixture(n, trial, seed):
        weights, parts = original(n, trial, seed)
        if trial == BREACH_TRIAL:
            parts[0] = change(*parts[0])
        return weights, parts

    monkeypatch.setattr(states, "_biseparable_mixture", mixture)


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda cut, w, draws: (cut, w, np.full_like(draws, np.nan)), "amplitudes must be finite"),
        (lambda cut, w, draws: (cut, w, np.zeros_like(draws)), "cannot normalise a zero vector"),
        (lambda cut, w, draws: (cut, -w, draws), "weights must be finite and non-negative"),
    ],
)
def test_sampler_guard_breach_exits_3_naming_the_trial(monkeypatch, capsys, change, message):
    # A guard inside the block sampler, on a stack of components or on one
    # trial's weights, fails for one trial: a breach, not bad input.
    _poison(monkeypatch, change)
    err = _breach_stderr(capsys)
    assert err == f"invariant breach: biseparable3 seed {BREACH_SEED} trial {BREACH_TRIAL}: {message}\n"
