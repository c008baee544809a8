"""Bound campaigns: sampler reference, pinned outputs and per-trial costs.

The campaign samplers build trials from raw arrays.  The reference below is
the object-based construction they replace (StateVector -> permute_parties
-> density() -> mix); both must give the same matrix entries bit for bit.
The campaign evaluates blocks of trials as one stack; its per-trial
reference is a loop of ``Witness.evaluate`` over the validated samples.
"""

import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mubcert.correlations as correlations
import mubcert.linalg as linalg
import mubcert.states as states
from mubcert import (
    BasisAssignment,
    StateVector,
    bipartitions,
    fourier_pair,
    ghz4,
    i3_witness,
    i4_witness,
    i_m_witness,
    mix,
    permute_parties,
    prime_mub_family,
    qubit_mub_triple,
    random_pure,
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


def _part(cut, seed, terms):
    """One mixture part from default_rng(seed): as the sampler draws it, or,
    with ``terms`` components, as the reference draws them."""
    rng = np.random.default_rng(seed)
    if terms is None:
        return states._draw(rng, cut, 1 if cut.axes is None else 2)
    weights = rng.dirichlet(np.ones(terms)) if terms > 1 else np.ones(1)
    return cut, weights, rng.standard_normal(terms * 2 * (cut.left + cut.right)).reshape(terms, -1)


def _sampled(dim, part):
    """The unvalidated entries the sampler builds from one part alone."""
    out = np.empty((1, dim, dim), dtype=np.complex128)
    states._fill(out, [(None, [part])])
    return out[0]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("terms", [None, 1, 3])
def test_random_biseparable_matches_reference_on_every_cut(n, terms):
    for cut in bipartitions(n):
        for seed in range(4):
            got = _sampled(2**n, _part(states._qubit_cut(n, cut), seed, terms))
            want = _ref_random_biseparable(n, cut, seed, terms=terms)
            assert np.array_equal(got, want.entries), (cut, seed)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("terms", [None, 1])
def test_random_separable_matches_reference(d, terms):
    for seed in range(8):
        got = _sampled(d * d, _part(states._Cut(d, d, None), seed, terms))
        want = _ref_random_separable(d, seed, terms=terms)
        assert got.shape == (d * d, d * d)
        assert np.array_equal(got, want.entries), seed
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
@given(st.integers(0, 2**70), st.integers(0, 2**33))
@example(2**64 + 3, 2**32 - 4)  # a block across the trials' one-to-two-word step
@example(2**70, 2**32 + 1)
def test_block_sampler_matches_reference_at_any_seed_and_start(seed, start):
    for sampler in BLOCK_SAMPLERS:
        _check_block(sampler, start, 9, seed)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("terms", [1, 3, None])
def test_one_stack_of_every_cut_matches_reference(n, terms):
    # Components of every cut and of several seeds, with a fixed count or
    # with the drawn ones, built as one stack per cut.  The four seeds draw
    # counts 2, 4, 3 and 5, so the drawn stack mixes every count.
    cuts = bipartitions(n)
    cases = [(cut, seed) for cut in cuts for seed in (DEFAULT_SEED, 5, 6, 7)]
    mixtures = [(None, [_part(states._qubit_cut(n, cut), seed, terms)]) for cut, seed in cases]
    counts = {len(draws) for _, [(_, _, draws)] in mixtures}
    assert counts == ({2, 3, 4, 5} if terms is None else {terms})
    out = np.empty((len(cases), 2**n, 2**n), dtype=np.complex128)
    states._fill(out, mixtures)
    for row, (cut, seed) in enumerate(cases):
        want = _ref_random_biseparable(n, cut, seed, terms=terms)
        assert np.array_equal(out[row], want.entries), (cut, seed)


# ---------------------------------------------------------------- seeding

# Seeds of 1 to 4 uint32 words and trials of 1 or 2: keys of 2 to 6 words,
# and mixed-cut slot keys of 3 to 7.
SEED_KEYS = [(seed, trial) for seed in (0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 1) for trial in (0, 63, 2**32)]
SEED_KEYS += [(seed, trial, s) for seed, trial in SEED_KEYS for s in (0, 1)]


def test_block_seeds_are_the_default_rng_seeds():
    # One call holds keys of every word count; a change to numpy's seeding
    # must fail here.
    word_counts = {len(states._uint32_words(seed)) + len(states._uint32_words(trial)) for seed, trial, *_ in SEED_KEYS}
    assert word_counts == {2, 3, 4, 5, 6}
    for key, (state, inc) in zip(SEED_KEYS, states._pcg64_seeds(SEED_KEYS)):
        want = np.random.default_rng(list(key)).bit_generator.state["state"]
        assert (state, inc) == (want["state"], want["inc"]), key


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_drawn_weights_are_numpys_dirichlet(k):
    # _draw takes unit-α Dirichlet weights as normalised exponentials; they
    # and the amplitudes drawn after them equal numpy's bit for bit.  Each
    # count is checked on the first 2,000 seeds whose stream draws it.
    cut = states._Cut(2, 2, None)
    drawing_k = (seed for seed in itertools.count() if np.random.default_rng(seed).integers(1, 6) == k)
    for seed in itertools.islice(drawing_k, 2000):
        _, weights, draws = states._draw(np.random.default_rng(seed), cut, 1)
        rng = np.random.default_rng(seed)
        assert len(weights) == rng.integers(1, 6) == k, seed
        want = rng.dirichlet(np.ones(k)) if k > 1 else np.ones(1)
        assert weights.tobytes() == want.tobytes(), seed
        assert draws.tobytes() == rng.standard_normal(draws.size).tobytes(), seed


def test_sampler_rejects_bad_arguments():
    with pytest.raises(ValueError):
        separable_block(1, 0, 1, np.empty((4, 1, 1), dtype=np.complex128))
    with pytest.raises(ValueError):
        biseparable_block(3, 0, -1, np.empty((4, 8, 8), dtype=np.complex128))
    with pytest.raises(ValueError):
        separable_block(2, -1, 1, np.empty((4, 4, 4), dtype=np.complex128))


# ------------------------------------------------------- pinned outputs

# check-bounds stdout at 200 trials and the default seed, recorded before
# the samplers moved to raw arrays.  The biseparable4 and d = 5 values were
# re-pinned when set values became one dot product with a set projector
# (moved by 6.7e-16 and 2.9e-15).
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
  "max_i": 1.1613316494349901,
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
  "max_i": 1.5599580189846691,
  "pass": true,
  "seed": 20260816,
  "trials": 200,
  "worst_trial": 34
}
""",
    # A seed of three uint32 words (2^64 + 3): trial keys of four words and
    # mixed-cut slot keys of five.  Recorded before the blocks seeded their
    # trials' generators at once.
    ("--class", "biseparable3", "--seed", "18446744073709551619"): """{
  "bound": 1.625,
  "class": "biseparable3",
  "max_i": 1.3419201057686412,
  "pass": true,
  "seed": 18446744073709551619,
  "trials": 200,
  "worst_trial": 49
}
""",
    # 2 D^2 = 13,122 floats per matrix: read one row at a time.
    ("--class", "separable-bipartite", "--d", "9"): """{
  "bound": 1.1111111111111112,
  "class": "separable-bipartite",
  "d": 9,
  "m": 2,
  "max_i": 0.3579136793575048,
  "pass": true,
  "seed": 20260816,
  "trials": 200,
  "worst_trial": 191
}
""",
}


@pytest.mark.parametrize("args", list(GOLDEN_CHECK_BOUNDS))
def test_check_bounds_stdout_is_pinned(args, capsys):
    code = main(["check-bounds", *args, "--trials", "200"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_CHECK_BOUNDS[args]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("args", list(GOLDEN_CHECK_BOUNDS))
def test_check_bounds_stdout_does_not_depend_on_the_worker_count(args, workers):
    # The only workers left are BLAS threads: each set value is made of
    # ddots short enough for one thread, however many there are.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(workers), "OMP_NUM_THREADS": str(workers)}
    command = [sys.executable, "-m", "mubcert", "check-bounds", *args, "--trials", "200"]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == GOLDEN_CHECK_BOUNDS[args]


@pytest.mark.parametrize(
    "dim, witness",
    [
        (8, i3_witness),
        (16, i4_witness),
        (25, lambda: i_m_witness(prime_mub_family(5))),
        (81, lambda: i_m_witness(fourier_pair(9))),  # read one matrix row at a time
    ],
)
def test_split_reads_equal_the_unsplit_ones_bit_for_bit(dim, witness):
    # Sampled density matrices and unit-trace hermitian noise (scaled to
    # keep every set value in range), read whole, one row at a time and in
    # unequal row ranges.
    witness = witness()
    rng = np.random.default_rng(dim)
    sampled = np.empty((64, dim, dim), dtype=np.complex128)
    if dim in (25, 81):
        separable_block(math.isqrt(dim), 0, DEFAULT_SEED, sampled)
    else:
        biseparable_block(dim.bit_length() - 1, 0, DEFAULT_SEED, sampled)
    noise = rng.standard_normal((64, dim, dim)) + 1j * rng.standard_normal((64, dim, dim))
    noise = (noise + noise.conj().transpose(0, 2, 1)) / (8 * dim)
    noise += np.eye(dim) * (1 - noise.trace(axis1=1, axis2=2))[:, None, None] / dim
    for stack in (sampled, noise):
        whole = witness._set_values(stack, witness._ops)
        assert whole.shape == (64, sum(len(sets) for _, sets in witness.terms))
        for bounds in ([0, 64], list(range(65)), [0, 1, 2, 63, 64], [0, 30, 64]):
            parts = [witness._set_values(stack[a:b], witness._ops) for a, b in zip(bounds[:-1], bounds[1:])]
            assert np.array_equal(np.concatenate(parts).view(np.uint64), whole.view(np.uint64)), bounds


def test_outcome_distribution_is_the_clipped_einsum():
    z, x, _ = qubit_mub_triple().bases
    zzx = BasisAssignment((z, z, x))
    rho = random_pure((2, 2, 2), 5).density()
    want = np.einsum("ji,jk,ki->i", zzx.product_unitary.conj(), rho.entries, zzx.product_unitary).real
    assert np.array_equal(correlations.outcome_distribution(rho, zzx), want.clip(0.0, 1.0))


# ----------------------------------------------------------- trial costs


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_i3_and_i4_take_no_outcome_distribution(monkeypatch):
    # Every set value, searched or not, is a dot product with a set
    # projector; no outcome distribution is built.
    rho3 = random_pure((2, 2, 2), 11).density()
    rho4 = ghz4(0.4).density()
    calls = _count_calls(monkeypatch, correlations, "outcome_distribution")
    einsums = _count_calls(monkeypatch, np, "einsum")
    for basis_search in (False, True):
        i3_witness().evaluate(rho3, basis_search)
        i4_witness().evaluate(rho4, basis_search)
    assert calls == einsums == []


CAMPAIGNS = [
    ("biseparable3", {}),
    ("biseparable4", {}),
    ("separable-bipartite", {"d": 3}),
    ("separable-bipartite", {"d": 5, "complete_family": True}),
]


@pytest.mark.parametrize("klass, options", CAMPAIGNS + [("separable-bipartite", {"d": 2})])
def test_campaign_accepts_its_trials_without_eigvalsh(monkeypatch, klass, options):
    # The Cholesky test accepts every sampled block; eigvalsh runs only on
    # a stack it cannot factor.
    calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    run_bound_campaign(klass, 200, DEFAULT_SEED, **options)
    assert len(calls) == 0


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


@pytest.mark.parametrize("klass, options", [CAMPAIGNS[1], CAMPAIGNS[3], CAMPAIGNS[0]])
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


def _breach(monkeypatch, capsys, entries, validate=True, trial=BREACH_TRIAL):
    """Run a 3-qubit campaign whose trial ``trial`` has ``entries``."""
    original = cli.biseparable_block

    def sample(n, start, seed, out):
        original(n, start, seed, out)
        row = trial - start
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
    # three even-parity and two odd-parity patterns: 15/8 - 6/8.
    def indefinite(m):
        out = np.eye(8, dtype=complex) / 8
        out[0, 7] = out[7, 0] = 2.0
        return out

    err = _breach(monkeypatch, capsys, indefinite, validate=False)
    prefix = f"invariant breach: biseparable3 seed {BREACH_SEED} trial {BREACH_TRIAL}: "
    assert err.startswith(prefix + "pattern sum 1.125")
    assert err.endswith(" exceeds 1\n")


def _poison(monkeypatch, change, trial=BREACH_TRIAL, part=0):
    """Let ``change`` rewrite part ``part`` of the parts that ``trial`` draws."""
    original = states._biseparable_mixture

    def mixture(n, t, seed, streams):
        weights, parts = original(n, t, seed, streams)
        if t == trial:
            parts[part] = change(*parts[part])
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


def test_weight_breach_names_the_first_trial_not_the_first_part(monkeypatch, capsys):
    # The mixed-cut trial 67 has a bad second part, the later trial 70 a bad
    # first part: the trial order decides, as mixing one trial at a time does.
    assert 67 % (len(bipartitions(3)) + 1) == len(bipartitions(3))
    _poison(monkeypatch, lambda cut, w, draws: (cut, -w, draws), trial=67, part=1)
    _poison(monkeypatch, lambda cut, w, draws: (cut, np.zeros_like(w), draws), trial=70)
    err = _breach_stderr(capsys)
    assert err == f"invariant breach: biseparable3 seed {BREACH_SEED} trial 67: weights must be finite and non-negative\n"


def _indefinite(m):
    # Unit trace but not positive (see test_pattern_sum_breach_exits_3_naming_the_trial).
    out = np.eye(8, dtype=complex) / 8
    out[0, 7] = out[7, 0] = 2.0
    return out


@pytest.mark.parametrize(
    "entries, validate",
    [(lambda m: 1.5 * m, True), (_indefinite, True), (lambda m: 1.5 * m, False), (_indefinite, False)],
    ids=["trace", "eigenvalue", "outcome-sum", "pattern-sum"],
)
def test_breach_under_a_forced_split_names_the_same_trial(monkeypatch, capsys, entries, validate):
    # Trial 94 is row 30 of the second block of 64; split into blocks of 18
    # instead, it is row 4 of the sixth.  The breach must read alike.
    trial = BLOCK_ROWS + 30
    with monkeypatch.context() as m:
        whole = _breach(m, capsys, entries, validate, trial)
    with monkeypatch.context() as m:
        m.setattr(cli, "BLOCK_ROWS", 18)
        split = _breach(m, capsys, entries, validate, trial)
    assert split == whole
    assert split.startswith(f"invariant breach: biseparable3 seed {BREACH_SEED} trial {trial}: ")


def test_split_campaign_process_exits_promptly():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    command = [sys.executable, "-m", "mubcert", "check-bounds", "--class", "separable-bipartite", "--d", "5",
               "--complete-family", "--trials", "200"]
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == GOLDEN_CHECK_BOUNDS[("--class", "separable-bipartite", "--d", "5", "--complete-family")]
    assert time.monotonic() - start < 60


# ------------------------------------------------------------- threads


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--family", "ghz4", "--basis-search"],
        ["locc", "--grid", "7"],
        ["check-bounds", "--class", "separable-bipartite", "--d", "5", "--complete-family", "--trials", "70"],
        ["sweep", "--family", "ghz4", "--steps", "70"],
        ["figures", "--steps", "70", "--grid", "7"],
    ],
    ids=lambda a: a[0],
)
def test_no_command_starts_a_thread(monkeypatch, capsys, tmp_path, argv):
    started = []
    original = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    extra = ["--out-dir", str(tmp_path)] if argv[0] in ("locc", "figures") else []
    before = threading.active_count()
    assert main([*argv, *extra]) == 0
    assert started == []
    assert threading.active_count() == before
    capsys.readouterr()


def test_blocks_filled_at_once_in_threads_match_serial_fills():
    # Each block call sets a generator of its own, so four threads (more
    # than the cores) filling four-qubit and d = 5 blocks at the same time,
    # with a short switch interval, get the bits of serial fills.
    jobs = [(biseparable_block, 4, 16, 0), (separable_block, 5, 25, BLOCK_ROWS),
            (biseparable_block, 4, 16, BLOCK_ROWS), (separable_block, 5, 25, 0)]

    def fill(job):
        sample, size, dim, start = job
        out = np.empty((BLOCK_ROWS, dim, dim), dtype=np.complex128)
        sample(size, start, DEFAULT_SEED, out)
        return out.tobytes()

    serial = [fill(job) for job in jobs]
    filled = [[] for _ in jobs]
    threads = [threading.Thread(target=lambda i=i: filled[i].extend(fill(jobs[i]) for _ in range(5)))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [[got == want for got in runs] for runs, want in zip(filled, serial)] == [[True] * 5] * len(jobs)
