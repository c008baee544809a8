"""Mutual-predictability correlations, pattern sums, certification reports,
and the independent oracle route."""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mubcert import (
    BasisAssignment,
    CertificationReport,
    DensityMatrix,
    InvariantError,
    LbpsPatternSet,
    StateVector,
    Witness,
    computational_basis,
    diagonal_set,
    fourier_basis,
    fourier_pair,
    ghz3,
    ghz4,
    i3,
    i3_oracle,
    i3_witness,
    i4,
    i4_oracle,
    i4_witness,
    i_m_bipartite,
    i_m_witness,
    joint_probability,
    lbps_quadripartite,
    lbps_tripartite,
    mix,
    outcome_distribution,
    partial_trace,
    prime_mub_family,
    psi_lambda,
    qubit_mub_triple,
    random_pure,
    uniform_setting,
    w3,
)
import mubcert.correlations as correlations
from mubcert.correlations import (
    QUADRIPARTITE_BOUND,
    TRIPARTITE_BOUND,
    paper_i2_psi_lambda,
    paper_i3_ghz3,
    paper_i4_ghz4,
)
from mubcert.measures import global_q_stack, triangle_tau_stack

HADAMARD = (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)).astype(np.complex128)


def _computational(n):
    return uniform_setting(computational_basis(2), n)


def _hadamard(n):
    return uniform_setting(fourier_basis(2), n)


# ------------------------------------------------------------- settings


def test_hadamard_setting_product_vector():
    vec = _hadamard(2).product_unitary[:, 0]
    assert np.allclose(vec, np.full(4, 0.5), atol=1e-12)


def test_product_unitary_is_the_kron_chain_bit_for_bit():
    # Every qubit-triple choice the basis search builds, and d = 3, 5 pairs.
    triple = qubit_mub_triple().bases
    choices = [tuple(triple[k] for k in c) for n in (3, 4) for c in itertools.product(range(3), repeat=n)]
    choices += [b for d in (3, 5) for b in itertools.product(prime_mub_family(d).bases, repeat=2)]
    for bases in choices:
        want = bases[0].vectors
        for b in bases[1:]:
            want = np.kron(want, b.vectors)
        assert np.array_equal(BasisAssignment(bases).product_unitary, want)


def test_uniform_setting_matches_computational():
    pair = fourier_pair(2)
    setting = uniform_setting(pair.bases[0], 3)
    assert np.allclose(setting.product_unitary, np.eye(8), atol=1e-12)
    assert setting.n_parties == 3
    assert setting.dims == (2, 2, 2)


# ------------------------------------------------- probability invariants


def test_joint_probability_completeness():
    # all d^n outcomes of any setting sum to one
    for seed in range(10):
        rho = random_pure((2, 2, 2), seed).density()
        for setting in (_computational(3), _hadamard(3)):
            total = math.fsum(
                joint_probability(rho, setting, (a, b, c))
                for a in range(2)
                for b in range(2)
                for c in range(2)
            )
            assert abs(total - 1.0) <= 1e-9


def test_outcome_distribution_matches_pointwise():
    rho = random_pure((2, 2), 3).density()
    setting = _hadamard(2)
    dist = outcome_distribution(rho, setting)
    assert dist.shape == (4,)
    assert abs(math.fsum(dist) - 1.0) <= 1e-9
    for idx, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert abs(dist[idx] - joint_probability(rho, setting, (a, b))) <= 1e-12


def test_joint_probability_linearity():
    setting = _hadamard(3)
    r1 = random_pure((2, 2, 2), 1).density()
    r2 = random_pure((2, 2, 2), 2).density()
    for w in (0.0, 0.3, 0.7, 1.0):
        blend = mix([r1, r2], [w, 1.0 - w]) if 0.0 < w < 1.0 else (r1 if w == 1.0 else r2)
        for outcome in ((0, 0, 0), (1, 0, 1)):
            direct = joint_probability(blend, setting, outcome)
            combo = w * joint_probability(r1, setting, outcome) + (1.0 - w) * joint_probability(
                r2, setting, outcome
            )
            assert abs(direct - combo) <= 1e-12


# -------------------------------------------------------------- bipartite


def test_i_m_per_basis_known_values():
    # c_per_basis holds the mutual predictability of each basis of the pair.
    witness = i_m_witness(fourier_pair(2))
    bell = psi_lambda(0.5).density()
    assert abs(witness.evaluate(bell).c_per_basis[0] - 1.0) <= 1e-12
    ket00 = psi_lambda(1.0).density()
    assert abs(witness.evaluate(ket00).c_per_basis[1] - 0.5) <= 1e-12


def test_i2_bell_and_product():
    report = i_m_bipartite(psi_lambda(0.5).density(), fourier_pair(2))
    assert report.i_value == 2.0
    assert report.violated
    assert report.bound == 1.5
    assert report.c_per_basis is not None and len(report.c_per_basis) == 2
    flat = i_m_bipartite(psi_lambda(1.0).density(), fourier_pair(2))
    assert abs(flat.i_value - 1.5) <= 1e-12
    assert not flat.violated


def test_i2_psi_lambda_closed_form():
    pair = fourier_pair(2)
    for lam in np.linspace(0.0, 1.0, 21):
        lam = float(lam)
        value = i_m_bipartite(psi_lambda(lam).density(), pair).i_value
        assert abs(value - paper_i2_psi_lambda(lam)) <= 1e-9


def test_i2_qutrit_bounds():
    ket00 = StateVector((3, 3), np.eye(9)[0]).density()
    pair_report = i_m_bipartite(ket00, fourier_pair(3))
    assert abs(pair_report.bound - (1 + 1 / 3)) <= 1e-12
    assert abs(pair_report.i_value - (1 + 1 / 3)) <= 1e-12
    assert not pair_report.violated
    complete_report = i_m_bipartite(ket00, prime_mub_family(3))
    assert abs(complete_report.bound - 2.0) <= 1e-12
    assert not complete_report.violated


def test_i2_requires_matching_dims():
    with pytest.raises(ValueError):
        i_m_bipartite(StateVector((2, 3), np.eye(6)[0]).density(), fourier_pair(2))


def test_families_and_i_m_witnesses_are_built_once():
    assert fourier_pair(2) is fourier_pair(2)
    assert prime_mub_family(3) is prime_mub_family(3)
    assert qubit_mub_triple() is qubit_mub_triple()
    for family in (fourier_pair(2), fourier_pair(5), prime_mub_family(3)):
        assert i_m_witness(family) is i_m_witness(family)
    # A family built outside the cache gets its own witness.
    fresh = fourier_pair.__wrapped__(2)
    assert i_m_witness(fresh) is not i_m_witness(fourier_pair(2))


# ------------------------------------------------------------ pattern sets


def test_tripartite_registry():
    sets = lbps_tripartite()
    assert [s.name for s in sets] == ["tri1", "tri2", "tri3", "tri4", "tri5", "tri6"]
    for s in sets:
        assert len(s.patterns) == 5
        assert all(len(p) == 3 for p in s.patterns)
        assert (0, 0, 0) in s.patterns and (1, 1, 1) in s.patterns
    assert len({s.patterns for s in sets}) == 6


def test_quadripartite_registry():
    quad = lbps_quadripartite()
    assert quad.name == "quad1"
    assert len(quad.patterns) == 12
    assert all(len(p) == 4 for p in quad.patterns)
    parities = [sum(p) % 2 for p in quad.patterns]
    assert parities.count(0) == 7 and parities.count(1) == 5


def test_diagonal_set():
    assert diagonal_set(3).patterns == ((0, 0, 0), (1, 1, 1))
    assert diagonal_set(2, d=3).patterns == ((0, 0), (1, 1), (2, 2))


def test_pattern_set_validation():
    with pytest.raises(ValueError):
        LbpsPatternSet("bad", ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        LbpsPatternSet("bad", ((0, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        LbpsPatternSet("bad", ())


def test_witness_pattern_sums_ghz():
    rho = ghz3(math.pi / 4).density()
    tri4 = lbps_tripartite()[3]
    terms = ((_computational(3), (diagonal_set(3),)), (_hadamard(3), (tri4,)))
    report = Witness(terms, TRIPARTITE_BOUND).evaluate(rho)
    # three even-parity plus two odd-parity strings: (5 + sin 2theta)/8
    assert abs(report.c_second - 0.75) <= 1e-12
    assert abs(report.c_first - 1.0) <= 1e-12


def test_witness_best_set_tie_breaks_to_first_listed():
    # |000> is uniform in the Hadamard setting: every 5-pattern set gives 5/8
    rho = ghz3(0.0).density()
    report = i3_witness().evaluate(rho)
    assert abs(report.c_second - 0.625) <= 1e-12
    assert report.attaining_set_second == "tri1"


# ----------------------------------------------------------------- witness


@pytest.mark.parametrize(
    "witness, dims",
    [
        (i_m_witness(fourier_pair(2)), (2, 2)),
        (i_m_witness(prime_mub_family(3)), (3, 3)),
        (i_m_witness(fourier_pair(5)), (5, 5)),
        (i4_witness(), (2, 2, 2, 2)),
    ],
)
def test_witness_operator_gives_the_value_as_a_trace(witness, dims):
    w = next(witness.operators())[0]
    assert float(np.max(np.abs(w - w.conj().T))) <= 1e-15
    for seed in range(5):
        rho = random_pure(dims, [7, seed]).density()
        trace = float(np.real(np.trace(rho.entries @ w)))
        assert abs(trace - witness.evaluate(rho).i_value) <= 1e-12


def test_witness_validation():
    setting = _computational(3)
    with pytest.raises(ValueError):
        Witness(((setting, (diagonal_set(3),)),), 1.0)
    with pytest.raises(ValueError):
        Witness(((setting, (diagonal_set(3),)), (setting, ())), 1.0)
    with pytest.raises(ValueError):
        Witness(((setting, (diagonal_set(3),)), (setting, (diagonal_set(2),))), 1.0)
    with pytest.raises(ValueError, match="basis search"):
        i_m_witness(prime_mub_family(3)).evaluate(random_pure((3, 3), 1).density(), True)


def test_witness_dims_come_from_its_terms():
    assert i3_witness().dims == (2, 2, 2)
    assert i4_witness().dims == (2, 2, 2, 2)
    assert i_m_witness(prime_mub_family(3)).dims == (3, 3)


@pytest.mark.parametrize("basis_search", [False, True])
def test_i3_witness_rejects_four_qubits(basis_search):
    with pytest.raises(ValueError, match="witness dims"):
        i3_witness().evaluate(random_pure((2, 2, 2, 2), 4).density(), basis_search)


@pytest.mark.parametrize("basis_search", [False, True])
def test_i4_witness_rejects_three_qubits(basis_search):
    with pytest.raises(ValueError, match="witness dims"):
        i4_witness().evaluate(random_pure((2, 2, 2), 3).density(), basis_search)


@pytest.mark.parametrize(
    "entries, shape",
    [(np.eye(4)[None] / 4, (1, 4, 4)), (np.eye(8) / 8, (8, 8))],
    ids=["wrong-dim", "bare-matrix"],
)
def test_read_rejects_a_stack_of_the_wrong_shape(monkeypatch, entries, shape):
    # Refused before any other work: the density check never runs.
    monkeypatch.setattr(correlations, "density_defect", lambda m: pytest.fail("density_defect ran"))
    message = rf"expected a \(T, 8, 8\) stack for dims \(2, 2, 2\), got shape {re.escape(str(shape))}"
    with pytest.raises(ValueError, match=message):
        i3_witness().read(entries.astype(complex))


@pytest.mark.parametrize(
    "witness", [i3_witness(), i4_witness(), i_m_witness(prime_mub_family(5))], ids=["i3", "i4", "i_m"]
)
def test_read_of_an_empty_stack_is_empty(witness):
    dim = math.prod(witness.dims)
    i_values, values, sets = witness.read(np.empty((0, dim, dim), dtype=np.complex128))
    k = len(witness.terms)
    assert (i_values.shape, values.shape, sets.shape) == ((0,), (0, k), (0, k))
    assert triangle_tau_stack(np.empty((0, 8, 8), dtype=np.complex128)) == []
    assert global_q_stack(np.empty((0, 16, 16), dtype=np.complex128)) == []


def test_witness_terms_must_share_dims():
    three = (_computational(3), (diagonal_set(3),))
    two = (_computational(2), (diagonal_set(2),))
    with pytest.raises(ValueError, match="different dims"):
        Witness((three, two), 1.0)


# Both states below pass DensityMatrix's checks (eigenvalues down to
# -PSD_TOL), so their probabilities may stray outside [0, 1] by that much.


def test_pattern_sum_admits_every_density_matrix(monkeypatch):
    rho = DensityMatrix((2, 2, 2), np.diag([0.5 + 5e-10, -1e-9, 0, 0, 0, 0, 0, 0.5 + 5e-10]))
    report = i3(rho)
    assert report.c_first == 1.0
    assert report.attaining_set_first == "diagonal"
    # A pattern sum beyond that slack is still an internal breach, above 1
    # or below 0: unit-trace diagonals that validation would reject.
    monkeypatch.setattr(correlations, "density_defect", lambda m: None)
    with pytest.raises(InvariantError, match=r"pattern sum 1\.1 exceeds 1"):
        i3_witness().read(np.diag([0.6, 0, 0, 0, 0, 0, -0.1, 0.5]).astype(complex)[None])
    with pytest.raises(InvariantError, match=r"pattern sum -0\.1 is below 0") as raised:
        i3_witness().read(np.array([np.eye(8) / 8, np.diag([-0.1, 0.6, 0.5, 0, 0, 0, 0, 0])], dtype=complex))
    assert raised.value.row == 1


def _random_mixed(dims, seed):
    """A seeded full-rank mixture of three Haar-random pure states."""
    rng = np.random.default_rng(seed)
    parts = [random_pure(dims, [seed, k]).density() for k in range(3)]
    return mix(parts, rng.random(3))


@pytest.mark.parametrize(
    "witness, count",
    [(i3_witness(), 6), (i4_witness(), 1), (i_m_witness(fourier_pair(2)), 1), (i_m_witness(prime_mub_family(5)), 1)],
    ids=["i3", "i4", "i2", "i6-d5"],
)
def test_witness_operators_give_the_value_as_a_largest_trace(witness, count):
    operators = list(witness.operators())
    assert len(operators) == count
    for w, names in operators:
        assert float(np.max(np.abs(w - w.conj().T))) <= 1e-15
        assert len(names) == len(witness.terms)
    for seed in range(10):
        rho = _random_mixed(witness.dims, seed)
        traces = [float(np.real(np.trace(rho.entries @ w))) for w, _ in operators]
        report = witness.evaluate(rho)
        assert abs(max(traces) - report.i_value) <= 1e-12
        best = operators[int(np.argmax(traces))][1]
        assert (best[0], best[-1]) == (report.attaining_set_first, report.attaining_set_second)


def test_i3_operators_choose_each_tri_set_once():
    names = [names for _, names in i3_witness().operators()]
    assert names == [("diagonal", s.name) for s in lbps_tripartite()]


def _outer_product_sum(witness, choice):
    """Reference: sum of |v><v| over the product vectors of the chosen set of
    each term, term by term, each vector taken from its setting's columns."""
    dim = math.prod(witness.dims)
    w = np.zeros((dim, dim), dtype=np.complex128)
    for (setting, sets), k in zip(witness.terms, choice):
        for pattern in sets[k].patterns:
            v = setting.product_unitary[:, np.ravel_multi_index(pattern, setting.dims)]
            w += np.outer(v, v.conj())
    return w


@pytest.mark.parametrize("witness", [i3_witness(), i4_witness()], ids=["i3", "i4"])
def test_witness_operators_are_outer_product_sums(witness):
    choices = list(itertools.product(*(range(len(sets)) for _, sets in witness.terms)))
    operators = list(witness.operators())
    assert len(operators) == len(choices)
    for (w, _), choice in zip(operators, choices):
        assert np.array_equal(w, _outer_product_sum(witness, choice))


@pytest.mark.parametrize(
    "outcome, message",
    [
        ((0, 1, 0), r"outcome \(0, 1, 0\) does not match 2 parties"),
        ((0, 2), r"outcome \(0, 2\) out of range for dims \(2, 2\)"),
        ((-1, 0), r"outcome \(-1, 0\) out of range for dims \(2, 2\)"),
    ],
    ids=["wrong-length", "too-large", "negative"],
)
def test_joint_probability_rejects_a_bad_outcome(outcome, message):
    rho = random_pure((2, 2), 3).density()
    with pytest.raises(ValueError, match=message):
        joint_probability(rho, _hadamard(2), outcome)


def test_joint_probability_admits_every_density_matrix():
    rho = DensityMatrix((2, 2), np.diag([1 + 5e-10, -5e-10, 0, 0]))
    assert joint_probability(rho, _computational(2), (0, 1)) == 0.0
    assert joint_probability(rho, _computational(2), (0, 0)) == 1.0


# ---------------------------------------------------------- certification


def test_i3_ghz_curve():
    for theta in np.linspace(0.0, math.pi / 2, 25):
        theta = float(theta)
        report = i3(ghz3(theta).density())
        assert abs(report.i_value - paper_i3_ghz3(theta)) <= 1e-9


def test_i3_ghz_peak_report():
    report = i3(ghz3(math.pi / 4).density())
    assert abs(report.i_value - 1.75) <= 1e-9
    assert report.violated
    assert report.bound == TRIPARTITE_BOUND
    assert report.attaining_set_first == "diagonal"
    assert report.attaining_set_second == "tri4"
    assert abs(report.i_value - (report.c_first + report.c_second)) <= 1e-12


def test_readme_quick_start_prints_what_it_says(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    printed = capsys.readouterr().out.split()
    # Each print line's comment starts with what it prints.
    said = [line.split("# ", 1)[1].split(":")[0] for line in block.splitlines() if line.startswith("print(")]
    assert printed == said
    assert (float(printed[0]), printed[1:]) == (pytest.approx(1.75, abs=1e-12), ["1.625", "True"])


def test_i3_product_state_sits_at_bound():
    report = i3(ghz3(0.0).density())
    assert abs(report.i_value - 1.625) <= 1e-12
    assert not report.violated
    assert report.attaining_set_second == "tri1"


def test_i3_rejects_wrong_shape():
    with pytest.raises(ValueError):
        i3(psi_lambda(0.5).density())


def test_i4_reports():
    report = i4(ghz4(math.pi / 4).density())
    assert abs(report.i_value - 1.875) <= 1e-9
    assert report.violated
    assert report.bound == QUADRIPARTITE_BOUND
    flat = i4(ghz4(0.0).density())
    assert abs(flat.i_value - 1.75) <= 1e-10
    assert abs(flat.c_first - 1.0) <= 1e-12
    assert abs(flat.c_second - 0.75) <= 1e-12
    assert not flat.violated
    assert flat.attaining_set_second == "quad1"


def test_i4_ghz_curve_matches_pattern_derivation():
    for theta in np.linspace(0.0, math.pi / 2, 25):
        theta = float(theta)
        expected = 1.0 + (12.0 + 2.0 * math.sin(2.0 * theta)) / 16.0
        assert abs(i4(ghz4(theta).density()).i_value - expected) <= 1e-9
        # the published closed form disagrees with the pattern derivation
    assert abs(paper_i4_ghz4(math.pi / 4) - 1.875) > 1e-3


def test_w3_detected_nowhere_near_its_gme_point():
    # sufficiency, not necessity: genuinely entangled yet below the bound
    rho = w3(1.45, math.pi / 4).density()
    report = i3(rho)
    assert not report.violated
    for party in range(3):
        assert np.sum(np.linalg.eigvalsh(partial_trace(rho, [party]).entries) > 1e-9) == 2


def test_local_phase_invariance_of_first_term():
    rng = np.random.default_rng(17)
    for seed in range(10):
        psi = random_pure((2, 2, 2), seed)
        phases = [np.diag([1.0, np.exp(1j * rng.uniform(0, 2 * math.pi))]) for _ in range(3)]
        dressed = StateVector(
            (2, 2, 2), np.kron(np.kron(phases[0], phases[1]), phases[2]) @ psi.amplitudes
        )
        delta = abs(i3(psi.density()).c_first - i3(dressed.density()).c_first)
        assert delta <= 1e-12


def test_basis_search_recovers_rotated_state():
    rotated = StateVector(
        (2, 2, 2), np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD) @ ghz3(math.pi / 4).amplitudes
    )
    rho = rotated.density()
    assert i3(rho).i_value < 1.3
    searched = i3_witness().evaluate(rho, basis_search=True)
    assert abs(searched.i_value - 1.75) <= 1e-9
    assert searched.violated


def test_report_invariants_enforced():
    with pytest.raises(InvariantError):
        CertificationReport(
            c_first=1.0,
            c_second=0.5,
            i_value=1.7,
            bound=1.625,
            violated=True,
            attaining_set_first="diagonal",
            attaining_set_second="tri1",
        )
    with pytest.raises(InvariantError):
        CertificationReport(
            c_first=1.0,
            c_second=0.5,
            i_value=1.5,
            bound=1.625,
            violated=True,
            attaining_set_first="diagonal",
            attaining_set_second="tri1",
        )


def test_report_to_dict():
    d = i3(ghz3(math.pi / 4).density()).to_dict()
    assert set(d) == {
        "c_first",
        "c_second",
        "i_value",
        "bound",
        "violated",
        "attaining_set_first",
        "attaining_set_second",
    }
    assert d["violated"] is True


# ----------------------------------------------------------------- oracle


def test_oracle_matches_fast_path_on_random_states():
    for seed in range(100):
        rho = random_pure((2, 2, 2), [1, seed]).density()
        assert abs(i3(rho).i_value - i3_oracle(rho)) <= 1e-10
    for seed in range(50):
        rho = random_pure((2, 2, 2, 2), [2, seed]).density()
        assert abs(i4(rho).i_value - i4_oracle(rho)) <= 1e-10


def _qubit_product(angles) -> StateVector:
    amps = np.ones(1)
    for t in angles:
        amps = np.kron(amps, [math.cos(t / 2), math.sin(t / 2)])
    return StateVector((2,) * len(angles), amps)


def test_product_states_exceed_the_paper_bounds():
    # Fully product, hence biseparable, yet above 13/8 and 7/4 (ROADMAP item 1).
    rho3 = _qubit_product((0.14, -0.6, 0.14)).density()
    report3 = i3(rho3)
    assert abs(report3.i_value - i3_oracle(rho3)) <= 1e-10
    assert abs(report3.i_value - 1.756751) <= 1e-6
    assert report3.i_value > TRIPARTITE_BOUND + 0.1
    assert report3.violated
    rho4 = _qubit_product((-0.37, -0.16, 0.16, 0.16)).density()
    report4 = i4(rho4)
    assert abs(report4.i_value - i4_oracle(rho4)) <= 1e-10
    assert abs(report4.i_value - 1.825992) <= 1e-6
    assert report4.i_value > QUADRIPARTITE_BOUND + 0.07
    assert report4.violated


def test_oracle_on_pinned_states():
    assert abs(i3_oracle(ghz3(0.3).density()) - paper_i3_ghz3(0.3)) <= 1e-10
    assert abs(i4_oracle(ghz4(0.0).density()) - 1.75) <= 1e-10


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_reads_each_pattern_once_and_sums_in_set_order(monkeypatch, n):
    # I3's six tri sets hold all 8 patterns: 2 diagonal reads and 8 others.
    # I4's one quad set holds 12.
    oracle, sets = (i3_oracle, lbps_tripartite()) if n == 3 else (i4_oracle, [lbps_quadripartite()])
    rho = random_pure((2,) * n, [3, n]).density()
    z, x = (uniform_setting(b, n) for b in fourier_pair(2).bases)
    probability = correlations._oracle_probability
    first = probability(rho, z, (0,) * n) + probability(rho, z, (1,) * n)
    best = None
    for s in sets:
        total = 0.0
        for pattern in s.patterns:
            total = total + probability(rho, x, pattern)
        best = total if best is None or total > best else best
    calls = []
    monkeypatch.setattr(correlations, "_oracle_probability", lambda *args: calls.append(1) or probability(*args))
    assert oracle(rho) == first + best
    assert len(calls) == {3: 10, 4: 14}[n]
