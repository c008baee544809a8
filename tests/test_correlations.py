"""Mutual-predictability correlations, pattern sums, certification reports,
and the independent oracle route."""

import math

import numpy as np
import pytest

from mubcert import (
    CertificationReport,
    InvariantError,
    LbpsPatternSet,
    StateVector,
    Witness,
    computational_setting,
    diagonal_set,
    fourier_pair,
    ghz3,
    ghz4,
    hadamard_setting,
    i3,
    i3_oracle,
    i3_witness,
    i4,
    i4_oracle,
    i4_witness,
    i_m_bipartite,
    i_m_witness,
    joint_probability,
    kron,
    lbps_quadripartite,
    lbps_tripartite,
    mix,
    outcome_distribution,
    partial_trace,
    prime_mub_family,
    psi_lambda,
    random_pure,
    reduced_rank,
    uniform_setting,
    w3,
)
from mubcert.correlations import (
    QUADRIPARTITE_BOUND,
    TRIPARTITE_BOUND,
    paper_i2_psi_lambda,
    paper_i3_ghz3,
    paper_i4_ghz4,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


# ------------------------------------------------------------- settings


def test_hadamard_setting_product_vector():
    setting = hadamard_setting(2)
    vec = setting.product_vector((0, 0))
    assert np.allclose(vec, np.full(4, 0.5), atol=1e-12)


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
        for setting in (computational_setting(3), hadamard_setting(3)):
            total = math.fsum(
                joint_probability(rho, setting, (a, b, c))
                for a in range(2)
                for b in range(2)
                for c in range(2)
            )
            assert abs(total - 1.0) <= 1e-9


def test_outcome_distribution_matches_pointwise():
    rho = random_pure((2, 2), 3).density()
    setting = hadamard_setting(2)
    dist = outcome_distribution(rho, setting)
    assert dist.shape == (4,)
    assert abs(math.fsum(dist) - 1.0) <= 1e-9
    for idx, (a, b) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        assert abs(dist[idx] - joint_probability(rho, setting, (a, b))) <= 1e-12


def test_joint_probability_linearity():
    setting = hadamard_setting(3)
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


def test_i2_reuses_prebuilt_settings():
    family = prime_mub_family(3)
    witness = i_m_witness(family)
    rho = random_pure((3, 3), 8).density()
    assert i_m_bipartite(rho, family, witness) == i_m_bipartite(rho, family)
    with pytest.raises(ValueError):
        i_m_bipartite(rho, family, Witness(witness.terms[:2], witness.bound, exact=True))
    with pytest.raises(ValueError):
        i_m_bipartite(rho, family, i_m_witness(prime_mub_family(3)))


# ------------------------------------------------------------ pattern sets


def test_tripartite_registry():
    sets = lbps_tripartite()
    assert [s.name for s in sets] == ["tri1", "tri2", "tri3", "tri4", "tri5", "tri6"]
    for s in sets:
        assert len(s.patterns) == 5
        assert s.arity == 3
        assert (0, 0, 0) in s.patterns and (1, 1, 1) in s.patterns
    assert len({s.patterns for s in sets}) == 6


def test_quadripartite_registry():
    quad = lbps_quadripartite()
    assert quad.name == "quad1"
    assert len(quad.patterns) == 12
    assert quad.arity == 4
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
    terms = ((computational_setting(3), (diagonal_set(3),)), (hadamard_setting(3), (tri4,)))
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
    w = witness.operator()
    assert float(np.max(np.abs(w - w.conj().T))) <= 1e-15
    for seed in range(5):
        rho = random_pure(dims, [7, seed]).density()
        trace = float(np.real(np.trace(rho.entries @ w)))
        assert abs(trace - witness.evaluate(rho).i_value) <= 1e-12


def test_witness_operator_rejects_a_maximum_over_sets():
    with pytest.raises(ValueError, match="several pattern sets"):
        i3_witness().operator()


def test_witness_validation():
    setting = computational_setting(3)
    with pytest.raises(ValueError):
        Witness(((setting, (diagonal_set(3),)),), 1.0)
    with pytest.raises(ValueError):
        Witness(((setting, (diagonal_set(3),)), (setting, ())), 1.0)
    with pytest.raises(ValueError):
        Witness(((setting, (diagonal_set(3),)), (setting, (diagonal_set(2),))), 1.0)
    with pytest.raises(ValueError, match="basis search"):
        i_m_witness(prime_mub_family(3)).evaluate(random_pure((3, 3), 1).density(), True)


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
        assert reduced_rank(partial_trace(rho, [party]), 1e-9) == 2


def test_local_phase_invariance_of_first_term():
    rng = np.random.default_rng(17)
    for seed in range(10):
        psi = random_pure((2, 2, 2), seed)
        phases = [np.diag([1.0, np.exp(1j * rng.uniform(0, 2 * math.pi))]) for _ in range(3)]
        dressed = StateVector(
            (2, 2, 2), kron(kron(phases[0], phases[1]), phases[2]) @ psi.amplitudes
        )
        delta = abs(i3(psi.density()).c_first - i3(dressed.density()).c_first)
        assert delta <= 1e-12


def test_basis_search_recovers_rotated_state():
    rotated = StateVector(
        (2, 2, 2), kron(kron(HADAMARD, HADAMARD), HADAMARD) @ ghz3(math.pi / 4).amplitudes
    )
    rho = rotated.density()
    assert i3(rho).i_value < 1.3
    searched = i3(rho, basis_search=True)
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
