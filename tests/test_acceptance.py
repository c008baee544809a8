"""Acceptance gate: every shipped guarantee, at its stated tolerance.

Each test covers one numbered criterion and records a single PASS/FAIL
verdict line (replayed in the terminal summary). Assertions fire after the
line is recorded so a failing criterion still reports itself.
"""

import filecmp
import math
import time

import numpy as np

from conftest import record_verdict

from mubcert import (
    computational_basis,
    fourier_basis,
    fourier_pair,
    ghz3,
    ghz4,
    global_q,
    i3,
    i3_oracle,
    i4,
    i4_oracle,
    i_m_bipartite,
    i_m_witness,
    is_unbiased,
    mix,
    partial_trace,
    prime_mub_family,
    psi_lambda,
    qubit_mub_triple,
    random_pure,
    triangle_tau,
    w3,
)
from mubcert.cli import main, run_bound_campaign
from mubcert.correlations import paper_i3_w3, paper_i4_ghz4
from mubcert.locc import PovmParams, omega, sweep

SEED = 20260816


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    record_verdict(f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} {label}: {detail}"


def test_criterion_01_mub_validity():
    worst = 0.0
    families = [qubit_mub_triple()]
    families += [prime_mub_family(d) for d in (3, 5, 7)]
    families += [fourier_pair(d) for d in (2, 3, 4, 5)]
    ok = True
    for family in families:
        for i in range(family.m):
            gram = family.bases[i].vectors.conj().T @ family.bases[i].vectors
            worst = max(worst, float(np.max(np.abs(gram - np.eye(family.d)))))
            for j in range(i + 1, family.m):
                ok = ok and is_unbiased(family.bases[i], family.bases[j])
                overlaps = np.abs(family.bases[i].vectors.conj().T @ family.bases[j].vectors) ** 2
                worst = max(worst, float(np.max(np.abs(overlaps - 1.0 / family.d))))
    ok = ok and worst <= 1e-10
    _verdict(1, "mub validity", ok, f"{len(families)} families, worst deviation {worst:.3e}")


def test_criterion_02_bipartite_closed_form():
    pair = fourier_pair(2)
    worst = 0.0
    for lam in np.linspace(0.0, 1.0, 101):
        lam = float(lam)
        value = i_m_bipartite(psi_lambda(lam).density(), pair).i_value
        worst = max(worst, abs(value - (1.5 + math.sqrt(lam * (1.0 - lam)))))
    bell_value = i_m_bipartite(psi_lambda(0.5).density(), pair).i_value
    flat_value = i_m_bipartite(psi_lambda(1.0).density(), pair).i_value
    ok = worst <= 1e-9 and bell_value == 2.0 and abs(flat_value - 1.5) <= 1e-12
    _verdict(
        2,
        "bipartite closed form",
        ok,
        f"grid deviation {worst:.3e}, bell {bell_value}, product {flat_value}",
    )


def test_criterion_03_separable_bipartite_campaigns():
    pieces = []
    ok = True
    for d in (2, 3, 5):
        summary = run_bound_campaign("separable-bipartite", 10000, SEED, d=d)
        ok = ok and summary["pass"] and summary["max_i"] <= 1.0 + 1.0 / d + 1e-9
        pieces.append(f"d={d} max {summary['max_i']:.6f}<={summary['bound']:.6f}")
    complete = run_bound_campaign("separable-bipartite", 10000, SEED, d=3, complete_family=True)
    ok = ok and complete["pass"] and complete["m"] == 4 and complete["max_i"] <= 2.0 + 1e-9
    pieces.append(f"d=3 complete(m=4) max {complete['max_i']:.6f}<=2")
    _verdict(3, "separable bipartite bounds", ok, "; ".join(pieces))


def test_criterion_04_tripartite_closed_form():
    worst = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 200):
        theta = float(theta)
        value = i3(ghz3(theta).density()).i_value
        worst = max(worst, abs(value - (13.0 + math.sin(2.0 * theta)) / 8.0))
    peak = i3(ghz3(math.pi / 4).density())
    ok = worst <= 1e-9 and abs(peak.i_value - 1.75) <= 1e-9 and peak.i_value > 1.625 and peak.violated
    _verdict(
        4,
        "three-qubit closed form",
        ok,
        f"200-point deviation {worst:.3e}, peak {peak.i_value:.12f} > 1.625",
    )


def test_criterion_05_three_qubit_biseparable_campaign():
    summary = run_bound_campaign("biseparable3", 10000, SEED)
    ok = summary["pass"] and summary["max_i"] <= 1.625 + 1e-9
    _verdict(
        5,
        "biseparable 3-qubit campaign",
        ok,
        f"10000 trials, max {summary['max_i']:.12f} <= 1.625, zero violations",
    )


def test_criterion_06_w_family_reference():
    thetas = np.linspace(0.0, math.pi / 2, 200)

    def scan():
        oracle_gap = 0.0
        reference_gap = 0.0
        undetected_gme = []
        for theta in thetas:
            theta = float(theta)
            rho = w3(theta, math.pi / 4).density()
            report = i3(rho)
            oracle_gap = max(oracle_gap, abs(report.i_value - i3_oracle(rho)))
            reference_gap = max(
                reference_gap, abs(report.i_value - paper_i3_w3(theta, math.pi / 4))
            )
            ranks = [int(np.sum(np.linalg.eigvalsh(partial_trace(rho, [k]).entries) > 1e-9)) for k in range(3)]
            if not report.violated and ranks == [2, 2, 2]:
                undetected_gme.append(theta)
        return oracle_gap, reference_gap, undetected_gme

    oracle_gap, reference_gap, undetected = scan()
    oracle_gap_again, reference_gap_again, _ = scan()
    stable = oracle_gap == oracle_gap_again and reference_gap == reference_gap_again
    # the qualitative window: genuinely entangled yet below the bound near pi/2
    near_top = [t for t in undetected if t > 1.3]
    ok = oracle_gap <= 1e-10 and stable and bool(near_top)
    window = f"[{min(near_top):.3f}, {max(near_top):.3f}]" if near_top else "none"
    _verdict(
        6,
        "w-family reference curve",
        ok,
        f"oracle gap {oracle_gap:.3e}; reference-formula gap {reference_gap:.6f} "
        f"(documented, stable across runs); undetected-GME window near pi/2: {window}",
    )


def test_criterion_07_four_qubit_biseparable_campaign():
    summary = run_bound_campaign("biseparable4", 10000, SEED)
    flat = i4(ghz4(0.0).density()).i_value
    ok = summary["pass"] and summary["max_i"] <= 1.75 + 1e-9 and abs(flat - 1.75) <= 1e-10
    _verdict(
        7,
        "biseparable 4-qubit campaign",
        ok,
        f"10000 trials, max {summary['max_i']:.12f} <= 1.75, zero violations; "
        f"|0000> at {flat!r}",
    )


def test_criterion_08_ghz4_violation_and_reference_disagreement():
    peak = i4(ghz4(math.pi / 4).density())
    disagreement = 0.0
    oracle_gap = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 50):
        theta = float(theta)
        rho = ghz4(theta).density()
        value = i4(rho).i_value
        disagreement = max(disagreement, abs(value - paper_i4_ghz4(theta)))
        oracle_gap = max(oracle_gap, abs(value - i4_oracle(rho)))
    ok = peak.violated and peak.i_value > 1.75 and oracle_gap <= 1e-10
    _verdict(
        8,
        "ghz4 violation",
        ok,
        f"peak {peak.i_value:.12f} > 1.75; computed curve matches oracle to {oracle_gap:.3e}; "
        f"paper_i4 reference column disagrees by up to {disagreement:.6f} (expected, logged)",
    )


def test_criterion_09_measures_closed_forms():
    tau_gap = 0.0
    q_gap = 0.0
    for theta in np.linspace(0.0, math.pi / 2, 200):
        theta = float(theta)
        tau_expected = 4.0 * (1.0 - math.sin(theta) ** 4 - math.cos(theta) ** 4) ** 2
        tau_gap = max(tau_gap, abs(triangle_tau(ghz3(theta)) - tau_expected))
        q_gap = max(q_gap, abs(global_q(ghz4(theta)) - math.sin(2.0 * theta) ** 2))
    zeros_ok = triangle_tau(ghz3(0.0)) == 0.0 and global_q(ghz4(0.0)) == 0.0
    ok = tau_gap <= 1e-9 and q_gap <= 1e-9 and zeros_ok
    _verdict(
        9,
        "measure closed forms",
        ok,
        f"tau deviation {tau_gap:.3e}, q deviation {q_gap:.3e}, product-state zeros exact",
    )


def test_criterion_10_argmax_coincidence():
    thetas = np.linspace(0.0, math.pi / 2, 200)
    step = float(thetas[1] - thetas[0])
    i3_values = [i3(ghz3(float(t)).density()).i_value for t in thetas]
    tau_values = [triangle_tau(ghz3(float(t))) for t in thetas]
    i4_values = [i4(ghz4(float(t)).density()).i_value for t in thetas]
    q_values = [global_q(ghz4(float(t))) for t in thetas]
    picks = {
        "i3": float(thetas[int(np.argmax(i3_values))]),
        "tau": float(thetas[int(np.argmax(tau_values))]),
        "i4": float(thetas[int(np.argmax(i4_values))]),
        "q": float(thetas[int(np.argmax(q_values))]),
    }
    ok = all(abs(value - math.pi / 4) <= step + 1e-15 for value in picks.values())
    detail = ", ".join(f"{name} argmax {value:.5f}" for name, value in picks.items())
    _verdict(10, "argmax coincidence at pi/4", ok, f"{detail}; grid step {step:.5f}")


def test_criterion_11_locc_sweep():
    bell = psi_lambda(0.5).density()
    started = time.perf_counter()
    result = sweep(bell, 61)  # a 61x61x61 grid over [-pi, pi]^3
    elapsed = time.perf_counter() - started
    identity = PovmParams(chi=math.pi / 2, zeta=math.pi / 2, xi=0.0, theta_cap=0.0)
    identity_worst = max(
        abs(omega(random_pure((2, 2), [SEED, k]).density(), identity)) for k in range(100)
    )
    ok = elapsed < 60.0 and result.min_omega >= -1e-9 and identity_worst <= 1e-11
    _verdict(
        11,
        "locc monotonicity sweep",
        ok,
        f"61^3 grid in {elapsed:.2f}s, min omega {result.min_omega:.3e} >= -1e-9; "
        f"identity-povm residual {identity_worst:.3e}",
    )


def test_criterion_12_mixing_linearity():
    # I_2 of a mixture is the same mixture of its parts' I_2.
    witness = i_m_witness(fourier_pair(2))
    weights = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for k in range(100):
        rho1 = random_pure((2, 2), [SEED, 2 * k]).density()
        rho2 = random_pure((2, 2), [SEED, 2 * k + 1]).density()
        a, b = witness.evaluate(rho1).i_value, witness.evaluate(rho2).i_value
        for w in weights.tolist():
            mixed = mix([rho1, rho2], [w, 1.0 - w])
            worst = max(worst, abs(witness.evaluate(mixed).i_value - (w * a + (1.0 - w) * b)))
    ok = worst <= 1e-10
    _verdict(12, "mixing linearity", ok, f"100 pairs x 11 weights, max deviation {worst:.3e}")


def test_criterion_13_oracle_equivalence():
    worst3 = 0.0
    for k in range(1000):
        rho = random_pure((2, 2, 2), [SEED, 3, k]).density()
        worst3 = max(worst3, abs(i3(rho).i_value - i3_oracle(rho)))
    worst4 = 0.0
    for k in range(1000):
        rho = random_pure((2, 2, 2, 2), [SEED, 4, k]).density()
        worst4 = max(worst4, abs(i4(rho).i_value - i4_oracle(rho)))
    ok = worst3 <= 1e-10 and worst4 <= 1e-10
    _verdict(
        13,
        "oracle equivalence",
        ok,
        f"1000 three-qubit states gap {worst3:.3e}; 1000 four-qubit states gap {worst4:.3e}",
    )


def test_criterion_14_figure_determinism(tmp_path):
    dirs = (tmp_path / "run_a", tmp_path / "run_b")
    for target in dirs:
        code = main(["figures", "--out-dir", str(target), "--steps", "21", "--grid", "9"])
        assert code == 0
    names = ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv"]
    identical = all(filecmp.cmp(dirs[0] / n, dirs[1] / n, shallow=False) for n in names)
    _verdict(14, "figure determinism", identical, "two runs byte-identical across fig1..fig5")
