"""The four benchmark workloads: their seeded inputs, CLI calls and output checks.

A workload is a list of CLI calls (one "round") that the worker repeats
until the run is long enough.  Every call goes through ``mubcert.cli.main``
in-process.  Each workload also knows how to check one call's output
through a route that does not reuse the code path that produced it; the
checks run outside the timed phase and take the output as plain data, so
the smoke test can hand them a corrupted copy.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mubcert.correlations import (
    BasisAssignment, i3, i3_oracle, i4, i4_oracle, i_value_oracle, joint_probability,
    lbps_quadripartite, lbps_tripartite, paper_i3_ghz3, uniform_setting)
from mubcert.linalg import DensityMatrix
from mubcert.locc import PovmParams, omega
from mubcert.mub import Basis, prime_mub_family
from mubcert.states import biseparable_sample, separable_sample

# Campaign classes, in the order each round runs them.
CAMPAIGN_CLASSES = (
    ("biseparable3", []),
    ("biseparable4", []),
    ("separable-bipartite", ["--d", "5", "--complete-family"]),
)
ORACLE_TOL = 1e-10
MARGIN = 1e-9
# Basis-search brute force runs on every 10th state.  The offset 3 makes
# the checked states hit both arities under the 3:1 interleave (state i
# has four qubits when i % 4 == 3).
BRUTE_STRIDE = 10
BRUTE_OFFSET = 3
LOCC_STRIDE = 100
FIG2_TOL = 1e-9


@dataclass
class Call:
    """One CLI invocation of a round and what it is expected to produce."""

    argv: list[str]
    kind: str
    ops: int
    out_dir: str | None = None
    meta: dict = field(default_factory=dict)


def csv_rows(data: bytes) -> int:
    """Data rows of a CSV file: lines after the header."""
    return max(data.count(b"\n") - 1, 0)


class Campaign:
    """``check-bounds`` on the three classes, same trial count for each.

    Sampling (states + linalg) dominates; there is no file output.  Every
    round uses its own check-bounds seeds, so no round repeats another's
    trials and a result cache cannot make later rounds cheaper.
    """

    name = "campaign"
    repeats_inputs = False

    def __init__(self, seed: int, work: Path, trials: int = 250):
        self.seed = seed
        self.work = work
        self.trials = trials

    def setup(self) -> None:
        pass

    def warmup(self) -> Call:
        return Call(["check-bounds", "--class", "biseparable3", "--trials", "3",
                     "--seed", str(self.seed)], "warmup", 3)

    def calls(self, r: int, tag: str) -> list[Call]:
        seed = self.seed * 10_000 + r
        return [
            Call(["check-bounds", "--class", klass, "--trials", str(self.trials),
                  "--seed", str(seed), *extra], klass, self.trials, meta={"seed": seed})
            for klass, extra in CAMPAIGN_CLASSES
        ]

    def check(self, call: Call, rc: int, stdout: str, files: dict[str, bytes]) -> list[str]:
        s = json.loads(stdout)
        seed = call.meta["seed"]
        problems = []
        if (s["class"], s["trials"], s["seed"]) != (call.kind, self.trials, seed):
            problems.append(f"summary names {s['class']}/{s['trials']}/{s['seed']}")
        worst = s["worst_trial"]
        if not 0 <= worst < self.trials:
            return problems + [f"worst_trial {worst} out of range"]
        # Recompute the worst trial along the oracle route.
        if call.kind == "biseparable3":
            reference = i3_oracle(biseparable_sample(3, worst, seed))
        elif call.kind == "biseparable4":
            reference = i4_oracle(biseparable_sample(4, worst, seed))
        else:
            rho = separable_sample(5, worst, seed)
            reference = math.fsum(
                joint_probability(rho, uniform_setting(b, 2), (i, i))
                for b in prime_mub_family(5).bases for i in range(5))
        if abs(reference - s["max_i"]) > ORACLE_TOL:
            problems.append(f"max_i {s['max_i']!r} but trial {worst} recomputes to {reference!r}")
        # The bound itself is under audit; gate on the verdict agreeing with it.
        if s["pass"] != (s["max_i"] <= s["bound"] + MARGIN):
            problems.append("pass flag disagrees with max_i and bound")
        if rc != (0 if s["pass"] else 3):
            problems.append(f"exit code {rc} disagrees with pass={s['pass']}")
        return problems


def haar_amplitudes(n_qubits: int, seed: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    dim = 2**n_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def qubit_triple():
    """Pauli Z, X, Y eigenbases, built here rather than taken from mubcert.mub."""

    s = 1.0 / math.sqrt(2.0)
    return (
        Basis(2, np.eye(2, dtype=np.complex128)),
        Basis(2, np.array([[s, s], [s, -s]], dtype=np.complex128)),
        Basis(2, np.array([[s, s], [1j * s, -1j * s]], dtype=np.complex128)),
    )


class BasisSearch:
    """``certify --state FILE --basis-search`` on seeded Haar-random states.

    Three- and four-qubit states interleave 3:1 (state i has four qubits
    when i % 4 == 3).  Outcome distributions in ``correlations`` do nearly
    all the work; there is no sampling and one validation per call.
    """

    name = "basis-search"
    repeats_inputs = True

    def __init__(self, seed: int, work: Path, states: int = 100):
        self.seed = seed
        self.work = work
        self.states = states

    def n_qubits(self, index: int) -> int:
        return 4 if index % 4 == 3 else 3

    def path(self, index: int) -> str:
        return str(self.work / "states" / f"s{index:03d}.json")

    def setup(self) -> None:
        (self.work / "states").mkdir(parents=True, exist_ok=True)
        for index in range(self.states):
            n = self.n_qubits(index)
            amps = haar_amplitudes(n, self.seed, index)
            doc = {"dims": [2] * n, "amplitudes": [[float(a.real), float(a.imag)] for a in amps]}
            Path(self.path(index)).write_text(json.dumps(doc) + "\n")

    def warmup(self) -> Call:
        return Call(["certify", "--state", self.path(0), "--basis-search"], "warmup", 1)

    def calls(self, r: int, tag: str) -> list[Call]:
        return [
            Call(["certify", "--state", self.path(i), "--basis-search"],
                 f"{self.n_qubits(i)}q", 1, meta={"index": i})
            for i in range(self.states)
        ]

    def check(self, call: Call, rc: int, stdout: str, files: dict[str, bytes]) -> list[str]:
        index = call.meta["index"]
        n = self.n_qubits(index)
        out = json.loads(stdout)
        rep = out["report"]
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        if out["state"] != self.path(index) or out["dims"] != [2] * n:
            problems.append(f"report names state {out['state']} dims {out['dims']}")
        if abs(rep["i_value"] - (rep["c_first"] + rep["c_second"])) > 1e-12:
            problems.append("i_value != c_first + c_second")
        if rep["violated"] != (rep["i_value"] > rep["bound"] + MARGIN):
            problems.append("violated flag disagrees with i_value and bound")
        sets = lbps_tripartite() if n == 3 else [lbps_quadripartite()]
        if rep["attaining_set_first"] != "diagonal" or rep["attaining_set_second"] not in {
                s.name for s in sets}:
            problems.append(f"unknown attaining sets {rep['attaining_set_first']}/"
                            f"{rep['attaining_set_second']}")
        doc = json.loads(Path(self.path(index)).read_text())
        amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        rho = DensityMatrix((2,) * n, np.outer(amps, amps.conj()))
        fixed = (i3 if n == 3 else i4)(rho).i_value
        if rep["i_value"] < fixed - 1e-12:
            problems.append(f"searched i_value {rep['i_value']!r} below fixed-setting {fixed!r}")
        if index % BRUTE_STRIDE == BRUTE_OFFSET:
            triple = qubit_triple()
            pairs = [(a, b) for a in triple for b in triple if a is not b]
            brute = max(
                i_value_oracle(rho, (BasisAssignment(tuple(p[0] for p in choice)),
                                     BasisAssignment(tuple(p[1] for p in choice))), sets)
                for choice in itertools.product(pairs, repeat=n))
            if abs(brute - rep["i_value"]) > ORACLE_TOL:
                problems.append(f"i_value {rep['i_value']!r} but brute force gives {brute!r}")
        return problems


class LoccGrid:
    """``locc --grid 61`` on the Bell state and, mirrored, on psi_lambda.

    Formatting the 61^3-row grid.csv is most of each call; ``locc.sweep``
    is the rest.  States and correlations do almost nothing.
    """

    name = "locc-grid"
    repeats_inputs = True

    def __init__(self, seed: int, work: Path, grid: int = 61):
        self.seed = seed
        self.work = work
        self.grid = grid
        rng = np.random.default_rng([seed, 0x10CC])
        self.lam = float(rng.uniform(0.05, 0.95))

    def setup(self) -> None:
        pass

    def warmup(self) -> Call:
        return Call(["locc", "--grid", "5", "--out-dir", str(self.work / "warmup")],
                    "warmup", 125)

    def calls(self, r: int, tag: str) -> list[Call]:
        base = self.work / f"{tag}{r}"
        points = self.grid**3
        return [
            Call(["locc", "--grid", str(self.grid), "--out-dir", str(base / "bell")],
                 "bell", points, str(base / "bell"), {"lam": 0.5, "party": 0}),
            Call(["locc", "--grid", str(self.grid), "--family", "psi_lambda",
                  "--lambda", repr(self.lam), "--mirror-povm", "--out-dir", str(base / "mirror")],
                 "mirror", points, str(base / "mirror"), {"lam": self.lam, "party": 1}),
        ]

    def check(self, call: Call, rc: int, stdout: str, files: dict[str, bytes]) -> list[str]:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        summary = json.loads(files["summary.json"])
        if json.loads(stdout) != summary:
            problems.append("stdout summary differs from summary.json")
        lines = files["grid.csv"].decode().splitlines()
        if lines[0] != "chi,zeta,xi,theta_cap,omega" or len(lines) - 1 != self.grid**3:
            return problems + [f"grid.csv has header {lines[0]!r} and {len(lines) - 1} rows"]
        if csv_rows(files["density.csv"]) != self.grid**2:
            problems.append("density.csv row count")
        lam = call.meta["lam"]
        v = np.array([math.sqrt(lam), 0.0, 0.0, math.sqrt(1.0 - lam)], dtype=np.complex128)
        rho = DensityMatrix((2, 2), np.outer(v, v.conj()))
        for row in range(1, len(lines), LOCC_STRIDE):
            chi, zeta, xi, cap, value = (float(x) for x in lines[row].split(","))
            reference = omega(rho, PovmParams(chi, zeta, xi, cap), party=call.meta["party"])
            if abs(reference - value) > ORACLE_TOL:
                problems.append(f"grid.csv row {row}: omega {value!r}, scalar {reference!r}")
                break
        csv_min = min(float(line.rsplit(",", 1)[1]) for line in lines[1:])
        if csv_min != summary["min_omega"]:
            problems.append(f"summary min_omega {summary['min_omega']!r} != CSV min {csv_min!r}")
        return problems


FIGURE_FILES = ("fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv")


class Figures:
    """``figures --steps 201 --grid 61 --verify``.

    The only workload that runs ``measures``, the family sweeps and the
    oracle verify path; it reaches linalg validation through ``density()``
    and ``partial_trace`` rather than through sampling.
    """

    name = "figures"
    repeats_inputs = True

    def __init__(self, seed: int, work: Path, steps: int = 201, grid: int = 61):
        self.seed = seed
        self.work = work
        self.steps = steps
        self.grid = grid

    def setup(self) -> None:
        pass

    def warmup(self) -> Call:
        return Call(["figures", "--steps", "3", "--grid", "5", "--verify",
                     "--out-dir", str(self.work / "warmup")], "warmup", 37)

    def calls(self, r: int, tag: str) -> list[Call]:
        out = str(self.work / f"{tag}{r}")
        return [Call(["figures", "--steps", str(self.steps), "--grid", str(self.grid),
                      "--verify", "--out-dir", out], "figures",
                     self.grid**2 + 4 * self.steps, out)]

    def check(self, call: Call, rc: int, stdout: str, files: dict[str, bytes]) -> list[str]:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}")
        expected = {"fig1.csv": self.grid**2}
        expected.update({name: self.steps for name in FIGURE_FILES[1:]})
        for name, rows in expected.items():
            if csv_rows(files[name]) != rows:
                problems.append(f"{name} has {csv_rows(files[name])} rows, expected {rows}")
        lines = files["fig2.csv"].decode().splitlines()
        if lines[0] != "theta,i3,tau,bound,paper_i3":
            return problems + [f"fig2.csv header {lines[0]!r}"]
        for line in lines[1:]:
            theta, value = (float(x) for x in line.split(",")[:2])
            reference = paper_i3_ghz3(theta)
            if abs(value - reference) > FIG2_TOL:
                problems.append(f"fig2 theta={theta!r}: i3 {value!r}, paper {reference!r}")
                break
        return problems


WORKLOADS = {w.name: w for w in (Campaign, BasisSearch, LoccGrid, Figures)}
