"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import filecmp
import io
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubcert import StateVector, cli, ghz3, kron, psi_lambda, random_pure
from mubcert.cli import main
from mubcert.locc import PovmSweepResult, sweep
from mubcert.states import state_to_json_dict

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 0
    return json.loads(out)


# ---------------------------------------------------------------- certify


def test_certify_ghz3(capsys):
    data = _run_json(capsys, "certify", "--family", "ghz3", "--theta", "0.7853981633974483")
    report = data["report"]
    assert abs(report["i_value"] - 1.75) <= 1e-9
    assert report["violated"] is True
    assert abs(report["bound"] - 1.625) <= 1e-12
    assert abs(data["paper_i3"] - 1.75) <= 1e-9


def test_certify_bell(capsys):
    data = _run_json(capsys, "certify", "--family", "bell")
    assert data["report"]["i_value"] == 2.0
    assert data["report"]["violated"] is True
    assert data["report"]["bound"] == 1.5


def test_certify_product3_sits_at_bound(capsys):
    data = _run_json(capsys, "certify", "--family", "product3")
    assert abs(data["report"]["i_value"] - 1.625) <= 1e-12
    assert data["report"]["violated"] is False


def test_certify_wg4_reports_norm_deficit(capsys):
    data = _run_json(capsys, "certify", "--family", "wg4")
    assert abs(data["original_norm"] - 0.9369140270822345) <= 1e-12


def test_certify_state_file(tmp_path, capsys):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_json_dict(psi_lambda(0.5))))
    data = _run_json(capsys, "certify", "--state", str(path))
    assert data["report"]["i_value"] == 2.0
    assert data["report"]["violated"] is True


def test_certify_basis_search_flag(tmp_path, capsys):
    rotated = StateVector(
        (2, 2, 2), kron(kron(HADAMARD, HADAMARD), HADAMARD) @ ghz3(math.pi / 4).amplitudes
    )
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(state_to_json_dict(rotated)))
    plain = _run_json(capsys, "certify", "--state", str(path))
    assert plain["report"]["violated"] is False
    searched = _run_json(capsys, "certify", "--state", str(path), "--basis-search")
    assert searched["report"]["violated"] is True
    assert abs(searched["report"]["i_value"] - 1.75) <= 1e-9


# SHA-256 of the searched report (json.dumps, sorted keys) for seeded Haar
# states, recorded while the search still took two distributions for each
# of the 6^n setting pairs.  The report, not stdout: stdout names the file.
SEARCH_REPORT_PINS = {
    ((2, 2, 2), 5003): "21972846692018e414e865564c8c71cf8687e971f82d8d0d0e201fd4a9d9f771",
    ((2, 2, 2, 2), 5004): "f1c4d33acf4711d635baa0c79588c4a820b58c4e366231652c0a8b07a9c0241a",
}


@pytest.mark.parametrize("dims, seed", list(SEARCH_REPORT_PINS), ids=lambda v: str(v))
def test_certify_basis_search_report_is_pinned(tmp_path, capsys, dims, seed):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(random_pure(dims, seed))))
    report = _run_json(capsys, "certify", "--state", str(path), "--basis-search")["report"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == SEARCH_REPORT_PINS[dims, seed]


def test_certify_csv_format(capsys):
    code, out = _run(capsys, "certify", "--family", "ghz3", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns["violated"] == "true"
    assert abs(float(columns["i_value"]) - 1.75) <= 1e-9


def test_certify_input_errors(tmp_path, capsys):
    code, _ = _run(capsys, "certify", "--family", "ghz3", "--state", "x.json")
    assert code == 2
    code, _ = _run(capsys, "certify")
    assert code == 2
    code, _ = _run(capsys, "certify", "--state", str(tmp_path / "missing.json"))
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--family", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("family", ["bell", "ghz3"])
def test_certify_rejects_lambda_outside_psi_lambda(tmp_path, capsys, family):
    code, out = _run(capsys, "certify", "--family", family, "--lambda", "0.2")
    assert (code, out) == (2, "")
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_json_dict(psi_lambda(0.5))))
    code, out = _run(capsys, "certify", "--state", str(path), "--lambda", "0.2")
    assert (code, out) == (2, "")
    data = _run_json(capsys, "certify", "--family", "psi_lambda", "--lambda", "0.2")
    assert data["params"] == {"lambda": 0.2}


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--family", "bell", "--theta", "0.3"],
        ["certify", "--family", "ghz3", "--alpha", "0.3", "--mu", "2"],
        ["certify", "--state", "STATE", "--theta", "1"],
        ["certify", "--family", "psi_lambda", "--basis-search"],
        ["certify", "--state", "STATE", "--basis-search"],
        ["sweep", "--family", "ghz3", "--theta", "0.2"],
        ["sweep", "--family", "ghz3", "--alpha", "0.2"],
        ["sweep", "--family", "psi_lambda", "--nu", "0.3"],
        ["check-bounds", "--class", "biseparable3", "--d", "7", "--complete-family"],
        ["check-bounds", "--class", "biseparable4", "--d", "2"],
        ["check-bounds", "--class", "biseparable3", "--complete-family"],
    ],
    ids=" ".join,
)
def test_inapplicable_flags_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(psi_lambda(0.3))))
    argv = [str(path) if a == "STATE" else a for a in argv]
    code = main([*argv, *(["--trials", "5"] if argv[0] == "check-bounds" else [])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert argv[3] in captured.err  # the first flag after the family, state or class


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["certify", "--family", "w3", "--alpha=inf"], ("--alpha",)),
        (["certify", "--family", "ghz3", "--theta=nan"], ("--theta",)),
        (["certify", "--family", "psi_lambda", "--lambda=-inf"], ("--lambda",)),
        (["sweep", "--family", "ghz3", "--steps", "3", "--from=-inf"], ("--from",)),
        (["sweep", "--family", "ghz3", "--steps", "3", "--to=nan"], ("--to",)),
        (["locc", "--grid", "3", "--family", "psi_lambda", "--lambda=nan"], ("--lambda",)),
        # Finite, but twice the value overflows: sin(2 theta) and --to minus
        # --from failed with "math domain error" and a numpy RuntimeWarning.
        (["certify", "--family", "ghz3", "--theta", "1e308"], ("--theta",)),
        (["certify", "--family", "w3", "--theta", "1e308"], ("--theta",)),
        (["sweep", "--family", "ghz3", "--steps", "3", "--from=-1e308", "--to", "1e308"], ("--from", "--to")),
    ],
    ids=lambda v: " ".join(v),
)
def test_nonfinite_values_exit_2_naming_the_flag(tmp_path, capsys, argv, flags):
    code = main([*argv, *(["--out-dir", str(tmp_path)] if argv[0] == "locc" else [])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert all(f"{flag}=" in captured.err for flag in flags) and "finite" in captured.err


@pytest.mark.parametrize(
    "document, message",
    [
        ({"dims": [48, 48], "amplitudes": [[1.0, 0.0]]}, "exceeds 256"),
        ({"dims": [2] * 9, "amplitudes": [[1.0, 0.0]]}, "exceeds 256"),
        ({"dims": [2, 2], "amplitudes": [[1e200, 0.0]] * 4}, "finite"),
    ],
    ids=["48x48", "nine-qubits", "overflowing-norm"],
)
def test_certify_rejects_oversized_or_overflowing_state_files(tmp_path, capsys, document, message):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(document))
    code = main(["certify", "--state", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


def test_certify_malformed_state_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(capsys, "certify", "--state", str(bad))
    assert code == 2
    bad.write_text(json.dumps({"dims": [2, 2], "amplitudes": [[1.0, 0.0]]}))
    code, _ = _run(capsys, "certify", "--state", str(bad))
    assert code == 2


@pytest.mark.parametrize("dims", [4, None, [2.9, 2], [2, True], "22", {"2": 2}], ids=repr)
def test_certify_rejects_dims_that_are_not_a_list_of_integers(tmp_path, capsys, dims):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dims": dims, "amplitudes": [[0.5, 0.0]] * 4}))
    code = main(["certify", "--state", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert '"dims" must be a list of integers' in captured.err


_PARTIES = "certification supports 2-4 parties, got {}"
_DIMS = "state dims {} do not match witness dims {}"
_SEARCH = "--basis-search applies only to three- and four-party states"


@pytest.mark.parametrize(
    "dims, flags, message",
    [
        ((2,), [], _PARTIES.format(1)),
        ((2,) * 5, [], _PARTIES.format(5)),
        ((2,) * 5, ["--basis-search"], _PARTIES.format(5)),
        ((2, 3), [], _DIMS.format((2, 3), (2, 2))),
        ((3, 3, 3), [], _DIMS.format((3, 3, 3), (2, 2, 2))),
        ((3, 3, 3), ["--basis-search"], _DIMS.format((3, 3, 3), (2, 2, 2))),
        ((2, 2), ["--basis-search"], _SEARCH),
        ((2, 3), ["--basis-search"], _SEARCH),
    ],
    ids=["1-qubit", "5-qubit", "5-qubit-search", "2x3", "3x3x3", "3x3x3-search", "2x2-search", "2x3-search"],
)
def test_certify_state_errors_keep_their_order(tmp_path, capsys, dims, flags, message):
    # The party count is checked first, then --basis-search on two parties,
    # then the witness's dims.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(random_pure(dims, 3))))
    code = main(["certify", "--state", str(path), *flags])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message}\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_NUMBER = st.integers() | st.floats()


@st.composite
def _matching_amplitudes(draw):
    # Amplitude counts that fit the dims, so the numbers reach certification.
    dims = draw(st.sampled_from([[2, 2], [3, 3], [2, 3], [2, 2, 2], [2, 2, 2, 2], [2] * 5]))
    pair = st.lists(_NUMBER, min_size=2, max_size=2)
    return {"dims": dims, "amplitudes": draw(st.lists(pair, min_size=math.prod(dims), max_size=math.prod(dims)))}


_STATE_DOCUMENTS = st.one_of(
    _JSON,
    st.fixed_dictionaries({
        "dims": _JSON | st.lists(st.integers(0, 4), max_size=4) | st.lists(_NUMBER, max_size=4),
        "amplitudes": _JSON | st.lists(st.lists(_NUMBER, min_size=1, max_size=3), max_size=16),
    }),
    _matching_amplitudes(),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_STATE_DOCUMENTS, st.booleans())
def test_certify_state_file_exits_0_or_2(document, basis_search):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        path.write_text(json.dumps(document))
        argv = ["certify", "--state", str(path), *(["--basis-search"] if basis_search else [])]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2)
    assert (code == 2) == (stdout.getvalue() == "")


# ------------------------------------------------------------------ sweep


def test_sweep_psi_lambda_stdout(capsys):
    code, out = _run(capsys, "sweep", "--family", "psi_lambda", "--steps", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,i2,bound,paper_i2"
    mid = lines[3].split(",")  # lambda = 0.5
    assert abs(float(mid[0]) - 0.5) <= 1e-15
    assert abs(float(mid[1]) - 2.0) <= 1e-12


def test_sweep_ghz3_hits_peak_on_grid(capsys):
    code, out = _run(capsys, "sweep", "--family", "ghz3", "--steps", "11", "--verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,i3,tau,bound,paper_i3"
    assert len(lines) == 12
    peak = lines[6].split(",")  # theta = pi/4 with 11 points on [0, pi/2]
    assert abs(float(peak[0]) - math.pi / 4) <= 1e-12
    assert abs(float(peak[1]) - 1.75) <= 1e-9
    assert abs(float(peak[2]) - 1.0) <= 1e-9


def test_sweep_w3_and_wg4_headers(capsys):
    code, out = _run(capsys, "sweep", "--family", "w3", "--steps", "4")
    assert code == 0
    assert out.split("\n", 1)[0] == "theta,i3,tau,bound,paper_i3"
    code, out = _run(capsys, "sweep", "--family", "wg4", "--steps", "4")
    assert code == 0
    assert out.split("\n", 1)[0] == "mu,i4,q,bound"


def test_sweep_range_override(capsys):
    code, out = _run(
        capsys, "sweep", "--family", "ghz4", "--from", "0.5", "--to", "1.0", "--steps", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,i4,q,bound,paper_i4"
    assert [float(r.split(",")[0]) for r in lines[1:]] == [0.5, 0.75, 1.0]


def test_sweep_to_file_and_json(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, _ = _run(capsys, "sweep", "--family", "psi_lambda", "--steps", "3", "--out", str(target))
    assert code == 0
    text = target.read_bytes().decode()
    assert "\r" not in text
    assert text.split("\n")[0] == "lambda,i2,bound,paper_i2"
    data = _run_json(capsys, "sweep", "--family", "psi_lambda", "--steps", "3", "--format", "json")
    assert len(data) == 3
    assert abs(data[1]["i2"] - 2.0) <= 1e-12


# The parameter flags each family takes under certify and under sweep.
CERTIFY_TAKES = {
    "psi_lambda": {"lambda"}, "bell": set(), "ghz3": {"theta"}, "w3": {"theta", "alpha"},
    "ghz4": {"theta"}, "wg4": {"theta", "mu", "nu"}, "product3": set(), "product4": set(),
}
SWEEP_TAKES = {
    "psi_lambda": set(), "ghz3": set(), "w3": {"alpha"}, "ghz4": set(), "wg4": {"theta", "nu"},
}
SWEEP_FLAGS = ("theta", "alpha", "nu")  # sweep has no --lambda or --mu option


@st.composite
def _family_flags(draw):
    command = draw(st.sampled_from(["certify", "sweep"]))
    takes = CERTIFY_TAKES if command == "certify" else SWEEP_TAKES
    family = draw(st.sampled_from(sorted(takes)))
    names = ("lambda", "theta", "alpha", "mu", "nu") if command == "certify" else SWEEP_FLAGS
    # Half the draws take only flags the family takes, so their values reach it.
    pool = draw(st.sampled_from([names, sorted(takes[family]) or names]))
    flags = draw(st.lists(st.sampled_from(pool), unique=True))
    overflowing = [math.inf, -math.inf, math.nan, 1e308, -1e308, sys.float_info.max, -sys.float_info.max]
    values = draw(st.lists(st.floats() | st.sampled_from(overflowing), min_size=len(flags), max_size=len(flags)))
    return command, family, flags, values, [f for f in flags if f not in takes[family]]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_family_flags())
def test_parameter_flags_exit_0_only_when_the_family_takes_them(case):
    command, family, flags, values, rejected = case
    nonfinite = [f for f, v in zip(flags, values) if not math.isfinite(2 * v)]
    argv = [command, "--family", family, *(["--steps", "2"] if command == "sweep" else [])]
    for flag, value in zip(flags, values):
        argv.append(f"--{flag}={value!r}")  # "=" keeps argparse from reading -1e+16 as a flag
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in ((2,) if rejected or nonfinite else (0, 2))
    if code == 2:
        assert stdout.getvalue() == ""
    # Flags the family does not take are named first; else every one whose
    # value or its double is not finite.
    named = rejected or nonfinite
    assert all(f"--{flag}" in stderr.getvalue() for flag in named)


@pytest.mark.parametrize(
    "command, option",
    [
        (["certify", "--family", "ghz3"], "--theta"),
        (["sweep", "--family", "ghz3", "--steps", "3"], "--from"),
        (["locc", "--grid", "3"], "--theta-cap"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
@pytest.mark.parametrize("value", ["-1e-05", "-2.5E-1", "-inf"])
def test_negative_values_read_alike_with_space_or_equals(tmp_path, capsys, command, option, value):
    out_dir = ["--out-dir", str(tmp_path)] if command[0] == "locc" else []
    spaced = _run(capsys, *command, *out_dir, option, value)
    joined = _run(capsys, *command, *out_dir, f"{option}={value}")
    assert spaced == joined
    assert spaced[0] == (2 if value == "-inf" else 0)


def test_sweep_rejects_single_step(capsys):
    code, _ = _run(capsys, "sweep", "--family", "ghz3", "--steps", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "wg4", "--theta", "1.5707963267948966", "--nu", "0", "--steps", "3"],
         "error: wg4 mu=0: cannot normalise a zero vector\n"),
        (["--family", "psi_lambda", "--from", "0", "--to", "1.5", "--steps", "5"],
         "error: psi_lambda lambda=1.125: lambda must lie in [0, 1], got 1.125\n"),
        # The guard fails in the second block; nothing is written.
        (["--family", "psi_lambda", "--from", "0", "--to", "2", "--steps", str(2 * cli.BLOCK_ROWS)],
         "error: psi_lambda lambda=1.0078740157480315: lambda must lie in [0, 1], got 1.0078740157480315\n"),
    ],
)
def test_sweep_row_that_fails_a_builder_guard_is_named(capsys, argv, message):
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


# ------------------------------------------------------------------- locc


def test_locc_outputs(tmp_path, capsys):
    out_dir = tmp_path / "locc"
    data = _run_json(capsys, "locc", "--grid", "5", "--verify", "--out-dir", str(out_dir))
    assert data["non_negative"] is True
    assert data["min_omega"] >= -1e-9
    assert data["grid_steps"] == 5
    assert data["party"] == 0
    assert set(data["argmin"]) == {"chi", "zeta", "xi", "theta_cap"}

    grid_lines = (out_dir / "grid.csv").read_text().strip().split("\n")
    assert grid_lines[0] == "chi,zeta,xi,theta_cap,omega"
    assert len(grid_lines) == 5**3 + 1
    density_lines = (out_dir / "density.csv").read_text().strip().split("\n")
    assert density_lines[0] == "chi,zeta,min_omega_over_xi"
    assert len(density_lines) == 5**2 + 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["min_omega"] == data["min_omega"]


def test_locc_mirror_and_family(tmp_path, capsys):
    data = _run_json(
        capsys,
        "locc",
        "--family",
        "psi_lambda",
        "--lambda",
        "0.3",
        "--grid",
        "4",
        "--mirror-povm",
        "--out-dir",
        str(tmp_path),
    )
    assert data["party"] == 1
    assert data["min_omega"] >= -1e-9


@pytest.mark.parametrize("mirror", [False, True], ids=["party0", "party1"])
def test_locc_reports_a_negative_residual_for_a_random_pure_state(tmp_path, capsys, mirror):
    # I2 is not LOCC-monotone in general: where chi - zeta is 0 or -pi both POVM
    # elements are multiples of one unitary, which rotates this state's
    # correlations into the MUB pair.  locc reports it and still exits 0.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(random_pure((2, 2), [7, 1]))))
    out_dir = tmp_path / "locc"
    argv = ["locc", "--state", str(path), "--theta-cap=-1.1", "--grid", "21", "--out-dir", str(out_dir)]
    data = _run_json(capsys, *argv, *(["--mirror-povm"] if mirror else []))
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary == data
    assert summary["party"] == int(mirror)
    assert summary["non_negative"] is False
    assert summary["min_omega"] < -1.0
    assert summary["min_omega"] == pytest.approx(-1.181 if mirror else -1.166, abs=1e-3)


@pytest.mark.parametrize("mirror, expected", [(False, -1.1661943), (True, -1.1807932)])
def test_locc_reports_the_family_minimum(tmp_path, capsys, mirror, expected):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(random_pure((2, 2), [7, 1]))))
    out_dir = tmp_path / "locc"
    argv = ["locc", "--state", str(path), "--theta-cap=-1.1", "--grid", "5", "--out-dir", str(out_dir)]
    data = _run_json(capsys, *argv, *(["--mirror-povm"] if mirror else []))
    assert json.loads((out_dir / "summary.json").read_text()) == data
    assert data["min_omega_family"] == pytest.approx(expected, abs=1e-7)
    assert data["min_omega_family"] <= data["min_omega"]


def test_locc_rejects_tiny_grid(tmp_path, capsys):
    code, _ = _run(capsys, "locc", "--grid", "1", "--out-dir", str(tmp_path))
    assert code == 2


def test_locc_rejects_theta_cap_out_of_range(tmp_path, capsys):
    code = main(["locc", "--theta-cap", "4", "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "theta_cap must lie in [-pi, pi]" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda", "0.2"],
        ["--family", "bell", "--lambda", "0.2"],
        ["--state", "STATE", "--lambda", "0.2"],
        ["--state", "STATE", "--family", "psi_lambda"],
        ["--state", "STATE", "--family", "bell"],
    ],
)
def test_locc_rejects_conflicting_state_arguments(tmp_path, capsys, argv):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(psi_lambda(0.3))))
    argv = [str(path) if a == "STATE" else a for a in argv]
    code, out = _run(capsys, "locc", "--grid", "3", "--out-dir", str(tmp_path / "out"), *argv)
    assert (code, out) == (2, "")
    assert not (tmp_path / "out").exists()


# SHA-256 of the files written at grid 7.  The locc and fig1 pins were
# re-pinned when sweep moved to the closed form A(xi) + B(xi) cos(chi - zeta)
# (max |omega change| 4.4e-16); the grid.csv writer must reproduce each byte.
# Pinned on x86-64 (AVX-512) with numpy 2.4: no grid point goes through a
# BLAS gemm, so the last bits of omega follow numpy's SIMD sin/cos and one
# einsum over the xi axis only; another build may need its own pins.  The
# "stdout" pins and the fig2-fig5 pins were recorded before the family table
# replaced the CLI's per-family code: every family under certify and sweep,
# with and without parameters.
LOCC_GOLDEN = {
    ("locc", "--grid", "7"): {
        "grid.csv": "466e3e4f183e454c8ba0730ba8ff1e7833d67cbbab716f7ff8cd9b94a9023bc3",
        "density.csv": "a4b269169203d26a49ffb6e3b2d3208c0f013ad544deb3d7723abeec00edcb9c",
        "summary.json": "c05eb71624fa3210ed68eb7f7697fae2b9abbc6daa8f6072cb1a8a984295d9d1",
    },
    (
        "locc", "--grid", "7", "--family", "psi_lambda", "--lambda", "0.3",
        "--mirror-povm", "--theta-cap", "0.5",
    ): {
        "grid.csv": "525646a8daaa85c4508c01f236e49d728dff063c0481cbdb85f980a5122cdb8d",
        "density.csv": "7c24fd87c5f22fca696b4e8c94c96d9cb62ed90b833956e4aee8ab40683999e5",
        "summary.json": "0f7132458d0f84309bb01b10bf23b1d9edeb1ef207b20a3a2b6d4ce9e015650f",
    },
    ("figures", "--steps", "5", "--grid", "7", "--verify"): {
        "fig1.csv": "a4b269169203d26a49ffb6e3b2d3208c0f013ad544deb3d7723abeec00edcb9c",
    },
    ("certify", "--family", "psi_lambda", "--format", "json"): {
        "stdout": "aef1da1df7a0bc42370a7a2d27c045fc42f41bbd1c581afa9de85dddd51162f0",
    },
    ("certify", "--family", "psi_lambda", "--format", "csv"): {
        "stdout": "a9e0a847475a0264573e7ebf748568824a886bd39cf7cad50fb3ee19d2bda16c",
    },
    ("certify", "--family", "bell", "--format", "json"): {
        "stdout": "eea41fd6cd0b118941151144e096a6a2b77e23ff48beae907198d674d1875e0f",
    },
    ("certify", "--family", "bell", "--format", "csv"): {
        "stdout": "3dc65107c5e397375ed5955a20dfdb515d01be02e655e5dc830b60aa5110fe53",
    },
    ("certify", "--family", "ghz3", "--format", "json"): {
        "stdout": "6dd866fc7b1517b0437b320f07a7b5dffed2407447cd0774ae73bec2ce7de400",
    },
    ("certify", "--family", "ghz3", "--format", "csv"): {
        "stdout": "86aac36c5faaf5f27676212b82b6a94cc7925e17d07dcfa78cf1f7d3267a20b6",
    },
    ("certify", "--family", "w3", "--format", "json"): {
        "stdout": "783762d9e937098e69b0e378c8e4bda1a01ccf22b2d4a01f9ca1b572131b7d55",
    },
    ("certify", "--family", "w3", "--format", "csv"): {
        "stdout": "9c68c5239f487854ae00b8ab199607af5b01f9d0221cf7436cb6b7a70210c5f9",
    },
    ("certify", "--family", "ghz4", "--format", "json"): {
        "stdout": "1851748de3de69c44530c135ca28bfbacaa55080d04eea101b10c564e0657c30",
    },
    ("certify", "--family", "ghz4", "--format", "csv"): {
        "stdout": "d78f4186a470761d5559b635c4fde9b7c38f96a3bae6dc84d09f2fd28322c42c",
    },
    ("certify", "--family", "wg4", "--format", "json"): {
        "stdout": "c17e2d98419533a2b0120d9e9bf5c7440d82b27d0d37db9043dce9bbd0587b1f",
    },
    ("certify", "--family", "wg4", "--format", "csv"): {
        "stdout": "f9ec095de33936a140ba716b32f3bd000246dec0eefe7953f56732be309daeb2",
    },
    ("certify", "--family", "product3", "--format", "json"): {
        "stdout": "18b1620d03096d64d72f314056a023eb00d4d82dc6d6a45d950086e43b087ba4",
    },
    ("certify", "--family", "product3", "--format", "csv"): {
        "stdout": "ef5ecdc729ae6b80cd7f0f42fbec03fb0f560a084bd5ca389f9e98d364403d85",
    },
    ("certify", "--family", "product4", "--format", "json"): {
        "stdout": "09381e7bb946294973aff1ab09a805edc2ff1cc886e4fe747ee5371815ab7340",
    },
    ("certify", "--family", "product4", "--format", "csv"): {
        "stdout": "19b312ed13e9704f44e311ac87d1acdda2a38fd9e122be3689450e269f781aa0",
    },
    ("certify", "--family", "psi_lambda", "--lambda", "0.2", "--format", "json"): {
        "stdout": "e8c241a1bf8762d21b0f90e9c8687f9d36d058da631281be544213308fded526",
    },
    ("certify", "--family", "ghz3", "--theta", "0.3", "--format", "json"): {
        "stdout": "5da002d2c10f9084895e2554e83c58fb4f94db7ac011aa2a8c7f8cd130805817",
    },
    ("certify", "--family", "w3", "--theta", "0.9", "--alpha", "0.4", "--format", "json"): {
        "stdout": "78500f1f7da16e6bb7c125b8bea55c4be9e4e1500dd2283424c21fe5c04dbe0f",
    },
    ("certify", "--family", "ghz4", "--theta", "0.4", "--format", "json"): {
        "stdout": "4bd9a3c6cd235dd5414c4131eb84ba44d02fbf6293832b0068debbef6c0de2ab",
    },
    (
        "certify", "--family", "wg4", "--theta", "0.9", "--mu", "0.3", "--nu", "1.1",
        "--format", "json",
    ): {
        "stdout": "7aeb6a03ef722e30c9cae08b7c58b7f4dc0e024106bedc8665c46833658ff509",
    },
    ("certify", "--family", "psi_lambda", "--lambda", "0.2", "--format", "csv"): {
        "stdout": "f57fca8a68ebe5df2b1ec05b5295689a5c68392753b73cb644f4aaf281bee5f1",
    },
    ("certify", "--family", "ghz3", "--theta", "0.3", "--format", "csv"): {
        "stdout": "5487314bdb309584ccd206ee7a50d404034e39dd355d74830baff5b20fbb37ac",
    },
    ("certify", "--family", "w3", "--theta", "0.9", "--alpha", "0.4", "--format", "csv"): {
        "stdout": "dcced38a4bac64cc1c0b4ae60389361d379cec547e3d9f1d8ad99fbf3295c662",
    },
    ("certify", "--family", "ghz4", "--theta", "0.4", "--format", "csv"): {
        "stdout": "e4bd22e70d60afe94fe864c5b0528b6fd6ba6d88932a4a42208e6a1ff74d70e1",
    },
    (
        "certify", "--family", "wg4", "--theta", "0.9", "--mu", "0.3", "--nu", "1.1",
        "--format", "csv",
    ): {
        "stdout": "ae81ab96f183a99823c3617ac12e06c63c7751c8e662e06a404c2f02de76227b",
    },
    ("certify", "--family", "ghz3", "--basis-search"): {
        "stdout": "6dd866fc7b1517b0437b320f07a7b5dffed2407447cd0774ae73bec2ce7de400",
    },
    ("sweep", "--family", "psi_lambda", "--steps", "5", "--verify"): {
        "stdout": "251a39fca1b3b01ad77040fb79156225ef70929c283ebdea91e5e49d9d2b13cd",
    },
    ("sweep", "--family", "psi_lambda", "--steps", "3", "--format", "json"): {
        "stdout": "ee1c1a00d7582c5fec865f724582b3ef01e9a771e4ff5d72f3698383926f6c28",
    },
    ("sweep", "--family", "ghz3", "--steps", "11", "--verify"): {
        "stdout": "c4680efe8dee7465ebdca47d3ea0d7ae5999f8afbfa8cd0498e31d6868402146",
    },
    (
        "sweep", "--family", "ghz3", "--from", "0.2", "--to", "1.2", "--steps", "4",
        "--format", "json",
    ): {
        "stdout": "9cf0662ba0ebc8425c16cf0b95158ab909f3066b55ff6880e52833cd5eea2d84",
    },
    ("sweep", "--family", "w3", "--steps", "6", "--verify"): {
        "stdout": "372569e279fdf099e7da2112ee1460fbce81666235491085ac33a4dfed0f1345",
    },
    ("sweep", "--family", "w3", "--alpha", "0.4", "--steps", "5"): {
        "stdout": "1bd913ba5304262dd62f6b934bbed1ec82602c6e33e5d019862f14e150fc330e",
    },
    ("sweep", "--family", "ghz4", "--steps", "5", "--verify", "--format", "json"): {
        "stdout": "bbc1592101ac840750d4624b4f469c839f5354e14d1de4f409f6b9b49382b4a7",
    },
    ("sweep", "--family", "ghz4", "--from", "0.5", "--to", "1.0", "--steps", "3"): {
        "stdout": "038af4669c0ec320fa4bbb01f29f13d484753ef9328c2f2a36560e084a63b9c5",
    },
    ("sweep", "--family", "wg4", "--steps", "5", "--verify"): {
        "stdout": "1136182db4444df080470361fd6cf04c6f2b3646fd338cf8d25bed7ea425658a",
    },
    ("sweep", "--family", "wg4", "--theta", "0.7", "--nu", "1.1", "--steps", "5"): {
        "stdout": "353cc1cbed22fb020e9fec9a12bcbbdfdb327c9a41c5a3f628d50446491669a3",
    },
    ("figures", "--steps", "21", "--grid", "7", "--verify"): {
        "fig2.csv": "3b47e5f33ab465b5347da7ec3a84c4b8fb608d586f54c775750a3752d9a8c177",
        "fig3.csv": "886a56ab362e0c6832b03ce81c7004e7de90b681f86b5d085bf00a2ae962db94",
        "fig4.csv": "cb55d268786afedabbc6fe87616002dda3f9517c1e7a7935a6bb54ee76905f39",
        "fig5.csv": "bad7d285dbaa94ed2e97dbd185449b79e64308edcc2247dd0bfaab211db0e26e",
    },
}


@pytest.mark.parametrize("argv", list(LOCC_GOLDEN), ids=lambda argv: " ".join(argv))
def test_locc_outputs_are_pinned(tmp_path, capsys, argv):
    writes_files = argv[0] in ("locc", "figures")
    code, out = _run(capsys, *argv, *(("--out-dir", str(tmp_path)) if writes_files else ()))
    assert code == 0
    digests = {
        name: hashlib.sha256(
            out.encode() if name == "stdout" else (tmp_path / name).read_bytes()
        ).hexdigest()
        for name in LOCC_GOLDEN[argv]
    }
    assert digests == LOCC_GOLDEN[argv]


def _reference_grid_csv(path, result):
    # The former grid.csv writer: omega formatted on every row.
    chi_ax, zeta_ax, xi_ax = ([format(float(v), ".17g") for v in ax] for ax in result.axes())
    cap = format(result.theta_cap, ".17g")
    tails = [f"{z},{x},{cap}," for z in zeta_ax for x in xi_ax]
    slabs = result.omega.reshape(len(chi_ax), len(tails))
    with open(path, "w", newline="\n") as fh:
        fh.write("chi,zeta,xi,theta_cap,omega\n")
        for chi, slab in zip(chi_ax, slabs):
            fh.write("".join([f"{chi},{tail}{v:.17g}\n" for tail, v in zip(tails, slab.tolist())]))


def _reference_density_csv(path, result):
    # The former density.csv writer: one _write_csv row per (chi, zeta) cell.
    chi_ax, zeta_ax, _ = result.axes()
    density = result.density_min_over_xi()
    rows = ((float(c), float(z), float(v)) for c, row in zip(chi_ax, density) for z, v in zip(zeta_ax, row))
    cli._write_csv(path, ["chi", "zeta", "min_omega_over_xi"], rows)


def _assert_writers_match(tmp_path, result):
    for write, reference in ((cli._write_grid_csv, _reference_grid_csv),
                             (cli._write_density_csv, _reference_density_csv)):
        write(tmp_path / "new.csv", result)
        reference(tmp_path / "old.csv", result)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


GRID_61 = ((-math.pi, math.pi, 61),) * 3


@pytest.fixture(scope="module")
def grid_61_results():
    return {
        "bell": sweep(psi_lambda(0.5).density(), grid=GRID_61),
        "mirrored-psi-lambda": sweep(psi_lambda(0.3137).density(), grid=GRID_61, theta_cap=0.5, party=1),
        "random-state": sweep(random_pure((2, 2), 9101).density(), grid=GRID_61),
    }


@pytest.mark.parametrize("name", ["bell", "mirrored-psi-lambda", "random-state"])
def test_grid_writers_match_the_per_row_writer_at_grid_61(tmp_path, grid_61_results, name):
    _assert_writers_match(tmp_path, grid_61_results[name])


def test_grid_writers_tell_negative_zero_from_zero(tmp_path):
    # One slab holds -0.0, 0.0 and repeats; the next repeats them in another
    # order and adds the smallest normal and the smallest subnormal.
    omega = np.array([-0.0, 0.0, 0.25, -0.0, 0.25, 0.0, 0.0, -0.0, 0.25, 2.2250738585072014e-308, 5e-324, -0.0])
    grid = ((-1.0, 1.0, 2), (-1.0, 1.0, 2), (-1.0, 1.0, 3))
    result = PovmSweepResult(grid, 0.5, omega)
    _assert_writers_match(tmp_path, result)
    cli._write_grid_csv(tmp_path / "grid.csv", result)
    column = [line.rsplit(",", 1)[1] for line in (tmp_path / "grid.csv").read_text().splitlines()[1:]]
    assert column == ["-0", "0", "0.25", "-0", "0.25", "0", "0", "-0", "0.25",
                      "2.2250738585072014e-308", "4.9406564584124654e-324", "-0"]


def _write_peak(tmp_path, result) -> int:
    cli._write_grid_csv(tmp_path / "warm-up.csv", result)
    tracemalloc.start()
    try:
        cli._write_grid_csv(tmp_path / "grid.csv", result)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_write_peak_memory_stays_below_the_sweep(tmp_path, grid_61_results):
    # The bound is the 5.7 MB tracemalloc peak of the former blocked 61^3
    # sweep (the closed form peaks at 2.0 MB).  The former writer peaked at
    # 1.2 MB; the formatted values add 0.4 MB for the Bell state and 1.2 MB
    # for this random state (8.7k distinct values).  Values that all differ
    # fill cli.TEXT_CACHE_LIMIT entries at most.
    values = np.random.default_rng(9101).random(61**3)
    distinct = PovmSweepResult(GRID_61, 0.0, values)
    for result in (grid_61_results["random-state"], distinct):
        assert _write_peak(tmp_path, result) < 5e6


def _stderr_lines(capsys, *argv) -> list[str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.err.splitlines()


def test_verify_reports_rows_and_largest_gap_per_output(tmp_path, capsys):
    def parsed(lines):
        report = {}
        for line in lines:
            output, rest = line.removeprefix("verified ").split(": ")
            rows, gap = rest.split(", ")
            assert rows.startswith("rows checked ") and gap.startswith("largest |emitted - recomputed| ")
            report[output] = (int(rows.rsplit(" ", 1)[1]), float(gap.rsplit(" ", 1)[1]))
        return report

    # Every VERIFY_STRIDE-th row is recomputed, the first one included.
    locc = parsed(_stderr_lines(capsys, "locc", "--grid", "7", "--verify", "--out-dir", str(tmp_path)))
    assert list(locc) == ["grid.csv"] and locc["grid.csv"][0] == 4  # 343 rows
    figures = parsed(_stderr_lines(capsys, "figures", "--steps", "201", "--grid", "11", "--verify",
                                   "--out-dir", str(tmp_path)))
    assert {name: rows for name, (rows, _) in figures.items()} == {
        "fig1.csv": 2, "fig2.csv": 3, "fig3.csv": 3, "fig4.csv": 3, "fig5.csv": 3,
    }
    sweep_stdout = parsed(_stderr_lines(capsys, "sweep", "--family", "w3", "--steps", "5", "--verify"))
    target = tmp_path / "rows.json"
    sweep_file = parsed(_stderr_lines(capsys, "sweep", "--family", "ghz4", "--steps", "5", "--verify",
                                      "--format", "json", "--out", str(target)))
    assert list(sweep_stdout) == ["stdout"] and list(sweep_file) == [str(target)]
    for report in (locc, figures, sweep_stdout, sweep_file):
        assert all(0.0 <= gap <= cli.VERIFY_TOL for _, gap in report.values())
    assert _stderr_lines(capsys, "locc", "--grid", "3", "--out-dir", str(tmp_path)) == []
    assert _stderr_lines(capsys, "sweep", "--family", "w3", "--steps", "5") == []


# ----------------------------------------------------------- check-bounds


def test_check_bounds_biseparable3(tmp_path, capsys):
    target = tmp_path / "campaign.json"
    code, out = _run(
        capsys, "check-bounds", "--class", "biseparable3", "--trials", "120", "--out", str(target)
    )
    assert code == 0
    assert out == ""  # report goes to the file when --out is set
    data = json.loads(target.read_text())
    assert data["class"] == "biseparable3"
    assert data["trials"] == 120
    assert data["pass"] is True
    assert data["max_i"] <= data["bound"] + 1e-9


def test_check_bounds_separable_variants(capsys):
    data = _run_json(
        capsys, "check-bounds", "--class", "separable-bipartite", "--d", "3", "--trials", "80"
    )
    assert data["pass"] is True
    assert abs(data["bound"] - (1 + 1 / 3)) <= 1e-12
    complete = _run_json(
        capsys,
        "check-bounds",
        "--class",
        "separable-bipartite",
        "--d",
        "3",
        "--trials",
        "80",
        "--complete-family",
    )
    assert complete["pass"] is True
    assert complete["m"] == 4
    assert abs(complete["bound"] - 2.0) <= 1e-12


def test_check_bounds_deterministic(capsys):
    a = _run_json(capsys, "check-bounds", "--class", "biseparable4", "--trials", "60")
    b = _run_json(capsys, "check-bounds", "--class", "biseparable4", "--trials", "60")
    assert a == b


@pytest.mark.parametrize(
    "options, flag",
    [
        (["--d", "1000"], "--d"),
        (["--d", "17", "--complete-family"], "--d"),
        # The complete family needs an odd prime d; d = 2 is the default.
        (["--complete-family"], "--d"),
        (["--d", "4", "--complete-family"], "--d"),
        (["--seed", "-1"], "--seed"),
    ],
    ids=["d-1000", "d-17-complete-family", "default-d-complete-family", "d-4-complete-family", "negative-seed"],
)
def test_check_bounds_rejects_oversized_d_and_negative_seed(capsys, options, flag):
    code = main(["check-bounds", "--class", "separable-bipartite", "--trials", "1", *options])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert flag in captured.err


def test_check_bounds_accepts_d_at_the_state_dimension_limit(capsys):
    data = _run_json(capsys, "check-bounds", "--class", "separable-bipartite", "--d", "16", "--trials", "1")
    assert data["d"] == 16 and data["pass"] is True


@pytest.mark.parametrize("command", ["locc", "figures"])
def test_allocation_failure_exits_2(tmp_path, capsys, command):
    # 100000^3 omega values need 7.1 PiB, above any x86-64 user address
    # space, so the allocation fails at once and nothing is allocated.
    code = main([command, "--grid", "100000", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


_FLOAT_VALUES = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def _campaign_and_locc_argv(draw):
    def optional(flag, values):
        return [f"{flag}={draw(values)!r}"] if draw(st.booleans()) else []

    if draw(st.booleans()):
        klass = draw(st.sampled_from(["biseparable3", "biseparable4", "separable-bipartite"]))
        # --trials is always given: its default of 10^4 would make each example slow.
        argv = ["check-bounds", "--class", klass, f"--trials={draw(st.integers(-2, 4))}"]
        # No mid-size d: were the --d limit lost, d = 300 would ask for gigabytes.
        argv += optional("--d", st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 16, 17, 1000]))
        argv += optional("--seed", st.integers(-(2**64), 2**64))
        return argv + (["--complete-family"] if draw(st.booleans()) else [])
    # No mid-size grid: --grid 1000 alone would ask for 8 GB.
    argv = ["locc", f"--grid={draw(st.sampled_from([-1, 0, 1, 2, 3, 100000]))}"]
    argv += draw(st.sampled_from([[], ["--family", "psi_lambda"]]))
    argv += optional("--theta-cap", _FLOAT_VALUES) + optional("--lambda", _FLOAT_VALUES)
    argv += [f for f in ("--mirror-povm", "--verify") if draw(st.booleans())]
    return argv


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_campaign_and_locc_argv())
def test_check_bounds_and_locc_options_exit_0_2_or_3(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "locc":
            argv = [*argv, "--out-dir", tmp]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in stderr.getvalue()
    if code == 2:
        assert stdout.getvalue() == ""


# ---------------------------------------------------------------- figures


def test_figures_outputs_and_determinism(tmp_path, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for target in (dir_a, dir_b):
        code, _ = _run(
            capsys, "figures", "--out-dir", str(target), "--steps", "9", "--grid", "5"
        )
        assert code == 0
    names = ["fig1.csv", "fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv"]
    for name in names:
        assert (dir_a / name).is_file()
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False)
    assert (dir_a / "fig4.csv").read_text().split("\n", 1)[0] == "theta,i4,q,bound,paper_i4"


# ------------------------------------------------------------ entry point


@pytest.mark.skipif(shutil.which("mubcert") is None, reason="console script not on PATH")
def test_console_script_help():
    done = subprocess.run(["mubcert", "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "certify" in done.stdout


def test_module_entry_point_exit_codes():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(*argv):
        command = [sys.executable, "-m", "mubcert", *argv]
        return subprocess.run(command, capture_output=True, text=True, env=env)

    done = run("--help")
    assert done.returncode == 0
    assert "certify" in done.stdout
    done = run("certify", "--family", "bell", "--lambda", "0.2")
    assert (done.returncode, done.stdout) == (2, "")
    assert "--lambda" in done.stderr
