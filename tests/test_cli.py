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

import mubcert.correlations
import mubcert.linalg
import mubcert.locc
from mubcert import (
    PovmParams,
    StateVector,
    Witness,
    cli,
    fourier_pair,
    ghz3,
    i_m_witness,
    psi_lambda,
    random_pure,
)
from mubcert.cli import main
from mubcert.locc import PovmSweepResult, sweep
from mubcert.states import state_to_json_dict
from test_locc import _reference_branch, _reference_povm

HADAMARD = (np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)).astype(np.complex128)


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
        (2, 2, 2), np.kron(np.kron(HADAMARD, HADAMARD), HADAMARD) @ ghz3(math.pi / 4).amplitudes
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
# of the 6^n setting pairs, and re-pinned when set values became one dot
# product with a set projector (values moved by at most 6.7e-16, set names
# did not).  The report, not stdout: stdout names the file.
SEARCH_REPORT_PINS = {
    ((2, 2, 2), 5003): "f016626d7a77828377f714c6c0166c814790ce340684170d472a320f13b7706e",
    ((2, 2, 2, 2), 5004): "f18f5f631632cd8055a83ccbf9efdf0f58313c6635166aad3e749296d12416c4",
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


def test_certify_state_csv_joins_sequences_with_semicolons(tmp_path, capsys):
    # (|00> + |22>)/sqrt(2): dims and the per-basis terms each fill one cell.
    path = tmp_path / "qutrits.json"
    amplitudes = [[2**-0.5, 0.0]] + [[0.0, 0.0]] * 7 + [[2**-0.5, 0.0]]
    path.write_text(json.dumps({"dims": [3, 3], "amplitudes": amplitudes}))
    code, out = _run(capsys, "certify", "--state", str(path), "--format", "csv")
    assert code == 0
    assert out == (
        "attaining_set_first,attaining_set_second,bound,c_first,c_per_basis,c_second,dims,i_value,state,violated\n"
        f"diagonal,diagonal,1.3333333333333333,1,1;0.33333333333333331,0.33333333333333331,3;3,"
        f"1.3333333333333333,{path},false\n"
    )


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
        # complex(True, False) is 1: this was certified as a Bell state.
        ({"dims": [2, 2], "amplitudes": [[True, False], [0, 0], [0, 0], [True, False]]}, "not booleans"),
    ],
    ids=["48x48", "nine-qubits", "overflowing-norm", "boolean-amplitudes"],
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
    # json.load raised RecursionError on this, a traceback with exit 1.
    bad.write_text("[" * 400_000)
    code = main(["certify", "--state", str(bad)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {bad}: JSON nested too deeply to read\n")


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
        # Row 64, exactly mu = 0, is the first row of the second block.
        (["--family", "wg4", "--theta", "1.5707963267948966", "--nu", "0", "--from", "-1", "--to", "1",
          "--steps", str(2 * cli.BLOCK_ROWS + 1)],
         "error: wg4 mu=0: cannot normalise a zero vector\n"),
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


def test_locc_verdict_reads_the_family_minimum_not_the_grid(tmp_path, capsys):
    # The 3-point grid misses this state's negative residual (its grid
    # minimum is a rounding -1e-16); the exact family minimum does not.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json_dict(random_pure((2, 2), [7, 1]))))
    data = _run_json(capsys, "locc", "--state", str(path), "--grid", "3", "--out-dir", str(tmp_path / "locc"))
    assert data["min_omega"] >= -1e-9
    assert data["min_omega_family"] == pytest.approx(-0.8236, abs=1e-4)
    assert data["non_negative"] is False


def test_locc_rejects_tiny_grid(tmp_path, capsys):
    code, _ = _run(capsys, "locc", "--grid", "1", "--out-dir", str(tmp_path))
    assert code == 2


def test_locc_rejects_theta_cap_out_of_range(tmp_path, capsys):
    code = main(["locc", "--theta-cap", "4", "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "theta_cap must lie in [-pi, pi]" in captured.err
    assert not (tmp_path / "out").exists()


def test_locc_grid_completeness_breach_exits_3_and_writes_nothing(monkeypatch, tmp_path, capsys):
    # Below the rounding of the 61-point axis (bound 4.4e-16); the bound of
    # a 5-point axis is exactly 0, so it cannot breach.
    monkeypatch.setattr(mubcert.locc, "COMPLETENESS_TOL", 1e-17)
    code = main(["locc", "--grid", "61", "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("invariant breach: POVM completeness residual up to")
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
# with and without parameters.  The certify, sweep and fig2-fig5 pins were
# re-pinned when set values became one dot product with a set projector:
# values moved by at most 8.9e-16, and w3's tied attaining set went from
# tri1 to tri2.
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
        "stdout": "701dda9e01f604675ab9f2b8ccd5b82585991a8c780e7891809c7776df238a62",
    },
    ("certify", "--family", "psi_lambda", "--format", "csv"): {
        "stdout": "1f81828cb465bd0f943ec5a550ceff56953318be23a7aa7e2b93b12920ea4734",
    },
    ("certify", "--family", "bell", "--format", "json"): {
        "stdout": "5b3da7a3eba605959f949ebbad16eb2acbfd7ca3ffadd344a233ed00ef67567b",
    },
    ("certify", "--family", "bell", "--format", "csv"): {
        "stdout": "4fc0164fefcacebaf149f40f0103db272af5fcfcbd31510aa255b09fb1575eb4",
    },
    ("certify", "--family", "ghz3", "--format", "json"): {
        "stdout": "c39c3c9a7ca54cdf46f53db8d2de61c2f44afd2e16fd267321908f3c52b7318b",
    },
    ("certify", "--family", "ghz3", "--format", "csv"): {
        "stdout": "42f6d7b6e6b922a5628271f072347ba6a0c500585196e22bbee4566608c5d5d7",
    },
    ("certify", "--family", "w3", "--format", "json"): {
        "stdout": "20266eaddad8895f37f2f698e5cddc497927ad9ad451fbd7c77fc30e1e32931c",
    },
    ("certify", "--family", "w3", "--format", "csv"): {
        "stdout": "838daeeae4cc55c3c1b7aaeaa34c688808d07e7a7e52f9a13555e2d350b1e087",
    },
    ("certify", "--family", "ghz4", "--format", "json"): {
        "stdout": "683cd43a79d3ece2a6cea9b334f1a5f8ad3e0b38e92032f521469ff30e2a1587",
    },
    ("certify", "--family", "ghz4", "--format", "csv"): {
        "stdout": "9112f6fd993bae2cfbe0f86b336e7421beedee66579921f4e97f8ebfa070fe24",
    },
    ("certify", "--family", "wg4", "--format", "json"): {
        "stdout": "08723203db9351ff45a305a453b514089c55641f90bba061dee16d7053f76e58",
    },
    ("certify", "--family", "wg4", "--format", "csv"): {
        "stdout": "4e53bf4253731cf57c20f403de887a13e6ee3794715357dd9d8089c437609b53",
    },
    ("certify", "--family", "product3", "--format", "json"): {
        "stdout": "310e527a0ae9f4b400f2a07f92171f4a734fb2b174bdb3892239bba6d76c78b3",
    },
    ("certify", "--family", "product3", "--format", "csv"): {
        "stdout": "aa4165b8cafe97943367fc7589d15e61a76cf430b237d1c0de8e36dbf945b426",
    },
    ("certify", "--family", "product4", "--format", "json"): {
        "stdout": "f6477d9fcf0eaaa3dee282b3db16261dd984fe53df4ddad7dc0a7d2253e1e472",
    },
    ("certify", "--family", "product4", "--format", "csv"): {
        "stdout": "2ea9e69863c5adb06f0fce1eb844182ffddcf17afec2e92f5af588a732629857",
    },
    ("certify", "--family", "psi_lambda", "--lambda", "0.2", "--format", "json"): {
        "stdout": "6dfafcd0005f83818949135483275fca1fc6eb8bdba1fc633dd98306783b3f24",
    },
    ("certify", "--family", "ghz3", "--theta", "0.3", "--format", "json"): {
        "stdout": "bd8b3d8284e3cdaf3490c6ecfb1f1d871100b3a22e7473e26d592c43f758d929",
    },
    ("certify", "--family", "w3", "--theta", "0.9", "--alpha", "0.4", "--format", "json"): {
        "stdout": "0c11da1505966ee1c9d5851b92587f9d5fb398fe875419b3b4a2b33318c94f7b",
    },
    ("certify", "--family", "ghz4", "--theta", "0.4", "--format", "json"): {
        "stdout": "f815a7b518447e8103b4f54c8e925527507d8fc703f0fecd61c1e2ee82a1b767",
    },
    (
        "certify", "--family", "wg4", "--theta", "0.9", "--mu", "0.3", "--nu", "1.1",
        "--format", "json",
    ): {
        "stdout": "4be6333c902b538b90f8fdf29bd7e5e43964ed1c064921a985d340d87c685afa",
    },
    ("certify", "--family", "psi_lambda", "--lambda", "0.2", "--format", "csv"): {
        "stdout": "53f8752912e0039aa36ac30638b2781c16d2b50ffd47d6aa63033e70491590d8",
    },
    ("certify", "--family", "ghz3", "--theta", "0.3", "--format", "csv"): {
        "stdout": "32a9b98e071bec148cdfc4214558a08d8bc6b3df85fd6eaa318f2dc778200f46",
    },
    ("certify", "--family", "w3", "--theta", "0.9", "--alpha", "0.4", "--format", "csv"): {
        "stdout": "b4afc67f8e566a2d10d61c791ab9e5bb76b1d45e4a362623ab2c08220e9c9318",
    },
    ("certify", "--family", "ghz4", "--theta", "0.4", "--format", "csv"): {
        "stdout": "811a22371ab8ecbe44cece88e83f157ab3d525e1a217eba60d32b7a14e3022e9",
    },
    (
        "certify", "--family", "wg4", "--theta", "0.9", "--mu", "0.3", "--nu", "1.1",
        "--format", "csv",
    ): {
        "stdout": "5982943fb03b49236a9226178397a2038b4816fef3ae6e78ca75f7597895e830",
    },
    ("certify", "--family", "ghz3", "--basis-search"): {
        "stdout": "c39c3c9a7ca54cdf46f53db8d2de61c2f44afd2e16fd267321908f3c52b7318b",
    },
    ("sweep", "--family", "psi_lambda", "--steps", "5", "--verify"): {
        "stdout": "31f7049fb823a5323f1e283091e1d86874f21a37eada4871d54167b33cb78c77",
    },
    ("sweep", "--family", "psi_lambda", "--steps", "3", "--format", "json"): {
        "stdout": "d636e127e8831ff6d787b7ad00efc8a3e8e550ce8a3819e7efa824d979ce8ce6",
    },
    ("sweep", "--family", "ghz3", "--steps", "11", "--verify"): {
        "stdout": "0e3c6e35ed7f2826e83ea16d81cf0bbabea8e31eeca3e0e350d14d2030bbc609",
    },
    (
        "sweep", "--family", "ghz3", "--from", "0.2", "--to", "1.2", "--steps", "4",
        "--format", "json",
    ): {
        "stdout": "115c373e56e4e2a9e621569df587fb23456d48b74e5de212728f654e5cc5a763",
    },
    ("sweep", "--family", "w3", "--steps", "6", "--verify"): {
        "stdout": "8fba4b87e89e1c25a3c6f467004e61eda06ca7a7be07cfcfa6a79b412eeebbe4",
    },
    ("sweep", "--family", "w3", "--alpha", "0.4", "--steps", "5"): {
        "stdout": "7ebc782e3e350a14771702815e0012f357bab130611bad5695c018e48d83fbbd",
    },
    ("sweep", "--family", "ghz4", "--steps", "5", "--verify", "--format", "json"): {
        "stdout": "8279040119fa08687324764d2f90639d08e2dc4f231183b27c7038062497d902",
    },
    ("sweep", "--family", "ghz4", "--from", "0.5", "--to", "1.0", "--steps", "3"): {
        "stdout": "490b6da1f97f501a061e1a8e79d38a45f8f0a5a736d7b002bdfb6d9807a47fa4",
    },
    ("sweep", "--family", "wg4", "--steps", "5", "--verify"): {
        "stdout": "1add7cdef7dd5485b51c6466e1686b21b8016264523a265ffdf4606561b94192",
    },
    ("sweep", "--family", "wg4", "--theta", "0.7", "--nu", "1.1", "--steps", "5"): {
        "stdout": "81e6f86d101737fd6b3a14ddb0b815ae11b3c302aa5432ad6daad30ab4c50b71",
    },
    ("figures", "--steps", "21", "--grid", "7", "--verify"): {
        "fig2.csv": "c38f3206a5f2b3cacfa29179893b3f9ca96fde20e38592d598b85ef841935475",
        "fig3.csv": "d9d1acbdb516ebbd2d9eb032cb557eed1fac349fbd0eeeb10789e9ccd8ae22a1",
        "fig4.csv": "b675ba4ea1455c5aa0a3d45e3190d95ceb955a1eaf90b2bf0e52760fa6108c10",
        "fig5.csv": "679280728af3a27761f3cc14362d4985f2558ae563ee717b36c394d731326e45",
    },
    # The benchmark's own call: each family sweep spans four blocks.
    ("figures", "--steps", "201", "--grid", "61", "--verify"): {
        "fig1.csv": "c66c7f64b364efa28a2ed9c5335b14af84df4554627f40b646c0582e57faecb2",
        "fig2.csv": "6cc4deb9390694d8693c7f40f71680b6cfaf966da2bf6d854d152c65dac06db1",
        "fig3.csv": "944fa37da62fd6f3f4d07c4240f0716c9495b99af22c1b71487659c486e97ee1",
        "fig4.csv": "4f5d986374f7e4f3fdf4e158b8f777bbe2b03dfb23ca528da500ab2eec84b689",
        "fig5.csv": "a54360669e8f13ceb54b7a194891f5364c094c6b295c811044df8295d257a9a9",
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
    axis = [format(float(v), ".17g") for v in result.axis]
    cap = format(result.theta_cap, ".17g")
    tails = [f"{z},{x},{cap}," for z in axis for x in axis]
    slabs = result.omega.reshape(len(axis), len(tails))
    with open(path, "w", newline="\n") as fh:
        fh.write("chi,zeta,xi,theta_cap,omega\n")
        for chi, slab in zip(axis, slabs):
            fh.write("".join([f"{chi},{tail}{v:.17g}\n" for tail, v in zip(tails, slab.tolist())]))


def _reference_density_csv(path, result):
    # The former density.csv writer: one _write_csv row per (chi, zeta) cell.
    density = result.density_min_over_xi()
    rows = ((float(c), float(z), float(v)) for c, row in zip(result.axis, density) for z, v in zip(result.axis, row))
    cli._write_csv(path, ["chi", "zeta", "min_omega_over_xi"], rows)


def _assert_writers_match(tmp_path, result):
    for write, reference in ((cli._write_grid_csv, _reference_grid_csv),
                             (cli._write_density_csv, _reference_density_csv)):
        write(tmp_path / "new.csv", result)
        reference(tmp_path / "old.csv", result)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.fixture(scope="module")
def grid_61_results():
    return {
        "bell": sweep(psi_lambda(0.5).density(), 61),
        "mirrored-psi-lambda": sweep(psi_lambda(0.3137).density(), 61, theta_cap=0.5, party=1),
        "random-state": sweep(random_pure((2, 2), 9101).density(), 61),
    }


@pytest.mark.parametrize("name", ["bell", "mirrored-psi-lambda", "random-state"])
def test_grid_writers_match_the_per_row_writer_at_grid_61(tmp_path, grid_61_results, name):
    _assert_writers_match(tmp_path, grid_61_results[name])


def _grid_of_rows(rows, layout, chi, zeta, cap):
    """_write_rows's arguments for grid.csv and density.csv, built as the grid
    writers build them, for a chi x zeta x xi grid whose axes run from -1 to 1.

    The sweep's grids are cubes; these layouts need not be.  The xi-row of
    lead p, (chi, zeta) in C order, is rows[layout[p]].
    """
    values = np.asarray(rows, dtype=np.float64)[layout]
    chi_ax, zeta_ax, xi_ax = ([format(float(v), ".17g") for v in np.linspace(-1.0, 1.0, n)]
                              for n in (chi, zeta, values.shape[1]))
    grid = ([f"{c},{z}," for c in chi_ax for z in zeta_ax], [f"{x},{cap}," for x in xi_ax], values)
    density = ([f"{c}," for c in chi_ax], [f"{z}," for z in zeta_ax], values.min(axis=1).reshape(chi, zeta))
    return grid, density


def _assert_rows_match(tmp_path, *layouts):
    # Against the per-line writer: line (p, q) is leads[p] + inner[q] + values[p, q].
    for leads, inner, values in layouts:
        cli._write_rows(tmp_path / "new.csv", "header", leads, inner, values)
        with open(tmp_path / "old.csv", "w", newline="\n") as fh:
            fh.write("header\n")
            for lead, row in zip(leads, values.tolist()):
                fh.write("".join([f"{lead}{tail}{v:.17g}\n" for tail, v in zip(inner, row)]))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _grid_column(tmp_path, grid) -> list[str]:
    cli._write_rows(tmp_path / "grid.csv", "chi,zeta,xi,theta_cap,omega", *grid)
    return [line.rsplit(",", 1)[1] for line in (tmp_path / "grid.csv").read_text().splitlines()[1:]]


def test_grid_writers_tell_negative_zero_from_zero(tmp_path):
    # One slab holds -0.0, 0.0 and repeats; the next repeats them in another
    # order and adds the smallest normal and the smallest subnormal.
    omega = np.array([-0.0, 0.0, 0.25, -0.0, 0.25, 0.0, 0.0, -0.0, 0.25, 2.2250738585072014e-308, 5e-324, -0.0])
    grid, density = _grid_of_rows(omega.reshape(4, 3), range(4), 2, 2, 0.5)
    _assert_rows_match(tmp_path, grid, density)
    assert _grid_column(tmp_path, grid) == ["-0", "0", "0.25", "-0", "0.25", "0", "0", "-0", "0.25",
                                            "2.2250738585072014e-308", "4.9406564584124654e-324", "-0"]


def test_grid_writers_match_when_a_row_recurs_under_other_leads(tmp_path):
    # Row 0 recurs within the first chi slab and again in the last one, which
    # repeats the first slab, so density.csv repeats a row too.
    rows = np.random.default_rng(17).normal(size=(3, 4))
    grid, density = _grid_of_rows(rows, [0, 1, 0, 2, 0, 1, 0, 1, 0], 3, 3, 0.25)
    _assert_rows_match(tmp_path, grid, density)
    cli._write_rows(tmp_path / "grid.csv", "chi,zeta,xi,theta_cap,omega", *grid)
    lines = (tmp_path / "grid.csv").read_text().splitlines()[1:]
    first, last = lines[:4], lines[32:]  # the leads (chi 0, zeta 0) and (chi 2, zeta 2)
    assert [line.split(",", 2)[2] for line in first] == [line.split(",", 2)[2] for line in last]


def test_grid_writers_tell_rows_apart_by_their_zero_signs(tmp_path):
    # The two rows are equal under ==; each must print its own signs.
    rows = [[0.0, 0.5, -0.0], [-0.0, 0.5, 0.0]]
    assert rows[0] == rows[1]
    grid, density = _grid_of_rows(rows, [0, 1, 1, 0], 2, 2, 0.25)
    _assert_rows_match(tmp_path, grid, density)
    assert _grid_column(tmp_path, grid) == ["0", "0.5", "-0"] + ["-0", "0.5", "0"] * 2 + ["0", "0.5", "-0"]


def test_grid_writers_match_past_the_row_cache_limit(tmp_path):
    # Twice the cap of distinct rows and more, each followed by a repeat of an
    # earlier row: some still cached, some dropped when the cache started afresh.
    distinct = 2 * cli.ROW_CACHE_LIMIT + 25
    layout = []
    for p in range(distinct):
        layout += [p, (p * 7919) % (p + 1)]
    rows = np.random.default_rng(23).normal(size=(distinct, 3))
    _assert_rows_match(tmp_path, *_grid_of_rows(rows, layout, distinct, 2, 0.25))


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
    distinct = PovmSweepResult(61, 0.0, values)
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


# SHA-256 of stderr, recorded when the verify paths recomputed omega one
# point at a time; the stacked recomputation must print the same gaps.
VERIFY_STDERR_PINS = {
    ("figures", "--steps", "21", "--grid", "7", "--verify"):
        "fe85122fe2b9c8e743eeb6580ddd24fc69ff456ca9b65697bfd8023031b836c8",
    ("figures", "--steps", "201", "--grid", "61", "--verify"):
        "aff643620708c01ee9f9a0db4814d7505fa7b7844481e0caedb4e538171c0074",
    ("locc", "--grid", "21", "--verify"):
        "61e4395f0294ad74970707c6865329e24f2e257a8d02c789eaa6e4d5ef60d928",
    (
        "locc", "--grid", "21", "--verify", "--family", "psi_lambda", "--lambda", "0.3",
        "--mirror-povm", "--theta-cap", "0.5",
    ): "a716e4e15de4dceaf13959006c83d50ff674aed3ba0b2cec0cbd061592466195",
}


@pytest.mark.parametrize("argv", list(VERIFY_STDERR_PINS), ids=lambda argv: " ".join(argv))
def test_verify_stderr_is_pinned(tmp_path, capsys, argv):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256(capsys.readouterr().err.encode()).hexdigest() == VERIFY_STDERR_PINS[argv]


@pytest.mark.parametrize(
    "argv, verified",
    [
        (("figures", "--steps", "5", "--grid", "61", "--verify"), 38),  # 61^2 cells
        (("locc", "--grid", "21", "--verify"), 93),  # 21^3 points
        (("locc", "--grid", "21", "--verify", "--mirror-povm"), 93),
    ],
    ids=["figures", "locc", "locc-mirrored"],
)
def test_verify_reads_omega_once_per_block(monkeypatch, tmp_path, capsys, argv, verified):
    i2 = i_m_witness(fourier_pair(2))
    reads, evaluations = [], []
    read, evaluate = Witness.read, Witness.evaluate

    def counted_read(self, entries):
        if self is i2:
            reads.append(len(entries))
        return read(self, entries)

    def counted_evaluate(self, *args, **kwargs):
        evaluations.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(Witness, "read", counted_read)
    monkeypatch.setattr(Witness, "evaluate", counted_evaluate)
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert f"rows checked {verified}," in capsys.readouterr().err
    assert len(reads) == -(-verified // cli.BLOCK_ROWS)
    assert max(reads) <= 1 + 2 * cli.BLOCK_ROWS  # rho and two branches a point
    assert evaluations == []


@pytest.mark.parametrize(
    "argv, index, context",
    [
        (("locc", "--grid", "21", "--verify", "--family", "psi_lambda", "--lambda", "0.3"), 400, "grid index"),
        (("locc", "--grid", "21", "--verify", "--mirror-povm", "--theta-cap", "0.5"), 6200, "grid index"),
        (("figures", "--steps", "3", "--grid", "21", "--verify"), 300, "fig1 row"),
    ],
    ids=["locc", "locc-mirrored", "figures"],
)
def test_a_broken_verify_branch_is_an_invariant_breach(monkeypatch, tmp_path, capsys, argv, index, context):
    # Make density_defect reject one post-measurement branch of one verified
    # point: an internal breach, so exit 3 naming the point, not exit 2.
    grid = int(argv[argv.index("--grid") + 1])
    lam = float(argv[argv.index("--lambda") + 1]) if "--lambda" in argv else 0.5
    cap = float(argv[argv.index("--theta-cap") + 1]) if "--theta-cap" in argv else 0.0
    party = 1 if "--mirror-povm" in argv else 0
    rho = psi_lambda(lam).density()
    result = sweep(rho, grid, theta_cap=cap, party=party)
    cube = result.omega.reshape((grid,) * 3)
    if context == "fig1 row":
        i, j = divmod(index, grid)
        point = (i, j, int(np.argmin(cube[i, j])))
    else:
        point = np.unravel_index(index, (grid,) * 3)
    params = PovmParams(*(float(result.axis[n]) for n in point), cap)
    target = _reference_branch(rho, _reference_povm(params)[0], party)[1].entries
    defects = []
    for module in (mubcert.linalg, mubcert.correlations):
        real = module.density_defect

        def reject_target(m, real=real):
            stack = m.reshape((-1,) + m.shape[-2:])
            hits = [row for row, matrix in enumerate(stack) if np.array_equal(matrix, target)]
            if hits:
                defects.append(hits[0])
                return hits[0], "matrix has a negative eigenvalue (-1.000e-03)"
            return real(m)

        monkeypatch.setattr(module, "density_defect", reject_target)
    code = main([*argv, "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert defects and code == 3
    assert captured.err == f"invariant breach: {context} {index}: matrix has a negative eigenvalue (-1.000e-03)\n"


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
        (["--d", "1"], "--d must be at least 2, got 1"),
        (["--d=0"], "--d must be at least 2, got 0"),
        (["--d=-3"], "--d must be at least 2, got -3"),
        (["--seed", "-1"], "--seed"),
    ],
    ids=[
        "d-1000", "d-17-complete-family", "default-d-complete-family", "d-4-complete-family",
        "d-1", "d-0", "d-negative", "negative-seed",
    ],
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


def test_console_script_help():
    # Without the installed script, run the target that pyproject.toml declares.
    root = Path(__file__).resolve().parents[1]
    command = ["mubcert", "--help"]
    if shutil.which("mubcert") is None:
        tomllib = pytest.importorskip("tomllib")
        target = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]["mubcert"]
        module, function = target.split(":")
        command = [sys.executable, "-c", f"from {module} import {function}; {function}()", "--help"]
    done = subprocess.run(command, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
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
