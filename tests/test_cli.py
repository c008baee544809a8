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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubcert import StateVector, ghz3, kron, psi_lambda, random_pure
from mubcert.cli import main
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
    "argv, flag",
    [
        (["certify", "--family", "w3", "--alpha=inf"], "--alpha"),
        (["certify", "--family", "ghz3", "--theta=nan"], "--theta"),
        (["certify", "--family", "psi_lambda", "--lambda=-inf"], "--lambda"),
        (["sweep", "--family", "ghz3", "--steps", "3", "--from=-inf"], "--from"),
        (["sweep", "--family", "ghz3", "--steps", "3", "--to=nan"], "--to"),
        (["locc", "--grid", "3", "--family", "psi_lambda", "--lambda=nan"], "--lambda"),
    ],
    ids=lambda v: v if isinstance(v, str) else " ".join(v),
)
def test_nonfinite_values_exit_2_naming_the_flag(tmp_path, capsys, argv, flag):
    code = main([*argv, *(["--out-dir", str(tmp_path)] if argv[0] == "locc" else [])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"{flag}=" in captured.err and "finite" in captured.err


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
    values = draw(st.lists(st.floats() | st.sampled_from([math.inf, -math.inf, math.nan]),
                           min_size=len(flags), max_size=len(flags)))
    return command, family, flags, values, [f for f in flags if f not in takes[family]]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_family_flags())
def test_parameter_flags_exit_0_only_when_the_family_takes_them(case):
    command, family, flags, values, rejected = case
    nonfinite = [f for f, v in zip(flags, values) if not math.isfinite(v)]
    argv = [command, "--family", family, *(["--steps", "2"] if command == "sweep" else [])]
    for flag, value in zip(flags, values):
        argv.append(f"--{flag}={value!r}")  # "=" keeps argparse from reading -1e+16 as a flag
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in ((2,) if rejected or nonfinite else (0, 2))
    if code == 2:
        assert stdout.getvalue() == ""
    # Flags the family does not take are named first; else every non-finite one.
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


# SHA-256 of the files written at grid 7, pinned before the grid sweep and
# grid.csv writer were streamed; the streamed code must reproduce each byte.
# Pinned on x86-64 (AVX-512) with numpy 2.4 and OpenBLAS 0.3.31: the last
# bits of omega follow numpy's SIMD sin/cos and the BLAS gemm kernel, so
# another build may need its own pins.  The "stdout" pins and the fig2-fig5
# pins were recorded before the family table replaced the CLI's per-family
# code: every family under certify and sweep, with and without parameters.
LOCC_GOLDEN = {
    ("locc", "--grid", "7"): {
        "grid.csv": "2256a3213a3dcb5b561b85a10fb92824fa3391fa687e801efe7f52b1c6d013d5",
        "density.csv": "70bd1ab20887f3359d30726179773ed3811f81c465b128d276e26702cd02971b",
        "summary.json": "af670d26ac0c768d374fd44260346cb7e5d3af0940da266969a331f3daefa930",
    },
    (
        "locc", "--grid", "7", "--family", "psi_lambda", "--lambda", "0.3",
        "--mirror-povm", "--theta-cap", "0.5",
    ): {
        "grid.csv": "f092e526f6b33a5c2e1d7e9129b887ec685e9d4ab909e15345914973b8955f2e",
        "density.csv": "f0b845ccfa70241b79fe940510bce80fd7217859fc8a64f1e9d8d02fbdd84dcd",
        "summary.json": "30ea69f2bad670823f9d22776360192df1f5fc9413d049151a94158bd3e1dffc",
    },
    ("figures", "--steps", "5", "--grid", "7", "--verify"): {
        "fig1.csv": "70bd1ab20887f3359d30726179773ed3811f81c465b128d276e26702cd02971b",
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
