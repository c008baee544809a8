"""Family sweeps: the block evaluation against a per-row reference.

``cli._sweep_rows`` stacks each block's amplitude tensors from the family's
amplitude function, normalises them in one call, and validates and
evaluates the block as one stack.  The reference below is the per-row loop
it replaces: one family builder ``StateVector``, one ``density()``, one
``i_m_bipartite``/``i3``/``i4`` call and one ``triangle_tau``/``global_q``
call per row, and the oracle functions called directly for ``--verify``.
Both must give the same header, the same float bits and the same
``--verify`` report.
"""

import numpy as np
import pytest

import mubcert.linalg as linalg
import mubcert.measures as measures
import mubcert.correlations as correlations
from mubcert import (
    cli,
    diagonal_set,
    fourier_pair,
    global_q,
    i3,
    i3_oracle,
    i4,
    i4_oracle,
    i_m_bipartite,
    i_value_oracle,
    triangle_tau,
    uniform_setting,
)
from mubcert.cli import BLOCK_ROWS, VERIFY_STRIDE, main

SWEEPABLE = ("psi_lambda", "ghz3", "w3", "ghz4", "wg4")
_PER_ROW_MEASURES = {3: ("tau", triangle_tau), 4: ("q", global_q)}


def _i2(rho):
    return i_m_bipartite(rho, fourier_pair(2))


def _i2_oracle(rho):
    settings = [uniform_setting(b, 2) for b in fourier_pair(2).bases]
    return i_value_oracle(rho, settings, [diagonal_set(2)])


# Per party count: the column, the quantity and its oracle, each called
# directly rather than through the command's quantity lookup.
_PER_ROW_QUANTITIES = {2: ("i2", _i2, _i2_oracle), 3: ("i3", i3, i3_oracle), 4: ("i4", i4, i4_oracle)}


def _reference_sweep_rows(name, steps, check, args=None):
    family, values = cli._family(name, args, for_sweep=True)
    _, swept, lo, hi = family.sweep
    if args is not None:
        lo = lo if args.start is None else args.start
        hi = hi if args.stop is None else args.stop
    rows = []
    for index, x in enumerate(np.linspace(lo, hi, steps)):
        values[swept] = x = float(x)
        psi = family.build(*values.values())
        rho = psi.density()
        label, certify, oracle = _PER_ROW_QUANTITIES[psi.n_parties]
        report = certify(rho)
        row = {swept: x, label: report.i_value}
        if psi.n_parties in _PER_ROW_MEASURES:
            column, measure = _PER_ROW_MEASURES[psi.n_parties]
            row[column] = measure(psi)
        row["bound"] = report.bound
        if family.reference is not None:
            row["paper_" + label] = family.reference(*values.values())
        if check and index % VERIFY_STRIDE == 0:
            check.check(oracle(rho), report.i_value, f"{name} row {index}")
        rows.append(row)
    return list(rows[0]), [list(row.values()) for row in rows]


def _bits(header_rows):
    header, rows = header_rows
    return header, [[repr(v) for v in row] for row in rows]


def _sweep_args(*argv):
    return cli.build_parser().parse_args(["sweep", *argv])


def _both(name, steps, args=None):
    """(rows, verify rows, verify gap) of the block sweep and of the reference."""
    results = []
    for sweep_rows in (cli._sweep_rows, _reference_sweep_rows):
        check = cli._Verification("out")
        results.append((_bits(sweep_rows(name, steps, check, args)), check.rows, repr(check.gap)))
    return results


@pytest.mark.parametrize("steps", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 201])
@pytest.mark.parametrize("name", SWEEPABLE)
def test_block_sweep_matches_the_per_row_reference(name, steps):
    block, reference = _both(name, steps)
    assert block == reference
    assert block[1] == len(range(0, steps, VERIFY_STRIDE))


@pytest.mark.parametrize(
    "name, flags",
    [
        ("psi_lambda", ["--from", "1", "--to", "0"]),
        ("ghz3", ["--from", "1", "--to", "0"]),
        ("w3", ["--from", "1", "--to", "0", "--alpha", "0.3"]),
        ("ghz4", ["--from=-2", "--to", "5"]),
        ("wg4", ["--from", "1", "--to", "0", "--theta", "0.4", "--nu", "1.1"]),
        ("wg4", ["--theta", "1.2"]),
    ],
)
def test_block_sweep_matches_the_reference_on_overridden_ranges_and_flags(name, flags):
    args = _sweep_args("--family", name, *flags)
    block, reference = _both(name, 2 * BLOCK_ROWS + 5, args)
    assert block == reference


def test_block_sweep_prints_the_reference_verify_report(capsys):
    for sweep_rows in (cli._sweep_rows, _reference_sweep_rows):
        for name in SWEEPABLE:
            check = cli._Verification(name)
            sweep_rows(name, 201, check)
            check.report()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 * len(SWEEPABLE)
    assert lines[: len(SWEEPABLE)] == lines[len(SWEEPABLE) :]


@pytest.mark.parametrize("name", SWEEPABLE)
def test_sweep_builds_no_state_per_row(name, monkeypatch):
    # A row's amplitudes go straight into its block's stack; only a --verify
    # row builds an object, its DensityMatrix.
    built = {linalg.StateVector: 0, linalg.DensityMatrix: 0}
    for cls in built:
        original = cls.__post_init__

        def counted(self, cls=cls, original=original):
            built[cls] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    cli._sweep_rows(name, 201, None)
    assert built == {linalg.StateVector: 0, linalg.DensityMatrix: 0}
    check = cli._Verification(name)
    cli._sweep_rows(name, 201, check)
    assert built == {linalg.StateVector: 0, linalg.DensityMatrix: check.rows}
    assert check.rows == len(range(0, 201, VERIFY_STRIDE))


def test_figures_validates_each_sweep_matrix_once(tmp_path, monkeypatch):
    # Every validation goes through linalg.density_defect; count the matrices
    # it sees while each figure's sweep runs.  A row is one state matrix and
    # its n one-party reductions; a --verify row one more matrix.
    seen = []
    original = linalg.density_defect

    def counted(m):
        seen.append(m.reshape(-1, *m.shape[-2:]).shape[0])
        return original(m)

    for module in (linalg, measures, correlations):
        monkeypatch.setattr(module, "density_defect", counted)
    per_figure = []
    sweep_rows = cli._sweep_rows

    def counted_sweep(*args):
        before = sum(seen)
        result = sweep_rows(*args)
        per_figure.append(sum(seen) - before)
        return result

    monkeypatch.setattr(cli, "_sweep_rows", counted_sweep)
    steps = 9
    for verify, extra in (([], 0), (["--verify"], 1)):
        per_figure.clear()
        argv = ["figures", "--steps", str(steps), "--grid", "3", "--out-dir", str(tmp_path), *verify]
        assert main(argv) == 0
        # ghz3, w3: three qubits; ghz4, wg4: four.  One row in 9 is verified.
        assert per_figure == [steps * (1 + n) + extra for n in (3, 3, 4, 4)]


def test_a_block_breach_exits_3_naming_the_row(capsys, monkeypatch):
    # A measure core that finds a bad reduction names the row of its stack;
    # the sweep turns that into the row's swept value.
    def breach(entries):
        raise linalg.InvariantError("party 1 reduction: trace must be 1, got (2+0j)", 5)

    monkeypatch.setattr(cli, "triangle_tau_stack", breach)
    code = main(["sweep", "--family", "ghz3", "--from", "0", "--to", "1", "--steps", "11"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "invariant breach: ghz3 theta=0.5: party 1 reduction: trace must be 1, got (2+0j)\n"
    )
