"""Command-line front end: certify, sweep, locc, check-bounds, figures.

Exit codes: 0 success, 2 invalid input or configuration, 3 internal
invariant breach.  All angles are radians.  CSV output uses '.' decimals,
comma separators, LF line endings and 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .correlations import (
    CertificationReport,
    i3,
    i3_oracle,
    i4,
    i4_oracle,
    i_m_bipartite,
    joint_probability,
    mub_settings,
    paper_i2_psi_lambda,
    paper_i3_ghz3,
    paper_i3_w3,
    paper_i4_ghz4,
    uniform_setting,
)
from .linalg import DensityMatrix, InvariantError, StateVector
from .locc import PovmParams, PovmSweepResult, omega, sweep
from .measures import global_q, triangle_tau
from .mub import MubFamily, fourier_pair, prime_mub_family
from .states import (
    W3_STANDARD_ALPHA,
    W3_STANDARD_THETA,
    biseparable_sample,
    ghz3,
    ghz4,
    psi_lambda,
    separable_sample,
    state_from_json_dict,
    w3,
    wg4,
)

DEFAULT_SEED = 20260816
VERIFY_STRIDE = 100
VERIFY_TOL = 1e-10

PI = math.pi


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _dump_json(obj, path: Path | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _load_state(path: str) -> StateVector:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return state_from_json_dict(data)


def _i2_check(rho: DensityMatrix, family: MubFamily) -> float:
    # Verification route for bipartite rows: per-outcome quadratic forms
    # summed directly, bypassing the vectorized distribution path.
    total = []
    for basis in family.bases:
        setting = uniform_setting(basis, 2)
        total.extend(joint_probability(rho, setting, (i, i)) for i in range(family.d))
    return math.fsum(total)


def _verify_row(kind: str, rho: DensityMatrix, value: float, context: str) -> None:
    if kind == "i3":
        reference = i3_oracle(rho)
    elif kind == "i4":
        reference = i4_oracle(rho)
    else:
        reference = _i2_check(rho, fourier_pair(2))
    if abs(reference - value) > VERIFY_TOL:
        raise InvariantError(
            f"verification mismatch at {context}: emitted {value!r}, recomputed {reference!r}"
        )


# ---------------------------------------------------------------- certify

_CERTIFY_FAMILIES = ("psi_lambda", "bell", "ghz3", "w3", "ghz4", "wg4", "product3", "product4")


def _check_lambda(args) -> None:
    if args.lam is not None and (args.state is not None or args.family != "psi_lambda"):
        raise ValueError("--lambda applies only to --family psi_lambda")


def _family_state(args) -> tuple[StateVector, dict]:
    name = args.family
    if name in ("psi_lambda", "bell"):
        lam = 0.5 if args.lam is None else args.lam
        return psi_lambda(lam), {"lambda": lam}
    if name == "ghz3":
        theta = PI / 4 if args.theta is None else args.theta
        return ghz3(theta), {"theta": theta}
    if name == "w3":
        theta = W3_STANDARD_THETA if args.theta is None else args.theta
        alpha = W3_STANDARD_ALPHA if args.alpha is None else args.alpha
        return w3(theta, alpha), {"theta": theta, "alpha": alpha}
    if name == "ghz4":
        theta = PI / 4 if args.theta is None else args.theta
        return ghz4(theta), {"theta": theta}
    if name == "wg4":
        theta = 1.05 if args.theta is None else args.theta
        mu = 0.62 if args.mu is None else args.mu
        nu = PI / 4 if args.nu is None else args.nu
        return wg4(theta, mu, nu), {"theta": theta, "mu": mu, "nu": nu}
    if name == "product3":
        return StateVector((2, 2, 2), [1, 0, 0, 0, 0, 0, 0, 0]), {}
    if name == "product4":
        return StateVector((2, 2, 2, 2), [1] + [0] * 15), {}
    raise ValueError(f"unknown family {name!r}")


def _reference_value(name: str, params: dict) -> tuple[str, float] | None:
    if name in ("psi_lambda", "bell"):
        return "paper_i2", paper_i2_psi_lambda(params["lambda"])
    if name == "ghz3":
        return "paper_i3", paper_i3_ghz3(params["theta"])
    if name == "w3":
        return "paper_i3", paper_i3_w3(params["theta"], params["alpha"])
    if name == "ghz4":
        return "paper_i4", paper_i4_ghz4(params["theta"])
    return None


def _certify_state(psi: StateVector, basis_search: bool):
    rho = psi.density()
    n = psi.n_parties
    if n == 2:
        if psi.dims[0] != psi.dims[1]:
            raise ValueError(f"bipartite certification needs equal dims, got {psi.dims}")
        return i_m_bipartite(rho, fourier_pair(psi.dims[0]))
    if n == 3:
        return i3(rho, basis_search=basis_search)
    if n == 4:
        return i4(rho, basis_search=basis_search)
    raise ValueError(f"certification supports 2-4 parties, got {n}")


def cmd_certify(args) -> int:
    if (args.family is None) == (args.state is None):
        raise ValueError("give exactly one of --family or --state")
    _check_lambda(args)
    if args.family is not None:
        psi, params = _family_state(args)
        out = {"family": args.family, "params": params}
        reference = _reference_value(args.family, params)
    else:
        psi = _load_state(args.state)
        out = {"state": args.state, "dims": list(psi.dims)}
        reference = None
    report = _certify_state(psi, args.basis_search)
    out["report"] = report.to_dict()
    if reference is not None:
        out[reference[0]] = reference[1]
    if abs(psi.original_norm - 1.0) > 1e-12:
        out["original_norm"] = psi.original_norm
    if args.format == "csv":
        header, row = _flatten_certify(out)
        if args.out:
            _write_csv(Path(args.out), header, [row])
        else:
            sys.stdout.write(",".join(header) + "\n")
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        _dump_json(out, Path(args.out) if args.out else None)
    return 0


def _flatten_certify(out: dict) -> tuple[list[str], list]:
    # One flat CSV row; nested report/params keys are promoted, sequence
    # values (per-basis terms, dims) joined with ';' so the row stays flat.
    flat: dict[str, object] = {}
    for key, value in out.items():
        if isinstance(value, dict):
            flat.update(value)
        else:
            flat[key] = value
    header = sorted(flat)
    row = []
    for key in header:
        value = flat[key]
        if isinstance(value, (list, tuple)):
            value = ";".join(_fmt(v) for v in value)
        row.append(value)
    return header, row


# ------------------------------------------------------------------ sweep

_SWEEP_FAMILIES = ("psi_lambda", "ghz3", "w3", "ghz4", "wg4")


def _sweep_rows(args):
    name = args.family
    start = args.start
    stop = args.stop
    if name == "psi_lambda":
        lo = 0.0 if start is None else start
        hi = 1.0 if stop is None else stop
    elif name in ("ghz3", "w3", "ghz4", "wg4"):
        lo = 0.0 if start is None else start
        hi = PI / 2 if stop is None else stop
    else:
        raise ValueError(f"unknown family {name!r}")
    values = np.linspace(lo, hi, args.steps)

    family2 = fourier_pair(2)
    alpha = W3_STANDARD_ALPHA if args.alpha is None else args.alpha
    wg_theta = 1.05 if args.theta is None else args.theta
    wg_nu = 0.5 if args.nu is None else args.nu

    if name == "psi_lambda":
        header = ["lambda", "i2", "bound", "paper_i2"]
    elif name in ("ghz3", "w3"):
        header = ["theta", "i3", "tau", "bound", "paper_i3"]
    elif name == "ghz4":
        header = ["theta", "i4", "q", "bound", "paper_i4"]
    else:
        header = ["mu", "i4", "q", "bound"]

    rows = []
    for index, x in enumerate(values):
        x = float(x)
        if name == "psi_lambda":
            psi = psi_lambda(x)
            rho = psi.density()
            report = i_m_bipartite(rho, family2)
            row = (x, report.i_value, report.bound, paper_i2_psi_lambda(x))
            kind = "i2"
        elif name == "ghz3":
            psi = ghz3(x)
            rho = psi.density()
            report = i3(rho)
            row = (x, report.i_value, triangle_tau(psi), report.bound, paper_i3_ghz3(x))
            kind = "i3"
        elif name == "w3":
            psi = w3(x, alpha)
            rho = psi.density()
            report = i3(rho)
            row = (x, report.i_value, triangle_tau(psi), report.bound, paper_i3_w3(x, alpha))
            kind = "i3"
        elif name == "ghz4":
            psi = ghz4(x)
            rho = psi.density()
            report = i4(rho)
            row = (x, report.i_value, global_q(psi), report.bound, paper_i4_ghz4(x))
            kind = "i4"
        else:
            psi = wg4(wg_theta, x, wg_nu)
            rho = psi.density()
            report = i4(rho)
            row = (x, report.i_value, global_q(psi), report.bound)
            kind = "i4"
        if args.verify and index % VERIFY_STRIDE == 0:
            _verify_row(kind, rho, report.i_value, f"{name} row {index}")
        rows.append(row)
    return header, rows


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    header, rows = _sweep_rows(args)
    if args.format == "json":
        _dump_json([dict(zip(header, row)) for row in rows], Path(args.out) if args.out else None)
    elif args.out:
        _write_csv(Path(args.out), header, rows)
    else:
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


# ------------------------------------------------------------------- locc

def _locc_state(args) -> DensityMatrix:
    if args.state is not None and args.family is not None:
        raise ValueError("give at most one of --family or --state")
    _check_lambda(args)
    if args.state is not None:
        psi = _load_state(args.state)
        if psi.dims != (2, 2):
            raise ValueError(f"locc needs a two-qubit state, got dims {psi.dims}")
        return psi.density()
    return psi_lambda(0.5 if args.lam is None else args.lam).density()


def _verify_omega(rho: DensityMatrix, params: PovmParams, party: int, value: float, context: str) -> None:
    reference = omega(rho, params, party=party)
    if abs(reference - value) > VERIFY_TOL:
        raise InvariantError(
            f"verification mismatch at {context}: emitted {value!r}, recomputed {reference!r}"
        )


def _write_grid_csv(path: Path, result: PovmSweepResult) -> None:
    # One row per grid point: each axis value and theta_cap is formatted
    # once, omega per row, one chi slab at a time; the bytes match _write_csv's.
    chi_ax, zeta_ax, xi_ax = ([_fmt(float(v)) for v in ax] for ax in result.axes())
    cap = _fmt(result.theta_cap)
    tails = [f"{z},{x},{cap}," for z in zeta_ax for x in xi_ax]
    slabs = result.omega.reshape(len(chi_ax), len(tails))
    with open(path, "w", newline="\n") as fh:
        fh.write("chi,zeta,xi,theta_cap,omega\n")
        for chi, slab in zip(chi_ax, slabs):
            fh.write("".join([f"{chi},{tail}{v:.17g}\n" for tail, v in zip(tails, slab.tolist())]))


def _write_density_csv(path: Path, result: PovmSweepResult) -> None:
    chi_ax, zeta_ax, _ = result.axes()
    density = result.density_min_over_xi()
    rows = (
        (float(c), float(z), float(v)) for c, row in zip(chi_ax, density) for z, v in zip(zeta_ax, row)
    )
    _write_csv(path, ["chi", "zeta", "min_omega_over_xi"], rows)


def _run_locc(rho: DensityMatrix, grid_steps: int, theta_cap: float, party: int, verify: bool, out_dir: Path):
    axis = (-PI, PI, grid_steps)
    result = sweep(rho, grid=(axis, axis, axis), theta_cap=theta_cap, party=party)
    out_dir.mkdir(parents=True, exist_ok=True)
    if verify:
        chi_ax, zeta_ax, xi_ax = result.axes()
        for index in range(0, result.omega.size, VERIFY_STRIDE):
            i, j, k = np.unravel_index(index, (grid_steps,) * 3)
            params = PovmParams(float(chi_ax[i]), float(zeta_ax[j]), float(xi_ax[k]), theta_cap)
            _verify_omega(rho, params, party, float(result.omega[index]), f"grid index {index}")
    _write_grid_csv(out_dir / "grid.csv", result)
    _write_density_csv(out_dir / "density.csv", result)

    summary = {
        "min_omega": result.min_omega,
        "argmin": {
            "chi": result.argmin.chi,
            "zeta": result.argmin.zeta,
            "xi": result.argmin.xi,
            "theta_cap": result.argmin.theta_cap,
        },
        "grid_steps": grid_steps,
        "theta_cap": theta_cap,
        "party": party,
        "non_negative": bool(result.min_omega >= -1e-9),
    }
    _dump_json(summary, out_dir / "summary.json")
    return summary


def cmd_locc(args) -> int:
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    rho = _locc_state(args)
    party = 1 if args.mirror_povm else 0
    summary = _run_locc(rho, args.grid, args.theta_cap, party, args.verify, Path(args.out_dir))
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


# ----------------------------------------------------------- check-bounds

_BOUND_CLASSES = ("biseparable3", "biseparable4", "separable-bipartite")


def run_bound_campaign(klass: str, trials: int, seed: int, d: int = 2, complete_family: bool = False) -> dict:
    """Seeded random campaign against the separability bound of one class.

    Returns a summary dict with the worst value seen and a pass flag; the
    campaign is deterministic in (klass, trials, seed, d).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if klass == "biseparable3":

        def certify(trial: int) -> CertificationReport:
            return i3(biseparable_sample(3, trial, seed))

    elif klass == "biseparable4":

        def certify(trial: int) -> CertificationReport:
            return i4(biseparable_sample(4, trial, seed))

    elif klass == "separable-bipartite":
        family = prime_mub_family(d) if complete_family else fourier_pair(d)
        settings = mub_settings(family)

        def certify(trial: int) -> CertificationReport:
            return i_m_bipartite(separable_sample(d, trial, seed), family, settings)

    else:
        raise ValueError(f"unknown class {klass!r}")

    # Trials stream one at a time, so memory stays flat in the trial count.
    # Bound and verdict come from the worst trial's report.
    worst, worst_trial = certify(0), 0
    for trial in range(1, trials):
        report = certify(trial)
        if report.i_value > worst.i_value:
            worst, worst_trial = report, trial
    summary = {
        "class": klass,
        "trials": trials,
        "seed": seed,
        "bound": worst.bound,
        "max_i": worst.i_value,
        "worst_trial": worst_trial,
        "pass": not worst.violated,
    }
    if klass == "separable-bipartite":
        summary["d"] = d
        summary["m"] = (d + 1) if complete_family else 2
    return summary


def cmd_check_bounds(args) -> int:
    summary = run_bound_campaign(
        args.klass, args.trials, args.seed, d=args.d, complete_family=args.complete_family
    )
    _dump_json(summary, Path(args.out) if args.out else None)
    return 0 if summary["pass"] else 3


# ---------------------------------------------------------------- figures

def cmd_figures(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = args.steps
    verify = args.verify

    # fig1: (chi, zeta) density of min-over-xi omega for the Bell state.
    rho_bell = psi_lambda(0.5).density()
    axis = (-PI, PI, args.grid)
    result = sweep(rho_bell, grid=(axis, axis, axis), theta_cap=0.0)
    if verify:
        chi_ax, zeta_ax, xi_ax = result.axes()
        cube = result.omega.reshape((args.grid,) * 3)
        for index in range(0, args.grid**2, VERIFY_STRIDE):
            i, j = divmod(index, args.grid)
            k = int(np.argmin(cube[i, j]))
            params = PovmParams(float(chi_ax[i]), float(zeta_ax[j]), float(xi_ax[k]), 0.0)
            _verify_omega(rho_bell, params, 0, float(cube[i, j, k]), f"fig1 row {index}")
    _write_density_csv(out_dir / "fig1.csv", result)

    base = argparse.Namespace(
        start=None, stop=None, steps=steps, verify=verify, alpha=None, theta=None, nu=None
    )
    for fig_name, family in (("fig2", "ghz3"), ("fig3", "w3"), ("fig4", "ghz4"), ("fig5", "wg4")):
        base.family = family
        header, fam_rows = _sweep_rows(base)
        _write_csv(out_dir / f"{fig_name}.csv", header, fam_rows)
    return 0


# ------------------------------------------------------------------ wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubcert",
        description="Certify genuine multipartite entanglement from correlations in mutually unbiased bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser("certify", help="certify one state (family or JSON file)")
    p_cert.add_argument("--family", choices=_CERTIFY_FAMILIES)
    p_cert.add_argument("--state", help="path to a JSON state file")
    p_cert.add_argument("--lambda", dest="lam", type=float)
    p_cert.add_argument("--theta", type=float)
    p_cert.add_argument("--alpha", type=float)
    p_cert.add_argument("--mu", type=float)
    p_cert.add_argument("--nu", type=float)
    p_cert.add_argument("--basis-search", action="store_true")
    p_cert.add_argument("--format", choices=("json", "csv"), default="json")
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="sweep one family parameter to CSV")
    p_sweep.add_argument("--family", choices=_SWEEP_FAMILIES, required=True)
    p_sweep.add_argument("--from", dest="start", type=float)
    p_sweep.add_argument("--to", dest="stop", type=float)
    p_sweep.add_argument("--steps", type=int, default=201)
    p_sweep.add_argument("--alpha", type=float)
    p_sweep.add_argument("--theta", type=float)
    p_sweep.add_argument("--nu", type=float)
    p_sweep.add_argument("--verify", action="store_true")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_locc = sub.add_parser("locc", help="POVM monotonicity sweep for a two-qubit state")
    p_locc.add_argument("--family", choices=("bell", "psi_lambda"), help="default: bell")
    p_locc.add_argument("--state", help="path to a JSON state file")
    p_locc.add_argument("--lambda", dest="lam", type=float)
    p_locc.add_argument("--grid", type=int, default=61)
    p_locc.add_argument("--theta-cap", type=float, default=0.0)
    p_locc.add_argument("--mirror-povm", action="store_true")
    p_locc.add_argument("--verify", action="store_true")
    p_locc.add_argument("--out-dir", default=".")
    p_locc.set_defaults(func=cmd_locc)

    p_check = sub.add_parser("check-bounds", help="seeded random campaign against a bound")
    p_check.add_argument("--class", dest="klass", choices=_BOUND_CLASSES, required=True)
    p_check.add_argument("--trials", type=int, default=10000)
    p_check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_check.add_argument("--d", type=int, default=2)
    p_check.add_argument("--complete-family", action="store_true")
    p_check.add_argument("--out")
    p_check.set_defaults(func=cmd_check_bounds)

    p_fig = sub.add_parser("figures", help="emit all figure data files")
    p_fig.add_argument("--out-dir", default="figures")
    p_fig.add_argument("--steps", type=int, default=201)
    p_fig.add_argument("--grid", type=int, default=61)
    p_fig.add_argument("--verify", action="store_true")
    p_fig.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
