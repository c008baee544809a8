"""Command-line front end: certify, sweep, locc, check-bounds, figures.

Exit codes: 0 success, 2 invalid input or configuration (a request too
large to allocate among them), 3 internal invariant breach.  All angles
are radians.  CSV output uses '.' decimals, comma separators, LF line
endings and 17 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import states
from .correlations import (
    VIOLATION_MARGIN,
    Witness,
    i3_witness,
    i4_witness,
    i_m_witness,
    i_value_oracle,
    paper_i2_psi_lambda,
    paper_i3_ghz3,
    paper_i3_w3,
    paper_i4_ghz4,
)
from .linalg import UNIT_NORM_TOL, DensityMatrix, InvariantError, StackError, StateVector, normalise
from .locc import PovmSweepResult, min_omega_family, omega_stack, sweep
from .measures import global_q_stack, triangle_tau_stack
from .mub import fourier_pair, is_odd_prime, prime_mub_family
from .states import (
    MAX_STATE_DIM,
    W3_STANDARD_ALPHA,
    W3_STANDARD_THETA,
    biseparable_block,
    separable_block,
    state_from_json_dict,
)

DEFAULT_SEED = 20260816
VERIFY_STRIDE = 100
VERIFY_TOL = 1e-10
# Campaign trials or sweep rows validated and evaluated as one stack.  Blocks
# are fixed-size, so memory stays flat in the trial or step count.
BLOCK_ROWS = 64
# Formatted values and row texts _write_rows keeps before it starts afresh.
# A LOCC grid of a pure state repeats most of both: its 61^3 points hold
# 2.4k to 10k distinct values in 341 to 358 distinct xi-rows.  The caps keep
# the write of a grid that repeats neither under 3.6 MB (tracemalloc peak).
TEXT_CACHE_LIMIT = 1 << 13
ROW_CACHE_LIMIT = 1 << 9

PI = math.pi


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _output(path: str | Path | None):
    """The file at ``path`` with LF line endings, or stdout when no path is given."""
    return open(path, "w", newline="\n") if path else contextlib.nullcontext(sys.stdout)


def _write_csv(path: str | Path | None, header, rows) -> None:
    # A row of Python floats takes one template: "%.17g" and _fmt's
    # format(v, ".17g") give the same text for every double.
    floats = ",".join(["%.17g"] * len(header)) + "\n"
    with _output(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            if {*map(type, row)} == {float}:
                fh.write(floats % tuple(row))
            else:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _dump_json(obj, path: str | Path | None) -> None:
    with _output(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_state(args) -> StateVector:
    """The state in the file ``args.state``; any parameter flag is an input error, checked first."""
    _param_flags(args, (), f"{args.command} --state")
    with open(args.state) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.state}: not valid JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{args.state}: JSON nested too deeply to read") from None
    return state_from_json_dict(data)


# --------------------------------------------------------------- families
#
# What the commands know about state families lives in the table below.  It
# is built when read, not at import, so that every amplitude function in it
# is looked up by name at call time: the benchmark's tracer times calls by
# swapping module-level functions for wrappers.


class _Quantity(NamedTuple):
    name: str  # sweep column; "paper_" + name is the reference column
    witness: Witness
    measure: tuple[str, Callable[[np.ndarray], list[float]]] | None  # extra sweep column, of a stack


def _quantity(dims: tuple[int, ...]) -> _Quantity:
    """The certification quantity for states of these dims."""
    n_parties = len(dims)
    if n_parties == 2:
        return _Quantity("i2", i_m_witness(fourier_pair(dims[0])), None)
    if n_parties == 3:
        return _Quantity("i3", i3_witness(), ("tau", triangle_tau_stack))
    if n_parties == 4:
        return _Quantity("i4", i4_witness(), ("q", global_q_stack))
    raise ValueError(f"certification supports 2-4 parties, got {n_parties}")


class _Family(NamedTuple):
    amplitudes: Callable[..., np.ndarray]  # the state's amplitude tensor, party k along axis k
    params: dict[str, float]  # certify defaults, in the amplitude function's argument order
    reference: Callable[..., float] | None = None  # paper_* curve over the same arguments
    sweep: tuple[str, float, float] | None = None  # swept parameter and its range
    sweep_params: dict[str, float] = {}  # defaults that differ under sweep
    fixed: tuple[str, ...] = ()  # shown in params but not settable

    def build(self, values: dict[str, float]) -> StateVector:
        amps = self.amplitudes(*values.values())
        return StateVector(amps.shape, amps)


def _families() -> dict[str, _Family]:
    return {
        "psi_lambda": _Family(states.psi_lambda_amplitudes, {"lambda": 0.5}, paper_i2_psi_lambda, ("lambda", 0.0, 1.0)),
        "bell": _Family(states.psi_lambda_amplitudes, {"lambda": 0.5}, paper_i2_psi_lambda, fixed=("lambda",)),
        "ghz3": _Family(states.ghz3_amplitudes, {"theta": PI / 4}, paper_i3_ghz3, ("theta", 0.0, PI / 2)),
        "w3": _Family(
            states.w3_amplitudes,
            {"theta": W3_STANDARD_THETA, "alpha": W3_STANDARD_ALPHA},
            paper_i3_w3,
            ("theta", 0.0, PI / 2),
        ),
        "ghz4": _Family(states.ghz4_amplitudes, {"theta": PI / 4}, paper_i4_ghz4, ("theta", 0.0, PI / 2)),
        "wg4": _Family(
            states.wg4_amplitudes,
            {"theta": 1.05, "mu": 0.62, "nu": PI / 4},
            sweep=("mu", 0.0, PI / 2),
            sweep_params={"nu": 0.5},
        ),
        "product3": _Family(lambda: np.eye(1, 2**3, dtype=np.complex128).reshape((2,) * 3), {}),
        "product4": _Family(lambda: np.eye(1, 2**4, dtype=np.complex128).reshape((2,) * 4), {}),
    }


def _settable(families, for_sweep: bool = False) -> list[str]:
    """The parameter flags of ``families`` in table order: each argument that is
    not fixed and, under sweep, not the swept one."""
    names = [k for f in families for k in f.params if k not in f.fixed and not (for_sweep and k == f.sweep[0])]
    return list(dict.fromkeys(names))


def _param_flags(args, settable, owner: str) -> dict[str, float]:
    """The parameter flags given in ``args``; any not in ``settable`` is an input error."""
    given = {k: getattr(args, k) for k in _settable(_families().values()) if getattr(args, k, None) is not None}
    rejected = [f"--{k}" for k in given if k not in settable]
    if rejected:
        raise ValueError(f"{owner} does not take {', '.join(rejected)}")
    _check_finite({f"--{k}": v for k, v in given.items()})
    return given


def _check_finite(flags: dict[str, float | None]) -> None:
    # Twice the value must be finite too: the reference curves take
    # sin(2 theta), and linspace takes --to minus --from.
    bad = [f"{flag}={value}" for flag, value in flags.items() if value is not None and not math.isfinite(2 * value)]
    if bad:
        raise ValueError(f"values and their doubles must be finite: {', '.join(bad)}")


def _family(name: str, args=None, for_sweep: bool = False) -> tuple[_Family, dict[str, float]]:
    """A family's table entry and amplitude arguments: its defaults, then the flags in ``args``."""
    family = _families()[name]
    values = {**family.params, **(family.sweep_params if for_sweep else {})}
    if args is not None:
        values.update(_param_flags(args, _settable([family], for_sweep), f"{args.command} --family {name}"))
    return family, values


class _Verification:
    """The --verify check of one output: rows recomputed and the largest gap seen."""

    def __init__(self, output: str) -> None:
        self.output, self.rows, self.gap = output, 0, 0.0

    def check(self, reference: float, value: float, context: str) -> None:
        gap = abs(reference - value)
        if not gap <= VERIFY_TOL:  # a NaN gap fails too
            raise InvariantError(
                f"verification mismatch at {context}: emitted {value!r}, recomputed {reference!r}"
            )
        self.rows, self.gap = self.rows + 1, max(self.gap, gap)

    def report(self) -> None:
        gap = f"largest |emitted - recomputed| {self.gap:.3g}"
        print(f"verified {self.output}: rows checked {self.rows}, {gap}", file=sys.stderr)

    def check_grid(self, rho: DensityMatrix, result: PovmSweepResult, points, party: int = 0) -> None:
        """Check omega at each flat grid index of ``points``, a map from context
        to index, against omega_stack, BLOCK_ROWS points at a time, in order."""
        points = list(points.items())
        for start in range(0, len(points), BLOCK_ROWS):
            block = points[start : start + BLOCK_ROWS]
            try:
                recomputed = omega_stack(rho, [result.point(index) for _, index in block], party)
            except InvariantError as exc:
                raise InvariantError(f"{block[exc.row][0]}: {exc}") from None
            for (context, index), reference in zip(block, recomputed.tolist()):
                self.check(reference, float(result.omega[index]), context)


# ---------------------------------------------------------------- certify


def cmd_certify(args) -> int:
    if (args.family is None) == (args.state is None):
        raise ValueError("give exactly one of --family or --state")
    if args.family is not None:
        family, values = _family(args.family, args)
        psi = family.build(values)
        out = {"family": args.family, "params": values}
    else:
        family = None
        psi = _load_state(args)
        out = {"state": args.state, "dims": list(psi.dims)}
    if args.basis_search and psi.n_parties == 2:
        raise ValueError("--basis-search applies only to three- and four-party states")
    quantity = _quantity(psi.dims)
    out["report"] = quantity.witness.evaluate(psi.density(), args.basis_search).to_dict()
    if family is not None and family.reference is not None:
        out["paper_" + quantity.name] = family.reference(*values.values())
    if abs(psi.original_norm - 1.0) > UNIT_NORM_TOL:
        out["original_norm"] = psi.original_norm
    if args.format == "csv":
        _write_csv(args.out, *_flatten_certify(out))
    else:
        _dump_json(out, args.out)
    return 0


def _flatten_certify(out: dict) -> tuple[list[str], list[list]]:
    # One flat CSV row; nested report/params keys are promoted.
    flat: dict[str, object] = {}
    for key, value in out.items():
        if isinstance(value, dict):
            flat.update(value)
        else:
            flat[key] = value
    header = sorted(flat)
    return header, [[flat[k] for k in header]]


# ------------------------------------------------------------------ sweep


def _sweep_rows(name: str, steps: int, check: _Verification | None, args=None):
    family, values = _family(name, args, for_sweep=True)
    swept, lo, hi = family.sweep
    if args is not None:
        lo = lo if args.start is None else args.start
        hi = hi if args.stop is None else args.stop
    xs = np.linspace(lo, hi, steps).tolist()
    rows = []
    for start in range(0, steps, BLOCK_ROWS):
        block = xs[start : start + BLOCK_ROWS]
        tensors = []
        try:
            for x in block:
                values[swept] = x
                tensors.append(family.amplitudes(*values.values()))
            amps, _ = normalise(np.reshape(tensors, (len(block), -1)))  # each row its StateVector's bits
        except ValueError as exc:
            x = block[exc.row] if isinstance(exc, StackError) else x
            raise ValueError(f"{name} {swept}={_fmt(x)}: {exc}") from None
        quantity = _quantity(tensors[0].shape)
        witness = quantity.witness
        stack = amps[:, :, None] * amps.conj()[:, None, :]  # np.outer's own product, row by row
        try:
            i_values = witness.read(stack)[0].tolist()
            measured = quantity.measure[1](stack) if quantity.measure else None
        except InvariantError as exc:
            raise InvariantError(f"{name} {swept}={_fmt(block[exc.row])}: {exc}") from None
        for t, x in enumerate(block):
            values[swept] = x
            row = [x, i_values[t]] if measured is None else [x, i_values[t], measured[t]]
            row.append(witness.bound)
            if family.reference is not None:
                row.append(family.reference(*values.values()))
            if check and (start + t) % VERIFY_STRIDE == 0:
                rho = DensityMatrix(witness.dims, stack[t])
                reference = i_value_oracle(rho, [s for s, _ in witness.terms], witness.terms[-1][1])
                check.check(reference, i_values[t], f"{name} row {start + t}")
            rows.append(row)
    measure = [quantity.measure[0]] if quantity.measure else []
    paper = ["paper_" + quantity.name] if family.reference is not None else []
    return [swept, quantity.name, *measure, "bound", *paper], rows


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    _check_finite({"--from": args.start, "--to": args.stop})
    check = _Verification(args.out or "stdout") if args.verify else None
    header, rows = _sweep_rows(args.family, args.steps, check, args)
    if args.format == "json":
        _dump_json([dict(zip(header, row)) for row in rows], args.out)
    else:
        _write_csv(args.out, header, rows)
    if check:
        check.report()
    return 0


# ------------------------------------------------------------------- locc

def _locc_state(args) -> DensityMatrix:
    if args.state is None:
        family, values = _family(args.family or "bell", args)
        return family.build(values).density()
    if args.family is not None:
        raise ValueError("give at most one of --family or --state")
    return _load_state(args).density()


def _write_rows(path: Path, header: str, leads: list[str], inner: list[str], values: np.ndarray) -> None:
    # Line (p, q) is leads[p] + inner[q] + values[p, q], written len(inner)
    # leads at a time.  omega = A(xi) + B(xi) C(chi, zeta), so a row of values
    # repeats wherever C does: each distinct row's text is built once, keyed
    # by its bytes, from values each formatted once, keyed by bit pattern.
    # Neither key is equality: -0.0 == 0.0, but they print as -0 and 0.  The
    # bytes match _write_csv's.
    text: dict[int, str] = {}
    bodies: dict[bytes, bytes] = {}
    parts = [""] * (2 * len(inner))  # inner[q] + text of value q, for each q
    parts[0::2] = inner
    slab, width, breaks = len(inner), 8 * len(inner), len(inner) - 1
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(leads), slab):
            raw = values[start : start + slab].tobytes()
            blocks = []
            for lead, offset in zip(leads[start : start + slab], range(0, len(raw), width)):
                key = raw[offset : offset + width]
                body = bodies.get(key)
                if body is None:
                    if len(bodies) >= ROW_CACHE_LIMIT:
                        bodies.clear()
                    if len(text) > TEXT_CACHE_LIMIT:
                        text.clear()
                    bits = np.frombuffer(key, dtype=np.int64).tolist()
                    new = list(set(bits).difference(text))
                    if new:
                        floats = np.array(new, dtype=np.int64).view(np.float64).tolist()
                        text.update(zip(new, map("{:.17g}\n".format, floats)))
                    parts[1::2] = map(text.__getitem__, bits)
                    body = bodies[key] = "".join(parts).encode()
                lead = lead.encode()
                blocks += (lead, body.replace(b"\n", b"\n" + lead, breaks))
            fh.write(b"".join(blocks))


def _write_grid_csv(path: Path, result: PovmSweepResult) -> None:
    axis = [_fmt(float(v)) for v in result.axis]
    cap = _fmt(result.theta_cap)
    leads = [f"{chi},{zeta}," for chi in axis for zeta in axis]
    inner = [f"{xi},{cap}," for xi in axis]
    values = result.omega.reshape(len(leads), len(inner))
    _write_rows(path, "chi,zeta,xi,theta_cap,omega", leads, inner, values)


def _write_density_csv(path: Path, result: PovmSweepResult) -> None:
    axis = [_fmt(float(v)) for v in result.axis]
    leads = [f"{chi}," for chi in axis]
    inner = [f"{zeta}," for zeta in axis]
    _write_rows(path, "chi,zeta,min_omega_over_xi", leads, inner, result.density_min_over_xi())


def cmd_locc(args) -> int:
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    rho = _locc_state(args)
    party = 1 if args.mirror_povm else 0
    result = sweep(rho, args.grid, theta_cap=args.theta_cap, party=party)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    check = _Verification("grid.csv") if args.verify else None
    if check:
        points = {f"grid index {i}": i for i in range(0, result.omega.size, VERIFY_STRIDE)}
        check.check_grid(rho, result, points, party)
    _write_grid_csv(out_dir / "grid.csv", result)
    if check:
        check.report()
    _write_density_csv(out_dir / "density.csv", result)

    # The verdict reads the exact family minimum; the grid can miss a negative one.
    family_min = min_omega_family(rho, args.theta_cap, party)
    summary = {
        "min_omega": result.min_omega,
        "min_omega_family": family_min,
        "argmin": dataclasses.asdict(result.argmin),
        "grid_steps": args.grid,
        "theta_cap": args.theta_cap,
        "party": party,
        "non_negative": bool(family_min >= -VIOLATION_MARGIN),
    }
    _dump_json(summary, out_dir / "summary.json")
    _dump_json(summary, None)
    return 0


# ----------------------------------------------------------- check-bounds

# Each campaign class and the party count of its trial states.
_BOUND_CLASSES = {"biseparable3": 3, "biseparable4": 4, "separable-bipartite": 2}


def run_bound_campaign(klass: str, trials: int, seed: int, d: int = 2, complete_family: bool = False) -> dict:
    """Seeded random campaign against the separability bound of one class.

    Returns a summary dict with the worst value seen and a pass flag; the
    campaign is deterministic in (klass, trials, seed, d).  Trial states are
    built internally, so one that fails a sampler guard or validation, or
    an outcome or pattern sum out of range, is an internal breach naming
    the trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if klass not in _BOUND_CLASSES:
        raise ValueError(f"unknown class {klass!r}")
    n = _BOUND_CLASSES[klass]
    if n == 2:
        family = prime_mub_family(d) if complete_family else fourier_pair(d)
        witness = i_m_witness(family)
        sample = functools.partial(separable_block, d)
    else:
        witness = _quantity((2,) * n).witness
        sample = functools.partial(biseparable_block, n)
    dim = math.prod(witness.dims)
    # The worst trial is the first maximum; only its report is built.
    worst = None
    for start in range(0, trials, BLOCK_ROWS):
        # Filled in place: a list of the trials' matrices would double the block's memory.
        block = np.empty((min(BLOCK_ROWS, trials - start), dim, dim), dtype=np.complex128)
        try:
            sample(start, seed, block)
            i_values, values, sets = witness.read(block)
        except InvariantError as exc:
            raise InvariantError(f"{klass} seed {seed} trial {start + exc.row}: {exc}") from None
        t = int(i_values.argmax())
        if worst is None or i_values[t] > worst[0]:
            worst = (i_values[t], start + t, values[t], sets[t])
    report = witness.report(worst[2], worst[3])
    summary = {
        "class": klass,
        "trials": trials,
        "seed": seed,
        "bound": report.bound,
        "max_i": report.i_value,
        "worst_trial": worst[1],
        "pass": not report.violated,
    }
    if n == 2:
        summary["d"] = d
        summary["m"] = family.m
    return summary


def cmd_check_bounds(args) -> int:
    if args.klass != "separable-bipartite" and (args.d is not None or args.complete_family):
        flag = "--d" if args.d is not None else "--complete-family"
        raise ValueError(f"{flag} applies only to --class separable-bipartite")
    d = 2 if args.d is None else args.d
    if d < 2:
        raise ValueError(f"--d must be at least 2, got {d}")
    if d * d > MAX_STATE_DIM:
        raise ValueError(f"--d {d} gives total dimension {d * d}, above {MAX_STATE_DIM}")
    if args.complete_family and not is_odd_prime(d):
        raise ValueError(f"--complete-family needs an odd prime --d, got {d}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    summary = run_bound_campaign(
        args.klass, args.trials, args.seed, d=d, complete_family=args.complete_family
    )
    _dump_json(summary, args.out)
    return 0 if summary["pass"] else 3


# ---------------------------------------------------------------- figures

def cmd_figures(args) -> int:
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    if args.grid < 2:
        raise ValueError(f"--grid must be at least 2, got {args.grid}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # fig1: (chi, zeta) density of min-over-xi omega for the Bell state.
    bell, values = _family("bell")
    rho_bell = bell.build(values).density()
    result = sweep(rho_bell, args.grid, theta_cap=0.0)
    check = _Verification("fig1.csv") if args.verify else None
    if check:
        # Each checked cell at its xi argmin, the point fig1 shows.
        cells = result.omega.reshape(args.grid**2, args.grid)
        points = {
            f"fig1 row {c}": c * args.grid + int(np.argmin(cells[c])) for c in range(0, args.grid**2, VERIFY_STRIDE)
        }
        check.check_grid(rho_bell, result, points)
    _write_density_csv(out_dir / "fig1.csv", result)
    if check:
        check.report()

    for fig_name, family in (("fig2", "ghz3"), ("fig3", "w3"), ("fig4", "ghz4"), ("fig5", "wg4")):
        check = _Verification(f"{fig_name}.csv") if args.verify else None
        _write_csv(out_dir / f"{fig_name}.csv", *_sweep_rows(family, args.steps, check))
        if check:
            check.report()
    return 0


# ------------------------------------------------------------------ wiring


class _NegativeNumber:
    """Any token float() reads, "-1e-05" and "-inf" among them."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    # argparse takes a token that starts with "-" for a value only when
    # _negative_number_matcher matches it; its own pattern has no exponent,
    # so "--theta -1e-05" failed where "--theta=-1e-05" worked.  Subparsers
    # are built with the parent's class, so every command reads them alike.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mubcert",
        description="Certify genuine multipartite entanglement from correlations in mutually unbiased bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    families = _families()

    p_cert = sub.add_parser("certify", help="certify one state (family or JSON file)")
    p_cert.add_argument("--family", choices=list(families))
    p_cert.add_argument("--state", help="path to a JSON state file")
    for k in _settable(families.values()):
        p_cert.add_argument(f"--{k}", type=float)
    p_cert.add_argument("--basis-search", action="store_true")
    p_cert.add_argument("--format", choices=("json", "csv"), default="json")
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="sweep one family parameter to CSV")
    sweepable = {name: family for name, family in families.items() if family.sweep}
    p_sweep.add_argument("--family", choices=list(sweepable), required=True)
    p_sweep.add_argument("--from", dest="start", type=float)
    p_sweep.add_argument("--to", dest="stop", type=float)
    p_sweep.add_argument("--steps", type=int, default=201)
    for k in _settable(sweepable.values(), for_sweep=True):
        p_sweep.add_argument(f"--{k}", type=float)
    p_sweep.add_argument("--verify", action="store_true")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_locc = sub.add_parser("locc", help="POVM monotonicity sweep for a two-qubit state")
    # locc takes two-qubit states: the families of psi_lambda's amplitudes.
    two_qubit = {name: family for name, family in families.items() if family.amplitudes is states.psi_lambda_amplitudes}
    p_locc.add_argument("--family", choices=list(two_qubit), help="default: bell")
    p_locc.add_argument("--state", help="path to a JSON state file")
    for k in _settable(two_qubit.values()):
        p_locc.add_argument(f"--{k}", type=float)
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
    p_check.add_argument("--d", type=int, help="default: 2")
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
