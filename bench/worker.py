"""One benchmark process: set up a workload, run its rounds, check the outputs.

Started by ``run.py`` in a fresh interpreter with the BLAS thread pools
capped.  It imports mubcert, builds the workload's inputs from the seed,
makes one untimed warm-up call and notes the monotonic clock: that is
the end of set-up.  With ``--setup-only`` it stops there.  Otherwise it
repeats rounds of CLI calls, each through ``mubcert.cli.main`` in this
process, while the next round still fits in ``--seconds``.  With
``--trace 1`` it runs half the time untraced, then the same rounds traced.
Outputs are hashed after each round and checked after the timed phase.
The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
from mubcert import cli
from workloads import WORKLOADS, Call

# Machine-speed calibration.  On a shared host the same work can take 30 %
# more or less time from one minute to the next, for every process alike.
# A fixed chunk of interpreter and small-matrix work, interleaved with the
# timed calls, measures the machine's current speed; timings are reported
# scaled to the speed at which one chunk takes CALIBRATION_REF_S.  The chunk
# uses numpy and the interpreter only, never mubcert, so no program change
# can move it.
CALIBRATION_REF_S = 0.014
CALIBRATION_EVERY_S = 0.25
SETUP_CALIBRATION_CHUNKS = 8
_H = (lambda a: a + a.conj().T)(
    np.random.default_rng(0).standard_normal((8, 8))
    + 1j * np.random.default_rng(1).standard_normal((8, 8)))


def calibration_chunk() -> float:
    start = time.perf_counter()
    acc = 0.0
    for _ in range(400):
        b = _H @ _H
        acc += float(np.linalg.eigvalsh(b)[0])
        acc += float(np.real(np.einsum("ij,jk,ki->", b, _H, b)))
        row = {k: (k, k * k) for k in range(16)}
        acc += sum(v[1] for v in row.values()) * 1e-9
        ",".join(format(acc * k, ".17g") for k in range(4))
    return time.perf_counter() - start


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def invoke(call: Call):
    """Run one CLI call in-process; returns (rc, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(call.argv)  # looked up per call so tracing can wrap it
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raising call is a failed op, not a crashed run
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def output_files(call: Call) -> dict[str, Path]:
    if call.out_dir is None:
        return {}
    return {p.name: p for p in sorted(Path(call.out_dir).iterdir()) if p.is_file()}


def scan_file(path: Path) -> tuple[str, int]:
    """SHA-256 and line count of a file, read in blocks."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    return digest.hexdigest(), lines


@dataclass
class Record:
    """One finished call.  chunk indexes the last calibration chunk before it."""

    round: int
    tag: str
    index: int
    call: Call
    rc: int | None
    stdout: str
    stderr: str
    seconds: float
    chunk: int


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.records: list[Record] = []
        self.round_walls = {"r": [], "t": []}
        self.hashes: dict[str, str] = {}
        self.mismatches: list[str] = []
        self.unverified: set = set()
        self.written = {"r": [0, 0], "t": [0, 0]}  # rows, bytes
        self.calibration: list[float] = []
        self._calibrated_at = 0.0

    def run_round(self, r: int, tag: str, tracer=None) -> None:
        calls = self.workload.calls(r, tag)
        results = []
        # A traced round is the root span, so layer self times add up to it.
        run = self._calls if tracer is None else tracer.wrap(spans.HARNESS, self._calls)
        start = time.perf_counter()
        calibrating = run(calls, results, tracer)
        self.round_walls[tag].append(time.perf_counter() - start - calibrating)
        for index, (call, ((rc, stdout, stderr, seconds), chunk)) in enumerate(zip(calls, results)):
            self.records.append(Record(r, tag, index, call, rc, stdout, stderr, seconds, chunk))
            self._hash(r, tag, index, call, stdout)

    def _calls(self, calls, results, tracer) -> float:
        """Run the calls; untraced, calibrate between them.  Returns calibration time."""
        calibrating = 0.0
        for call in calls:
            if tracer is not None:
                tracer.begin_request(len(results))
            results.append((invoke(call), len(self.calibration) - 1))
            if tracer is None and time.perf_counter() - self._calibrated_at > CALIBRATION_EVERY_S:
                calibrating += self.calibrate()
        return calibrating

    def calibrate(self) -> float:
        start = time.perf_counter()
        self.calibration.append(calibration_chunk())
        self._calibrated_at = time.perf_counter()
        return self._calibrated_at - start

    def _hash(self, r, tag, index, call, stdout):
        found = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
        rows = 0
        size = len(stdout.encode())
        for name, path in output_files(call).items():
            found[name], lines = scan_file(path)
            size += path.stat().st_size
            if name.endswith(".csv"):
                rows += max(lines - 1, 0)
        self.written[tag][0] += rows
        self.written[tag][1] += size
        # Rounds that repeat inputs must repeat round 0 byte for byte, and a
        # traced round must repeat its untraced twin.
        base = 0 if self.workload.repeats_inputs else r
        for name, digest in found.items():
            known = self.hashes.setdefault(f"r{base}/c{index}/{name}", digest)
            if known != digest:
                self.mismatches.append(f"{tag}{r} call {index} {name}: differs from r{base}")
                self.unverified.add((tag, r, index))
        if (tag, r) != ("r", 0) and call.out_dir is not None:
            shutil.rmtree(call.out_dir, ignore_errors=True)

    def timed(self, budget: float, tag: str = "r", rounds: int | None = None, tracer=None):
        """Run rounds while the next one still fits the budget (at least one)."""
        r = 0
        if tracer is None:
            self.calibrate()
        while True:
            gc.collect()
            self.run_round(r, tag, tracer)
            r += 1
            walls = self.round_walls[tag]
            if rounds is not None:
                if r >= rounds:
                    break
            elif sum(walls) + statistics.fmean(walls) > budget:
                break
        if tracer is None:
            self.calibrate()  # every call now has a chunk on each side
        return r

    def calibrated_seconds(self, rec: Record) -> float:
        """A call's time at the reference speed, from the chunks either side of it."""
        local = (self.calibration[rec.chunk] + self.calibration[rec.chunk + 1]) / 2
        return rec.seconds * CALIBRATION_REF_S / local

    def check(self) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        problems: list[str] = []
        for rec in self.records:
            call = rec.call
            attempted += call.ops
            found = []
            if (rec.tag, rec.round, rec.index) in self.unverified:
                found.append("output differs from an earlier run of the same inputs")
            elif rec.rc is None:
                found.append(f"raised: {rec.stderr.strip().splitlines()[-1:]}")
            elif (rec.tag, rec.round) == ("r", 0) or not self.workload.repeats_inputs:
                files = {name: p.read_bytes() for name, p in output_files(call).items()}
                try:
                    found = self.workload.check(call, rec.rc, rec.stdout, files)
                except Exception as exc:  # a malformed output is a failed check
                    found = [f"check raised {type(exc).__name__}: {exc}"]
            if found:
                failed += call.ops
                problems.extend(f"{rec.tag}{rec.round} {' '.join(call.argv[:3])}: {p}"
                                for p in found)
        return attempted, failed, problems


def layer_metrics(runner: Runner, tracer, rounds: int) -> dict:
    agg = spans.aggregate(tracer.spans)
    calls, own, total = agg["calls"], agg["name_self"], agg["name_total"]
    wall = statistics.fmean(runner.round_walls["t"])
    untraced_wall = statistics.fmean(runner.round_walls["r"][:rounds])
    ops = sum(rec.call.ops for rec in runner.records if rec.tag == "t") / rounds

    def count(*names):
        return sum(calls[n] for n in names) / rounds

    layer = {k: v / rounds for k, v in agg["layer_self"].items()}
    dists = calls["correlations.outcome_distribution"]
    validations = count("linalg.StateVector.__post_init__", "linalg.DensityMatrix.__post_init__")
    m = {
        "states.calls": count(*(n for n in calls if n.startswith("states."))),
        "states.self_s": layer["states"],
        "linalg.state_validations": count("linalg.StateVector.__post_init__"),
        "linalg.density_validations": count("linalg.DensityMatrix.__post_init__"),
        "linalg.validations_per_op": validations / ops,
        "linalg.self_s": layer["linalg"],
        "mub.family_builds": count(*(n for n in calls if n.startswith("mub."))),
        "mub.self_s": layer["mub"],
        "correlations.calls": count("correlations.i3", "correlations.i4",
                                    "correlations.i_m_bipartite"),
        "correlations.self_s": layer["correlations"],
        "correlations.distributions": dists / rounds,
        "correlations.useful_distribution_ratio":
            tracer.counters["distinct_distributions"] / dists if dists else 0.0,
        "correlations.oracle_calls": agg["top_oracle"] / rounds,
        "correlations.oracle_self_s": layer["oracle"],
        "measures.calls": count("measures.triangle_tau", "measures.global_q"),
        "measures.self_s": layer["measures"],
        "locc.sweep_s": total["locc.sweep"] / rounds,
        "locc.grid_points": tracer.counters["grid_points"] / rounds,
        "locc.omega_calls": count("locc.omega"),
        "locc.omega_self_s": own["locc.omega"] / rounds,
        "locc.self_s": layer["locc"],
        "cli.self_s": layer["cli"],
        "cli.rows_written": runner.written["t"][0] / rounds,
        "cli.bytes_written": runner.written["t"][1] / rounds,
        "harness.self_s": layer["harness"],
    }
    for name in spans.LAYERS:
        key = "correlations.oracle_share" if name == "oracle" else f"{name}.share"
        m[key] = layer[name] / wall
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(tracer.spans) / rounds
    m["trace.overhead_frac"] = (wall - untraced_wall) / untraced_wall
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    work = Path(args.work_dir)
    workload = WORKLOADS[args.workload](args.seed, work)
    workload.setup()
    warm = workload.warmup()
    rc, _, err, _ = invoke(warm)
    if rc != 0:
        sys.stderr.write(f"warm-up call {warm.argv} exited {rc}\n{err}")
        return 1
    ready_ns = time.monotonic_ns()
    setup_calibration = statistics.fmean(
        calibration_chunk() for _ in range(SETUP_CALIBRATION_CHUNKS))
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns,
                          "setup_scale": CALIBRATION_REF_S / setup_calibration}))
        return 0

    runner = Runner(workload)
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds = runner.timed(budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"ready_ns": ready_ns, "setup_scale": CALIBRATION_REF_S / setup_calibration,
              "rounds": rounds,
              "round_walls_s": runner.round_walls,
              "timed_calibration_s": statistics.fmean(runner.calibration)}
    if args.trace:
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            runner.timed(budget, "t", rounds, tracer)
        finally:
            spans.uninstall(undo)
        result["per_layer"] = layer_metrics(runner, tracer, rounds)
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        walls = runner.round_walls["r"]
        timed = [rec for rec in runner.records if rec.tag == "r"]
        ops = sum(rec.call.ops for rec in timed)
        latencies = [1000.0 * rec.seconds for rec in timed]
        result["end_to_end_raw"] = {
            "wall_s": statistics.fmean(walls),
            "ops_per_s": ops / sum(walls),
            "call_ms_p50": percentile(latencies, 50),
            "call_ms_p90": percentile(latencies, 90),
        }
        calibrated = [runner.calibrated_seconds(rec) for rec in timed]
        round_walls = [0.0] * rounds
        for rec, seconds in zip(timed, calibrated):
            round_walls[rec.round] += seconds
        result["end_to_end"] = {
            "wall_s": statistics.fmean(round_walls),
            "ops_per_s": ops / sum(round_walls),
            "call_ms_p50": percentile([1000.0 * c for c in calibrated], 50),
            "call_ms_p90": percentile([1000.0 * c for c in calibrated], 90),
            "peak_rss_mb": peak_rss_mb,
        }
    attempted, failed, problems = runner.check()
    result.update(
        attempted=attempted, failed=failed, problems=problems[:20],
        mismatches=runner.mismatches[:20], hashes=runner.hashes,
        numpy=np.__version__, blas=blas_info(),
    )
    print(json.dumps(result))
    return 0


def blas_info() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return None


if __name__ == "__main__":
    sys.exit(main())
