"""Benchmark launcher: one workload, one seed, one measured run.

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The launcher caps the BLAS
thread pools in the environment it hands to its children, then starts
fresh worker interpreters (``worker.py``): several that only set up, to
time set-up, and one that sets up and runs the timed phase.  It prints
each metric by name with its unit, writes the full result (environment
block, SHA-256 of every output, failures) to ``.bench_results/``, flags
outputs that differ from an earlier run of the same source and seed, and
prints one JSON object as its last stdout line.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
WORKLOADS = ("campaign", "basis-search", "locc-grid", "figures")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
DECLARED = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SOURCE)
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[int, dict]:
    """Start one fresh worker; returns (spawn time in ns, its JSON result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SOURCE)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, worker: dict) -> dict:
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "blas_thread_cap": THREAD_CAPS,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def compare_history(key: dict, hashes: dict[str, str]) -> list[str]:
    """Outputs that differ from an earlier run of the same source, workload and seed."""
    history = RESULTS / "history.jsonl"
    disagreements = []
    if history.exists():
        for line in history.read_text().splitlines():
            earlier = json.loads(line)
            if earlier["key"] != key:
                continue
            for name, digest in hashes.items():
                seen = earlier["hashes"].get(name)
                if seen is not None and seen != digest:
                    disagreements.append(f"{name} differs from the run at {earlier['time']}")
    with open(history, "a") as fh:
        fh.write(json.dumps({"key": key, "time": time.time(), "hashes": hashes}) + "\n")
    return disagreements


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--work-dir",
            str(work.relative_to(ROOT))]
    setups = []  # (raw seconds, calibrated seconds)
    try:
        for _ in range(SETUP_SAMPLES - 1):
            spawned, out = run_worker([*base, "--setup-only"], deadline)
            raw = (out["ready_ns"] - spawned) / 1e9
            setups.append((raw, raw * out["setup_scale"]))
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spans = RESULTS / f"spans-{tag}.tsv.gz"
        spawned, out = run_worker(
            [*base, "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans-out", str(spans.relative_to(ROOT))], deadline)
        raw = (out["ready_ns"] - spawned) / 1e9
        setups.append((raw, raw * out["setup_scale"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed, out)
    key = {"source_sha256": env["source_sha256"], "workload": args.workload, "seed": args.seed}
    disagreements = compare_history(key, out["hashes"])
    if args.trace:
        values = out["per_layer"]
    else:
        values = dict(out["end_to_end"], setup_s=statistics.median(c for _, c in setups))
    declared = json.loads(DECLARED.read_text())["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not measure {missing}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    correct = out["failed"] == 0 and not out["mismatches"] and not disagreements
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "ops_failed_frac": out["failed"] / out["attempted"],
        "rounds": out["rounds"],
        "round_walls_s": out["round_walls_s"],
        "setup_samples_s": [r for r, _ in setups],
        "setup_samples_calibrated_s": [c for _, c in setups],
        "end_to_end_raw": out.get("end_to_end_raw"),
        "timed_calibration_s": out["timed_calibration_s"],
        "metrics": metrics,
        "problems": out["problems"],
        "mismatches": out["mismatches"],
        "history_disagreements": disagreements,
        "environment": env,
        "outputs_sha256": out["hashes"],
        "spans_file": str(spans.relative_to(ROOT)) if args.trace else None,
        "tag": tag,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one mubcert benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SOURCE / "mubcert" / "cli.py").is_file() or not DECLARED.is_file():
        print(f"error: no mubcert source or BENCHMARK.json under {ROOT}; "
              "run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    path = RESULTS / f"{result['tag']}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {result['rounds']}  source {env['source_sha256'][:12]}  git {env['git_sha']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:>16.6f} {unit}")
    if result["end_to_end_raw"]:
        raw = dict(result["end_to_end_raw"], setup_s=statistics.median(result["setup_samples_s"]))
        print("  uncalibrated: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"  calibration chunk {1000 * result['timed_calibration_s']:.3f} ms")
    print(f"  {'ops_failed_frac':40s} {result['ops_failed_frac']:>16.6f} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for problem in result["problems"] + result["mismatches"] + result["history_disagreements"]:
        print(f"  FAIL {problem}")
    print(f"  result written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
