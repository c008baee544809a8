"""Smoke test of the benchmark at tiny sizes (20 trials, 4 states, grid 5).

Run with ``python -m pytest -q bench/test_smoke.py`` from the repository
root; it is outside the tier-1 ``tests/`` tree on purpose.  It proves that
every workload's output check passes on real output and catches a
deliberately corrupted copy, and that a traced round's layer self times
add up to its wall time.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import BRUTE_OFFSET, BasisSearch, Campaign, Figures, LoccGrid  # noqa: E402

SMALL = {
    "campaign": lambda work: Campaign(7, work, trials=20),
    "basis-search": lambda work: BasisSearch(7, work, states=4),
    "locc-grid": lambda work: LoccGrid(7, work, grid=5),
    "figures": lambda work: Figures(7, work, steps=5, grid=5),
}


@pytest.fixture
def small_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def run(name: str, tracer=None):
        workload = SMALL[name](Path("work"))
        workload.setup()
        runner = worker.Runner(workload)
        runner.timed(0.0, rounds=2)
        if tracer is not None:
            undo = spans.install(tracer)
            try:
                runner.timed(0.0, "t", 2, tracer)
            finally:
                spans.uninstall(undo)
        return workload, runner

    return run


def first_round(runner):
    """(call, rc, stdout, files) for each call of untraced round 0."""
    out = []
    for rec in runner.records:
        if (rec.tag, rec.round) == ("r", 0):
            files = {n: p.read_bytes() for n, p in worker.output_files(rec.call).items()}
            out.append((rec.call, rec.rc, rec.stdout, files))
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_outputs_pass(small_run, name):
    _, runner = small_run(name)
    attempted, failed, problems = runner.check()
    assert attempted > 0
    assert failed == 0, problems
    assert not runner.mismatches
    assert all(runner.calibrated_seconds(rec) > 0 for rec in runner.records)


def edit_json(text: str, **changes) -> str:
    doc = json.loads(text)
    for key, value in changes.items():
        target = doc
        *path, leaf = key.split("__")
        for part in path:
            target = target[part]
        target[leaf] = value(target[leaf]) if callable(value) else value
    return json.dumps(doc)


def corruptions(name: str, call, rc: int, stdout: str, files: dict[str, bytes]):
    """Corrupted copies of one real output, each of which a check must reject."""
    if name == "campaign":
        yield "max_i nudged", rc, edit_json(stdout, max_i=lambda v: v + 1e-6), files
        yield "pass flipped", rc, edit_json(stdout, **{"pass": lambda v: not v}), files
        yield "exit code", 3 - rc, stdout, files
    elif name == "basis-search":
        index = call.meta["index"]
        if index == BRUTE_OFFSET:
            # Consistent with its own invariants; only the brute force sees it.
            yield "brute-force mismatch", rc, edit_json(
                stdout, report__i_value=lambda v: v + 1e-6,
                report__c_second=lambda v: v + 1e-6), files
        else:
            yield "below fixed setting", rc, edit_json(
                stdout, report__i_value=lambda v: v - 1.0,
                report__c_second=lambda v: v - 1.0), files
        yield "sum invariant", rc, edit_json(stdout, report__i_value=lambda v: v + 1e-3), files
    elif name == "locc-grid":
        lines = files["grid.csv"].decode().splitlines()
        checked = lines[1].rsplit(",", 1)
        lines[1] = f"{checked[0]},{float(checked[1]) + 1e-6!r}"
        yield "checked row", rc, stdout, dict(files, **{
            "grid.csv": ("\n".join(lines) + "\n").encode()})
        lines = files["grid.csv"].decode().splitlines()
        unchecked = lines[2].rsplit(",", 1)
        lines[2] = f"{unchecked[0]},-1.0"
        yield "unchecked row below the minimum", rc, stdout, dict(files, **{
            "grid.csv": ("\n".join(lines) + "\n").encode()})
        summary = edit_json(files["summary.json"].decode(), min_omega=lambda v: v - 1e-3)
        yield "summary", rc, stdout, dict(files, **{"summary.json": summary.encode()})
    elif name == "figures":
        lines = files["fig2.csv"].decode().splitlines()
        fields = lines[3].split(",")
        fields[1] = repr(float(fields[1]) + 1e-6)
        lines[3] = ",".join(fields)
        yield "fig2 row", rc, stdout, dict(files, **{
            "fig2.csv": ("\n".join(lines) + "\n").encode()})
        yield "missing figure", rc, stdout, {k: v for k, v in files.items() if k != "fig5.csv"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_checks_catch_corrupted_outputs(small_run, name):
    workload, runner = small_run(name)
    tried = 0
    for call, rc, stdout, files in first_round(runner):
        for label, bad_rc, bad_stdout, bad_files in corruptions(name, call, rc, stdout, files):
            tried += 1
            try:
                problems = workload.check(call, bad_rc, bad_stdout, bad_files)
            except KeyError:
                problems = ["missing output"]
            assert problems, f"{name}: check missed corruption '{label}'"
    assert tried > 0


def test_repeated_round_with_different_bytes_is_a_failure(small_run):
    _, runner = small_run("basis-search")
    last = runner.records[-1]
    changed = dataclasses.replace(last, round=2, stdout=last.stdout + " ")
    runner.records.append(changed)
    runner._hash(2, changed.tag, changed.index, changed.call, changed.stdout)
    attempted, failed, problems = runner.check()
    assert failed == last.call.ops and runner.mismatches


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_layers_sum_to_wall(small_run, name):
    tracer = spans.Tracer()
    _, runner = small_run(name, tracer)
    assert runner.check()[1] == 0
    metrics = worker.layer_metrics(runner, tracer, 2)
    shares = [v for k, v in metrics.items() if k.endswith("share")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-3)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in declared["per_layer"]} == set(metrics)


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
