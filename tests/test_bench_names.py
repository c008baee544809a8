"""The names the benchmark harness in bench/ imports and traces must exist.

bench/workloads.py imports mubcert names at module level, and
bench/spans.py wraps each (module, qualname) in spans.TARGETS.  A name
deleted from src/ would otherwise surface only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_imports_and_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        importlib.import_module("workloads")
        spans = importlib.import_module("spans")
        for _, module, qualname in spans.TARGETS:
            owner = importlib.import_module(module)
            *cls_path, attr = qualname.split(".")
            for name in cls_path:
                owner = vars(owner)[name]
            assert callable(vars(owner)[attr]), (module, qualname)
    finally:
        for name in ("workloads", "spans"):
            sys.modules.pop(name, None)
