"""Span tracing of mubcert's public functions, installed from outside.

Nothing in ``src/`` knows about this module.  ``install`` replaces each
traced function on every module attribute that names it (a function
imported with ``from .x import y`` is bound under several modules), and
the dataclass validators on their classes.  Spans are kept in memory as
(name, start, end, parent, request) and aggregated, or written out, at
the end.  A span's self time is its duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from collections import Counter, defaultdict

PACKAGE_MODULES = (
    "mubcert", "mubcert.cli", "mubcert.correlations", "mubcert.linalg", "mubcert.locc",
    "mubcert.measures", "mubcert.mub", "mubcert.states",
)

# (layer, defining module, qualified name).  The oracle functions are a
# layer of their own so that their self time does not hide in the
# correlations number they are meant to check.
TARGETS = (
    ("cli", "mubcert.cli", "main"),
    ("states", "mubcert.states", "biseparable_sample"),
    ("states", "mubcert.states", "separable_sample"),
    ("states", "mubcert.states", "state_from_json_dict"),
    ("states", "mubcert.states", "psi_lambda"),
    ("states", "mubcert.states", "ghz3"),
    ("states", "mubcert.states", "w3"),
    ("states", "mubcert.states", "ghz4"),
    ("states", "mubcert.states", "wg4"),
    ("linalg", "mubcert.linalg", "StateVector.__post_init__"),
    ("linalg", "mubcert.linalg", "DensityMatrix.__post_init__"),
    ("linalg", "mubcert.linalg", "mix"),
    ("linalg", "mubcert.linalg", "permute_parties"),
    ("linalg", "mubcert.linalg", "partial_trace"),
    ("mub", "mubcert.mub", "fourier_pair"),
    ("mub", "mubcert.mub", "prime_mub_family"),
    ("mub", "mubcert.mub", "qubit_mub_triple"),
    ("correlations", "mubcert.correlations", "i3"),
    ("correlations", "mubcert.correlations", "i4"),
    ("correlations", "mubcert.correlations", "i_m_bipartite"),
    ("correlations", "mubcert.correlations", "outcome_distribution"),
    ("oracle", "mubcert.correlations", "i3_oracle"),
    ("oracle", "mubcert.correlations", "i4_oracle"),
    ("oracle", "mubcert.correlations", "i_value_oracle"),
    ("measures", "mubcert.measures", "triangle_tau"),
    ("measures", "mubcert.measures", "global_q"),
    ("locc", "mubcert.locc", "sweep"),
    ("locc", "mubcert.locc", "omega"),
)
HARNESS = "harness.round"
LAYERS = ("harness", "cli", "states", "linalg", "mub", "correlations", "oracle", "measures", "locc")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.request = -1
        self.counters: Counter = Counter()
        self._pairs: set = set()
        self._held: list = []

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if on_return is not None:
                on_return(result)
            return result

        return functools.update_wrapper(traced, fn)

    def begin_request(self, request: int) -> None:
        self.request = request
        self._pairs.clear()
        self._held.clear()

    def note_distribution(self, args) -> None:
        # Distinct (state, setting) pairs within one request.  The objects
        # are held until the request ends so their ids cannot be reused.
        rho, setting = args[0], args[1]
        key = (id(rho), tuple(id(b) for b in setting.bases))
        if key not in self._pairs:
            self._pairs.add(key)
            self._held.append((rho, setting))
            self.counters["distinct_distributions"] += 1

    def note_sweep(self, result) -> None:
        self.counters["grid_points"] += int(result.omega.size)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{request}\n")


def install(tracer: Tracer):
    """Swap every traced function for its wrapper; returns an undo list."""
    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    undo = []
    for layer, modname, qualname in TARGETS:
        owner = importlib.import_module(modname)
        *cls_path, attr = qualname.split(".")
        on_call = tracer.note_distribution if attr == "outcome_distribution" else None
        on_return = tracer.note_sweep if attr == "sweep" else None
        span_name = f"{layer}.{qualname}"
        if cls_path:
            cls = getattr(owner, cls_path[0])
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(span_name, original, on_call, on_return))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(span_name, original, on_call, on_return)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
    return undo


def uninstall(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


def aggregate(spans) -> dict:
    """Self time per layer and per span name, plus call counts and inclusive time."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_self = dict.fromkeys(LAYERS, 0.0)
    name_self: dict[str, float] = defaultdict(float)
    name_total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    top_oracle = 0
    for index, (name, start, end, parent, _) in enumerate(spans):
        own = (end - start) - child[index]
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        name_self[name] += own
        name_total[name] += end - start
        calls[name] += 1
        if layer == "oracle" and (parent < 0 or not spans[parent][0].startswith("oracle.")):
            top_oracle += 1
    return {"layer_self": layer_self, "name_self": name_self, "name_total": name_total,
            "calls": calls, "top_oracle": top_oracle}
