"""Every public top-level function and class in src/mubcert has a caller.

A name is reached when a package module other than __init__.py names it,
when another top-level statement of its own module names it, or when the
benchmark harness in bench/ imports or traces it (the names that
test_bench_names.py resolves).  The check reads the sources with ast, so it
imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mubcert"
BENCH = ROOT / "bench"

# The tests build their random states and state files with these; no
# command needs either.
ALLOWED = {"random_pure", "state_to_json_dict"}


def _named(node: ast.AST) -> set[str]:
    """Every identifier that ``node`` reads, imports or reads as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def _bench_names() -> set[str]:
    """The mubcert names bench/workloads.py imports, and the top-level name of
    each (module, qualname) in bench/spans.py's TARGETS."""
    workloads = ast.parse((BENCH / "workloads.py").read_text())
    names = {
        alias.name
        for node in ast.walk(workloads)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mubcert")
        for alias in node.names
    }
    spans = ast.parse((BENCH / "spans.py").read_text())
    for node in spans.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            names |= {qualname.split(".")[0] for _, _, qualname in ast.literal_eval(node.value)}
    return names


def test_every_public_definition_has_a_caller():
    modules = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py") if path.stem != "__init__"}
    reached = _bench_names() | ALLOWED
    unreached = []
    for stem, tree in modules.items():
        elsewhere = set().union(*(_named(other) for name, other in modules.items() if name != stem))
        statements = [(node, _named(node)) for node in tree.body]
        for node, _ in statements:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            here = set().union(*(names for other, names in statements if other is not node))
            if node.name not in elsewhere | here | reached:
                unreached.append(f"{stem}.{node.name}")
    assert not unreached, f"public definitions no command or benchmark reaches: {unreached}"


def test_allowlist_names_only_definitions_that_exist():
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert ALLOWED <= defined
