"""Every public definition in src/mubcert is reached from a command or the benchmark.

The check walks references to a fixed point from these roots: ``cli.main``,
``cli.entry``, every module-level statement (decorators, defaults and class
bodies among them), the names the benchmark harness in bench/ imports or
traces, and ALLOWED.  A reached body reaches a definition by naming it:

* a name bound by ``from .x import name``, or defined at top level in the
  same module;
* ``x.name`` where ``x`` is bound by ``from . import x``.

Names local to a function, its parameters and the names it assigns, reach
nothing, and neither do annotations, which are never evaluated.  A method
of a reached class is reached when a reached body reads an attribute of its
name from a receiver of that class, or of unknown class.  A receiver's
class is known when it is a package class or a call of one, a call of a
package function whose return annotation names the class, ``self`` in a
method of the class, or a local name whose one binding is a parameter
annotated with the class or an assignment of such a call; when that class
defines no method of the name, the receiver counts as unknown.  This would
miss a subclass's override, but no package class derives from another.
Dunder methods, and every method of a class whose name starts with "_"
(argparse calls ``_NegativeNumber.match``), are reached with their class.
The check reads the sources with ast, so it imports nothing.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mubcert"
BENCH = ROOT / "bench"

# The tests build their random states and state files with these; no
# command needs either.
ALLOWED = {"random_pure", "state_to_json_dict"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Module:
    """The top-level definitions of one module and the names it imports from
    the package."""

    def __init__(self, tree: ast.Module) -> None:
        self.tree = tree
        self.defs = {node.name: node for node in tree.body if isinstance(node, (*_FUNCTIONS, ast.ClassDef))}
        self.imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
        self.modules: dict[str, str] = {}  # local name -> module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        self.imported[local] = (node.module, alias.name)
                    else:
                        self.modules[local] = alias.name


def _walk(node: ast.AST):
    """ast.walk without annotations."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        for name, value in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    todo.append(child)


def _locals(func: ast.AST) -> Counter:
    """The parameters of ``func`` and every name it, or a function nested in
    it, binds, each with the number of times it is bound."""
    names = Counter()
    for sub in ast.walk(func):
        if isinstance(sub, ast.arg):
            names[sub.arg] += 1
        elif isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, (*_FUNCTIONS, ast.ClassDef)) and sub is not func:
            names[sub.name] += 1
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            names[sub.name] += 1
    return names


def _import_time(node: ast.AST) -> list[ast.AST]:
    """What a top-level statement evaluates when its module is imported."""
    if isinstance(node, _FUNCTIONS):
        return [*node.decorator_list, *node.args.defaults, *(d for d in node.args.kw_defaults if d)]
    if isinstance(node, ast.ClassDef):
        parts = [*node.decorator_list, *node.bases, *node.keywords]
        for statement in node.body:
            parts += _import_time(statement) if isinstance(statement, _FUNCTIONS) else [statement]
        return parts
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return []
    return [node]


class _Reach:
    def __init__(self, modules: dict[str, _Module]) -> None:
        self.modules = modules
        self.reached: set[tuple[str, str]] = set()  # (module, qualname)
        self.attributes: set[tuple[tuple[str, str] | None, str]] = set()  # (receiver's class or None, name)
        # (module, body node, its local names, the class of each local name whose class is known)
        self.todo: list[tuple[str, ast.AST, Counter, dict[str, tuple[str, str]]]] = []

    def resolve(self, stem: str, name: str) -> tuple[str, str] | None:
        module = self.modules.get(stem)
        if module is None:
            return None
        if name in module.defs:
            return stem, name
        if name in module.imported:
            return self.resolve(*module.imported[name])
        return None

    def class_of(self, stem: str, node: ast.AST) -> tuple[str, str] | None:
        """The package class that ``node``, a name or a call, names or builds,
        or that the package function it calls is annotated to return."""
        call = isinstance(node, ast.Call)
        if call:
            node = node.func
        key = self.resolve(stem, node.id) if isinstance(node, ast.Name) else None
        definition = self.modules[key[0]].defs[key[1]] if key is not None else None
        if call and isinstance(definition, _FUNCTIONS) and isinstance(definition.returns, ast.Name):
            return self.class_of(key[0], definition.returns)
        if isinstance(definition, ast.ClassDef):
            return key
        return None

    def receivers(self, stem: str, func: ast.AST, owner: str | None, local: Counter) -> dict[str, tuple[str, str]]:
        """The class of each name bound once in ``func``, a method of the class
        ``owner`` or a function, when that binding shows it."""
        known = {}
        args = [*func.args.posonlyargs, *func.args.args]
        static = any(getattr(d, "id", None) in ("staticmethod", "classmethod") for d in func.decorator_list)
        if owner is not None and args and not static:
            known[args[0].arg] = (stem, owner)
        for arg in [*args, *func.args.kwonlyargs]:
            if isinstance(arg.annotation, ast.Name):
                known.setdefault(arg.arg, self.class_of(stem, arg.annotation))
        for sub in ast.walk(func):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and isinstance(sub.targets[0], ast.Name):
                if isinstance(sub.value, ast.Call):
                    known.setdefault(sub.targets[0].id, self.class_of(stem, sub.value))
        return {name: key for name, key in known.items() if key is not None and local[name] == 1}

    def reach(self, key: tuple[str, str] | None) -> None:
        if key is None or key in self.reached:
            return
        self.reached.add(key)
        stem, qualname = key
        node = self.modules[stem].defs[qualname.split(".")[0]]
        if "." in qualname:
            node = next(n for n in node.body if isinstance(n, _FUNCTIONS) and n.name == qualname.split(".")[1])
        if isinstance(node, _FUNCTIONS):
            local = _locals(node)
            owner = qualname.split(".")[0] if "." in qualname else None
            known = self.receivers(stem, node, owner, local)
            self.todo += [(stem, statement, local, known) for statement in node.body]

    def scan(self, stem: str, node: ast.AST, local: Counter, known: dict[str, tuple[str, str]]) -> None:
        module = self.modules[stem]
        for sub in _walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in local:
                self.reach(self.resolve(stem, sub.id))
            elif isinstance(sub, ast.Attribute):
                owner = sub.value
                if isinstance(owner, ast.Name) and owner.id in local:
                    cls = known.get(owner.id)
                else:
                    cls = self.class_of(stem, owner)
                methods = self.modules[cls[0]].defs[cls[1]].body if cls else []
                if not any(isinstance(m, _FUNCTIONS) and m.name == sub.attr for m in methods):
                    cls = None
                self.attributes.add((cls, sub.attr))
                if isinstance(owner, ast.Name) and owner.id in module.modules and owner.id not in local:
                    self.reach(self.resolve(module.modules[owner.id], sub.attr))

    def methods_due(self):
        """The methods that reached classes and read attributes reach."""
        for stem, qualname in list(self.reached):
            node = self.modules[stem].defs[qualname.split(".")[0]]
            if "." in qualname or not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, _FUNCTIONS):
                    continue
                dunder = method.name.startswith("__") and method.name.endswith("__")
                read = {(None, method.name), ((stem, qualname), method.name)} & self.attributes
                if dunder or qualname.startswith("_") or read:
                    yield stem, f"{qualname}.{method.name}"

    def run(self) -> None:
        while True:
            while self.todo:
                self.scan(*self.todo.pop())
            due = [key for key in self.methods_due() if key not in self.reached]
            if not due:
                return
            for key in due:
                self.reach(key)


def _bench_names() -> set[tuple[str, str]]:
    """Each (module, name) bench/workloads.py imports from the package, and
    each (module, qualname) in bench/spans.py's TARGETS."""
    workloads = ast.parse((BENCH / "workloads.py").read_text())
    names = {
        (node.module.split(".")[-1] if "." in node.module else "__init__", alias.name)
        for node in ast.walk(workloads)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mubcert")
        for alias in node.names
    }
    spans = ast.parse((BENCH / "spans.py").read_text())
    for node in spans.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            names |= {(module.split(".")[-1], qualname) for _, module, qualname in ast.literal_eval(node.value)}
    return names


def _reach() -> tuple[dict[str, _Module], _Reach]:
    modules = {path.stem: _Module(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    walk = _Reach(modules)
    for stem, module in modules.items():
        if stem != "__init__":
            walk.todo += [(stem, part, Counter(), {}) for node in module.tree.body for part in _import_time(node)]
    walk.reach(("cli", "main"))
    walk.reach(("cli", "entry"))
    for stem, name in _bench_names():
        if "." in name:
            walk.reach((stem, name.split(".")[0]))
            walk.reach((stem, name))
        else:
            walk.reach(walk.resolve(stem, name))
    for stem, module in modules.items():
        for name in ALLOWED & module.defs.keys():
            walk.reach((stem, name))
    walk.run()
    return modules, walk


def _public(modules: dict[str, _Module]):
    """Each public top-level definition, and each public method of a public
    class, but dunders, as (module, qualname)."""
    for stem, module in modules.items():
        if stem == "__init__":
            continue
        for name, node in module.defs.items():
            if name.startswith("_"):
                continue
            yield stem, name
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _FUNCTIONS) and not method.name.startswith("_"):
                        yield stem, f"{name}.{method.name}"


def test_every_public_definition_has_a_caller():
    modules, walk = _reach()
    unreached = [f"{stem}.{qualname}" for stem, qualname in _public(modules) if (stem, qualname) not in walk.reached]
    assert not unreached, f"public definitions no command or benchmark reaches: {unreached}"


def test_a_local_name_or_an_unreached_body_reaches_nothing():
    # main's own "public" and _shadow's parameter are local; helper is named
    # only in the body of public, which nothing reaches.
    tree = ast.parse(
        "def public():\n    return helper()\n\n"
        "def helper():\n    pass\n\n"
        "def _shadow(public):\n    return public\n\n"
        "def main():\n    public = 1\n    return _shadow(public)\n"
    )
    walk = _Reach({"cli": _Module(tree)})
    walk.reach(("cli", "main"))
    walk.run()
    assert walk.reached == {("cli", "main"), ("cli", "_shadow")}


SIZED = (
    "class A:\n    def size(self):\n        pass\n\n    def grow(self):\n        return self.size\n\n"
    "class B:\n    def size(self):\n        pass\n\n"
    "def _read(a: A):\n    return a.size\n\n"
    "def _make() -> A:\n    return A()\n\n"
)


@pytest.mark.parametrize(
    "body, sizes",
    [
        ("return A().size", {"A.size"}),
        ("a = A()\n    return a.size", {"A.size"}),
        ("return _read(A())", {"A.size"}),
        ("return A().grow()", {"A.size"}),
        ("a = A()\n    a = B()\n    return a.size", {"A.size", "B.size"}),
        ("return _make().size", {"A.size"}),
        ("a = _make()\n    return a.size", {"A.size"}),
    ],
    ids=["call", "assigned", "annotated", "self", "rebound", "returned", "returned-assigned"],
)
def test_a_read_from_a_known_class_reaches_only_its_method(body, sizes):
    # main reaches both classes but reads size only from an A, unless the
    # receiver's one binding does not show its class.
    walk = _Reach({"cli": _Module(ast.parse(f"{SIZED}def main():\n    B\n    {body}\n"))})
    walk.reach(("cli", "main"))
    walk.run()
    assert {q for _, q in walk.reached if q.endswith(".size")} == sizes


def test_allowlist_names_only_definitions_that_exist():
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert ALLOWED <= defined
