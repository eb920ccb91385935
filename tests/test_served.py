"""Every public name of dltl is served: a CLI handler or a benchmark
operation reaches it.

The walk reads source with `ast` and runs nothing. It starts from the
module-level code of every dltl module (cli.py's runs `main`, whose parser
names the handlers), from every dltl name that perfbench/workloads.py and
perfbench/checks.py use, and from the `<module>.<function>` names of
BENCHMARK.json's per_layer metrics. A reached function or class reaches
every dltl name its body refers to: a bare name defined or imported in its
module, or an attribute of an imported dltl module. A test oracle belongs
in tests/, next to its test, so an entry of a module's __all__ that the
walk does not reach fails here. The same holds for parameters: a defaulted
parameter (or defaulted dataclass field) that no call in the walked code
sets is an option only tests use, and fails here too: a trace cannot see
which arguments a call spelled out. Which fields of a class are read is
the served run's to say (test_served_lines.UNREAD_FIELDS). Only reads
perfbench/ and BENCHMARK.json.
"""

import ast
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dltl"

# Public and unreached on purpose, with the reason.
ALLOWED = {
    ("netcore", "save_weights"): "writes the weight-file format that the CLI's --weights options read",
}


def _imports(tree: ast.AST) -> tuple[dict, dict]:
    """Local name -> dltl module (for `from dltl import x`) and local name
    -> (module, name) (for `from dltl.x import y` or `from .x import y`)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 or node.module == "dltl":
            source = node.module if node.level == 1 else None
        elif node.module and node.module.startswith("dltl."):
            source = node.module.split(".", 1)[1]
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if source is None:
                modules[local] = alias.name
            else:
                names[local] = (source, alias.name)
    return modules, names


def _references(nodes, module: str | None, defs: dict, imports: tuple[dict, dict]) -> set:
    """The dltl (module, name) pairs that the given nodes refer to."""
    modules, names = imports
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                if node.id in names:
                    found.add(names[node.id])
                elif module is not None and node.id in defs[module]:
                    found.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    found.add((modules[node.value.id], node.attr))
    return found


def _top_level(tree: ast.Module) -> dict:
    """Name -> the top-level statement that defines it."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        out[node.id] = stmt
    return out


def _public(tree: ast.Module) -> list[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return [elt.value for elt in stmt.value.elts]
    return []


# Public names that only BENCHMARK.json's per_layer names keep public: the
# walk without the per_layer seeds reaches none of them. The benchmark
# change that drops their per_layer names (roadmap item 1) may delete them.
PINNED_BY_PER_LAYER = {
    ("meanfield", "gauss_ev"): "_length_moments evaluates its expression in place, and the pair moments use gauss_ev2",
    ("wick", "double_line_loops"): "exact_correlation sums the loops of all diagrams at once through per-level transfer matrices",
    ("landscape", "reconstruct_first_layer"): "constant_loss_path calls _first_layer_solver directly, once per weight set",
    ("netcore", "backward"): "it composes output_grads and weight_grads, which serve every single-input gradient; tools/op_times.py's forward_backward control cases are its only other caller",
}


def _walk(per_layer_seeds: bool = True) -> tuple[dict, set, list]:
    """The parsed modules, the reached (module, name) pairs, and the walked
    scopes as (nodes, module or None, imports) triples. per_layer_seeds=False
    leaves out the functions that BENCHMARK.json's per_layer names seed."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    defs = {name: _top_level(tree) for name, tree in trees.items()}
    imports = {name: _imports(tree) for name, tree in trees.items()}

    scopes = []
    for name, tree in trees.items():
        module_code = [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        scopes.append((module_code, name, imports[name]))
    for bench in ("workloads.py", "checks.py"):
        tree = ast.parse((ROOT / "perfbench" / bench).read_text(encoding="utf-8"))
        scopes.append(([tree], None, _imports(tree)))
    todo = set()
    for nodes, module, scope_imports in scopes:
        todo |= _references(nodes, module, defs, scope_imports)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    for metric in per_layer if per_layer_seeds else []:
        parts = metric["name"].split(".")
        if len(parts) == 3:
            todo.add((parts[0], parts[1]))

    reached = set()
    while todo:
        key = todo.pop()
        module, name = key
        if key in reached or name not in defs.get(module, {}):
            continue
        reached.add(key)
        node = defs[module][name]
        scopes.append(([node], module, imports[module]))
        todo |= _references([node], module, defs, imports[module])
    return trees, reached, scopes


def _unserved(trees: dict, reached: set) -> list[tuple[str, str]]:
    return [
        (module, name)
        for module, tree in trees.items()
        if module != "__init__"
        for name in _public(tree)
        if (module, name) not in reached and (module, name) not in ALLOWED
    ]


def test_every_public_name_is_served():
    unserved = [".".join(key) for key in _unserved(*_walk()[:2])]
    assert not unserved, f"public but reached by no CLI handler and no benchmark op: {unserved}"


def test_per_layer_pins_exactly_the_listed_names():
    """A change that strands another name behind a per_layer metric, or
    serves a listed one again, updates PINNED_BY_PER_LAYER."""
    assert sorted(_unserved(*_walk(per_layer_seeds=False)[:2])) == sorted(PINNED_BY_PER_LAYER)


def test_allowlist_is_needed():
    """An allowed name that the walk reaches after all leaves the list;
    this also shows that the walk does not reach everything."""
    _, reached, _ = _walk()
    assert not [key for key in ALLOWED if key in reached]


# Defaulted parameters of public functions that no served call sets, kept
# on purpose, with the reason.
ALLOWED_PARAMETERS = {
    ("cli", "main", "argv"): "the seam through which tests run the CLI in-process",
    ("meanfield", "gauss_ev", "nodes"): "gauss_ev is public only for a per_layer name; roadmap item 1 decides its fate",
}


def _served_calls() -> tuple[dict, set, dict]:
    """The parsed modules, the reached (module, name) pairs, and (module,
    function) -> the (positional count, keyword names) of every call to it
    in walked code; a *args or **kwargs argument sets everything."""
    trees, reached, scopes = _walk()
    defs = {name: _top_level(tree) for name, tree in trees.items()}
    calls = {}
    for nodes, module, (modules, names) in scopes:
        for root in nodes:
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id in names:
                    key = names[func.id]
                elif isinstance(func, ast.Name) and module is not None and func.id in defs[module]:
                    key = (module, func.id)
                elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
                    key = (modules[func.value.id], func.attr)
                else:
                    continue
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(key, []).append(
                    (math.inf if spread else len(node.args), None if None in keywords else keywords)
                )
    return trees, reached, calls


def _dataclass_defaults(cls: ast.ClassDef) -> list[tuple[int, str]]:
    """(position, name) of a dataclass's init fields that have a default."""
    if not any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    ):
        return []
    out, position = [], 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        options = {}
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
            options = {k.arg: k.value for k in value.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
        if value is not None and (not options or "default" in options or "default_factory" in options):
            out.append((position, stmt.target.id))
        position += 1
    return out


def test_every_public_parameter_is_served():
    """A parameter with a default that no CLI handler, benchmark op or
    served internal call ever sets is an option only tests use. Checked on
    every public function, every private one that the walk reaches, and
    the defaulted init fields of every public dataclass."""
    trees, reached, calls = _served_calls()
    unserved = []
    for module, tree in trees.items():
        public = set(_public(tree))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in public:
                defaulted = _dataclass_defaults(stmt)
            elif isinstance(stmt, ast.FunctionDef) and (stmt.name in public or (module, stmt.name) in reached):
                args = stmt.args
                positional = args.posonlyargs + args.args
                defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
                defaulted += [(math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            else:
                continue
            for index, param in defaulted:
                key = (module, stmt.name, param)
                if key in ALLOWED_PARAMETERS:
                    continue
                if not any(count > index or keywords is None or param in keywords
                           for count, keywords in calls.get((module, stmt.name), [])):
                    unserved.append(".".join(key))
    assert not unserved, f"defaulted parameters that no served call sets: {unserved}"


def test_parameter_allowlist_is_needed():
    _, _, calls = _served_calls()
    set_anyway = [
        key for key in ALLOWED_PARAMETERS
        if any(keywords is None or key[2] in keywords for _, keywords in calls.get(key[:2], []))
    ]
    assert not set_anyway
