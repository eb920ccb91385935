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
walk does not reach fails here. Only reads perfbench/ and BENCHMARK.json.
"""

import ast
import json
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


def _walk() -> tuple[dict, set]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    defs = {name: _top_level(tree) for name, tree in trees.items()}
    imports = {name: _imports(tree) for name, tree in trees.items()}

    todo = set()
    for name, tree in trees.items():
        module_code = [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        todo |= _references(module_code, name, defs, imports[name])
    for bench in ("workloads.py", "checks.py"):
        tree = ast.parse((ROOT / "perfbench" / bench).read_text(encoding="utf-8"))
        todo |= _references([tree], None, defs, _imports(tree))
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    for metric in per_layer:
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
        todo |= _references([defs[module][name]], module, defs, imports[module])
    return trees, reached


def test_every_public_name_is_served():
    trees, reached = _walk()
    unserved = [
        f"{module}.{name}"
        for module, tree in trees.items()
        if module != "__init__"
        for name in _public(tree)
        if (module, name) not in reached and (module, name) not in ALLOWED
    ]
    assert not unserved, f"public but reached by no CLI handler and no benchmark op: {unserved}"


def test_allowlist_is_needed():
    """An allowed name that the walk reaches after all leaves the list;
    this also shows that the walk does not reach everything."""
    _, reached = _walk()
    assert not [key for key in ALLOWED if key in reached]
