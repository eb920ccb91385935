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
sets is an option only tests use, and fails here too. And for members: a
field, property, method or attribute of a public class that no walked
scope reads is computed only to be thrown away. Only reads perfbench/ and
BENCHMARK.json.
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


# Members of public classes that no walked scope reads, kept on purpose,
# with the reason.
ALLOWED_MEMBERS = {
    ("ntk", "LinearizedSolution", "gram"): "the train gram whose lambda_min, lambda_max and condition number the diagnostics channel (roadmap item 6) will report from KernelGram.eigvals",
    ("ntk", "KernelRecursionState", "q11"): "the per-layer oracle of the pair recursion reads it",
    ("ntk", "KernelRecursionState", "q22"): "the per-layer oracle of the pair recursion reads it",
    ("meanfield", "MomentProfile", "delta_se"): "the 4-SE oracle of the backward moments reads it",
    ("meanfield", "FixedPointResult", "iterations"): "the iteration count that the diagnostics channel (roadmap item 6) will report",
}

# `asdict(x)` reads every field of x's class; where x's class cannot be read
# off the code, the module's entry names it. cli serializes the bound
# reports it collects in a dict.
ASDICT_CLASSES = {"cli": ("genbounds", "BoundReport")}

_BUILTIN_TYPES = {"int", "float", "str", "bool", "bytes", "dict", "list", "set", "range", "object"}
_FOREIGN = "foreign"   # the type of a value known not to be a dltl class instance


class _Types:
    """Static types of expressions, read off dltl's annotations.

    A type is None (unknown), _FOREIGN, ("class", key) for an instance of
    the dltl class key = (module, name), ("classobj", key) for the class
    itself, ("module", name) for a dltl module, ("seq", T) for a list or a
    homogeneous tuple, and ("tuple", (T1, ...)) for a fixed tuple.
    """

    def __init__(self, trees: dict, imports: dict):
        self.imports = imports
        self.defs = {name: _top_level(tree) for name, tree in trees.items()}
        self.classes = {
            (module, stmt.name): stmt
            for module, tree in trees.items()
            for stmt in tree.body
            if isinstance(stmt, ast.ClassDef)
        }

    def resolve(self, name: str, module: str | None, scope_imports: tuple[dict, dict]):
        """The dltl object a bare name stands for, as a type."""
        modules, names = scope_imports
        if name in modules:
            return ("module", modules[name])
        key = names.get(name) or ((module, name) if module is not None and name in self.defs[module] else None)
        if key in self.classes:
            return ("classobj", key)
        if key is not None:
            return ("function", key)
        return None

    def annotation(self, node, module: str):
        """The type an annotation written in the given module names."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body, module)
        if isinstance(node, ast.Name):
            if node.id in _BUILTIN_TYPES:
                return _FOREIGN
            found = self.resolve(node.id, module, self.imports[module])
            return ("class", found[1]) if found and found[0] == "classobj" else None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value.id, module, self.imports[module]) if isinstance(node.value, ast.Name) else None
            if not (base and base[0] == "module"):
                return _FOREIGN   # np.ndarray, argparse.Namespace, ...
            key = (base[1], node.attr)
            return ("class", key) if key in self.classes else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = [s for s in (node.left, node.right) if not (isinstance(s, ast.Constant) and s.value is None)]
            return self.annotation(sides[0], module) if len(sides) == 1 else None
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if node.value.id == "list":
                return ("seq", self.annotation(args[0], module))
            if node.value.id == "tuple":
                if len(args) == 2 and isinstance(args[1], ast.Constant) and args[1].value is Ellipsis:
                    return ("seq", self.annotation(args[0], module))
                return ("tuple", tuple(self.annotation(a, module) for a in args))
            if node.value.id == "dict":
                return _FOREIGN
        return None

    def method(self, key: tuple, name: str):
        """The FunctionDef of a method or property of a dltl class."""
        for stmt in self.classes[key].body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return stmt
        return None

    def attribute(self, key: tuple, name: str):
        """The type of reading `name` off an instance of the class key."""
        for stmt in self.classes[key].body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                return self.annotation(stmt.annotation, key[0])
        method = self.method(key, name)
        if method is not None and any(
            isinstance(d, ast.Name) and d.id == "property" for d in method.decorator_list
        ):
            return self.annotation(method.returns, key[0])
        return None


def _element(kind):
    """The type of an item of an iterable of the given type."""
    if isinstance(kind, tuple) and kind[0] == "seq":
        return kind[1]
    if isinstance(kind, tuple) and kind[0] == "tuple" and len(set(kind[1])) == 1:
        return kind[1][0]
    return None


class _Scope:
    """One walked scope: a function, method or module body, with the types
    of its local names inferred flow-insensitively. A name bound to two
    different types, or to one that cannot be read off, is unknown."""

    def __init__(self, types: _Types, root, module: str | None, scope_imports, owner=None, in_init=False):
        self.types, self.root, self.module, self.imports = types, root, module, scope_imports
        self.owner = owner        # the class key whose method this is
        self.in_init = in_init    # an __init__/__post_init__ of owner
        self.env = {}
        # a binding's type may depend on another name's (`for seg in
        # trace.segments`), so repeat until the types settle
        for _ in range(4):
            env = self._bindings()
            if env == self.env:
                break
            self.env = env

    def _bindings(self) -> dict:
        found = {}

        def bind(target, kind):
            if isinstance(target, ast.Name):
                found.setdefault(target.id, []).append(kind)
            elif isinstance(target, (ast.Tuple, ast.List)):
                parts = kind[1] if isinstance(kind, tuple) and kind[0] == "tuple" else ()
                for i, elt in enumerate(target.elts):
                    bind(elt, parts[i] if len(parts) == len(target.elts) else _element(kind))

        roots = self.root if isinstance(self.root, list) else [self.root]
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    args = node.args
                    params = args.posonlyargs + args.args + args.kwonlyargs
                    for i, arg in enumerate(params):
                        if i == 0 and node is self.root and self.owner is not None:
                            bind(ast.Name(arg.arg), ("class", self.owner))
                        elif self.module is not None:
                            bind(ast.Name(arg.arg), self.types.annotation(arg.annotation, self.module))
                        else:
                            bind(ast.Name(arg.arg), None)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        bind(target, self.type_of(node.value))
                elif isinstance(node, ast.AnnAssign) and self.module is not None:
                    bind(node.target, self.types.annotation(node.annotation, self.module))
                elif isinstance(node, (ast.For, ast.comprehension)):
                    bind(node.target, _element(self.type_of(node.iter)))
                elif isinstance(node, ast.ExceptHandler) and node.name:
                    caught = self.type_of(node.type) if node.type else None
                    bind(ast.Name(node.name), ("class", caught[1]) if caught and caught[0] == "classobj" else None)
                elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                    bind(node.optional_vars, None)
                elif isinstance(node, ast.NamedExpr):
                    bind(node.target, self.type_of(node.value))
        return {name: kinds[0] if len(set(kinds)) == 1 else None for name, kinds in found.items()}

    def type_of(self, node):
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return self.types.resolve(node.id, self.module, self.imports)
        if isinstance(node, ast.Attribute):
            base = self.type_of(node.value)
            if isinstance(base, tuple) and base[0] == "module":
                return self.types.resolve(node.attr, base[1], ({}, {}))
            if isinstance(base, tuple) and base[0] == "class":
                return self.types.attribute(base[1], node.attr)
            return None
        if isinstance(node, ast.Call):
            func = self.type_of(node.func)
            if isinstance(func, tuple) and func[0] == "classobj":
                return ("class", func[1])
            if isinstance(func, tuple) and func[0] == "function":
                module, name = func[1]
                return self.types.annotation(self.types.defs[module][name].returns, module)
            if isinstance(node.func, ast.Attribute):
                base = self.type_of(node.func.value)
                if isinstance(base, tuple) and base[0] in ("class", "classobj"):
                    method = self.types.method(base[1], node.func.attr)
                    if method is not None:
                        return self.types.annotation(method.returns, base[1][0])
            if isinstance(node.func, ast.Name) and node.func.id not in self.env:
                items = [_element(self.type_of(a)) for a in node.args]
                if node.func.id == "enumerate" and items:
                    return ("seq", ("tuple", (_FOREIGN, items[0])))
                if node.func.id == "zip":
                    return ("seq", ("tuple", tuple(items)))
            return None
        if isinstance(node, ast.Subscript):
            base = self.type_of(node.value)
            if isinstance(base, tuple) and base[0] == "seq":
                return base[1]
            if isinstance(base, tuple) and base[0] == "tuple" and isinstance(node.slice, ast.Constant):
                index = node.slice.value
                return base[1][index] if isinstance(index, int) and -len(base[1]) <= index < len(base[1]) else None
            return None
        if isinstance(node, ast.Tuple):
            return ("tuple", tuple(self.type_of(e) for e in node.elts))
        return None

    def reads(self) -> tuple[set, set]:
        """(class key, member) pairs read off values of a known dltl class,
        and member names read off values of unknown type, which may be
        any class. Reads of the owner's members in its own __init__ or
        __post_init__ do not count."""
        typed, untyped = set(), set()

        def read(base, attr):
            if base is None:
                untyped.add(attr)
            elif isinstance(base, tuple) and base[0] in ("class", "classobj"):
                if not (self.in_init and base[1] == self.owner):
                    typed.add((base[1], attr))

        roots = self.root if isinstance(self.root, list) else [self.root]
        for root in roots:
            for node in ast.walk(root):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read(self.type_of(node.value), node.attr)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args:
                    if node.func.id == "getattr" and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                        read(self.type_of(node.args[0]), node.args[1].value)
                    elif node.func.id == "asdict":
                        kind = self.type_of(node.args[0])
                        if kind is None and self.module in ASDICT_CLASSES:
                            kind = ("class", ASDICT_CLASSES[self.module])
                        if isinstance(kind, tuple) and kind[0] == "class":
                            typed |= {(kind[1], name) for name in _fields(self.types.classes[kind[1]])}
        return typed, untyped


def _fields(cls: ast.ClassDef) -> list[str]:
    return [
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _members(cls: ast.ClassDef) -> list[str]:
    """Fields, properties, methods and the attributes __init__ sets; dunders
    are called by the language, not read."""
    out = _fields(cls)
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
            out.append(stmt.name)
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            out += [
                node.attr
                for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            ]
    return out


def _member_reads() -> tuple[dict, set, set]:
    """The parsed modules, and the typed and untyped member reads of every
    walked scope. A reached class's dunder methods are walked; its other
    methods and properties only once a walked scope reads them."""
    trees, _, walked = _walk()
    imports = {name: _imports(tree) for name, tree in trees.items()}
    types = _Types(trees, imports)
    scopes, pending = [], {}
    for nodes, module, scope_imports in walked:
        for node in nodes:
            if not isinstance(node, ast.ClassDef):
                scopes.append(_Scope(types, node, module, scope_imports))
                continue
            key = (module, node.name)
            body = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
            scopes.append(_Scope(types, body, module, scope_imports))
            for stmt in node.body:
                if not isinstance(stmt, ast.FunctionDef):
                    continue
                if stmt.name.startswith("__"):
                    in_init = stmt.name in ("__init__", "__post_init__")
                    scopes.append(_Scope(types, stmt, module, scope_imports, owner=key, in_init=in_init))
                else:
                    pending[(key, stmt.name)] = _Scope(types, stmt, module, scope_imports, owner=key)
    typed, untyped = set(), set()
    while scopes:
        for scope in scopes:
            got_typed, got_untyped = scope.reads()
            typed |= got_typed
            untyped |= got_untyped
        served = [k for k in pending if k in typed or k[1] in untyped]
        scopes = [pending.pop(k) for k in served]
    return trees, typed, untyped


def _unread_members() -> list[tuple[str, str, str]]:
    trees, typed, untyped = _member_reads()
    unread = []
    for module, tree in trees.items():
        public = set(_public(tree))
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name in public:
                for member in _members(stmt):
                    if ((module, stmt.name), member) not in typed and member not in untyped:
                        unread.append((module, stmt.name, member))
    return unread


def test_every_public_member_is_served():
    """Every field, property, method and attribute of a public class is
    read by a CLI handler, a benchmark op, or a served method of another
    or the same class. A value that no consumer reads is computed to be
    thrown away, and a member only tests read is an oracle that belongs
    in tests/."""
    unserved = [".".join(key) for key in _unread_members() if key not in ALLOWED_MEMBERS]
    assert not unserved, f"members that no CLI handler and no benchmark op read: {unserved}"


def test_member_allowlist_is_needed():
    unread = set(_unread_members())
    assert not [key for key in ALLOWED_MEMBERS if key not in unread]
