"""List what of src/dltl the served traffic does not use: the lines it
does not run, the fields of public dataclasses it does not read, the public
functions it does not call and the defaulted parameters it does not set.

    python3 tools/served_lines.py [--case NAME ...] [--workload W ...] [--seeds A-B]

Run it from any directory. The served traffic is what reaches dltl from
outside: the golden flag sets of tests/test_golden.py, each run through
cli.main once with --format csv and once with --format json on the seeded
inputs of test_golden.write_inputs, and one pass over the operations of
perfbench/workloads.py's `build` for each workload and seed, through
perfbench/worker.py's Runner as the benchmark runs it: every operation's
reference fields, reference check, oracle and counters run too. All of it
runs in this interpreter under sys.settrace; dltl is imported under it
first, so module-level lines count, and the inputs, which only tests write,
are written outside it. perfbench/ is only read.

Four records are taken over that one window, and printed in this order:

- lines: a line can run when some compiled code object of its module maps
  an instruction to it (co_lines); the trace's line events show which did.
  Prints `module.py:line: source` for every such line that no call ran, in
  file order, then one `module.py: N of M lines not run` count per module.
- fields: a __getattribute__ recorder on each dataclass in a module's
  __all__ notes the fields read outside the class's own __init__ and
  __post_init__. Prints `unread field: module.Class.field` for the rest.
  Any other public class must be an exception without attributes of its own.
- names: the trace's call events show which code objects ran. Prints
  `uncalled: module.name` for each function in a module's __all__ whose
  code never ran, however it was reached (a dict of functions too).
- parameters: every top-level function of each dltl module is wrapped
  at every binding site in the dltl namespaces (a module that did `from .meanfield import length_map` holds
  its own binding), and so is the __init__ of each public dataclass. Each
  call records the names its arguments bind; the originals go back after
  the window. Prints `unset parameter: module.function.param` for every
  defaulted parameter that no call spelled out. A caller outside dltl that
  imported a function before the window, as tests/test_golden.py imports
  cli.main, calls it unrecorded.

--case and --workload default to every golden case and every workload,
--seeds to seed 0. Exits 1, after the listing, if a benchmark operation
raised or failed its check; the failures go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import inspect
import linecache
import os
import sys
import tempfile
from pathlib import Path

from op_fields import WORKLOADS, seed_range

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dltl"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]


def code_lines(path: Path) -> set[int]:
    """Every line of the file that an instruction of its compiled code maps to."""
    todo, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace_lines(run, ran: set, called: set) -> None:
    """Adds to `ran` the (file, line) pairs of src/dltl that run() executes,
    and to `called` the code objects of src/dltl that it calls."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        called.add(frame.f_code)
        # the call event stands for the line of the def (its RESUME)
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        return local

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)


def modules() -> list:
    return [module for name, module in sys.modules.items() if name.startswith("dltl.")]


def functions(module) -> dict:
    """Name -> each top-level function that the module defines, decorated
    (lru_cache, contextmanager) or not."""
    return {name: value for name, value in vars(module).items()
            if getattr(value, "__module__", None) == module.__name__ and inspect.isfunction(inspect.unwrap(value))}


# All that vars() holds of an exception class without attributes of its own.
BARE_EXCEPTION = {"__module__", "__qualname__", "__doc__", "__weakref__", "__firstlineno__", "__static_attributes__"}


@contextlib.contextmanager
def unread_fields():
    """Yields the `module.Class.field` names of the public dataclasses of the
    imported dltl modules; one leaves the set once the block reads it
    outside its class's __init__ and __post_init__."""
    unread, recorded = set(), {}

    def __getattribute__(self, name):
        names, own = recorded[type(self)]
        if name in names and sys._getframe(1).f_code not in own:
            unread.discard(names[name])
        return object.__getattribute__(self, name)

    try:
        for module in modules():
            for cls in [vars(module)[name] for name in module.__all__ if isinstance(vars(module)[name], type)]:
                key = f"{module.__name__.removeprefix('dltl.')}.{cls.__name__}"
                if dataclasses.is_dataclass(cls):
                    names = {f.name: f"{key}.{f.name}" for f in dataclasses.fields(cls)}
                    unread.update(names.values())
                    recorded[cls] = names, {vars(cls)[m].__code__ for m in ("__init__", "__post_init__") if m in vars(cls)}
                    cls.__getattribute__ = __getattribute__
                elif not (issubclass(cls, BaseException) and vars(cls).keys() <= BARE_EXCEPTION):
                    raise TypeError(f"{key} is public but neither a dataclass nor an exception without attributes")
        yield unread
    finally:
        for cls in recorded:
            del cls.__getattribute__


@contextlib.contextmanager
def unset_parameters():
    """Yields the `module.function.param` names of the defaulted parameters
    of the imported dltl modules' top-level functions and of their public
    dataclasses' __init__; one leaves the set once a call in the block
    binds it. Enter it inside unread_fields, which tells a dataclass's own
    reads by the code of its unwrapped __init__."""
    unset, wrappers, bindings = set(), {}, []

    def wrap(key, fn):
        signature = inspect.signature(fn)
        names = {p.name: f"{key}.{p.name}" for p in signature.parameters.values() if p.default is not p.empty}
        unset.update(names.values())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if names:
                for name in signature.bind_partial(*args, **kwargs).arguments.keys() & names.keys():
                    unset.discard(names.pop(name))
            return fn(*args, **kwargs)

        return wrapper

    try:
        for module in modules():
            prefix = module.__name__.removeprefix("dltl.")
            for name, fn in functions(module).items():
                wrappers[id(fn)] = fn, wrap(f"{prefix}.{name}", fn)
            for cls in map(vars(module).get, module.__all__):
                if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                    continue
                bindings.append((cls, "__init__", cls.__init__))
                cls.__init__ = wrap(f"{prefix}.{cls.__name__}", cls.__init__)
        for module in modules():
            for attr, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)
        yield unset
    finally:
        for target, attr, original in reversed(bindings):
            setattr(target, attr, original)


def serve(cases: list[str], workloads: list[str], seeds: list[int], paths: dict, out: str) -> list[str]:
    """Run the golden cases and the workloads' checked passes; the failed
    operations, as `workload seed N: op: message` lines."""
    from test_golden import FORMATS, run_case

    import worker
    import workloads as bench

    for name in cases:
        for fmt in FORMATS:
            run_case(name, fmt, paths, out)
    failures = []
    for name in workloads:
        for seed in seeds:
            runner = worker.Runner(bench.build(name, seed), worker.load_refs(name, seed))
            runner.run_pass()
            failures += [f"{name} seed {seed}: {error}" for error in runner.errors]
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", action="extend", nargs="+",
                        help="run only these golden cases (repeatable; default: every golden case)")
    parser.add_argument("--workload", action="extend", nargs="+", choices=WORKLOADS,
                        help="run only these workloads (repeatable; default: all three)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0"),
                        help="workload input seeds, A-B inclusive or one seed (default 0)")
    args = parser.parse_args(argv)

    ran, called = set(), set()
    trace_lines(lambda: [importlib.import_module(f"dltl.{path.stem}") for path in PACKAGE.glob("[!_]*.py")], ran, called)
    from test_golden import CASES, write_inputs

    unknown = sorted(set(args.case or ()) - set(CASES))
    if unknown:
        parser.error(f"unknown golden cases {unknown}")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        with unread_fields() as unread, unset_parameters() as unset:
            trace_lines(lambda: failures.extend(serve(
                args.case or sorted(CASES), args.workload or list(WORKLOADS), args.seeds, paths, os.path.join(tmp, "out"))),
                ran, called)
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in ran)
        for line in missed:
            print(f"{path.name}:{line}: {linecache.getline(str(path), line).strip()}")
        counts.append(f"{path.name}: {len(missed)} of {len(lines)} lines not run")
    print("\n".join(counts))
    for name in sorted(unread):
        print(f"unread field: {name}")
    for name in sorted(f"{module.__name__.removeprefix('dltl.')}.{attr}" for module in modules()
                       for attr, fn in functions(module).items()
                       if attr in module.__all__ and inspect.unwrap(fn).__code__ not in called):
        print(f"uncalled: {name}")
    for name in sorted(unset):
        print(f"unset parameter: {name}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
