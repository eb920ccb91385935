"""The served run's ledgers. tools/served_lines.py runs every golden case
and one checked pass of each benchmark workload at seed 0, in a fresh
interpreter so that module-level lines count, with DLTL_THREADS=1 as the
benchmark runs its workers. Over that one window it records four things of
src/dltl, and each thing it finds unused is accounted for here:

- lines: every unrun line is error handling or has an entry in UNRUN;
- fields: every public dataclass field never read has one in UNREAD_FIELDS;
- names: every public function never called is in ALLOWED or in
  PINNED_BY_PER_LAYER, and the pins are exactly the uncalled names that
  BENCHMARK.json's per_layer metrics name;
- parameters: every defaulted parameter of a top-level function or of a
  public dataclass's __init__ that no call spells out has an entry in
  ALLOWED_PARAMETERS.

An entry whose field is read, whose name is called or whose parameter is
set fails; an UNRUN entry whose lines run does not (below). Neither the
names nor the parameters cover public exception classes, so some dltl code
must raise or catch each of them.

Each unrun line is mapped with `ast` to the function that holds it: a
qualified name such as `DiagramCount.evaluate`, with a nested function
folded into the one that defines it, and `<module>` for module-level code.
Lines inside a raise statement, and except clauses whose body ends in a
raise, are error handling and need no entry.

Every other unrun line needs an entry for its function: the test that
holds its lines, and why no golden case or workload reaches them. An entry
is valid for error handling, for a name that only BENCHMARK.json's
per_layer metrics keep public (PINNED_BY_PER_LAYER), for a branch that some
CLI flag set or benchmark input reaches but no golden case does (the
reason names the flags), and for a branch whose deletion would move a
test's value or tolerance. A branch that no served input reaches is
deleted instead. Keyed by function, the ledger does not churn when lines
move. An entry whose lines happen to run does not fail: some sit at
rounding thresholds that another CPU can cross.

An unread field is deleted, or its entry names the test that reads it and
why. Methods and properties are lines. An uncalled public function, like an
option only tests pass, is deleted or moved into tests/ next to its test.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dltl"
TOOL = ROOT / "tools" / "served_lines.py"

# Public and uncalled on purpose, with the reason.
ALLOWED = {
    ("netcore", "save_weights"): "writes the weight-file format that the CLI's --weights options read",
}

# Public names that only BENCHMARK.json's per_layer names keep public: the
# served run calls none of them. The benchmark change that drops their
# per_layer names (roadmap item 1) may delete them.
PINNED_BY_PER_LAYER = {
    ("meanfield", "gauss_ev"): "_length_moments evaluates its expression in place, and the pair moments use gauss_ev2",
    ("wick", "double_line_loops"): "exact_correlation sums the loops of all diagrams at once through per-level transfer matrices",
    ("landscape", "reconstruct_first_layer"): "constant_loss_path calls _first_layer_solver directly, once per weight set",
    ("netcore", "backward"): "it composes output_grads and weight_grads, which serve every single-input gradient; tools/op_times.py's forward_backward control cases are its only other caller",
}

# Defaulted parameters that no served call spells out, kept on purpose,
# with the reason.
ALLOWED_PARAMETERS = {
    ("cli", "main", "argv"): "the seam through which tests run the CLI in-process; the dltl script passes "
    "nothing, and the golden cases call tests/test_golden.py's own binding, imported before the wrappers go in",
    ("landscape", "_upper_waypoints", "depth"): "set by its own recursion when interpolated upper layers lose "
    "rank, which no served input does (the UNRUN `_upper_waypoints` entry)",
    ("meanfield", "gauss_ev", "nodes"): "gauss_ev is public only for a per_layer name; roadmap item 1 decides its fate",
}

# (module, function) -> (test node id, why no golden case or workload runs it)
UNRUN = {
    ("cli", "<module>"): (
        "tests/test_cli.py::TestDomainHolesExitOne::test_exits_one_with_message",
        "`python -m dltl.cli` runs the main guard; the golden cases call main in-process",
    ),
    ("cli", "_check_weights_on"): (
        "tests/test_cli.py::TestNtkTrain::test_data_of_another_width_meets_the_handlers_check",
        "error handling: data of another width than the weights' is left to the handler's own error",
    ),
    ("cli", "_du_inputs"): (
        "tests/test_cli.py::TestDuMonitor::test_data_file_columns_are_normalized",
        "`du-monitor --data FILE`; the golden du-monitor case draws its examples from --seed",
    ),
    ("cli", "_json_ready"): (
        "tests/test_cli.py::TestParsers::test_render_json_arrays",
        "an array with inf or nan, or of ints or bools, which no served document holds since `align` rejects "
        "a subnormal gram; without the branch such an array is written as invalid JSON, and this test moves",
    ),
    ("cli", "_open_out"): (
        "tests/test_cli.py::TestPhase::test_out_to_a_device_is_written_in_place",
        "no --out (stdout), or an --out that names a device; every golden case writes a regular file",
    ),
    ("cli", "main"): (
        "tests/test_cli.py::TestExitCodes::test_no_arguments_is_usage",
        "error handling: usage errors exit 2 and domain errors 1; argv is sys.argv under the dltl script",
    ),
    ("cli", "read_dataset"): (
        "tests/test_cli.py::TestParsers::test_read_dataset_skips_blank_rows",
        "any --data file with a blank row; the golden datasets have none",
    ),
    ("genbounds", "bartlett_bound"): (
        "tests/test_genbounds.py::TestBartlettBound::test_margin_risk_added",
        "inside the entropy-integral regime, as `bounds --family bartlett --gamma 100` is on the golden "
        "data; the golden case's gamma and the norm_bounds op stay outside it",
    ),
    ("genbounds", "dziugaite_roy_optimize"): (
        "tests/test_properties.py::test_dziugaite_roy_equals_two_evaluator_loop",
        "the dziugaite_roy ops halve the step only where a full step fails to descend, a rounding "
        "threshold that no seed crosses here; the probe's inf is error handling for exp overflow",
    ),
    ("genbounds", "neyshabur_bound"): (
        "tests/test_cli.py::TestDomainHolesExitOne::test_bounds_out_of_float_range",
        "error handling: (B R / gamma)^2 overflows into the penalty's error, as under `bounds --gamma 1e-200`",
    ),
    ("landscape", "_repair_full_rank"): (
        "tests/test_landscape.py::TestConstantLossPath::test_rank_repair_reported",
        "`path` on a weight file whose upper layers are rank deficient; the golden nets are full rank",
    ),
    ("landscape", "_upper_waypoints"): (
        "tests/test_landscape.py::TestConstantLossPath::test_upper_leg_subdivides_where_rank_is_lost",
        "`path` on weight files whose interpolated upper layers lose rank",
    ),
    ("landscape", "constant_loss_path"): (
        "tests/test_landscape.py::TestConstantLossPath::test_identical_endpoints_collapse_to_point",
        "`path` given one weight file as both --weights-a and --weights-b",
    ),
    ("landscape", "reconstruct_first_layer"): (
        "tests/test_landscape.py::TestReconstruct::test_linear_reconstruction_exact",
        "PINNED_BY_PER_LAYER",
    ),
    ("lindyn", "_finite_time"): (
        "tests/test_lindyn.py::TestModeTime::test_arrival_time_beyond_float_range_raises",
        "error handling: the cause named by the error raised next",
    ),
    ("lindyn", "simulate_deep_linear_gd"): (
        "tests/test_lindyn.py::TestDeepLinearGD::test_max_steps_exhaustion",
        "error handling: `lindyn --max-steps` runs out before --tol-loss, and the error follows; "
        "a loss that is not finite at step 0 is blamed on u0, as under `lindyn --u0 1e300`",
    ),
    ("meanfield", "_newton_polish"): (
        "tests/test_meanfield.py::TestFixedPoints::test_tanh_escape_too_slow_to_settle_raises",
        "error handling: Newton steps it cannot trust hand the fixed point back to plain iteration, "
        "as `phase --act tanh` does just above sigma_w2 = 1 from a tiny --q0 (ROADMAP item 4)",
    ),
    ("meanfield", "edge_of_chaos"): (
        "tests/test_meanfield.py::TestPhase::test_edge_of_chaos_piecewise_linear_is_exact",
        "the edge_of_chaos.tanh op leaves the bisection by its width at other seeds; the closed form "
        "of the piecewise-linear kinds and the lower end at q0 below 1e-11 are reached by no served "
        "input, but without them these tests move: relu bisects to 1.999999999985448 and tanh at q0 = 0 "
        "to the upper end",
    ),
    ("meanfield", "gauss_ev"): (
        "tests/test_meanfield.py::TestQuadrature::test_gauss_ev_matches_scipy",
        "PINNED_BY_PER_LAYER",
    ),
    ("meanfield", "gauss_ev2"): (
        "tests/test_meanfield.py::TestNonFinitePairsRejected::test_gauss_ev2_array_names_the_first_bad_pair",
        "error handling: the first bad pair is named; the all-|c| = 1 axis rule runs in the kernel "
        "ops at other seeds",
    ),
    ("netcore", "Activation.inverse"): (
        "tests/test_landscape.py::TestReconstruct::test_leaky_relu_reconstruction_exact",
        "`path` on leaky_relu nets; no leaky path is loss-constant on the golden data, so none can be "
        "a golden case (ROADMAP item 18)",
    ),
    ("netcore", "backward"): (
        "tests/test_netcore.py::TestForwardBackward::test_weight_gradients_match_finite_differences",
        "PINNED_BY_PER_LAYER",
    ),
    ("netcore", "save_weights"): (
        "tests/test_netcore.py::TestWeightFiles::test_round_trip",
        ALLOWED[("netcore", "save_weights")],
    ),
    ("netcore", "json_floats"): (
        "tests/test_cli.py::TestDomainHolesExitOne::test_weight_file_with_a_non_finite_entry",
        "error handling: the entry named by the error raised next",
    ),
    ("wick", "DiagramCount._rational_value"): (
        "tests/test_wick.py::TestMonteCarloScaling::test_underflowing_inputs_rejected_without_warnings",
        "error handling: tells an underflowed exact value from a correlation that vanishes",
    ),
    ("wick", "DiagramCount.leading_exponent"): (
        "tests/test_cli.py::TestDomainHolesExitOne::test_wick_mc_odd_m_still_runs",
        "`wick --spec` on a spec with an odd m, whose polynomial is zero",
    ),
    ("wick", "_hessian_vec"): (
        "tests/test_wick.py::test_hessian_vec_equals_substituted_passes",
        "a block's second contribution, which only depth L >= 2 has; golden `wick-mc` and the benchmark run L = 1",
    ),
    ("wick", "double_line_loops"): (
        "tests/test_wick.py::TestDoubleLineLoops::test_depth_two_parallel_matchings",
        "PINNED_BY_PER_LAYER",
    ),
    ("wick", "exact_correlation"): (
        "tests/test_cli.py::TestDomainHolesExitOne::test_wick_mc_odd_m_still_runs",
        "`wick --spec` on a spec with an odd m, whose polynomial is zero",
    ),
}

# (module, class, field) -> (test node id, why no golden case or workload reads it)
UNREAD_FIELDS = {
    ("meanfield", "FixedPointResult", "iterations"): (
        "tests/test_properties.py::test_tanh_fixed_point_matches_iterated_length_map",
        "the iteration count that the diagnostics channel (ROADMAP item 6) will report",
    ),
    ("meanfield", "MomentProfile", "delta_se"): (
        "tests/test_meanfield.py::TestSimulatedMoments::test_backward_moments_flat_at_edge",
        "the 4-SE oracle of the backward moments reads it",
    ),
    ("ntk", "KernelRecursionState", "q11"): (
        "tests/test_ntk.py::TestRecursion::test_relu_matches_arccos_maps",
        "the per-layer oracle of the pair recursion reads it",
    ),
    ("ntk", "KernelRecursionState", "q22"): (
        "tests/test_ntk.py::TestRecursion::test_relu_matches_arccos_maps",
        "the per-layer oracle of the pair recursion reads it",
    ),
    ("ntk", "LinearizedSolution", "gram"): (
        "tests/test_ntk.py::TestGrams::test_last_layer_collapses_to_nngp",
        "the train gram whose spectrum the diagnostics channel (ROADMAP item 6) will report"),
}


def _owners(tree: ast.Module) -> tuple[dict[int, str], set[str]]:
    """Line -> the qualified name of the function that holds it, and every
    such name; a nested function belongs to the one that defines it."""
    owner, names = {}, {"<module>"}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                names.add(name)
                owner.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), name))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return owner, names


def _error_handling(tree: ast.Module) -> set[int]:
    """The lines of raise statements, and of except clauses whose body ends
    in a raise."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) or (isinstance(node, ast.ExceptHandler) and isinstance(node.body[-1], ast.Raise)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


@pytest.fixture(scope="module")
def listing() -> list[str]:
    env = dict(os.environ, DLTL_THREADS="1")
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def unrun(listing) -> dict[tuple[str, str], list[str]]:
    """(module, function) -> its unrun `module.py:line: source` lines that
    are not error handling."""
    trees = _trees()
    skip = {module: _error_handling(tree) for module, tree in trees.items()}
    owners = {module: _owners(tree)[0] for module, tree in trees.items()}
    found = {}
    for line in listing:
        match = re.match(r"(\w+)\.py:(\d+): ", line)
        if match is None:
            assert re.fullmatch(r"\w+\.py: \d+ of \d+ lines not run|(unread field|uncalled|unset parameter): [\w.]+", line), line
            continue
        module, number = match.group(1), int(match.group(2))
        if number not in skip[module]:
            found.setdefault((module, owners[module].get(number, "<module>")), []).append(line)
    return found


def test_every_unrun_line_has_an_entry(unrun):
    missing = {key: lines for key, lines in unrun.items() if key not in UNRUN}
    assert not missing, f"unrun lines with no UNRUN entry: delete them, or add an entry: {missing}"


def _reported(listing: list[str], kind: str) -> set[tuple[str, ...]]:
    """The dotted names of the listing's `kind: name` lines, split at the dots."""
    return {tuple(line.removeprefix(f"{kind}: ").split(".")) for line in listing if line.startswith(f"{kind}: ")}


def test_every_unread_field_has_an_entry(listing):
    unread = _reported(listing, "unread field")
    assert sorted(unread - set(UNREAD_FIELDS)) == [], "fields that no served code reads: delete them, or add an entry"


def test_every_field_entry_is_still_unread(listing):
    assert sorted(set(UNREAD_FIELDS) - _reported(listing, "unread field")) == []


def test_every_public_function_is_called(listing):
    uncalled = _reported(listing, "uncalled") - set(ALLOWED) - set(PINNED_BY_PER_LAYER)
    assert sorted(uncalled) == [], "public but called by no CLI handler and no benchmark op"


def test_per_layer_pins_exactly_the_uncalled_names_it_names(listing):
    """A change that strands another name behind a per_layer metric, or
    calls a pinned one again, updates PINNED_BY_PER_LAYER."""
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    named = {tuple(metric["name"].split(".")[:2]) for metric in per_layer if metric["name"].count(".") == 2}
    assert sorted(_reported(listing, "uncalled") & named) == sorted(PINNED_BY_PER_LAYER)


def test_every_allowed_name_is_uncalled(listing):
    assert sorted(set(ALLOWED) - _reported(listing, "uncalled")) == []


def test_every_unset_parameter_has_an_entry(listing):
    unset = _reported(listing, "unset parameter") - set(ALLOWED_PARAMETERS)
    assert sorted(unset) == [], "defaulted parameters that no served call sets: delete them, or add an entry"


def test_every_parameter_entry_is_still_unset(listing):
    assert sorted(set(ALLOWED_PARAMETERS) - _reported(listing, "unset parameter")) == []


def test_every_public_exception_is_raised_or_caught():
    """Neither record covers a public exception class, so some dltl code
    must name it in a raise statement or an except clause."""
    modules = [importlib.import_module(f"dltl.{path.stem}") for path in PACKAGE.glob("[!_]*.py")]
    public = {name for module in modules for name in module.__all__
              if isinstance(cls := vars(module)[name], type) and issubclass(cls, BaseException)}
    named = [node.exc if isinstance(node, ast.Raise) else node.type
             for tree in _trees().values() for node in ast.walk(tree) if isinstance(node, (ast.Raise, ast.ExceptHandler))]
    used = {n.id for root in named if root is not None for n in ast.walk(root) if isinstance(n, ast.Name)}
    assert sorted(public - used) == []


def test_every_entry_names_a_function():
    names = {module: _owners(tree)[1] for module, tree in _trees().items()}
    assert [key for key in UNRUN if key[1] not in names.get(key[0], ())] == []


def test_every_entry_names_a_test():
    modules = {}

    def exists(node_id: str) -> bool:
        path, *scopes = re.sub(r"\[.*\]$", "", node_id).split("::")
        if not (ROOT / path).is_file():
            return False
        if path not in modules:
            modules[path] = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        body = modules[path].body
        for name in scopes:
            node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
            if node is None:
                return False
            body = node.body
        return True

    assert [test for test, _ in [*UNRUN.values(), *UNREAD_FIELDS.values()] if not exists(test)] == []


def test_pinned_entries_name_pinned_functions():
    pinned = {key for key, (_, why) in UNRUN.items() if why == "PINNED_BY_PER_LAYER"}
    assert pinned <= set(PINNED_BY_PER_LAYER)
