"""The ledgers of unrun lines and unread fields: every line of src/dltl
that the served traffic leaves unrun is error handling or has an entry in
UNRUN, and every public dataclass field it never reads one in UNREAD_FIELDS.

tools/served_lines.py runs every golden case and one checked pass of each
benchmark workload at seed 0, in a fresh interpreter so that module-level
lines count, with DLTL_THREADS=1 as the benchmark runs its workers. Each
line it lists is mapped with `ast` to the function that holds it: a
qualified name such as `DiagramCount.evaluate`, with a nested function
folded into the one that defines it, and `<module>` for module-level code.
Lines inside a raise statement, and except clauses whose body ends in a
raise, are error handling and need no entry.

Every other unrun line needs an entry for its function: the test that
holds its lines, and why no golden case or workload reaches them. An entry
is valid for error handling, for a name that only BENCHMARK.json's
per_layer metrics keep public (test_served.PINNED_BY_PER_LAYER), for a
branch that some CLI flag set or benchmark input reaches but no golden case
does (the reason names the flags), and for a branch whose deletion would
move a test's value or tolerance. A branch that no served input reaches is
deleted instead. Keyed by function, the ledger does not churn when lines
move. An entry whose lines happen to run does not fail: some sit at
rounding thresholds that another CPU can cross.

An unread field is deleted, or its entry names the test that reads it and
why; an entry whose field is read fails. Methods and properties are lines.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_served import ALLOWED, PINNED_BY_PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dltl"
TOOL = ROOT / "tools" / "served_lines.py"

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
        "error handling: `lindyn --max-steps` runs out before --tol-loss, and the error follows",
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
            assert re.fullmatch(r"\w+\.py: \d+ of \d+ lines not run|unread field: [\w.]+", line), line
            continue
        module, number = match.group(1), int(match.group(2))
        if number not in skip[module]:
            found.setdefault((module, owners[module].get(number, "<module>")), []).append(line)
    return found


def test_every_unrun_line_has_an_entry(unrun):
    missing = {key: lines for key, lines in unrun.items() if key not in UNRUN}
    assert not missing, f"unrun lines with no UNRUN entry: delete them, or add an entry: {missing}"


def test_every_unread_field_has_an_entry(listing):
    unread = {tuple(line.split()[-1].split(".")) for line in listing if line.startswith("unread field: ")}
    assert sorted(unread - set(UNREAD_FIELDS)) == [], "fields that no served code reads: delete them, or add an entry"


def test_every_field_entry_is_still_unread(listing):
    assert sorted(key for key in UNREAD_FIELDS if f"unread field: {'.'.join(key)}" not in listing) == []


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
