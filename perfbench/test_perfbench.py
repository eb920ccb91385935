"""Tests of the benchmark's own machinery (not of dltl).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest

import checks
import run
import workloads
import worker
from spans import Tracer


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return a == b


def _bindings() -> dict:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("dltl")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    first = workloads.inputs(name, 3)
    assert _same(first, workloads.inputs(name, 3))
    assert _same(first, workloads.inputs(name, 3 + workloads.REFERENCE_SEEDS))
    assert not _same(first, workloads.inputs(name, 4))


def test_raising_operation_counts_as_failed_and_run_goes_on():
    def boom(state):
        raise ValueError("boom")

    def bad_oracle(result):
        raise checks.CheckFailed("wrong")

    ops = [
        workloads.Op("boom", boom, lambda r: {}),
        workloads.Op("fine", lambda s: 1.5, lambda r: {"x": r}),
        workloads.Op("checked", lambda s: 2.0, lambda r: {"x": r}, bad_oracle),
    ]
    runner = worker.Runner(ops, None)
    outputs = runner.run_pass().outputs
    assert (runner.attempted, runner.failed) == (3, 2)
    assert outputs == {"fine": {"x": 1.5}}
    assert runner.errors[0].startswith("boom: raised ValueError")


def test_reference_mismatch_counts_as_failed():
    ops = [workloads.Op("op", lambda s: np.arange(20.0), lambda r: {"x": r})]
    refs = {"op": {"x": checks.summarize(np.arange(20.0) * (1 + 1e-6))}}
    runner = worker.Runner(ops, refs)
    runner.run_pass()
    assert runner.failed == 1


def test_tracing_off_leaves_module_attributes_untouched():
    from dltl import genbounds, landscape, lindyn, meanfield, netcore, ntk, wick  # noqa: F401

    before = _bindings()
    runner = worker.Runner(workloads.build("theory-sweep", 0)[-2:], None)
    runner.run_pass()
    assert _bindings() == before
    with Tracer(workloads.LAYERS):
        assert ntk.length_map is not before["dltl.ntk"]["length_map"]
        assert meanfield.length_map is not before["dltl.meanfield"]["length_map"]
        assert landscape.square_loss is before["dltl.landscape"]["square_loss"]
    after = _bindings()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_span_accounting():
    from dltl import ntk
    from dltl.netcore import NetConfig

    config = NetConfig((3, 8, 8, 1), "tanh", parameterization="ntk", sigma_w2=1.5)
    tracer = Tracer(workloads.LAYERS)
    with tracer:
        ntk.nngp_recursion(np.ones(3), np.arange(3.0), config)
        metrics = tracer.take()
    assert metrics["ntk.nngp_recursion.calls"] == 1
    assert metrics["meanfield.length_map.calls"] == 2 * config.depth
    assert metrics["meanfield.gauss_ev2.calls"] == 2 * config.depth
    total = metrics["ntk.nngp_recursion.total_s"]
    inner = sum(metrics[f"{k}.self_s"] for k in tracer.names)
    assert metrics["ntk.nngp_recursion.self_s"] < total
    assert math.isclose(inner, total, rel_tol=1e-9)
    assert tracer.take()["trace.spans"] == 0


def test_traced_pass_passes_the_same_checks():
    """Wrapping must not change any result, including the square-loss
    identity branch of constant_loss_path."""
    name, seed = "theory-sweep", 5
    ops = [op for op in workloads.build(name, seed) if not op.name.startswith(("phase", "edge", "simulate", "mode", "exact"))]
    runner = worker.Runner(ops, worker.load_refs(name, seed), Tracer(workloads.LAYERS))
    with runner.tracer:
        runner.run_pass()
    assert runner.failed == 0, runner.errors
    assert runner.attempted == len(ops)


def test_summaries_hold_one_float_tolerance():
    value = np.linspace(1.0, 2.0, 100)
    ref = checks.summarize(value)
    checks.compare("v", value * (1 + 0.1 * checks.TOL), ref)
    with pytest.raises(checks.CheckFailed):
        checks.compare("v", value * (1 + 10 * checks.TOL), ref)
    with pytest.raises(checks.CheckFailed):
        checks.compare("labels", "occ", checks.summarize("oce"))
    checks.compare("count", 7, checks.summarize(7))


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       150 |        200 |   scipy.special",
        "import time:       500 |       1000 | dltl.genbounds",
        "import time:        10 |         10 | dltl",
    ])
    got = run.parse_importtime(text)
    assert got == {"import.dltl_s": 1010 / 1e6, "import.scipy_s": 200 / 1e6}
