"""Every dltl module imports on the installed toolchain. An import fault
otherwise shows up only as a collection error of the test files that use
the module; here it is a named failing test."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import dltl

MODULES = sorted(m.name for m in pkgutil.iter_modules(dltl.__path__))


def test_modules_found():
    assert "spectra" in MODULES and "cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(f"dltl.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_module_import_leaves_scipy_out(name):
    """No dltl module loads scipy at import. A fresh interpreter is needed:
    the test process has loaded scipy already."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dltl.__file__)))
    script = f"import sys, dltl.{name}; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


NUMPY_ONLY = """
import math, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import numpy as np
from dltl import cli, genbounds, landscape, lindyn, meanfield, netcore, ntk, spectra, wick

def close(a, b, tol=1e-9):
    assert abs(a - b) <= tol, (a, b)

spec = spectra.product_wishart_spectrum(1)
close(spec.mass(), 1.0, 1e-6)
close(spec.mean(), 1.0, 1e-6)
assert spec.lambda_max == 4.0
config = netcore.NetConfig(widths=(4, 4, 4), activation="linear", init="orthogonal")
close(spectra.empirical_spectrum(config, replicates=2).max(), 1.0, 1e-12)

assert cli.parse_range("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]
assert genbounds.norm_profile([np.eye(2), 2.0 * np.eye(2)]).two_one == (2.0, 4.0)
close(landscape.square_loss(np.array([1.0, 2.0]), np.array([0.0, 2.0])), 0.25)
close(lindyn.mode_time(0.03, 0.8, 1.2, 0.4, 1).t_formula, math.log(0.8 * 1.17 / (0.03 * 0.4)) / 0.96)
close(meanfield.length_map(1.0, 2.0, netcore.Activation("relu")), 1.0)
config = netcore.NetConfig(widths=(3, 4, 1), activation="relu")
assert netcore.forward(config, netcore.init_weights(config, seed=0), np.ones(3)).h[-1].shape == (1,)
close(ntk.nngp_recursion(np.ones(3), np.ones(3), config).q11[0], 1.0)
assert wick.exact_correlation(wick.ContractionSpec(m=2, inputs=((1.0,), (1.0,))), 1).leading_exponent == 0
print("ok")
"""


def test_runs_with_scipy_blocked():
    """dltl needs numpy alone: with every scipy import refused, all nine
    modules import, the depth-1 product-Wishart curve has mass and mean 1
    and top edge 4, a sampled orthogonal linear net has J J^T = I, and one
    cheap call in each other module runs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dltl.__file__)))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# dltl modules a subcommand loads besides dltl, dltl.cli, dltl.netcore and
# dltl.meanfield, which every call loads
SUBCOMMAND_MODULES = {
    "phase": (),
    "lengthmap": (),
    "spectrum": ("spectra",),
    "lindyn": ("lindyn",),
    "path": ("landscape",),
    "ntk-kernel": ("ntk",),
    "ntk-train": ("ntk",),
    "du-monitor": ("ntk",),
    "align": ("ntk",),
    "wick": ("wick",),
    "bounds": ("genbounds",),
}

LOADED = """
import sys
from dltl.cli import main
code = main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.partition(".")[0] == "dltl"))
"""


def test_every_subcommand_has_its_modules():
    from dltl.cli import build_parser

    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(SUBCOMMAND_MODULES) == set(subparsers)


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_its_modules(subcommand, tmp_path):
    """A subcommand imports the numerical modules it calls and no others:
    after its first golden flag set (tests/test_golden.py), a fresh
    interpreter holds exactly these dltl modules."""
    from test_golden import CASES, write_inputs

    paths = write_inputs(tmp_path)
    case = min(name for name, argv in CASES.items() if argv.split()[0] == subcommand)
    argv = [tok.format(**paths) for tok in CASES[case].split()] + ["--out", str(tmp_path / "out")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(dltl.__file__)))
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    common = {"dltl", "dltl.cli", "dltl.netcore", "dltl.meanfield"}
    assert set(loaded) == common | {f"dltl.{name}" for name in SUBCOMMAND_MODULES[subcommand]}
