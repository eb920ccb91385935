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
import cmath, math, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import numpy as np
from dltl import cli, genbounds, landscape, lindyn, meanfield, netcore, ntk, spectra, wick

def close(a, b, tol=1e-9):
    assert abs(a - b) <= tol, (a, b)

mp = spectra.marchenko_pastur()
tk = spectra.StieltjesTransforms(mp)
close(mp.mass(), 1.0, 1e-10)
close(mp.mean(), 1.0, 1e-10)
close(tk.G(5.0), (5.0 - math.sqrt(5.0)) / 10.0)
z = 2.0 + 0.01j
close(tk.G(z), (z - cmath.sqrt(z) * cmath.sqrt(z - 4.0)) / (2.0 * z))
close(tk.M_inverse(tk.M(6.0)), 6.0)
close(tk.S(0.5), 1.0 / 1.5)
close(spectra.r_transform(mp)(0.2), 1.0 / 0.8)
xs = 4.0 * np.sin(np.linspace(0.0, math.pi / 2, 200_001)) ** 2
samples = np.interp((np.arange(500) + 0.5) / 500, spectra.mp_cdf(xs), xs)
assert spectra.wasserstein1_to_density(samples, mp) < 1e-8

assert cli.parse_range("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]
close(genbounds.classic_bounds(100, 0.05)["hoeffding_eps"], math.sqrt(math.log(20.0) / 200.0))
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
    modules import, the Marchenko-Pastur transforms (mass and mean, real and
    complex G, M^{-1}, S, R, the Wasserstein distance) match their closed
    forms, and one cheap call in each other module runs."""
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
