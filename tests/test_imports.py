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
    """scipy is loaded only by the calls that need it (spectra's quadrature),
    never at import. A fresh interpreter is needed: the test process has loaded
    scipy already."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dltl.__file__)))
    script = f"import sys, dltl.{name}; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
