"""Every name a ``repro`` package lists in ``__all__`` resolves, and
importing the packages a user starts from stays light.

A stale entry would otherwise only fail at a user's ``from repro.x import *``.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists names it does not define: {missing}"


def test_import_does_not_load_scipy_stats():
    # scipy.stats is about a third of ``import repro``'s memory and time, and
    # only the FDaS baseline's fit and sample use it; they import it then.
    code = (
        "import sys, repro, repro.core, repro.serving, repro.datasets; "
        "print('scipy.stats' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
