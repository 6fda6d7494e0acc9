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


def test_import_and_environment_context_load_no_scipy():
    # scipy is about half of ``import repro``'s memory.  Only the FDaS
    # baseline's fit and sample use it (``scipy.stats``, imported then), and
    # PoI counts need no ``scipy.spatial``: neither the packages a user starts
    # from nor a region's environment context may load any of it.
    code = """if True:
        import sys
        import numpy as np
        import repro, repro.core, repro.serving, repro.datasets
        from repro.context import EnvironmentContextExtractor
        from repro.geo import CitySpec
        from repro.world import build_region

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        print("import:", scipy_modules())
        rng = np.random.default_rng(0)
        city = CitySpec("c", 51.5, -0.1, half_extent_m=800.0, street_spacing_m=300.0)
        region = build_region([city], rng, city_site_density_per_km2=6.0)
        nodes = region.roads.random_walk_route(rng, 1500.0, city="c")
        route = region.roads.route_to_trajectory(nodes, 1.4, 1.0, scenario="walk", rng=rng)
        env = EnvironmentContextExtractor(region).features(route)
        assert env.shape == (len(route), 26) and env[:, 12:].sum() > 0
        print("context:", scipy_modules())
    """
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split("\n")[:2] == ["import: []", "context: []"]


@pytest.mark.parametrize("blocked", [True, False], ids=["blocked", "loaded"])
def test_single_city_flows_need_no_networkx_or_scipy(blocked):
    # Single-city regions walk a plain-dict road graph: only chaining a
    # multi-city region's highways imports networkx.  With both packages
    # blocked (an import of either raises ImportError), the packages a user
    # starts from, Dataset A, a walk and its environment context still run;
    # without the block, they leave neither package in ``sys.modules``.
    code = f"""if True:
        import sys
        if {blocked}:
            sys.modules["networkx"] = sys.modules["scipy"] = None
        import numpy as np
        import repro, repro.core, repro.serving, repro.datasets
        from repro.context import EnvironmentContextExtractor
        from repro.datasets import make_dataset_a

        dataset = make_dataset_a(seed=1, samples_per_scenario=60, trajectories_per_scenario=2)
        region, rng = dataset.region, np.random.default_rng(0)
        nodes = region.roads.random_walk_route(rng, 1500.0, city="cityA")
        route = region.roads.route_to_trajectory(nodes, 1.4, 1.0, scenario="walk", rng=rng)
        env = EnvironmentContextExtractor(region).features(route)
        assert env.shape == (len(route), 26) and env[:, 12:].sum() > 0
        print(sorted(m for m in sys.modules if sys.modules[m] is not None
                     and m.split(".")[0] in ("networkx", "scipy")))
    """
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
