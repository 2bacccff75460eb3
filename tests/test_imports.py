"""What the package exports, and what a fresh interpreter loads.

The pytest process has scipy loaded already (test modules import it), so the
no-scipy check runs in a subprocess with only ``src`` on the path.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import numpy as np

import cdfsvm
from cdfsvm.core import GKernelSpec
from cdfsvm.datagen import GaussianSpec2D, bayes_posterior, gen_gaussian_2d
from cdfsvm.distribution import MeasureSpec, v_vector

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = textwrap.dedent("""
    import json
    import sys

    def scipy_modules():
        return sorted(name for name in sys.modules
                      if name == "scipy" or name.startswith("scipy."))

    import numpy as np
    import cdfsvm
    import cdfsvm.cli
    from cdfsvm import (GaussianSpec2D, GKernelSpec, MeasureSpec, WeightConfig,
                        bayes_posterior, fit_full, gen_gaussian_2d, load_model,
                        predict, save_model, v_vector)

    data = gen_gaussian_2d(GaussianSpec2D(n=40, seed=3))
    params = dict(gamma=4.0, delta=1.0, epsilon=0.25, sigma=1.0)
    model = fit_full(data, "eps-l1vsvm", params, "rbf", WeightConfig())
    scores = predict(model, data.features)
    save_model(model, sys.argv[1])
    reloaded = predict(load_model(sys.argv[1]), data.features)
    after_empirical = scipy_modules()

    X = data.features * 1.4 - 0.2  # in and around the unit box
    weights = v_vector(X, GKernelSpec.gaussian(0.25), MeasureSpec.unit_box(2),
                       "product", normalize=False).values
    posterior = bayes_posterior(X, [1.0, -2.0], [-1.0, 2.0], [0.5, 2.0])
    print(json.dumps(dict(
        after_empirical=after_empirical,
        round_trip=bool(np.array_equal(scores, reloaded)),
        special_loaded="scipy.special" in sys.modules,
        features=data.features.tolist(),
        weights=weights.tolist(),
        posterior=posterior.tolist(),
    )))
""")


def test_scipy_loads_only_on_a_parametric_path(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "model.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    # import, empirical-weight fit, predict and model round trip: no scipy
    assert child["after_empirical"] == []
    assert child["round_trip"]
    # a uniform-box weight and the Bayes posterior import scipy.special on
    # first use and give the same bits as in this process
    assert child["special_loaded"]
    features = np.array(child["features"])
    assert np.array_equal(features, gen_gaussian_2d(GaussianSpec2D(n=40, seed=3)).features)
    X = features * 1.4 - 0.2
    weights = v_vector(X, GKernelSpec.gaussian(0.25), MeasureSpec.unit_box(2),
                       "product", normalize=False).values
    assert np.any((X < 0.0) | (X > 1.0))  # the erfc branch is exercised too
    assert np.array_equal(np.array(child["weights"]), weights)
    posterior = bayes_posterior(X, [1.0, -2.0], [-1.0, 2.0], [0.5, 2.0])
    assert np.array_equal(np.array(child["posterior"]), posterior)


def test_public_surface_is_declared():
    # every name in a module's __all__ exists, and every public name the
    # package re-exports is in its module's __all__, so deleting a function
    # fails here until each export of it is gone too
    for info in pkgutil.iter_modules(cdfsvm.__path__):
        module = importlib.import_module(f"cdfsvm.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
    with open(cdfsvm.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cdfsvm.{node.module}")
        for alias in node.names:
            if not alias.name.startswith("_"):
                assert alias.name in module.__all__, (node.module, alias.name)
