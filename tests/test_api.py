"""The public API is exactly the modules' public names; a wrapper added to
one list but not the other, or a removed name left exported, fails here.
Importing the package leaves scipy.integrate unloaded: every ODE runs on the
package's own Dormand-Prince kernel."""

import os
import subprocess
import sys
from pathlib import Path

import yamabelab as yl
from yamabelab import analysis, core_params, geometry, profile_solver


def test_public_api_is_union_of_module_exports():
    modules = (core_params, profile_solver, geometry, analysis)
    union = set().union(*(m.__all__ for m in modules))
    assert len(set(yl.__all__)) == len(yl.__all__)
    assert set(yl.__all__) == union
    for name in yl.__all__:
        assert getattr(yl, name) is not None
    assert len(yl.__all__) == 39


def test_import_does_not_load_scipy_integrate():
    src = str(Path(yl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, yamabelab; assert 'scipy.integrate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
