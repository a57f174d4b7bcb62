"""The public API is the union of the four modules' __all__ lists, each name
defined, and its size is pinned: a name added to or dropped from a module's
public list fails here until the count is updated on purpose.  The runtime
needs numpy only: importing the package loads no scipy module, and every
CLI command and the public functions no command calls run in an
interpreter where scipy cannot be imported at all, so a lazy import inside
a function fails here too.  Importing the CLI loads no multiprocessing
module, and a sweep, which runs its points one after another in the
calling process, loads none either.  The total line count of the package
sources is capped the same way: a change that adds lines raises the cap on
purpose."""

import os
import subprocess
import sys
from pathlib import Path

import yamabelab as yl
from yamabelab import analysis, core_params, geometry, profile_solver

SRC = str(Path(yl.__file__).resolve().parent.parent)


def _run_fresh(code: str, cwd=None) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True)


def test_public_api_is_union_of_module_exports():
    modules = (core_params, profile_solver, geometry, analysis)
    union = set().union(*(m.__all__ for m in modules))
    assert len(set(yl.__all__)) == len(yl.__all__)
    assert set(yl.__all__) == union
    for name in yl.__all__:
        assert getattr(yl, name) is not None
    assert len(yl.__all__) == 36


def test_source_line_count_does_not_grow():
    sources = Path(yl.__file__).resolve().parent.glob("*.py")
    assert sum(f.read_bytes().count(b"\n") for f in sources) <= 2836


def test_import_does_not_load_scipy():
    _run_fresh(
        "import sys, yamabelab\n"
        "loaded = [k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )


def test_cli_import_does_not_load_multiprocessing():
    _run_fresh(
        "import sys, yamabelab.cli\n"
        "loaded = [k for k in sys.modules if k.split('.')[0] in ('multiprocessing', '_multiprocessing')]\n"
        "assert not loaded, loaded\n"
    )


_NO_SCIPY_SMOKE = """
import sys
from importlib.abc import MetaPathFinder


class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from yamabelab.cli import run

base = ["--n", "3", "--m", "0.2", "--eta", "1", "--r-max", "100", "--output-dir", "out"]
cases = [
    (["solve", "--beta", "1", "--rho", "1"], 0),
    (["geometry", "--beta", "1", "--rho", "1"], 0),
    (["verify", "--beta", "1", "--rho", "-1"], 1),  # Inconclusive at r_max 100
    (["certify-blowup", "--alpha", "-4", "--beta", "-1"], 0),
    (["selfsim", "--kind", "forward", "--beta", "1"], 0),
    # two points, both run in this process
    (["sweep", "--beta", "1", "--rho", "1,-1"], 0),
]
for argv, expected in cases:
    code = run(argv + base)
    assert code == expected, (argv, code)
    assert "numpy.ma" not in sys.modules, argv  # np.unique imports it
pools = [k for k in sys.modules if k.split(".")[0] in ("multiprocessing", "_multiprocessing")
         or k.startswith("concurrent.futures")]
assert not pools, pools

# the public functions no command calls
import numpy as np
import yamabelab as yl

prof = yl.load_profile("out/profile.csv", "out/profile.json")
s0, w_init = yl.log_handoff(prof, 10.0)
yl.w_log_dynamics(prof.params, (s0, 6.0), w_init)
yl.w_equation_defect(prof, s_span=(np.log(0.1), np.log(50.0)))
p = yl.make_params(n=3, m=0.2, beta=1.0, eta=1.0, alpha=yl.geometry._scaling_alpha("Forward", 0.2, 1.0))
spec = yl.SelfSimilarSpec("Forward", p)
yl.pde_residual(spec, yl.solve_profile(p, r_max=10.0), np.linspace(0.5, 3.0, 6), np.array([1.0]), 1e-2, 1e-2)
yl.extrapolate_origin(prof.r, prof.v)
# a loaded module stays loaded, so this holds after every call above
assert "scipy" not in sys.modules and "numpy.ma" not in sys.modules
"""


def test_cli_runs_without_scipy(tmp_path):
    _run_fresh(_NO_SCIPY_SMOKE, cwd=tmp_path)
