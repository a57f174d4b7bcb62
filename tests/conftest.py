"""Shared reference runs, solved once per session.

The four soliton regimes used throughout the suite:

    shrink3: n=3, beta=1, rho=1   (boundary beta = rho/(n-2), outside theorems)
    shrink5: n=5, beta=1, rho=1   (covered shrinking)
    steady:  n=3, beta=1, rho=0   (covered steady)
    expand:  n=3, beta=1, rho=-1  (covered expanding, alpha = 1.25)
"""

import numpy as np
import pytest

import yamabelab as yl

R_MAX = 1e4
RTOL = 1e-9


def _params(n, beta, rho):
    return yl.make_params(n=n, m=yl.soliton_exponent(n), beta=beta, rho=rho, eta=1.0)


@pytest.fixture(scope="session")
def shrink3_params():
    return _params(3, 1.0, 1.0)


@pytest.fixture(scope="session")
def shrink5_params():
    return _params(5, 1.0, 1.0)


@pytest.fixture(scope="session")
def steady_params():
    return _params(3, 1.0, 0.0)


@pytest.fixture(scope="session")
def expand_params():
    return _params(3, 1.0, -1.0)


@pytest.fixture(scope="session")
def shrink3_profile(shrink3_params):
    return yl.solve_profile(shrink3_params, r_max=R_MAX, rtol=RTOL)


@pytest.fixture(scope="session")
def shrink5_profile(shrink5_params):
    return yl.solve_profile(shrink5_params, r_max=R_MAX, rtol=RTOL)


@pytest.fixture(scope="session")
def steady_profile(steady_params):
    return yl.solve_profile(steady_params, r_max=R_MAX, rtol=RTOL)


@pytest.fixture(scope="session")
def expand_profile(expand_params):
    return yl.solve_profile(expand_params, r_max=R_MAX, rtol=RTOL)


@pytest.fixture(scope="session")
def shrink3_geometry(shrink3_profile):
    return yl.compute_geometry(shrink3_profile)


@pytest.fixture(scope="session")
def shrink5_geometry(shrink5_profile):
    return yl.compute_geometry(shrink5_profile)


@pytest.fixture(scope="session")
def steady_geometry(steady_profile):
    return yl.compute_geometry(steady_profile)


@pytest.fixture(scope="session")
def expand_geometry(expand_profile):
    return yl.compute_geometry(expand_profile)


def origin_profile(profile):
    """The profile read from its origin series through value_at, at 11
    radii over the decade from 1e-6 l, far below r0: the small-radius
    profile whose curves extrapolate_origin fits."""
    p = profile.params
    r = 1e-6 * p.eta ** ((p.m - 1.0) / 2.0) * np.geomspace(1.0, 10.0, 11)
    v, dv = profile.value_at(r, derivative=True)
    status = yl.ProfileStatus("Global", float(r[-1]))
    return yl.RadialProfile(p, r, v, dv, status, profile.rtol, profile.atol, np.arange(len(r)))


@pytest.fixture(scope="session")
def shrink3_origin(shrink3_profile):
    """origin_profile of shrink3 and its geometry."""
    origin = origin_profile(shrink3_profile)
    return origin, yl.compute_geometry(origin)


@pytest.fixture(scope="session")
def negcurv_profile():
    # alpha < 0 < beta: scalar curvature stays negative
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=-3.0, alpha=-1.25, eta=1.0)
    return yl.solve_profile(p, r_max=30.0, rtol=RTOL)


def perturb_profile(profile, index: int, factor: float):
    """Copy of a profile with one v sample multiplied by factor."""
    v = profile.v.copy()
    v[index] *= factor
    return yl.RadialProfile(
        profile.params,
        profile.r.copy(),
        v,
        profile.dv.copy(),
        profile.status,
        profile.rtol,
        profile.atol,
        profile.step_indices.copy(),
    )
