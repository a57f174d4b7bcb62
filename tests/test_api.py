"""The public API is exactly the modules' public names; a wrapper added to
one list but not the other, or a removed name left exported, fails here."""

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
