"""The package re-exports each library module's public names once."""

import gimbalsim
from gimbalsim import control, kinematics, plant, sim

MODULES = (kinematics, plant, control, sim)


def test_each_public_name_is_defined_once_and_re_exported():
    for mod in MODULES:
        assert [n for n in mod.__all__ if getattr(gimbalsim, n) is not getattr(mod, n)] == []
    names = [n for mod in MODULES for n in mod.__all__]
    assert sorted({n for n in names if names.count(n) > 1}) == []
    # the benchmark's sweep builds its references as sim.ReferenceSpec
    assert sim.ReferenceSpec is control.ReferenceSpec
