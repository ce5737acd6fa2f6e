"""The package re-exports each library module's public names once, and
no module imports a name it never uses."""

import ast
import pathlib

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


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(pathlib.Path(gimbalsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # name -> line of the import that binds it
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update({(a.asname or a.name.partition(".")[0]): node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update({(a.asname or a.name): node.lineno for a in node.names if a.name != "*"})
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in bound.items() if name not in used]
    assert unused == []
