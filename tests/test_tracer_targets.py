"""Guard for the benchmark's tracer: every (module, attribute) that
perfbench/tracer.py wraps must still exist in the package, or
`perfbench/run.py --trace 1` fails.  The tracer module is loaded by path
and only read; nothing is patched."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


# run_path compiles the source in memory and writes no bytecode
TARGETS = runpy.run_path(str(TRACER))["TARGETS"]


@pytest.mark.parametrize("mod_name, attr", sorted({(m, a) for _, m, a in TARGETS}))
def test_tracer_target_resolves(mod_name, attr):
    module = importlib.import_module(f"tetrascreen.{mod_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[meth])
    else:
        assert callable(getattr(module, attr))


def test_face_points_bindings_are_the_traced_function():
    from tetrascreen import screen, tetrahedron, theorems

    # the tracer wraps every module-level binding of face_points
    assert screen.face_points is tetrahedron.face_points
    assert theorems.face_points is tetrahedron.face_points
