import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def layer_functions():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LAYER_FUNCTIONS")


def test_layer_functions_stay_public():
    """Every function the traced benchmark run reports on is still exported.

    ``perfbench/run.py --trace 1`` wraps the functions listed in each
    module's ``__all__`` (``cli.main`` is wrapped by name) and then indexes
    its results by ``LAYER_FUNCTIONS``, so a name dropped from ``__all__``
    ends that run in a KeyError.  The run also divides by the call counts of
    ``symalg.sigma_eval`` and ``localization.read_fixed_point_file``, so
    every workload must keep calling both.
    """
    names = layer_functions()
    assert "cli.main" in names
    for name in names:
        if name == "cli.main":
            continue
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"kappa_forge.{module_name}")
        assert attr in module.__all__, name
        value = getattr(module, attr)
        # the conditions perfbench/harness.py puts on a traced function
        assert callable(value) and not isinstance(value, type), name
        assert value.__module__ == module.__name__, name
