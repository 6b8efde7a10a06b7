import ast
import importlib
import importlib.util
import sys
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


def load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_harness", RUN_PY.parent / "harness.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_run_sees_sigma_eval_and_the_file_reader(tmp_path, capsys):
    """The counters ``perfbench/run.py --trace 1`` divides by stay non-zero.

    It installs its tracer as done here and divides by the calls of
    ``symalg.sigma_eval`` and ``localization.read_fixed_point_file``.  On
    verdict-sweep only a small ``pullback-su2`` call reaches ``sigma_eval``,
    so a hoist that bypassed the binding the tracer replaces would end that
    run in a ZeroDivisionError.
    """
    from kappa_forge import cli, localization, obstruction, su2rep, symalg
    from kappa_forge.localization import FixedComponent, FixedPointData, write_fixed_point_file
    from kappa_forge.symalg import WeightVector

    harness = load_harness()
    modules = [localization, symalg, obstruction, su2rep]
    targets = {"cli.main": cli.main}
    for module in modules:
        targets.update(harness.public_functions(module))
    comps = tuple(FixedComponent(f"x{j}", 1, WeightVector((j + 1, 2))) for j in range(3))
    paths = []
    for j in range(2):
        paths.append(str(tmp_path / f"small{j}.json"))
        write_fixed_point_file(paths[-1], FixedPointData(2, comps, fiber_euler_char=3))
    tracer = harness.Tracer()
    tracer.install(targets, [cli, importlib.import_module("kappa_forge"), *modules])
    try:
        assert cli.main(["pullback-su2", "--input", *paths, "--i", "1"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out
    totals = tracer.totals()
    assert totals["localization.read_fixed_point_file"][0] == 2
    assert totals["symalg.sigma_eval"][0] == 2 * len(comps)
    assert totals["localization.validate_fixed_data"][0] == 2
