"""What each CLI call imports, and the lazily filled package namespace."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kappa_forge

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the namespace as it was when __init__ imported every module eagerly
PUBLIC_NAMES = {
    "catalog": [
        "CatalogEntry", "RationalOddity", "WgHypothesisReport", "connected_sum_euler",
        "rationally_odd_check", "s2xs2_family", "wg_hypothesis_report",
    ],
    "errors": ["DomainError", "KappaForgeError", "ParseError"],
    "localization": [
        "C2", "GAMMA", "Diagnostic", "ExpectedComparison", "FixedComponent",
        "FixedPointData", "FixedPointFile", "KappaValue", "compare_expected",
        "fixed_point_payload", "gamma_to_c2", "localize_circle",
        "parse_fixed_point_payload", "pullback_su2", "read_fixed_point_file",
        "validate_fixed_data", "write_fixed_point_file",
    ],
    "obstruction": [
        "BVector", "BettiFeasibility", "Certificate", "HypothesisFlags", "NotApplicable",
        "Reason", "Verdict", "adams_transform", "betti_feasible",
        "nonkinetic_certificate", "theorem_a_check", "weights_to_b",
    ],
    "su2rep": [
        "RealRep", "WeightMultiset", "parse_real_rep", "parse_weight_multiset",
        "realize_weights", "restrict_to_torus",
    ],
    "symalg": [
        "CharClassMonomial", "WeightVector", "elementary_symmetric", "parse_class_monomial",
        "reduce_monomial", "sigma_eval", "sigma_eval_many",
    ],
}

# runs the CLI in a fresh interpreter, then prints the package modules it loaded
PROBE = """
import contextlib, io, json, sys
from kappa_forge.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("kappa_forge."))
print(json.dumps({"code": code, "loaded": loaded}))
"""

DATA = {
    "fiber_half_dim": 2,
    "fiber_euler_char": 4,
    "components": [
        {"name": f"p{j}", "euler_char": 1, "weights": [s1 * 2, s2]}
        for j, (s1, s2) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    ],
    "expected": [{"class": "p1", "coefficient": 20, "generator": "gamma", "power": 2}],
}
FLAGS = "--flags=rationally-odd,neg-euler,nontrivial-action"
# each call loads its handlers' module next to the library modules it runs
VERDICTS = {"_verdict_handlers", "errors", "obstruction"}
SU2 = {"_verdict_handlers", "errors", "su2rep"}
FILES = {"_file_handlers", "errors", "localization", "symalg"}
CATALOG = {
    "s2xs2": {"_file_handlers", "catalog", "errors", "localization", "symalg"},
    "wg": {"_file_handlers", "catalog", "errors", "obstruction"},
}


# the same, but lists every module loaded after the interpreter's own start-up and
# imports json for its report only after taking that list.  Probes run with -S: a
# site hook that preloads a module (typing, say) would put it in the baseline, and
# a check that the call never loads it would pass without looking
STDLIB_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io
from kappa_forge.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps({"code": code, "loaded": loaded}))
"""

# the same list, entered as the installed script enters: through cli.run, with no
# contextlib.redirect_* (the report goes to the real stdout) and no -m (runpy
# imports contextlib before the call starts)
RUN_PROBE = """
import io, sys
before = set(sys.modules)
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
from kappa_forge.cli import run
try:
    run()
except SystemExit as exc:
    code = exc.code
loaded = sorted(set(sys.modules) - before)
import json
sys.__stdout__.write(json.dumps({"code": code, "loaded": loaded}))
"""


def run_probe(script, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return set(result["loaded"])


def probe(argv):
    return run_probe(PROBE, argv) - {"cli"}


# every subcommand's well-formed call, and the package modules it loads
SUBCOMMAND_CALLS = [
    (["sigma", "--class", "p1", "--weights", "1,2"], {"_file_handlers", "errors", "symalg"}),
    (["localize", "--input", "{data}"], FILES),
    (["localize", "--input", "{data}", "--class", "p1"], FILES),
    (["pullback-su2", "--input", "{data}", "--i", "1"], FILES),
    (["theorem-a", "--b", "9,18", FLAGS], VERDICTS),
    (["adams", "--k", "3", "--b", "1,2"], VERDICTS),
    (["adams", "--k", "3", "--b", "1,2", "--certify", FLAGS], VERDICTS),
    (["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "1", "--m-odd", "5"], VERDICTS),
    (["su2-restrict", "--rep", "V3+V1"], SU2),
    (["su2-realize", "--weights", "2,0"], SU2),
    (["catalog", "s2xs2", "--k", "2"], CATALOG["s2xs2"]),
    (["catalog", "wg", "--n", "3", "--g", "2"], CATALOG["wg"]),
]


def call_id(value):
    return " ".join(value[:4]) if isinstance(value, list) else ""


@pytest.mark.parametrize("argv, expected", SUBCOMMAND_CALLS, ids=call_id)
def test_subcommand_loads_only_its_modules(tmp_path, argv, expected):
    data = tmp_path / "data.json"
    data.write_text(json.dumps(DATA))
    assert probe([a.replace("{data}", str(data)) for a in argv]) == expected


@pytest.mark.parametrize("argv", [argv for argv, _ in SUBCOMMAND_CALLS], ids=call_id)
def test_well_formed_call_loads_no_argparse(tmp_path, argv):
    # argparse, with the gettext and locale it loads, is for help and usage errors only
    data = tmp_path / "data.json"
    data.write_text(json.dumps(DATA))
    argv = [a.replace("{data}", str(data)) for a in argv]
    assert run_probe(STDLIB_PROBE, argv) & {"argparse", "gettext", "locale"} == set()


# help, an abbreviation and a usage error: what the option table leaves to argparse
ARGPARSE_CALLS = [
    (["-h"], 0),
    (["theorem-a", "-h"], 0),
    (["theorem-a", "--b", "9,18", "--fl", "rationally-odd"], 0),  # argparse reads --fl as --flags
    (["theorem-a"], 2),
]


@pytest.mark.parametrize(
    "argv, code", ARGPARSE_CALLS, ids=["help", "command-help", "abbreviation", "usage"]
)
def test_help_abbreviation_and_usage_error_load_the_parser_module(argv, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-S", "-c", RUN_PROBE, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    result = json.loads(proc.stdout)
    assert result["code"] == code
    assert "kappa_forge._argparser" in result["loaded"]


@pytest.mark.parametrize(
    "argv, module",
    [
        (["theorem-a", "--b", "9,18"], "kappa_forge._verdict_handlers"),
        (["sigma", "--class", "p1", "--weights", "1,2"], "kappa_forge._file_handlers"),
        (["-h"], "kappa_forge._argparser"),
        (["theorem-a", "-h"], "kappa_forge._argparser"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_python_m_never_imports_the_cli_module_by_name(argv, module):
    # under -m the CLI runs as __main__: importing kappa_forge.cli would compile it a second time
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "kappa_forge.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert module in imported
    assert "kappa_forge.cli" not in imported


@pytest.mark.parametrize(
    "argv, code, start",
    [
        (["theorem-a", "-h"], 0, "usage: kappa-forge theorem-a [-h]"),
        # argparse takes --fl as --flags; the handler then refuses the value
        (["theorem-a", "--b", "9,18", "--fl", "x"], 2, "error: unknown hypothesis flag 'x'"),
    ],
    ids=["help", "abbreviation"],
)
def test_help_and_abbreviations_still_reach_argparse(argv, code, start):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-S", "-m", "kappa_forge.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    assert (proc.stdout + proc.stderr).startswith(start)


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem-a", "--b", "9,18", FLAGS],
        ["adams", "--k", "3", "--b", "1,2", "--certify", FLAGS],
        ["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "1", "--m-odd", "5"],
        ["su2-restrict", "--rep", "V3+V1"],
        ["su2-realize", "--weights", "2,0"],
    ],
    ids=lambda v: v[0],
)
def test_verdict_and_su2_calls_load_no_dataclasses(argv):
    # dataclasses pulls in inspect, ast, dis and tokenize: most of a short call's start-up
    assert run_probe(STDLIB_PROBE, argv) & {"dataclasses", "inspect", "typing"} == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma", "--class", "p1", "--weights", "1,2"],
        ["localize", "--input", "{data}"],
        ["pullback-su2", "--input", "{data}", "--i", "1"],
        ["catalog", "s2xs2", "--k", "2"],
        ["catalog", "wg", "--n", "3", "--g", "2"],
    ],
    ids=lambda v: " ".join(v[:2]),
)
def test_file_and_catalog_calls_load_no_dataclasses(tmp_path, argv):
    data = tmp_path / "data.json"
    data.write_text(json.dumps(DATA))
    argv = [a.replace("{data}", str(data)) for a in argv]
    assert run_probe(STDLIB_PROBE, argv) & {"dataclasses", "inspect", "typing"} == set()


def test_betti_loads_no_json_and_no_fractions():
    argv = ["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "1", "--m-odd", "5"]
    assert run_probe(STDLIB_PROBE, argv) & {"json", "fractions", "decimal"} == set()


# an integral b-vector, what an action yields, is read as ints: no fractions (with the
# decimal and numbers it loads), and no re unless json brings it
INTEGRAL_B_CALLS = [
    ["theorem-a", "--b", "9,18", FLAGS],
    ["adams", "--k", "3", "--b", "1,2"],
    ["adams", "--k", "3", "--b", "1,2", "--certify", FLAGS],
]


@pytest.mark.parametrize("argv", INTEGRAL_B_CALLS, ids=lambda v: " ".join(v[:6]))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_integral_b_loads_no_fractions(argv, fmt):
    loaded = run_probe(RUN_PROBE, [*argv, "--format", fmt])
    assert loaded & {"fractions", "decimal", "_decimal", "numbers"} == set()
    if fmt == "text":
        assert "re" not in loaded


@pytest.mark.parametrize(
    "argv",
    [["theorem-a", "--b", "1/2,3", FLAGS], ["adams", "--k", "3", "--b", "1,2/3"]],
    ids=lambda v: v[0],
)
def test_fractional_b_still_loads_fractions(argv):
    assert "fractions" in run_probe(RUN_PROBE, [*argv, "--format", "text"])


# a file of integral data, with an integral expected coefficient and chi = 4 dividing
# the p1 coefficient 20, is localized with ints only
INTEGRAL_FILE_CALLS = [
    ["localize", "--input", "{data}"],
    ["localize", "--input", "{data}", "--class", "p1"],
    ["pullback-su2", "--input", "{data}", "--i", "1"],
]


@pytest.mark.parametrize("argv", INTEGRAL_FILE_CALLS, ids=lambda v: " ".join(v[:1] + v[3:]))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_integral_file_loads_no_fractions(tmp_path, argv, fmt):
    data = tmp_path / "data.json"
    data.write_text(json.dumps(DATA))
    argv = [a.replace("{data}", str(data)) for a in argv]
    loaded = run_probe(RUN_PROBE, [*argv, "--format", fmt])
    assert loaded & {"fractions", "decimal", "_decimal", "numbers"} == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["s2xs2", "--k", "2"],
        ["s2xs2", "--k", "4", "--out", "{out}"],
        ["wg", "--n", "3", "--g", "2"],
    ],
    ids=lambda v: " ".join(v[:1] + v[3:4]),
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_catalog_loads_no_fractions(tmp_path, argv, fmt):
    # every catalog value is an integer: 4(k^2 + 1), chi, the Betti numbers
    argv = [a.replace("{out}", str(tmp_path / "out.json")) for a in argv]
    loaded = run_probe(RUN_PROBE, ["catalog", *argv, "--format", fmt])
    assert loaded & {"fractions", "decimal", "_decimal", "numbers"} == set()


FRACTIONAL_FILES = {
    # "40/2" is 20, so the check passes, but the text is no integer literal
    "expected-40/2": (
        dict(DATA, expected=[{**DATA["expected"][0], "coefficient": "40/2"}]),
        ["localize", "--input", "{data}"],
    ),
    # p1 is 5 on each (2, 1) row and 8 on (2, 2): 23, which chi = 4 does not divide
    "b1=23/4": (
        dict(DATA, components=[
            *DATA["components"][:3], {"name": "q", "euler_char": 1, "weights": [2, 2]},
        ]),
        ["pullback-su2", "--input", "{data}", "--i", "1"],
    ),
}


@pytest.mark.parametrize("payload, argv", FRACTIONAL_FILES.values(), ids=FRACTIONAL_FILES.keys())
def test_fractional_file_value_still_loads_fractions(tmp_path, payload, argv):
    data = tmp_path / "data.json"
    data.write_text(json.dumps(payload))
    argv = [a.replace("{data}", str(data)) for a in argv]
    assert "fractions" in run_probe(RUN_PROBE, [*argv, "--format", "text"])


PRIME19 = 1_000_000_000_000_000_003  # a 19-digit prime
PRIME12 = 1_000_000_000_039  # the least prime above 10^12


@pytest.mark.parametrize(
    "argv, searched",
    [
        (["theorem-a", "--b", f"{PRIME19},{-3 * PRIME19}", FLAGS], True),
        (["theorem-a", "--b", f"{2 * PRIME19}", FLAGS], True),
        (["adams", "--k", str(PRIME12), "--b", "1,2", "--certify", FLAGS], True),
        # trial division up to 2^12 settles these: the prime search stays unloaded
        (["theorem-a", "--b", "9,18", FLAGS], False),
        (["theorem-a", "--b", f"{4093 * PRIME19}", FLAGS], False),
        (["adams", "--k", "4095", "--b", "1,2", "--certify", FLAGS], False),
    ],
    ids=["prime19", "2*prime19", "k1e12", "9,18", "4093*prime19", "k4095"],
)
def test_prime_search_loads_only_past_trial_division(argv, searched):
    assert ("primes" in probe(argv)) is searched


@pytest.mark.parametrize("argv", [argv for argv, _ in SUBCOMMAND_CALLS], ids=call_id)
def test_no_call_loads_contextlib(tmp_path, argv):
    data = tmp_path / "data.json"
    data.write_text(json.dumps(DATA))
    argv = [a.replace("{data}", str(data)) for a in argv]
    assert "contextlib" not in run_probe(RUN_PROBE, argv)


def test_betti_loads_no_functools_and_no_collections():
    argv = ["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "1", "--m-odd", "5"]
    assert run_probe(RUN_PROBE, argv) & {"functools", "collections"} == set()


def test_importing_the_package_loads_no_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, kappa_forge; "
        "print(sorted(m for m in sys.modules if m.startswith('kappa_forge.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_namespace_keeps_every_name_as_the_same_object():
    expected = [name for names in PUBLIC_NAMES.values() for name in names]
    assert sorted(kappa_forge.__all__) == sorted(expected)
    assert len(kappa_forge.__all__) == len(set(kappa_forge.__all__)) == 52
    for module_name, names in PUBLIC_NAMES.items():
        module = getattr(kappa_forge, module_name)
        assert module is sys.modules[f"kappa_forge.{module_name}"]
        for name in names:
            assert getattr(kappa_forge, name) is getattr(module, name), name
            assert name in vars(kappa_forge), name  # cached after the first lookup
    assert kappa_forge.__version__ == "0.1.0"


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from kappa_forge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(kappa_forge.__all__)
    assert set(kappa_forge.__all__) | set(PUBLIC_NAMES) <= set(dir(kappa_forge))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        kappa_forge.cli_main
    assert not hasattr(kappa_forge, "kappa_class_label")  # localization-only name
