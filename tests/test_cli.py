import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from math import comb, prod
from pathlib import Path

import pytest

from kappa_forge.cli import main
from kappa_forge.errors import ParseError, bounded_fraction


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def test_sigma_text(capsys):
    code, out, _ = run(capsys, ["sigma", "--class", "p1", "--weights", "2,1"])
    assert code == 0
    assert out.strip() == "5"


def test_sigma_json(capsys):
    code, out, _ = run(
        capsys, ["sigma", "--class", "e*p1", "--weights", "1,2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == 10  # (1*2) * (1+4)
    assert payload["class"] == "e*p1"


def test_sigma_bad_class_is_parse_error(capsys):
    code, _, err = run(capsys, ["sigma", "--class", "p3", "--weights", "2,1"])
    assert code == 2
    assert "p3" in err


def test_sigma_bad_weights_is_parse_error(capsys):
    code, _, err = run(capsys, ["sigma", "--class", "p1", "--weights", "2,x"])
    assert code == 2
    assert "x" in err


@pytest.mark.parametrize(
    "factor",
    ["p1^" + "9" * 5000, "p" + "9" * 5000, "e^" + "9" * 5000],
    ids=["p-exponent", "p-index", "e-exponent"],
)
def test_sigma_over_long_class_number_is_parse_error(capsys, factor):
    code, out, err = run(capsys, ["sigma", "--class", factor, "--weights", "1,2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: class factor") and "4300-digit limit" in err


# ---------------------------------------------------------------------------
# theorem-a
# ---------------------------------------------------------------------------

def test_theorem_a_ruled_out_is_success(capsys):
    code, out, err = run(capsys, ["theorem-a", "--b", "9,18"])
    assert code == 0
    assert "ruled_out" in out
    assert "odd prime 3" in out
    assert "warning" in err  # defaulted flags


def test_theorem_a_explicit_flags_no_warning(capsys):
    code, out, err = run(
        capsys,
        ["theorem-a", "--b", "1,5", "--flags", "rationally-odd,neg-euler,nontrivial-action"],
    )
    assert code == 0
    assert "consistent" in out
    assert "warning" not in err


def test_theorem_a_partial_flags_notes_inapplicability(capsys):
    code, out, _ = run(capsys, ["theorem-a", "--b", "3,6", "--flags", "rationally-odd"])
    assert code == 0
    assert "arithmetic only" in out


def test_theorem_a_json(capsys):
    code, out, _ = run(capsys, ["theorem-a", "--b", "1/2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ruled_out"
    assert payload["reasons"] == [{"index": 1, "kind": "non_integer"}]


def test_theorem_a_bad_flag_token(capsys):
    code, _, err = run(capsys, ["theorem-a", "--b", "1", "--flags", "odd-euler"])
    assert code == 2
    assert "odd-euler" in err


# ---------------------------------------------------------------------------
# adams
# ---------------------------------------------------------------------------

def test_adams_transform_text(capsys):
    code, out, _ = run(capsys, ["adams", "--k", "3", "--b", "1,2"])
    assert code == 0
    assert out.strip() == "9,162"


def test_adams_even_k_is_domain_error(capsys):
    code, _, err = run(capsys, ["adams", "--k", "2", "--b", "1,2"])
    assert code == 1
    assert "odd" in err


def test_adams_certify(capsys):
    code, out, _ = run(
        capsys,
        [
            "adams",
            "--k",
            "5",
            "--b",
            "5,4",
            "--certify",
            "--flags",
            "rationally-odd,neg-euler,nontrivial-action",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "non-kinetic"
    assert payload["witness_prime"] == 5
    assert payload["gcd"] == 125
    assert payload["b_transformed"] == ["125", "2500"]


# ---------------------------------------------------------------------------
# the gcd's witness prime in bounded time (run as a child process, killed on
# timeout; plain trial division needs minutes to hours for the first two)
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")
WITNESS_TIMEOUT_S = 30
P19 = 9000000000123456803  # a 19-digit prime
K12 = 1000000987681  # a prime near 10^12
Q25, R25 = 1000000000000000000000049, 4000000000000000000012373  # 25-digit primes


def run_bounded(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "kappa_forge.cli", *argv, "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=WITNESS_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_theorem_a_prime_gcd_of_19_digits():
    payload = run_bounded(["theorem-a", f"--b={P19},{-3 * P19}"])
    assert payload["reasons"] == [{"kind": "gcd_has_odd_prime", "prime": P19}]


def test_adams_certify_prime_k_near_1e12():
    payload = run_bounded(
        ["adams", "--certify", f"--k={K12}", "--b=1,2",
         "--flags=rationally-odd,neg-euler,nontrivial-action"]
    )
    assert payload["gcd"] == K12**2
    assert payload["witness_prime"] == K12


def test_theorem_a_small_prime_times_two_large_primes():
    # rho finds 1000003 at once but cannot split Q25*R25; trial division up
    # to 1000003 settles that no smaller prime divides it
    g = 1000003 * Q25 * R25
    payload = run_bounded(["theorem-a", f"--b={g},{2 * g}"])
    assert payload["reasons"] == [{"kind": "gcd_has_odd_prime", "prime": 1000003}]


def sigma(cls, weights, timeout=WITNESS_TIMEOUT_S):
    """``sigma --class cls --weights weights`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "kappa_forge.cli", "sigma", "--class", cls, "--weights", weights],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_sigma_runaway_exponent_is_refused_at_once():
    # 5^3000000 has about 7 million bits: printing it in decimal takes many minutes
    for cls in ("p1^3000000", "p1^100000000000"):
        proc = sigma(cls, "2,1")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"error: the value of {cls} would exceed the limit of 1048576 bits\n"
        )
    proc = sigma("p1^100000000000", "1,0")
    assert (proc.returncode, proc.stdout) == (0, "1\n")


def test_sigma_runaway_product_of_exponent_one_factors_is_refused_at_once():
    # about 3.6 million bits in sixteen factors of one power each: computing and
    # printing the product takes tens of seconds, counting its bits takes none
    rng = random.Random(16)
    weights = ",".join(str(rng.randrange(10**3999, 10**4000)) for _ in range(16))
    cls = "*".join(f"p{i}" for i in range(1, 17))
    proc = sigma(cls, weights, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: the value of {cls} would exceed the limit of 1048576 bits\n"


@pytest.mark.parametrize("cls", ["p1^2097152*p2", "e^2097152*p1"])
def test_sigma_factor_zero_is_never_refused(cls):
    # e2 and the Euler product of (5, 0) are 0: so is the value, however large p1^k or e^k
    proc = sigma(cls, "5,0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_adams_certify_not_applicable(capsys):
    code, out, _ = run(
        capsys,
        ["adams", "--k", "3", "--b", "0,0", "--certify", "--flags", "rationally-odd,neg-euler,nontrivial-action"],
    )
    assert code == 0
    assert "not applicable" in out


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def test_su2_restrict(capsys):
    code, out, _ = run(capsys, ["su2-restrict", "--rep", "V3+V1"])
    assert code == 0
    assert out.strip() == "2,0"


def test_su2_restrict_odd_total_is_domain_error(capsys):
    code, _, err = run(capsys, ["su2-restrict", "--rep", "V1"])
    assert code == 1
    assert "odd" in err


def test_su2_realize(capsys):
    code, out, _ = run(capsys, ["su2-realize", "--weights", "1,1"])
    assert code == 0
    assert out.strip() == "V4"


def test_su2_realize_infeasible_is_success(capsys):
    code, out, _ = run(capsys, ["su2-realize", "--weights", "4"])
    assert code == 0
    assert out.strip() == "infeasible"


def test_su2_realize_json(capsys):
    code, out, _ = run(capsys, ["su2-realize", "--weights", "2,0", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"feasible": True, "rep": "V3+V1", "weights": [2, 0]}


# ---------------------------------------------------------------------------
# betti
# ---------------------------------------------------------------------------

def test_betti_feasible(capsys):
    code, out, _ = run(
        capsys,
        ["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "1", "--m-odd", "5"],
    )
    assert code == 0
    assert "k = 1" in out


def test_betti_infeasible_is_success(capsys):
    code, out, _ = run(
        capsys,
        ["betti", "--w-even", "2", "--w-odd", "6", "--m-even", "2", "--m-odd", "0"],
    )
    assert code == 0
    assert "infeasible" in out


# ---------------------------------------------------------------------------
# catalog + file pipeline
# ---------------------------------------------------------------------------

def test_catalog_pullback_round_trip(capsys, tmp_path):
    path = tmp_path / "data.json"
    code, _, _ = run(capsys, ["catalog", "s2xs2", "--k", "4", "--out", str(path)])
    assert code == 0

    code, out, _ = run(capsys, ["pullback-su2", "--input", str(path), "--i", "1"])
    assert code == 0
    assert "68" in out
    assert "b_1 = 17" in out


def test_catalog_out_at_digit_limit_reads_back(capsys, tmp_path):
    # 4(k^2+1) has exactly 4,300 digits for k = 2*10^2149
    k = 2 * 10**2149
    path = tmp_path / "data.json"
    code, _, err = run(capsys, ["catalog", "s2xs2", "--k", str(k), "--out", str(path)])
    assert code == 0, err
    code, out, err = run(capsys, ["localize", "--input", str(path)])
    assert code == 0, err
    assert out.count("ok") == 2
    assert "MISMATCH" not in out


def test_catalog_out_refuses_file_past_digit_limit(capsys, tmp_path):
    k = 2 * 10**2150  # 4(k^2+1) has 4,302 digits
    path = tmp_path / "data.json"
    code, out, err = run_big(
        capsys, ["catalog", "s2xs2", "--k", str(k), "--out", str(path)]
    )
    assert code == 1
    assert out == ""
    assert "not written" in err and "4300-digit limit" in err
    assert not path.exists()
    code, out, err = run_big(capsys, ["catalog", "s2xs2", "--k", str(k)])
    assert code == 0, err
    with digits_unlimited():
        coefficient = json.loads(out)["expected"][0]["coefficient"]
        assert coefficient == str(4 * (k * k + 1))


def test_catalog_localize_verifies_expected(capsys, tmp_path):
    path = tmp_path / "data.json"
    run(capsys, ["catalog", "s2xs2", "--k", "6", "--out", str(path)])
    code, out, _ = run(capsys, ["localize", "--input", str(path)])
    assert code == 0
    assert out.count("ok") == 2
    assert "MISMATCH" not in out


def test_localize_detects_tampered_expected(capsys, tmp_path):
    path = tmp_path / "data.json"
    run(capsys, ["catalog", "s2xs2", "--k", "2", "--out", str(path)])
    payload = json.loads(path.read_text())
    payload["expected"][0]["coefficient"] = "21"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, ["localize", "--input", str(path)])
    assert code == 1
    assert "MISMATCH" in out


def test_localize_with_class(capsys, tmp_path):
    path = tmp_path / "data.json"
    run(capsys, ["catalog", "s2xs2", "--k", "2", "--out", str(path)])
    code, out, _ = run(capsys, ["localize", "--input", str(path), "--class", "p1"])
    assert code == 0
    assert "kappa[e*p1] = 20 * gamma^2" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["localize", "--input", "{data}"],
        ["localize", "--input", "{data}", "--class", "p1"],
        ["pullback-su2", "--input", "{data}", "{data}", "--i", "1"],
    ],
    ids=lambda v: " ".join(v[:1] + v[3:4]),
)
def test_json_output_never_formats_the_text_lines(capsys, tmp_path, monkeypatch, argv):
    from kappa_forge import _file_handlers

    path = str(tmp_path / "data.json")
    run(capsys, ["catalog", "s2xs2", "--k", "2", "--out", path])

    def refuse(*_):
        raise AssertionError("a text line was formatted for --format json")

    monkeypatch.setattr(_file_handlers, "_kappa_text", refuse)
    code, out, err = run(capsys, [a.replace("{data}", path) for a in argv] + ["--format", "json"])
    assert code == 0, err
    assert json.loads(out)
    with pytest.raises(AssertionError, match="text line"):
        main([a.replace("{data}", path) for a in argv] + ["--format", "text"])


def test_localize_without_class_or_expected_is_parse_error(capsys, tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(
        json.dumps(
            {
                "fiber_half_dim": 2,
                "components": [{"name": "m", "euler_char": 1, "weights": [1, 1]}],
            }
        )
    )
    code, _, err = run(capsys, ["localize", "--input", str(path)])
    assert code == 2
    assert "expected" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_localize_empty_expected_is_parse_error(capsys, tmp_path, fmt):
    # an empty array checks nothing, so it is refused like a missing one
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps(
            {
                "fiber_half_dim": 2,
                "components": [{"name": "m", "euler_char": 1, "weights": [1, 1]}],
                "expected": [],
            }
        )
    )
    code, out, err = run(capsys, ["localize", "--input", str(path), "--format", fmt])
    assert (code, out) == (2, "")
    assert err == (
        f"error: '{path}': no --class given and the file carries no expected annotations\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_later_unusable_file_writes_nothing(capsys, tmp_path, fmt):
    good = tmp_path / "good.json"
    run(capsys, ["catalog", "s2xs2", "--k", "2", "--out", str(good)])
    bad = tmp_path / "bad_chi.json"
    bad.write_text(
        json.dumps(
            {
                "fiber_half_dim": 1,
                "fiber_euler_char": 5,
                "components": [{"name": "m", "euler_char": 1, "weights": [1]}],
            }
        )
    )
    code, out, err = run(capsys, ["localize", "--input", str(good), str(bad), "--format", fmt])
    assert (code, out) == (2, "")
    assert err == (
        f"error: '{bad}': Euler characteristic mismatch: components sum to 1, "
        "fiber_euler_char is 5\n"
    )


def test_localize_unknown_key_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"fiber_half_dim": 2, "components": [], "spin": 1}))
    code, _, err = run(capsys, ["localize", "--input", str(path), "--class", "p1"])
    assert code == 2
    assert "spin" in err


def test_localize_zero_weight_note_goes_to_stderr(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps(
            {
                "fiber_half_dim": 2,
                "components": [{"name": "m", "euler_char": 2, "weights": [0, 3]}],
            }
        )
    )
    code, out, err = run(capsys, ["localize", "--input", str(path), "--class", "p1"])
    assert code == 0
    assert "zero weight" in err
    assert "18 * gamma^2" in out  # 2 * sigma_1(0, 9)


@pytest.mark.parametrize(
    "content",
    [
        b'{"fiber_half_dim": 1, "components": [{"name": "m", "euler_char": 1, '
        b'"weights": [' + b"9" * 5000 + b"]}]}",
        b'{"fiber_half_dim": 1, "components": [], "provenance": "\xff"}',
        b"[" * 100_000,
    ],
    ids=["over-long-integer", "not-utf8", "deep-nesting"],
)
def test_malformed_file_is_parse_error(capsys, tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, ["localize", "--input", str(path), "--class", "p1"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: '{path}' is not valid JSON: ")


@contextmanager
def digits_unlimited():
    """Lift the int/str digit limit for a test's own reference arithmetic."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def run_big(capsys, argv):
    """``run`` under the default digit limit, which must be in force again afterwards."""
    before = sys.get_int_max_str_digits()
    result = run(capsys, argv)
    assert sys.get_int_max_str_digits() == before
    return result


def test_localize_all_p_prints_past_digit_limit(capsys, tmp_path):
    # equal weights a give sigma_i of the squares = C(64, i) * a^(2i)
    n = 64
    comps = [(3, 1000), (-2, 7)]
    path = tmp_path / "n64.json"
    path.write_text(json.dumps({
        "fiber_half_dim": n,
        "components": [
            {"name": f"m{j}", "euler_char": chi, "weights": [a] * n}
            for j, (chi, a) in enumerate(comps)
        ],
    }))
    all_p = "*".join(f"p{i}" for i in range(1, n + 1))
    code, out, err = run_big(capsys, ["localize", "--input", str(path), "--class", all_p])
    assert code == 0, err
    binomials = prod(comb(n, i) for i in range(1, n + 1))
    expected = sum(chi * binomials * a ** (n * (n + 1)) for chi, a in comps)
    with digits_unlimited():
        assert len(str(expected)) > 4300
        assert out.strip().endswith(f"= {expected} * gamma^{n * (n + 1)}")


def test_adams_prints_past_digit_limit(capsys):
    k = 10**50 + 1
    b = ",".join(["1"] * 50)
    code, out, err = run_big(capsys, ["adams", "--k", str(k), "--b", b])
    assert code == 0, err
    with digits_unlimited():
        assert out.strip() == ",".join(str(k ** (2 * i)) for i in range(1, 51))


def test_adams_certificate_prints_past_digit_limit(capsys):
    k = 10**50 + 1
    b = ",".join(["1"] * 50)
    code, out, err = run_big(
        capsys, ["adams", "--k", str(k), "--b", b, "--certify", "--format", "json"]
    )
    assert code == 0, err
    with digits_unlimited():
        payload = json.loads(out)
        assert payload["b_transformed"] == [str(k ** (2 * i)) for i in range(1, 51)]
        assert payload["witness_prime"] == 101  # 10^2 + 1 divides 10^50 + 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sigma_prints_past_digit_limit(capsys, fmt):
    code, out, err = run_big(
        capsys, ["sigma", "--class", "p1^800", "--weights", "1000,1000", "--format", fmt]
    )
    assert code == 0, err
    with digits_unlimited():
        value = json.loads(out)["sigma"] if fmt == "json" else int(out)
        assert value == 2000000**800


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_catalog_wg_prints_past_digit_limit(capsys, fmt):
    g_text = "9" * 4300  # parses; 2g and 2 - 2g have 4,301 digits
    g = int(g_text)
    code, out, err = run_big(
        capsys, ["catalog", "wg", "--n", "3", "--g", g_text, "--format", fmt]
    )
    assert code == 0, err
    with digits_unlimited():
        if fmt == "json":
            payload = json.loads(out)
            assert payload["euler_char"] == 2 - 2 * g
            assert payload["betti"] == [1, 0, 0, 2 * g, 0, 0, 1]
        else:
            assert f"euler characteristic: {2 - 2 * g}\n" in out
            assert f"(betti 1,0,0,{2 * g},0,0,1)\n" in out


def test_over_long_weight_argument_is_parse_error(capsys):
    code, out, err = run_big(capsys, ["sigma", "--class", "p1", "--weights", "9" * 5000])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad weight")
    assert err == f"error: bad weight '{'9' * 20}...' is over the 4300-digit limit\n"


# Each parser holds the digit limit itself and main lifts it for the rest of the
# call, so a number derived from input may pass 4,300 digits anywhere: in an
# answer, in a class's text or in an error message.
K = "9" * 4299
TWENTY_FACTORS = "*".join([f"p1^{K}"] * 20)  # p1^(20K), an exponent of 4,301 digits


def f6_file(tmp_path, **extra):
    """n = 6 data: one component of weights 1 and chi 1, with ``extra`` keys."""
    path = tmp_path / "f6.json"
    payload = {"fiber_half_dim": 6, "components": [{"name": "a", "euler_char": 1, "weights": [1] * 6}]}
    path.write_text(json.dumps({**payload, **extra}))
    return path


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sigma_prints_a_class_exponent_past_digit_limit(capsys, fmt):
    argv = ["sigma", "--class", TWENTY_FACTORS, "--weights", "1", "--format", fmt]
    code, out, err = run_big(capsys, argv)
    assert (code, err) == (0, "")
    with digits_unlimited():
        if fmt == "json":
            payload = json.loads(out)
            assert (payload["class"], payload["sigma"]) == (f"p1^{20 * int(K)}", 1)
        else:
            assert out == "1\n"


def test_localize_prints_a_power_past_digit_limit(capsys, tmp_path):
    argv = ["localize", "--input", str(f6_file(tmp_path)), "--class", f"p6^{K}", "--format", "json"]
    code, out, err = run_big(capsys, argv)
    assert (code, err) == (0, "")
    with digits_unlimited():
        assert json.loads(out)["power"] == 12 * int(K)


def test_value_limit_names_a_class_past_digit_limit(capsys):
    code, out, err = run_big(capsys, ["sigma", "--class", TWENTY_FACTORS, "--weights", "2"])
    assert (code, out) == (1, "")
    with digits_unlimited():
        assert err == (
            f"error: the value of p1^{20 * int(K)} would exceed the limit of 1048576 bits\n"
        )


def test_euler_mismatch_names_a_sum_past_digit_limit(capsys, tmp_path):
    chi = "9" * 4300
    path = tmp_path / "big_chi.json"
    path.write_text(
        '{"fiber_half_dim": 1, "fiber_euler_char": 0, "components": ['
        f'{{"name": "a", "euler_char": {chi}, "weights": [1]}}, '
        f'{{"name": "b", "euler_char": {chi}, "weights": [2]}}]}}'
    )
    code, out, err = run_big(capsys, ["localize", "--input", str(path), "--class", "p1"])
    assert (code, out) == (2, "")
    with digits_unlimited():
        assert err == (
            f"error: '{path}': Euler characteristic mismatch: components sum to "
            f"{2 * int(chi)}, fiber_euler_char is 0\n"
        )


def test_annotation_power_mismatch_names_a_degree_past_digit_limit(capsys, tmp_path):
    annotation = {"class": f"p6^{K}", "coefficient": 1, "generator": "gamma", "power": 1}
    path = f6_file(tmp_path, expected=[annotation])
    code, out, err = run_big(capsys, ["localize", "--input", str(path)])
    assert (code, out) == (2, "")
    with digits_unlimited():
        assert err == (
            f"error: '{path}': expected[0]: generator power 1 does not match "
            f"degree {24 * int(K)} of p6^{K} on gamma\n"
        )


def test_input_bound_holds_when_the_caller_lifted_the_limit(capsys):
    with digits_unlimited():
        code, out, err = run(capsys, ["sigma", "--class", "p1", "--weights", "9" * 4301])
        with pytest.raises(SystemExit) as usage_error:
            main(["betti", "--w-even", "9" * 4301, "--w-odd", "1", "--m-even", "1", "--m-odd", "1"])
        assert sys.get_int_max_str_digits() == 0
    assert (code, out) == (2, "")
    assert err == f"error: bad weight '{'9' * 20}...' is over the 4300-digit limit\n"
    assert usage_error.value.code == 2
    assert "argument --w-even: invalid int value" in capsys.readouterr().err


X20 = "x" * 20


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sigma", "--class", "p1", "--weights", "1," + "x" * 5000], f"bad weight '{X20}...'"),
        (["theorem-a", "--b", "1," + "x" * 5000], f"bad rational '{X20}...'"),
        (["su2-restrict", "--rep", "V1+" + "x" * 5000], f"bad representation term '{X20}...'"),
        (["su2-restrict", "--rep", "0*V" + "1" * 4000],
         f"multiplicity must be >= 1 in '0*v{'1' * 17}...'"),
        (["sigma", "--class", "p1*" + "x" * 5000, "--weights", "1,2"],
         f"bad class factor '{X20}...'"),
        (["sigma", "--class", "p1^-" + "1" * 4000, "--weights", "1,2"],
         f"negative exponent in 'p1^-{'1' * 16}...'"),
        (["theorem-a", "--b", "1", "--flags", "x" * 5000], f"unknown hypothesis flag '{X20}...' "
         "(expected neg-euler, nontrivial-action, rationally-odd)"),
    ],
    ids=["sigma", "theorem-a", "su2-restrict", "su2-restrict-multiplicity", "sigma-class",
         "sigma-class-exponent", "theorem-a-flags"],
)
def test_malformed_list_token_is_quoted_by_its_first_20_characters(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_pullback_multiple_inputs_with_jobs(capsys, tmp_path):
    paths = []
    for k in (0, 2, 4):
        path = tmp_path / f"k{k}.json"
        run(capsys, ["catalog", "s2xs2", "--k", str(k), "--out", str(path)])
        paths.append(str(path))
    code, out, _ = run(
        capsys,
        ["pullback-su2", "--input", *paths, "--i", "1", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert [item["b_i"] for item in payload] == ["1", "5", "17"]
    assert [item["input"] for item in payload] == paths  # order preserved


def test_catalog_stdout_payload(capsys):
    code, out, _ = run(capsys, ["catalog", "s2xs2", "--k", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["fiber_euler_char"] == 4
    assert len(payload["components"]) == 4


def test_catalog_wg(capsys):
    code, out, _ = run(capsys, ["catalog", "wg", "--n", "3", "--g", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_char"] == -2
    assert payload["theorems_apply"] is True

    code, out, _ = run(capsys, ["catalog", "wg", "--n", "3", "--g", "1"])
    assert code == 0
    assert "not satisfied" in out


def test_catalog_group_takes_no_format_option(capsys):
    # --format belongs to the family; the catalog group itself takes none
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--format", "json", "wg", "--n", "3", "--g", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_catalog_wg_even_n_is_domain_error(capsys):
    code, _, err = run(capsys, ["catalog", "wg", "--n", "4", "--g", "2"])
    assert code == 1
    assert "odd" in err


def test_catalog_odd_k_is_domain_error(capsys):
    code, _, err = run(capsys, ["catalog", "s2xs2", "--k", "3"])
    assert code == 1
    assert "even" in err


# ---------------------------------------------------------------------------
# output stability and environment
# ---------------------------------------------------------------------------

def test_json_output_is_byte_stable(capsys, tmp_path):
    path = tmp_path / "data.json"
    run(capsys, ["catalog", "s2xs2", "--k", "8", "--out", str(path)])
    argv = ["pullback-su2", "--input", str(path), "--i", "1", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_format_env_default(capsys, monkeypatch):
    monkeypatch.setenv("KAPPA_FORGE_FORMAT", "json")
    code, out, _ = run(capsys, ["sigma", "--class", "p1", "--weights", "2,1"])
    assert code == 0
    assert json.loads(out)["sigma"] == 5


def test_format_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("KAPPA_FORGE_FORMAT", "json")
    code, out, _ = run(
        capsys, ["sigma", "--class", "p1", "--weights", "2,1", "--format", "text"]
    )
    assert code == 0
    assert out.strip() == "5"


def test_bad_env_format_is_parse_error(capsys, monkeypatch, tmp_path):
    # the format is resolved before any work: nothing is printed or written
    monkeypatch.setenv("KAPPA_FORGE_FORMAT", "yaml")
    out_file = tmp_path / "out.json"
    for argv in (
        ["sigma", "--class", "p1", "--weights", "2,1"],
        ["catalog", "s2xs2", "--k", "4"],
        ["catalog", "s2xs2", "--k", "4", "--out", str(out_file)],
        ["catalog", "wg", "--n", "3", "--g", "2"],
    ):
        assert run(capsys, argv) == (
            2, "", "error: bad output format 'yaml' (expected 'text' or 'json')\n"
        ), argv
        assert not out_file.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# size limits on rationals, b-vectors, representations and Betti tables
# ---------------------------------------------------------------------------

def run_limited(argv):
    """The CLI in a subprocess that the parent may hang or exhaust memory on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "kappa_forge.cli", *argv],
        capture_output=True, text=True, env=env, timeout=WITNESS_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_exponent_notation_within_limit_keeps_its_output(capsys):
    code, out, _ = run(capsys, ["theorem-a", "--b", "1e5,0.5,2.5E1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["b"] == ["100000", "1/2", "25"]
    # 10^4299 and 1/(2*10^4299) have 4,300 digits, the most a number may have
    code, out, _ = run(capsys, ["theorem-a", "--b", "1e4299,5e-4300", "--format", "json"])
    assert code == 0
    assert [len(x) for x in json.loads(out)["b"]] == [4300, 4302]


@pytest.mark.parametrize(
    "token",
    ["1e5000", "1e4300", "1e-4300", "-3.5e99999", "1e1000000000", "2E-1000000000",
     "1." + "1" * 4300, "9" * 5000, "1/" + "9" * 5000, "1e" + "9" * 5000],
    ids=lambda token: token[:14],
)
def test_rational_past_digit_limit_is_parse_error(token):
    for argv in (["theorem-a", "--b", f"9,{token}"], ["adams", "--k", "3", f"--b={token}"]):
        code, out, err = run_limited(argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: rational '{token[:20]}...' has a numerator or denominator "
            "over the 4300-digit limit\n"
        )


def test_zero_with_a_huge_exponent_is_zero():
    code, out, err = run_limited(["theorem-a", "--b", "0e99999999999", "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["b"] == ["0"]


def test_file_coefficient_with_a_huge_exponent_is_parse_error(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({
        "fiber_half_dim": 1,
        "components": [],
        "expected": [{"class": "p1", "coefficient": "1e1000000000", "generator": "gamma",
                      "power": 2}],
    }))
    assert run_limited(["localize", "--input", str(path)]) == (
        2, "", f"error: '{path}': expected[0]: rational '1e1000000000...' has a numerator "
        "or denominator over the 4300-digit limit\n"
    )


@pytest.mark.parametrize("padded", [" 1e3000000", "1e3000000 ", "\t1e3000000\n"], ids=repr)
def test_padded_exponent_is_refused_at_once(tmp_path, padded):
    # Fraction skips the padding, so the exponent guard must too
    message = (
        f"rational '{padded[:20]}...' has a numerator or denominator over the 4300-digit limit"
    )
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        bounded_fraction(padded)
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == message
    path = tmp_path / "data.json"
    path.write_text(json.dumps({
        "fiber_half_dim": 1,
        "components": [],
        "expected": [{"class": "p1", "coefficient": padded, "generator": "gamma", "power": 2}],
    }))
    start = time.perf_counter()
    result = run_limited(["localize", "--input", str(path)])
    elapsed = time.perf_counter() - start
    assert result == (2, "", f"error: '{path}': expected[0]: {message}\n")
    assert elapsed < 1.0


def test_bad_exponent_stays_a_bad_rational(capsys):
    for token in ("1e", "e5", "1/2e5", "1e5.5", "1 e99999999999"):
        code, out, err = run(capsys, ["theorem-a", "--b", token])
        assert (code, out) == (2, "")
        assert err == f"error: bad rational '{token}'\n"


def test_adams_refuses_a_runaway_vector():
    k = 10**999 + 1
    for n in (50, 100):
        b = ",".join(["1"] * n)
        for extra in ([], ["--certify", "--flags=rationally-odd,neg-euler,nontrivial-action"]):
            code, out, err = run_limited(["adams", "--k", str(k), "--b", b, *extra])
            assert (code, out) == (1, "")
            assert err == (
                "error: the k^(2i)-rescaled b-vector would exceed the limit of 1048576 bits\n"
            )


PLANE_LIMIT = "the torus restriction would exceed the limit of 1048576 planes"


@pytest.mark.parametrize(
    "rep, code, message",
    [
        ("10000000*V3", 1, PLANE_LIMIT),
        ("100000000000*V3", 1, PLANE_LIMIT),
        ("V" + "7" * 5000, 2, "representation term 'v7777777777777777777...' has a number "
         "over the 4300-digit limit"),
        ("9" * 5000 + "*V3", 2, "representation term '99999999999999999999...' has a number "
         "over the 4300-digit limit"),
        ("100000000000*V0", 1, "dimension must be >= 1, got 0"),
    ],
    ids=["1e7xV3", "1e11xV3", "long-dim", "long-mult", "1e11xV0"],
)
def test_restrict_refuses_oversized_representations(rep, code, message):
    assert run_limited(["su2-restrict", "--rep", rep]) == (code, "", f"error: {message}\n")


def test_catalog_wg_refuses_an_oversized_betti_table():
    assert run_limited(["catalog", "wg", "--n", "99999999999", "--g", "1"]) == (
        1, "", "error: the Betti table would exceed the limit of 1048576 entries\n"
    )
