"""Report envelopes, the orbit cache, and the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from orbitprimes import cli, reports
from orbitprimes.cache import OrbitCache, _checksum
from orbitprimes.cli import main
from orbitprimes.errors import CacheError, InvariantError
from orbitprimes.intplaces import DEFAULT_BUDGET, FactoredValue


def run_cli(*args, env=None, timeout=None):
    cmd = [sys.executable, "-m", "orbitprimes.cli", *args]
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=merged, timeout=timeout)


# -- schema --------------------------------------------------------------------

def sample_reports():
    out = []
    out.append(run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "5"))
    out.append(run_cli("orbit", "--map", "x^2+1", "--alpha", "1", "--max-n", "4"))
    out.append(run_cli("height", "--point", "5/3"))
    out.append(run_cli("canonical-height", "--map", "x^2+1", "--alpha", "1", "--tol", "1e-4"))
    out.append(run_cli("classify", "--map", "x^2-1", "--alpha", "0"))
    out.append(run_cli("map-analyze", "--map", "x^2+1/2"))
    out.append(run_cli("prop-old", "--map", "x^2+1", "--alpha", "1", "--F", "x^2+1",
                       "--i", "1", "--max-n", "5"))
    out.append(run_cli("abc", "--a", "1", "--b", "8"))
    out.append(run_cli("roth-scan", "--F", "x^3+2", "--height-bound", "8"))
    out.append(run_cli("mason", "--a", "t^2+2t", "--b", "1"))
    out.append(run_cli("galois-tower", "--a", "1", "--max-n", "3"))
    return out


def test_every_cli_report_validates():
    jsonschema = pytest.importorskip("jsonschema")
    schema = reports.load_schema()
    for proc in sample_reports():
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        reports.validate_report(report)  # shipped mini-validator
        jsonschema.validate(report, schema)  # independent validator


def test_validate_report_rejects_bad_envelopes():
    good = {"schema_version": 1, "kind": "abc", "config": {}, "data": {
        "a": "1", "b": "8", "c": "9", "height": 1.0, "rad_mass": 1.0}}
    reports.validate_report(good)
    for mutate in (
        lambda r: r.pop("kind"),
        lambda r: r.update(kind="nope"),
        lambda r: r.update(schema_version=99),
        lambda r: r.update(extra=1),
        lambda r: r["data"].pop("c"),
    ):
        bad = {"schema_version": 1, "kind": "abc", "config": {},
               "data": dict(good["data"])}
        mutate(bad)
        with pytest.raises(InvariantError):
            reports.validate_report(bad)


def test_big_integers_rendered_as_decimal_strings():
    proc = run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "8")
    report = json.loads(proc.stdout)
    values = [row["value"] for row in report["data"]["records"]]
    assert values[7] == str(int(values[6]) ** 2 + 1)


def test_rational_rendering():
    from fractions import Fraction

    from orbitprimes.ffplaces import FFElement
    from orbitprimes.intplaces import point_str
    from orbitprimes.maps import INFINITY, as_point

    assert point_str(Fraction(5, 3)) == "5/3"
    assert point_str(Fraction(-5, 3)) == "-5/3"
    assert point_str(Fraction(26)) == "26"
    assert point_str(INFINITY) == "inf"
    assert point_str(FFElement.parse("1/t")) == "(1)/(t)"
    for text in ("5/3", "-5/3", "26", "inf"):
        assert point_str(as_point(text)) == text


# -- cache -----------------------------------------------------------------------

BUDGET = 10000


def make_factorizations():
    return [
        FactoredValue(sign=1, prime_powers=((2, 1),)),
        FactoredValue(sign=1, prime_powers=((5, 2), (13, 1)), cofactor=1000073001431003663),
        FactoredValue(sign=-1, prime_powers=((3, 4),), certified=False),
    ]


def test_cache_roundtrip(tmp_path):
    # p listed once while it still divides the cofactor: an under-counted
    # exponent, left out on load
    p, q = 93604463, 2200367677
    stale = FactoredValue(sign=1, prime_powers=((p, 1),), cofactor=p * q)
    cache = OrbitCache(str(tmp_path / "orbit.jsonl"))
    cache.append([stale, *make_factorizations()], BUDGET)
    loaded = cache.load(BUDGET)
    assert loaded == {fac.reconstruct(): fac for fac in make_factorizations()}
    # entries made under another budget are validated but not returned
    assert cache.load(BUDGET + 1) == {}


def test_cache_tamper_detection(tmp_path):
    path = tmp_path / "orbit.jsonl"
    cache = OrbitCache(str(path))
    cache.append(make_factorizations(), BUDGET)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('["13",1]', '["17",1]')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CacheError) as info:
        cache.load(BUDGET)
    assert info.value.line_number == 2


@pytest.mark.parametrize("prime_powers", [((5, 1), (3, 1)), ((3, 1), (3, 2))],
                         ids=["unsorted", "repeated"])
def test_factored_value_needs_sorted_distinct_primes(tmp_path, prime_powers):
    with pytest.raises(ValueError, match="sorted with distinct primes"):
        FactoredValue(sign=1, prime_powers=prime_powers)
    # a line with a valid checksum is still checked when it is loaded
    payload = {"budget": BUDGET, "sign": 1, "cofactor": None, "certified": True,
               "prime_powers": [[str(p), e] for p, e in prime_powers]}
    payload["check"] = _checksum(payload)
    path = tmp_path / "orbit.jsonl"
    path.write_text(json.dumps(payload) + "\n")
    with pytest.raises(CacheError, match="sorted with distinct primes") as info:
        OrbitCache(str(path)).load(BUDGET)
    assert info.value.line_number == 1


def test_cache_invalid_json_names_line(tmp_path):
    path = tmp_path / "orbit.jsonl"
    path.write_text('{"ok": tru\n')
    with pytest.raises(CacheError) as info:
        OrbitCache(str(path)).load(BUDGET)
    assert info.value.line_number == 1


# -- CLI ---------------------------------------------------------------------------

def test_cli_resume_byte_identical(tmp_path):
    cache_file = str(tmp_path / "orbit.jsonl")
    fresh = run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "10")
    partial = run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "5",
                      "--cache", cache_file)
    assert partial.returncode == 0
    resumed = run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "10",
                      "--cache", cache_file)
    assert resumed.returncode == 0
    assert fresh.stdout == resumed.stdout


def test_cli_cache_cold_warm_identical_with_early_stops(tmp_path):
    # levels 6..8 of x^2+1 from 1 have an exponent-1 prime below 10^4, so
    # their square-free search stops early and caches no factorization
    cache_file = tmp_path / "orbit.jsonl"
    args = ("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "8",
            "--squarefree-max-n", "8", "--cache", str(cache_file))
    cold = run_cli(*args)
    assert cold.returncode == 0, cold.stderr
    stored = cache_file.read_text()
    # the primitive parts of levels 1..5
    assert set(OrbitCache(str(cache_file)).load(DEFAULT_BUDGET)) == {2, 5, 13, 677, 45833}
    warm = run_cli(*args)
    assert warm.returncode == 0, warm.stderr
    assert warm.stdout == cold.stdout
    assert cache_file.read_text() == stored  # nothing new to append


def test_cli_resume_after_another_budget_or_map(tmp_path):
    # level 7 of x^2+3 from 1 is unresolved at budget 0 and not at 20000;
    # a factorization is reused only under the budget that made it, and a
    # store written for another map is checked against the numbers alone
    scan = ("zsigmondy", "--max-n", "9", "--squarefree-max-n", "9")
    target = ("--map", "x^2+3", "--alpha", "1", "--budget", "20000")
    fresh = run_cli(*scan, *target)
    assert fresh.returncode == 0, fresh.stderr
    assert json.loads(fresh.stdout)["data"]["squarefree_unresolved"] == [8, 9]
    earlier_runs = [("--map", "x^2+3", "--alpha", "1", "--budget", "0"),
                    ("--map", "x^2+5", "--alpha", "2", "--budget", "20000")]
    for k, earlier in enumerate(earlier_runs):
        cache_file = str(tmp_path / f"orbit-{k}.jsonl")
        first = run_cli(*scan, *earlier, "--cache", cache_file)
        assert first.returncode == 0, first.stderr
        resumed = run_cli(*scan, *target, "--cache", cache_file)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == fresh.stdout, earlier


def test_cli_resume_refactors_undercounted_cache(tmp_path):
    # a factorization cached with p listed once while p still divides the
    # cofactor reconstructs the part, but its exponent of p is wrong
    p, q, r = 93604463, 80852481648220942189071096236914129511269, 2200367677
    c = p * p * q * r
    cache_file = tmp_path / "orbit.jsonl"
    args = ("zsigmondy", "--map", f"x^2+{c}", "--alpha", "0", "--max-n", "1",
            "--squarefree-max-n", "1", "--budget", "10000")
    fresh = run_cli(*args)
    assert fresh.returncode == 0, fresh.stderr
    stale = FactoredValue(sign=1, prime_powers=((p, 1),), cofactor=p * q * r)
    OrbitCache(str(cache_file)).append([stale], 10000)
    resumed = run_cli(*args, "--cache", str(cache_file))
    assert resumed.returncode == 0, resumed.stderr
    data = json.loads(resumed.stdout)["data"]
    assert "squarefree_witness" not in data["records"][0]
    assert data["squarefree_unresolved"] == [1]
    assert resumed.stdout == fresh.stdout


def test_cli_cache_env_dir(tmp_path):
    proc = run_cli(
        "zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "3",
        "--cache", "sub.jsonl", env={"ORBITPRIMES_CACHE_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0
    assert (tmp_path / "sub.jsonl").exists()


def test_cli_exit_codes():
    assert run_cli("zsigmondy", "--map", "x^2-", "--alpha", "1").returncode == 1
    assert run_cli("zsigmondy", "--map", "x+1", "--alpha", "1").returncode == 1
    assert run_cli("nonsense").returncode == 1
    proc = run_cli("orbit", "--map", "x^2+1", "--alpha", "1", "--max-n", "3")
    assert proc.returncode == 0
    # tampered cache: usage/parse error class
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        cache_file = os.path.join(d, "c.jsonl")
        run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "3",
                "--cache", cache_file)
        with open(cache_file) as fh:
            content = fh.read()
        with open(cache_file, "w") as fh:
            fh.write(content.replace('["2",1]', '["3",1]'))
        proc = run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "3",
                       "--cache", cache_file)
        assert proc.returncode == 1
        assert "line 1" in proc.stderr


def test_cli_orbit_has_no_cache(tmp_path):
    # orbit makes no factorization, so it has nothing to store
    cache_file = tmp_path / "orbit.jsonl"
    proc = run_cli("orbit", "--map", "x^2+1", "--alpha", "1", "--cache", str(cache_file))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "unrecognized arguments: --cache" in proc.stderr
    assert not cache_file.exists()


# the older format stored the orbit values of one map per level; these two
# lines, with valid checksums, are `orbit --map x^2+1 --alpha 1 --max-n 2`
OLD_FORMAT_LINES = (
    '{"check":"2ab2926792663e35","denom":"1","factor_data":null,'
    '"map_hash":"3484f6c57cd84d07","n":1,"numer":"2"}\n'
    '{"check":"bf23c6eb0d68ae53","denom":"1","factor_data":null,'
    '"map_hash":"3484f6c57cd84d07","n":2,"numer":"5"}\n'
)


def test_cli_refuses_old_cache_format(tmp_path):
    cache_file = tmp_path / "orbit.jsonl"
    cache_file.write_text(OLD_FORMAT_LINES)
    proc = run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "3",
                   "--cache", str(cache_file))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: line 1: not a factorization record")


def test_cli_budget_zero_is_a_budget():
    # 1000073001431003663 = 1000003 * 1000033 * 1000037 needs rho past trial
    # division; --budget 0 used to run the default budget instead
    args = ("abc", "--a", "1", "--b", "1000073001431003662")
    default = json.loads(run_cli(*args).stdout)["data"]
    zero = run_cli(*args, "--budget", "0")
    assert zero.returncode == 0, zero.stderr
    data = json.loads(zero.stdout)["data"]
    assert default["rad_exact"] is True
    assert data["rad_exact"] is False and data["quality_is_upper_bound"] is True


def test_cli_rejects_negative_budget():
    proc = run_cli("abc", "--a", "1", "--b", "1000073001431003662", "--budget", "-5")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: --budget must be >= 0\n"


@pytest.mark.parametrize("args", [
    ("canonical-height", "--map", "x^2+1", "--alpha", "3", "--tol", "nan"),
    ("roth-scan", "--F", "x^3+2", "--height-bound", "3", "--epsilon", "nan"),
])
def test_cli_rejects_nan_tolerances(args):
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "must be positive" in proc.stderr


@pytest.mark.parametrize("args, option", [
    (("orbit", "--map", "x^2+1", "--alpha", "1", "--max-n=-2"), "--max-n"),
    (("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n=-2"), "--max-n"),
    (("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--squarefree-max-n=-1"),
     "--squarefree-max-n"),
    (("prop-old", "--map", "x^2+1", "--alpha", "1", "--F", "x^2+1", "--i", "1",
      "--max-n=-1"), "--max-n"),
    (("classify", "--map", "x^2+1", "--alpha", "1", "--max-steps=-1"), "--max-steps"),
    (("galois-tower", "--a", "3", "--max-n=-1"), "--max-n"),
    (("map-analyze", "--map", "x^2+1", "--threshold=-1"), "--threshold"),
])
def test_cli_rejects_negative_depths(args, option, capsys):
    # the orbit walks used to leak islice's message; galois-tower printed
    # "a": null and --squarefree-max-n=-1 was taken
    assert main(list(args)) == 1
    assert capsys.readouterr() == ("", f"error: {option} must be >= 0\n")


@pytest.mark.parametrize("args, message", [
    (("canonical-height", "--map", "x^2+1", "--alpha", "1", "--tol", "inf"),
     "--tol must be positive and finite"),
    (("roth-scan", "--F", "x^3+2", "--height-bound", "5", "--epsilon", "inf"),
     "--epsilon must be positive and finite"),
    (("prop-old", "--map", "x^2+1", "--alpha", "1", "--F", "x^2+1", "--i", "1",
      "--max-n", "5", "--delta", "1e400"), "--delta must be finite"),
    # finite, but delta * h(phi^n(alpha)) is not: no JSON can hold the margin
    (("prop-old", "--map", "x^2+1", "--alpha", "1", "--F", "x^2+1", "--i", "1",
      "--max-n", "5", "--delta", "1e308"), "Out of range float values are not JSON compliant"),
])
def test_cli_rejects_non_finite_floats(args, message, capsys):
    assert main(list(args)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")


def test_cli_tiny_tol_returns_the_capped_estimate(capsys):
    # 1e-320 used to overflow converting 2^n to a float in the target-N loop;
    # below the float resolution of the estimate the radius stays above tol
    data = {}
    for tol in ("1e-12", "1e-320", "5e-324"):
        assert main(["canonical-height", "--map", "x^2+1", "--alpha", "1", "--tol", tol]) == 0
        data[tol] = json.loads(capsys.readouterr().out)["data"]
    sharp = data["1e-12"]
    assert sharp["capped"] is False and sharp["error_radius"] <= 1e-12
    for tol in ("1e-320", "5e-324"):
        assert data[tol]["capped"] is True and data[tol]["error_radius"] < 1e-15
        assert abs(data[tol]["estimate"] - sharp["estimate"]) <= sharp["error_radius"]


def test_reports_are_strict_json(capsys):
    with pytest.raises(ValueError):
        reports.to_json({"value": float("-inf")})
    # every row skipped: the empirical constant used to be -Infinity
    assert main(["prop-old", "--map", "x^2", "--alpha", "0", "--F", "x", "--i", "1",
                 "--max-n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["empirical_constant"] == 0.0


def test_cli_rejects_non_ascii_digits():
    # "x^2+٣" (Arabic-Indic three) used to run as x^2+3
    proc = run_cli("zsigmondy", "--map", "x^2+\u0663", "--alpha", "1", "--max-n", "3")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "at position 4" in proc.stderr


# conftest lifts the interpreter's 4300-digit int/str guard in this process
# only; these children run with it at its default
LONG = "9" * 4999 + "7"


def run_guarded_cli(*args):
    cmd = [sys.executable, "-X", "int_max_str_digits=4300", "-m", "orbitprimes.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_cli_reads_points_of_any_length():
    proc = run_guarded_cli("orbit", "--map", "x^2+1", "--alpha", LONG, "--max-n", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["data"]["alpha"] == LONG
    proc = run_guarded_cli("height", "--point", f"{LONG}/3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["data"]["point"] == f"{LONG}/3"
    proc = run_guarded_cli("height", "--point=-(2^100)")
    assert json.loads(proc.stdout)["data"]["point"] == str(-(2**100))


@pytest.mark.parametrize("args, position", [
    (("orbit", "--map", "x^2+1", "--alpha", "\u0663"), 0),
    (("height", "--point", "\u0663"), 0),
    (("abc", "--a", "\u0663", "--b", "1"), 0),
    (("classify", "--map", "x^2-1", "--alpha", "1_0"), 1),
    (("height", "--point", "0.5"), 1),
    (("height", "--point", "1e3"), 1),
])
def test_cli_points_are_expression_constants(args, position):
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and f"at position {position}" in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("abc", "--a", "inf", "--b", "1"), "error: abc needs finite --a and --b\n"),
    # --field is offered only where Q(t) is implemented
    (("prop-old", "--map", "x^2+1", "--alpha", "1", "--F", "x^2+1", "--i", "1",
      "--max-n", "3", "--field", "qt"), "error: unrecognized arguments: --field qt\n"),
])
def test_cli_refuses_unsupported_points_and_fields(args, message):
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


@pytest.mark.parametrize("argv", [
    ("zsigmondy", "--map", "x^2+t", "--alpha", "1", "--field", "qt", "--max-n", "3"),
    ("roth-scan", "--F", "x^3-2", "--samples"),
    ("mason", "--a", "t^2", "--b", "1", "--format", "csv"),
    ("prop-old", "--map", "x^2+1", "--alpha", "1", "--F", "x^2+1", "--i", "1", "--field", "qt"),
    ("galois-tower", "--max-n", "3"),
])
def test_the_parser_of_one_command_parses_as_the_full_parser(argv):
    def outcome(parser):
        try:
            return vars(parser.parse_args(argv))
        except cli._UsageError as exc:
            return str(exc)

    # a namespace for a command line, or its usage error, as with every subcommand
    assert outcome(cli.build_parser(argv[0])) == outcome(cli.build_parser())


def test_cli_resource_cap_exit_code():
    # (x-1)^2 never produces simple roots, so the scan must reach depth 50,
    # and the iterate degree cap fires first
    proc = run_cli("map-analyze", "--map", "(x-1)^2", "--depth", "50")
    assert proc.returncode == 2


def test_cli_power_literal_past_the_digit_cap_exit_code():
    proc = run_cli("height", "--point", "2^4000000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("resource cap: ") and "near position 1" in proc.stderr


@pytest.mark.parametrize("args, position", [
    # each factor is under the cap, their product of 9 million bits is not
    (("height", "--point", "2^3000000*2^3000000*2^3000000"), 9),
    (("zsigmondy", "--map", "x^2+2^3000000/(1/2^3000000)", "--alpha", "1"), 13),
    # each term of a sum is under the cap, its cross products are not
    (("height", "--point", "1/2^3000000+1/2^3000000+1/2^3000000+1/2^3000000"), 11),
    (("height", "--point", "1/3^2000000+1/2^2000000"), 11),
])
def test_cli_product_literal_past_the_digit_cap_exit_code(args, position):
    # refused before any multiplication, so quickly
    proc = run_cli(*args, timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("resource cap: product literal") and \
        f"near position {position}" in proc.stderr


@pytest.mark.parametrize("bound", ["--max-degree", "--coeff-bound"])
def test_cli_roth_scan_qt_rejects_negative_sample_bounds(bound):
    proc = run_cli("roth-scan", "--F", "x^3-t", "--field", "qt", bound, "-1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: max degree and coefficient bound must be >= 0\n"


def test_cli_formats():
    table = run_cli("abc", "--a", "1", "--b", "8", "--format", "table")
    assert table.returncode == 0
    assert "quality" in table.stdout
    csv = run_cli("galois-tower", "--a", "1", "--max-n", "2", "--format", "csv")
    assert csv.returncode == 0
    header = csv.stdout.splitlines()[0]
    assert "certificate" in header and "," in header


def test_cli_qt_field():
    proc = run_cli("zsigmondy", "--map", "x^2+t", "--alpha", "t", "--field", "qt",
                   "--max-n", "4")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["data"]["field"] == "Q(t)"
    assert report["data"]["zsigmondy_set"] == []
    proc = run_cli("height", "--point", "(t^2+1)/t^5", "--field", "qt")
    assert json.loads(proc.stdout)["data"]["value"] == 5


def test_cli_height_of_infinity_over_qt():
    # infinity over Q(t) reads like 0 over Q(t); over Q it keeps its log_arg
    data = json.loads(run_cli("height", "--point", "inf", "--field", "qt").stdout)["data"]
    zero = json.loads(run_cli("height", "--point", "0", "--field", "qt").stdout)["data"]
    assert data == dict(zero, point="inf") == {"point": "inf", "field": "Q(t)", "value": 0}
    assert isinstance(data["value"], int)
    data = json.loads(run_cli("height", "--point", "inf").stdout)["data"]
    assert data == {"point": "inf", "field": "Q", "value": 0.0, "log_arg": "1"}
    assert isinstance(data["value"], float)


def test_cli_roth_scan_qt_refuses_a_proper_rational_function():
    proc = run_cli("roth-scan", "--field", "qt", "--F", "1/x")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: expected a polynomial in x, got a proper rational "
                           "function (at position 0)\n")


@pytest.mark.parametrize("expr, alpha", [
    ("x^2+1", "1"), ("x^2-2", "1/3"), ("(3x^2+1)/(x^2-2)", "1"),
])
def test_cli_classify_prints_the_canonical_height(expr, alpha):
    classify = json.loads(run_cli("classify", "--map", expr, "--alpha", alpha).stdout)["data"]
    height = json.loads(run_cli("canonical-height", "--map", expr, "--alpha", alpha).stdout)
    assert classify["kind"] == "wandering"
    assert (classify["height_estimate"], classify["height_error_radius"]) == \
        (height["data"]["estimate"], height["data"]["error_radius"])


@pytest.mark.parametrize("args, kind", [
    (("--map", "x^2-1", "--alpha", "0"), "preperiodic"),
    (("--map", "x^2+1", "--alpha", "1", "--max-steps", "0"), "inconclusive"),
])
def test_cli_classify_without_a_wandering_certificate_prints_no_height(args, kind):
    data = json.loads(run_cli("classify", *args).stdout)["data"]
    assert data["kind"] == kind
    assert "height_estimate" not in data and "height_error_radius" not in data


def test_cli_classify_step_limit_defaults_to_the_heights_one():
    from orbitprimes.heights import MAX_STEPS

    config = json.loads(run_cli("classify", "--map", "x^2+1", "--alpha", "1").stdout)["config"]
    assert config["max_steps"] == MAX_STEPS == 2000


@pytest.mark.parametrize("F", ["x^3-t*x+1", "x^3+t^2"])
def test_cli_roth_scan_qt_minimum_at_zero_sample(F):
    # the minimum margin falls on the zero sample, whose argmin renders "0"
    proc = run_cli("roth-scan", "--F", F, "--field", "qt", "--max-degree", "1",
                   "--coeff-bound", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["data"]["argmin"] == "0"


def test_big_integers_keep_the_interpreter_digit_guard(tmp_path):
    # conftest lifts the guard in this process, so check in a fresh one
    script = """
import sys
limit = sys.get_int_max_str_digits()
from orbitprimes.cache import OrbitCache
from orbitprimes.intplaces import FactoredValue
big = 7 ** 6000  # 5071 digits, over the default guard of 4300
fac = FactoredValue(sign=-1, prime_powers=((3, 2),), cofactor=big)
cache = OrbitCache(sys.argv[1])
cache.append([fac], 0)
assert cache.load(0) == {-9 * big: fac}
import importlib, pkgutil, orbitprimes
for info in pkgutil.iter_modules(orbitprimes.__path__):  # every module body runs
    importlib.import_module(f"orbitprimes.{info.name}")
from orbitprimes.intplaces import point_str
rendered = point_str(-9 * big)
assert sys.get_int_max_str_digits() == limit
sys.set_int_max_str_digits(0)
assert rendered == str(-9 * big)
"""
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-c", script,
         str(tmp_path / "orbit.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_deterministic_output():
    a = run_cli("roth-scan", "--F", "x^3+2", "--height-bound", "12", "--samples")
    b = run_cli("roth-scan", "--F", "x^3+2", "--height-bound", "12", "--samples")
    assert a.stdout == b.stdout
    z1 = run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "7")
    z2 = run_cli("zsigmondy", "--map", "x^2+1", "--alpha", "1", "--max-n", "7")
    assert z1.returncode == 0
    assert z1.stdout == z2.stdout
