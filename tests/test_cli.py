"""Exit codes and payloads for every CLI subcommand."""

import argparse
import json
import math

import pytest

import rdmap.cli
from rdmap.cli import (
    EXIT_MATH_FAIL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    NONNEGATIVE_FLOAT,
    NONNEGATIVE_INT,
    POSITIVE_FLOAT,
    POSITIVE_INT,
    main,
)
from rdmap.groups import FreeAbelianGroup
from rdmap.operators import RdParams, builtin_rd_params

KESTEN_JSON = json.dumps(
    {
        "group": {"kind": "free", "rank": 2},
        "terms": [
            {"elem": "a", "re": 1.0, "im": 0.0},
            {"elem": "A", "re": 1.0, "im": 0.0},
            {"elem": "b", "re": 1.0, "im": 0.0},
            {"elem": "B", "re": 1.0, "im": 0.0},
        ],
    }
)

COUNTEREXAMPLE_JSON = json.dumps(
    {"entries": [[0, 10, 1], [10, 0, 1], [1, 1, 0]]}
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check-cn


def test_check_cn_passes_on_tree_length(capsys):
    code, out, _ = run(capsys, ["check-cn", "--group", "free:2", "--radius", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdict"]["passed"] is True
    assert payload["size"] == 17


def test_check_cn_counterexample_witness(capsys):
    code, out, _ = run(capsys, ["check-cn", "--kernel-json", COUNTEREXAMPLE_JSON])
    assert code == EXIT_MATH_FAIL
    verdict = json.loads(out)["verdict"]
    assert verdict["passed"] is False
    assert verdict["witness"] == [1.0, 1.0, -2.0]


def test_check_cn_kernel_file(capsys, tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(COUNTEREXAMPLE_JSON)
    code, out, _ = run(capsys, ["check-cn", "--kernel", str(path)])
    assert code == EXIT_MATH_FAIL
    assert json.loads(out)["source"] == "imported"


def test_check_cn_malformed_json(capsys):
    code, _, err = run(capsys, ["check-cn", "--kernel-json", "{broken"])
    assert code == EXIT_USAGE
    assert "usage error" in err


def test_check_cn_missing_inputs(capsys):
    code, _, _ = run(capsys, ["check-cn"])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# check-pd


def test_check_pd_default_grid(capsys):
    code, out, _ = run(capsys, ["check-pd", "--group", "free:2", "--radius", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [entry["r"] for entry in payload["results"]] == [0.05, 0.5, 2.0]
    assert all(entry["min_eigenvalue"] >= -1e-8 for entry in payload["results"])


def test_check_pd_custom_r_and_cyclic(capsys):
    code, out, _ = run(
        capsys,
        ["check-pd", "--group", "cyclic:5", "--radius", "2", "--r", "1.0"],
    )
    assert code == EXIT_OK
    assert [e["r"] for e in json.loads(out)["results"]] == [1.0]


def test_check_pd_rejects_nonpositive_r(capsys):
    code, _, _ = run(
        capsys, ["check-pd", "--group", "free:2", "--radius", "2", "--r", "0"]
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# norm


def test_norm_point_mass(capsys):
    elem = json.dumps(
        {"group": {"kind": "free", "rank": 2}, "terms": [{"elem": "a", "re": 1.0, "im": 0.0}]}
    )
    code, out, _ = run(capsys, ["norm", "--element-json", elem, "--radius", "2"])
    assert code == EXIT_OK
    bracket = json.loads(out)["bracket"]
    assert bracket["lower"] == pytest.approx(1.0, abs=1e-9)
    assert bracket["upper"] == pytest.approx(1.0)


def test_norm_kesten_bracket(capsys):
    code, out, _ = run(capsys, ["norm", "--element-json", KESTEN_JSON, "--radius", "6"])
    assert code == EXIT_OK
    bracket = json.loads(out)["bracket"]
    assert bracket["lower"] <= 2.0 * math.sqrt(3.0) <= bracket["upper"]
    assert bracket["upper"] == pytest.approx(4.0)


def test_norm_cap_overflow(capsys):
    code, _, err = run(capsys, ["norm", "--element-json", KESTEN_JSON, "--radius", "12"])
    assert code == EXIT_RESOURCE
    assert "resource cap" in err


def test_norm_requires_one_element_source(capsys, tmp_path):
    code, _, _ = run(capsys, ["norm"])
    assert code == EXIT_USAGE
    path = tmp_path / "f.json"
    path.write_text(KESTEN_JSON)
    code, _, _ = run(
        capsys,
        ["norm", "--element", str(path), "--element-json", KESTEN_JSON],
    )
    assert code == EXIT_USAGE


def _free2_element_json(terms):
    return json.dumps({"group": {"kind": "free", "rank": 2}, "terms": terms})


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_norm_rejects_non_finite_coefficient(capsys, part, value):
    terms = [{"elem": w, "re": 1.0, "im": 0.0} for w in "aAbB"]
    terms[0][part] = value
    code, out, err = run(capsys, ["norm", "--element-json", _free2_element_json(terms)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "non-finite" in err and "Traceback" not in err


def test_norm_rejects_overflowing_element(capsys):
    terms = [{"elem": w, "re": 1e308, "im": 0.0} for w in "aAbB"]
    code, out, err = run(capsys, ["norm", "--element-json", _free2_element_json(terms)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("rank", [None, 2.5, True, [2], "2"], ids=repr)
def test_norm_rejects_non_integer_group_parameter(capsys, rank):
    # an int or an integral float only: the string "2" is refused too
    payload = json.dumps({"group": {"kind": "free", "rank": rank}, "terms": []})
    code, out, err = run(capsys, ["norm", "--element-json", payload])
    assert code == EXIT_USAGE
    assert out == ""
    assert "'rank'" in err and "Traceback" not in err


def test_norm_accepts_integral_float_group_parameter(capsys):
    payload = json.dumps({"group": {"kind": "free", "rank": 2.0}, "terms": _kesten_terms(1.0)})
    code, out, _ = run(capsys, ["norm", "--element-json", payload, "--radius", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["group"] == {"kind": "free", "rank": 2}
    assert payload["bracket"]["upper"] == 4.0


@pytest.mark.parametrize("terms", [5, "ab", {}], ids=repr)
def test_norm_rejects_terms_that_are_not_a_list(capsys, terms):
    code, out, err = run(capsys, ["norm", "--element-json", _free2_element_json(terms)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "'terms'" in err and "Traceback" not in err


def _kesten_terms(c):
    return [{"elem": w, "re": c, "im": 0.0} for w in "aAbB"]


@pytest.mark.parametrize("k", [-560, -470, 510])
def test_norm_bracket_scales_by_powers_of_two(capsys, k):
    # scaling the element by 2^k scales both ends by 2^k exactly
    argv = ["norm", "--radius", "4", "--element-json"]
    code, out, _ = run(capsys, argv + [_free2_element_json(_kesten_terms(1.0))])
    assert code == EXIT_OK
    base = json.loads(out)["bracket"]
    code, out, err = run(capsys, argv + [_free2_element_json(_kesten_terms(math.ldexp(1.0, k)))])
    assert code == EXIT_OK, err
    got = json.loads(out)["bracket"]
    assert got["lower"] == math.ldexp(base["lower"], k)
    assert got["upper"] == math.ldexp(base["upper"], k)
    assert (got["iterations"], got["achieved_tol"]) == (base["iterations"], base["achieved_tol"])


@pytest.mark.parametrize("c", [1e-170, 1e-140, 1e153])
def test_norm_extreme_magnitudes_give_sound_brackets(capsys, c):
    terms = _kesten_terms(c)
    code, out, err = run(capsys, ["norm", "--radius", "4", "--element-json", _free2_element_json(terms)])
    assert code == EXIT_OK, err
    bracket = json.loads(out)["bracket"]
    assert 3.0 * c <= bracket["lower"] <= 2.0 * math.sqrt(3.0) * c <= bracket["upper"]


def test_norm_unsound_constants_exit_math_fail(capsys, monkeypatch):
    monkeypatch.setattr(rdmap.cli, "builtin_rd_params", lambda g: RdParams(C=0.01, s=2.0))
    code, out, err = run(capsys, ["norm", "--element-json", KESTEN_JSON, "--radius", "4"])
    assert code == EXIT_MATH_FAIL
    assert out == ""
    assert "unsound bound" in err


def test_norm_element_from_file(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(KESTEN_JSON)
    code, out, _ = run(capsys, ["norm", "--element", str(path), "--radius", "4"])
    assert code == EXIT_OK
    assert json.loads(out)["bracket"]["upper"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# rd-sample


def test_rd_sample_passes(capsys):
    code, out, _ = run(
        capsys,
        ["rd-sample", "--group", "free-abelian:1", "--count", "20", "--seed", "42"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert 0.0 < payload["worst_ratio"] <= 1.0 + 1e-9


def test_rd_sample_adversarial_constant(capsys):
    code, out, _ = run(
        capsys,
        [
            "rd-sample", "--group", "free-abelian:1", "--count", "5",
            "--seed", "42", "--C", "1e-6",
        ],
    )
    assert code == EXIT_MATH_FAIL
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["worst_ratio"] > 1.0
    assert payload["worst_element"]["terms"]


def test_rd_sample_usage_errors(capsys):
    code, _, _ = run(
        capsys, ["rd-sample", "--group", "free:2", "--count", "0", "--seed", "1"]
    )
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, ["rd-sample", "--group", "free:2", "--count", "5"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "entries",
    [[[0, math.inf], [math.inf, 0]], [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]],
    ids=["infinite", "overflowing"],
)
def test_check_cn_rejects_bad_kernel_entries(capsys, entries):
    code, out, err = run(capsys, ["check-cn", "--kernel-json", json.dumps({"entries": entries})])
    assert code == EXIT_USAGE
    assert out == ""
    assert "entries" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "entries",
    [[["0", "1e1"], ["10", False]], [[0, True], [True, 0]]],
    ids=["numeric-strings", "booleans"],
)
def test_check_cn_rejects_kernel_entries_that_are_not_numbers(capsys, entries):
    # np.asarray(..., dtype=float) reads both, as [[0, 10], [10, 0]] and [[0, 1], [1, 0]]
    code, out, err = run(capsys, ["check-cn", "--kernel-json", json.dumps({"entries": entries})])
    assert code == EXIT_USAGE
    assert out == ""
    assert "kernel entries" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "payload",
    [
        {"entries": {}},
        {"entries": None},
        {"entries": [[0, {}], [{}, 0]]},
    ],
    ids=["entries-object", "entries-null", "entry-object"],
)
def test_check_cn_rejects_malformed_kernel_containers(capsys, payload):
    code, out, err = run(capsys, ["check-cn", "--kernel-json", json.dumps(payload)])
    assert code == EXIT_USAGE
    assert out == ""
    assert "kernel" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,names",
    [
        (["rd-sample", "--group", "free:2", "--seed", "1", "--count", "3", "--s", "1e300"], ["s="]),
        (["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.1", "--r", "1e-300"], ["r=", "s="]),
        (["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.1", "--r", "1e-320"], ["r=", "s=", "n ="]),
        (["rd-sample", "--group", "free:2", "--seed", "1", "--count", "3", "--C", "1e-320"], ["--C"]),
    ],
    ids=["rd-s-1e300", "mc-r-1e-300", "mc-r-1e-320", "rd-C-subnormal"],
)
def test_overflowing_constants_name_their_parameter(capsys, argv, names):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert all(name in err for name in names), err


def test_rd_sample_least_normal_constant_reports_failure(capsys):
    code, out, _ = run(
        capsys,
        ["rd-sample", "--group", "free:2", "--seed", "1", "--count", "3", "--C", "2.2250738585072014e-308"],
    )
    assert code == EXIT_MATH_FAIL
    payload = json.loads(out)
    assert payload["passed"] is False
    # at most 6 terms: worst_ratio <= l1 / (C * l2) <= sqrt(6) / C stays finite
    assert 1.0 < payload["worst_ratio"] <= math.sqrt(6.0) / 2.2250738585072014e-308


# ---------------------------------------------------------------------------
# map-converge


def test_map_converge_selects_row(capsys):
    code, out, _ = run(
        capsys, ["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.3"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["selected"]["r"] == 0.02
    assert len(payload["rows"]) == 3
    uppers = [row["defect_upper"] for row in payload["rows"]]
    assert uppers[0] > uppers[1] > uppers[2]


def test_map_converge_epsilon_zero_reports_none(capsys):
    code, out, _ = run(
        capsys, ["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0"]
    )
    assert code == EXIT_MATH_FAIL
    assert json.loads(out)["selected"] is None


def test_map_converge_csv_format(capsys):
    code, out, _ = run(
        capsys,
        [
            "map-converge", "--element-json", KESTEN_JSON,
            "--epsilon", "0.3", "--format", "csv",
        ],
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "r,n,U,K_n,defect_lower,defect_upper,runtime_ms"
    assert len(lines) == 4
    assert all(line.split(",")[6] == "0.0" for line in lines[1:])


def test_map_converge_output_file_deterministic(capsys, tmp_path):
    first = tmp_path / "rows1.csv"
    second = tmp_path / "rows2.csv"
    for path in (first, second):
        code, _, _ = run(
            capsys,
            [
                "map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.3",
                "--format", "csv", "--seed", "5", "--out", str(path),
            ],
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_map_converge_custom_schedule(capsys):
    code, out, _ = run(
        capsys,
        [
            "map-converge", "--element-json", KESTEN_JSON, "--epsilon", "1.0",
            "--r", "0.4", "--r", "0.2",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [row["r"] for row in payload["rows"]] == [0.4, 0.2]


def test_map_converge_negative_epsilon(capsys):
    code, _, _ = run(
        capsys, ["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "-1"]
    )
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# parser plumbing


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--element-json", KESTEN_JSON, "--ball-cap", "0"],
        ["norm", "--element-json", KESTEN_JSON, "--radius", "-1"],
        ["norm", "--element-json", KESTEN_JSON, "--tol", "0"],
        ["norm", "--element-json", KESTEN_JSON, "--max-iters", "0"],
        ["check-cn", "--group", "free:2", "--radius", "-1"],
        ["check-pd", "--group", "free:2", "--radius", "2", "--ball-cap", "0"],
        ["rd-sample", "--group", "free:2", "--seed", "1", "--C", "-1"],
        ["rd-sample", "--group", "free:2", "--seed", "1", "--s", "0"],
    ],
    ids=["ball-cap-0", "radius-neg", "tol-0", "max-iters-0", "cn-radius-neg",
         "pd-ball-cap-0", "C-neg", "s-0"],
)
def test_out_of_range_flags_exit_usage(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.3", "--s", "7"], "--s"),
        (["norm", "--element-json", KESTEN_JSON, "--rad", "3", "--max", "5"], "--rad"),
    ],
    ids=["mc-s-is-not-seed", "norm-rad-max"],
)
def test_flag_prefixes_exit_usage(capsys, argv, prefix):
    # prefix matching is off: --s is not --seed, --rad is not --radius
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "usage error" in err and prefix in err


@pytest.mark.parametrize(
    "argv",
    [
        ["norm", "--element-json", KESTEN_JSON, "--radius", "2", "--seed", "-1"],
        ["rd-sample", "--group", "free:2", "--count", "3", "--seed", "-5"],
        ["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.3", "--seed", "-1"],
    ],
    ids=["norm", "rd-sample", "map-converge"],
)
def test_negative_seed_exits_usage(capsys, argv):
    # on a ball of at most 64 elements the seed goes unused, so only the
    # parser can refuse it there
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--seed" in err and "Traceback" not in err


@pytest.mark.parametrize("command,flag", [("norm", "--element"), ("check-cn", "--kernel")])
@pytest.mark.parametrize("form", ["inline", "file"])
def test_deeply_nested_json_exits_usage(capsys, tmp_path, command, flag, form):
    nested = "[" * 200_000
    if form == "file":
        path = tmp_path / "nested.json"
        path.write_text(nested)
        argv = [command, flag, str(path)]
    else:
        flag += "-json"
        argv = [command, flag, nested]
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["check-cn", "check-pd"])
def test_seed_is_not_a_kernel_flag(capsys, command):
    # neither check draws anything at random, so neither takes a seed
    code, out, err = run(capsys, [command, "--group", "free:2", "--radius", "2", "--seed", "5"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "--seed" in err


def test_check_cn_rejects_ragged_kernel_rows(capsys):
    # np.asarray refused them with "inhomogeneous shape", naming no kernel
    code, out, err = run(capsys, ["check-cn", "--kernel-json", '{"entries": [[0, 1], [1]]}'])
    assert code == EXIT_USAGE
    assert out == ""
    assert "kernel entries must form a square matrix" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["check-pd", "--group", "free:2", "--radius", "2", "--r", "1e999"], "--r"),
        (["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.3", "--r", "1e999"], "--r"),
        (["norm", "--element-json", KESTEN_JSON, "--tol", "1e999"], "--tol"),
        (["check-cn", "--group", "free:2", "--radius", "2", "--tol", "1e999"], "--tol"),
        (["rd-sample", "--group", "free:2", "--seed", "1", "--C", "1e999"], "--C"),
    ],
    ids=["pd-r", "mc-r", "norm-tol", "cn-tol", "rd-C"],
)
def test_overflowing_float_flags_exit_usage(capsys, argv, flag):
    # a numeral that passes the ASCII rule but reads as inf
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"argument {flag}: must be a finite number, got '1e999'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["norm", "--element-json", KESTEN_JSON, "--tol", "nan"], "--tol"),
        (["check-cn", "--group", "free:2", "--radius", "2", "--tol", "nan"], "--tol"),
        (["check-pd", "--group", "free:2", "--radius", "2", "--r", "nan"], "--r"),
        (["check-pd", "--group", "free:2", "--radius", "2", "--r", "inf"], "--r"),
        (["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "nan"], "--epsilon"),
        (["map-converge", "--element-json", KESTEN_JSON, "--epsilon", "0.3", "--r", "nan"], "--r"),
        (["rd-sample", "--group", "free:2", "--seed", "1", "--C", "nan"], "--C"),
        (["rd-sample", "--group", "free:2", "--seed", "1", "--s", "inf"], "--s"),
    ],
    ids=["norm-tol", "cn-tol", "pd-r-nan", "pd-r-inf", "mc-epsilon", "mc-r", "rd-C", "rd-s"],
)
def test_non_finite_float_flags_exit_usage(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rd-sample", "--group", "free:1_0", "--count", "3", "--seed", "1"],
        ["check-cn", "--group", "cyclic:\uff11\uff12", "--radius", "2"],
    ],
    ids=["underscore", "fullwidth-digits"],
)
def test_group_parameter_must_be_ascii_digits(capsys, argv):
    # int() reads both, as free(10) and Z/12
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--group" in err and "Traceback" not in err


@pytest.mark.parametrize("text", ["1_0", "\uff12", "\u0662", " 2", "2 ", "2\n", "1.0", "0x10", ""])
def test_integer_flags_take_ascii_digits_only(text):
    # int() reads the first six, as 10, 2, 2, 2, 2 and 2
    with pytest.raises(argparse.ArgumentTypeError, match="invalid int"):
        NONNEGATIVE_INT(text)


@pytest.mark.parametrize("text,value", [("10", 10), ("+3", 3), ("007", 7)])
def test_integer_flags_read_signed_ascii_digits(text, value):
    assert POSITIVE_INT(text) == value


@pytest.mark.parametrize(
    "text", ["1_0.5", "1e-1_0", "\uff10.3", "0.\u0663", " 0.3", "0.3 ", "nan", "inf", "-Infinity", "0x1p-3", "."]
)
def test_float_flags_take_ascii_numerals_only(text):
    with pytest.raises(argparse.ArgumentTypeError, match="invalid float"):
        NONNEGATIVE_FLOAT(text)


@pytest.mark.parametrize(
    "text,value", [("1e-3", 1e-3), (".5", 0.5), ("0.3", 0.3), ("5.", 5.0), ("2E+2", 200.0), ("7", 7.0)]
)
def test_float_flags_read_decimal_numerals(text, value):
    assert POSITIVE_FLOAT(text) == value


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["check-cn", "--group", "free:2", "--radius", "1_0", "--ball-cap", "5"], "--radius"),
        (["check-cn", "--group", "free:2", "--radius", "\uff12"], "--radius"),
        (["norm", "--element-json", KESTEN_JSON, "--max-iters", "1_00"], "--max-iters"),
        (["norm", "--element-json", KESTEN_JSON, "--tol", " 1e-8"], "--tol"),
    ],
    ids=["radius-underscore", "radius-fullwidth", "max-iters-underscore", "tol-space"],
)
def test_number_flags_refuse_what_int_and_float_would_read(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize(
    "group,flag,value,expected",
    [
        ("free:2", "--C", "2", {"C": 2.0, "s": 2.0}),
        ("free-abelian:2", "--s", "3", {"C": builtin_rd_params(FreeAbelianGroup(2)).C, "s": 3.0}),
    ],
    ids=["C-alone", "s-alone"],
)
def test_rd_sample_single_override_keeps_builtin_other(capsys, group, flag, value, expected):
    code, out, _ = run(
        capsys, ["rd-sample", "--group", group, "--count", "3", "--seed", "7", flag, value]
    )
    assert code in (EXIT_OK, EXIT_MATH_FAIL)
    assert json.loads(out)["rd"] == expected


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, ["spectralize"])
    assert code == EXIT_USAGE


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
