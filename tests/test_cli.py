"""Exit codes and payloads for every CLI subcommand."""

import json
import math

import pytest

import rdmap.cli
from rdmap.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, main
from rdmap.operators import RdParams

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


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, ["spectralize"])
    assert code == EXIT_USAGE


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
