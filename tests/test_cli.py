import json
import math
import sys

import pytest

from rgbpzeros import ApproximationFailures, cli

from reference import ERR_EST_GRID, oracle_error


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def parse_csv(text):
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return comments, body[0], body[1:]


def test_zeros_sweep_csv(capsys):
    code, out, _ = run(capsys, "zeros", "--n", "30", "--a", "1.2",
                       "--method", "sweep", "--format", "csv")
    assert code == 0
    comments, header, rows = parse_csv(out)
    assert "# conjugates_implied=true" in comments
    assert header == "m,re,im,err_est,method,terms"
    assert len(rows) == 15
    ims = [float(r.split(",")[2]) for r in rows]
    assert all(x > y for x, y in zip(ims, ims[1:]))
    assert all(r.split(",")[4] == "sweep" for r in rows)


def test_zeros_asymptotic_first_row(capsys):
    code, out, _ = run(capsys, "zeros", "--n", "15", "--a", "1.01",
                       "--method", "asymptotic", "--terms", "5")
    assert code == 0
    _, _, rows = parse_csv(out)
    m, re, im = rows[0].split(",")[:3]
    assert m == "1"
    ref = complex(-3.1559515225814951808, 12.586271690843017387)
    assert abs(complex(float(re), float(im)) - ref) <= 1e-10 * abs(ref)


def test_terms_applies_to_the_asymptotic_method_only(capsys):
    # a sweep row is checked against the full expansion whatever --terms
    # says, and the JSON meta reports the terms its rows carry
    for method, expected in (("sweep", 5), ("asymptotic", 3)):
        code, out, _ = run(capsys, "zeros", "--n", "15", "--a", "2.3",
                           "--method", method, "--terms", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["terms"] == expected
        assert {row["terms"] for row in doc["zeros"]} == {expected}


def test_json_and_csv_agree(capsys):
    code, out_csv, _ = run(capsys, "zeros", "--n", "15", "--a", "2.3",
                           "--format", "csv")
    assert code == 0
    code, out_json, _ = run(capsys, "zeros", "--n", "15", "--a", "2.3",
                            "--format", "json")
    assert code == 0
    doc = json.loads(out_json)
    assert doc["meta"]["n"] == 15
    assert doc["conjugates_implied"] is True
    assert doc["partial"] is False
    _, _, rows = parse_csv(out_csv)
    assert len(rows) == len(doc["zeros"]) == 8
    for row, jz in zip(rows, doc["zeros"]):
        m, re, im = row.split(",")[:3]
        # repr round-trip keeps full 17-significant-digit equality
        assert float(re) == jz["re"]
        assert float(im) == jz["im"]
        assert int(m) == jz["m"]


def test_parameter_out_of_range_usage_exit(capsys):
    code, out, err = run(capsys, "zeros", "--n", "10", "--a", "-20")
    assert code == 64
    assert "ParameterOutOfRange" in err
    assert out == ""


@pytest.mark.parametrize("option,value", [
    ("--eps", "0"), ("--eps", "-1"), ("--eps", "nan"), ("--eps", "inf"),
])
def test_bad_option_value_usage_exit(capsys, option, value):
    # the sweep's tolerance is fixed: --eps, with any value, is an
    # unknown flag and a usage error (exit 64)
    for command in ("zeros", "validate"):
        code, out, err = run(capsys, command, "--n", "40", "--a", "2",
                             option, value)
        assert code == 64
        assert out == ""
        assert "unrecognized arguments: --eps" in err


@pytest.mark.parametrize("option,value", [
    ("--delta1", "1.5"), ("--delta2", "-1"),
])
def test_window_options_are_unknown_flags(capsys, option, value):
    # the window is fixed at -0.9n + 3/2 <= a <= 10n, for both methods
    code, out, err = run(capsys, "zeros", "--n", "40", "--a", "2",
                         option, value)
    assert code == 64
    assert out == ""
    assert "unrecognized arguments" in err


def test_unknown_flag_usage_exit(capsys):
    code, _, _ = run(capsys, "zeros", "--n", "10", "--a", "2.0",
                     "--frobnicate")
    assert code == 64


def test_zeros_asymptotic_json(capsys):
    code, out, _ = run(capsys, "zeros", "--n", "30", "--a", "20.2",
                       "--method", "asymptotic", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["method"] == "asymptotic"
    assert len(doc["zeros"]) == 15
    ref = complex(-27.717880396627235555, 11.750965665786499280)
    z10 = doc["zeros"][9]
    assert abs(complex(z10["re"], z10["im"]) - ref) <= 1e-10 * abs(ref)


def test_validate_passes_and_reports(capsys):
    code, out, _ = run(capsys, "validate", "--n", "30", "--a", "1.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["sweep_vs_oracle"]["max"] <= 1e-10
    assert doc["asymptotic_vs_oracle"]["max"] <= 1e-10
    assert len(doc["sweep_vs_oracle"]["per_m"]) == 15


def test_validate_high_alpha(capsys):
    # here roots 2.3e-10 off pass a relative residual check of 1e-12; only
    # the inclusion certificate rejects them, which a sweep right to
    # 1.5e-15 needs to meet the gate
    code, out, _ = run(capsys, "validate", "--n", "53", "--a", "323.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["sweep_vs_oracle"]["max"] <= 1e-13


def test_validate_gate_failure(capsys):
    code, out, _ = run(capsys, "validate", "--n", "30", "--a", "1.2",
                       "--gate", "1e-18")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_validate_rejects_large_degree(capsys):
    code, _, err = run(capsys, "validate", "--n", "500", "--a", "2.3")
    assert code == 64
    assert "ParameterOutOfRange" in err


def test_output_file(capsys, tmp_path):
    path = tmp_path / "zeros.csv"
    code, out, _ = run(capsys, "zeros", "--n", "5", "--a", "2.3",
                       "--output", str(path))
    assert code == 0
    assert out == ""
    _, header, rows = parse_csv(path.read_text())
    assert header == "m,re,im,err_est,method,terms"
    assert len(rows) == 3


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "zeros", "--n", "50", "--a", "20.2",
                     "--format", "json")
    _, out2, _ = run(capsys, "zeros", "--n", "50", "--a", "20.2",
                     "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("method", ["sweep", "asymptotic"])
def test_err_est_bounds_oracle_error(capsys, method):
    # a stalled sweep (exit 2) is checked on its partial rows
    for n, a in ERR_EST_GRID:
        code, out, _ = run(capsys, "zeros", "--n", str(n), "--a", repr(a),
                           "--method", method, "--format", "json")
        assert code == 0 or (method, code) == ("sweep", 2), (n, a)
        for row in json.loads(out)["zeros"]:
            z = complex(row["re"], row["im"])
            assert row["err_est"] >= oracle_error(n, a, z), (n, a, row["m"])


@pytest.fixture
def no_quadratic_work(monkeypatch):
    # the O(n^2) polynomial evaluations, wherever a module bound them
    def refuse(*args, **kwargs):
        raise AssertionError("O(n^2) polynomial work in rgbp-zeros zeros")

    for name in ("relative_residual", "poly_coeffs", "theta_with_derivative"):
        for key, module in list(sys.modules.items()):
            if key.startswith("rgbpzeros") and hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("method", ["sweep", "asymptotic"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zeros_without_quadratic_work(capsys, no_quadratic_work, method,
                                      fmt):
    code, out, _ = run(capsys, "zeros", "--n", "400", "--a", "2.3",
                       "--method", method, "--format", fmt)
    assert code == 0
    if fmt == "json":
        ests = [row["err_est"] for row in json.loads(out)["zeros"]]
    else:
        ests = [float(row.split(",")[3]) for row in parse_csv(out)[2]]
    assert len(ests) == 200
    assert all(0.0 < e < 1e-12 for e in ests)


def test_stalled_sweep_row_carries_estimate(capsys, no_quadratic_work):
    code, out, _ = run(capsys, "zeros", "--n", "400", "--a", "-342.43",
                       "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["partial"] is True
    assert len(doc["zeros"]) == 1
    assert math.isfinite(doc["zeros"][0]["err_est"])


def test_one_term_rows_have_no_estimate(capsys):
    code, out, _ = run(capsys, "zeros", "--n", "9", "--a", "2.3",
                       "--method", "asymptotic", "--terms", "1")
    assert code == 0
    assert [row.split(",")[3] for row in parse_csv(out)[2]] == ["nan"] * 5
    code, out, _ = run(capsys, "zeros", "--n", "9", "--a", "2.3",
                       "--method", "asymptotic", "--terms", "1",
                       "--format", "json")
    assert code == 0
    assert [row["err_est"] for row in json.loads(out)["zeros"]] == [None] * 5


def test_sweep_rows_without_expansion_keep_exit_code(capsys, monkeypatch):
    # the expansion only checks the sweep: its failures leave the rows
    # without an estimate and change neither the rows nor the exit code
    approx_all = cli.approx_all

    def failing(params, terms):
        results = [ap for ap in approx_all(params, terms) if ap.m != 3]
        raise ApproximationFailures("forced", [(3, ValueError())], results)

    _, expected, _ = run(capsys, "zeros", "--n", "30", "--a", "2.3",
                         "--format", "json")
    monkeypatch.setattr(cli, "approx_all", failing)
    code, out, err = run(capsys, "zeros", "--n", "30", "--a", "2.3",
                         "--format", "json")
    assert code == 0
    assert err == ""
    rows, ref = json.loads(out)["zeros"], json.loads(expected)["zeros"]
    assert [(r["re"], r["im"]) for r in rows] == [(r["re"], r["im"])
                                                  for r in ref]
    assert [r["err_est"] is None for r in rows] == [r["m"] == 3 for r in rows]
