import json

import pytest

from rgbpzeros import cli


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
    assert header == "m,re,im,residual,method,terms"
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
    ("--delta1", "1.5"), ("--delta2", "-1"),
    ("--eps", "0"), ("--eps", "-1"), ("--eps", "nan"), ("--eps", "inf"),
])
def test_bad_option_value_usage_exit(capsys, option, value):
    # usage errors, not a traceback (exit 1) or a fake stall (exit 2)
    code, out, err = run(capsys, "zeros", "--n", "40", "--a", "2",
                         option, value)
    assert code == 64
    assert out == ""
    assert err.startswith("ParameterOutOfRange: ")
    assert err.count("\n") == 1


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
    assert header == "m,re,im,residual,method,terms"
    assert len(rows) == 3


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "zeros", "--n", "50", "--a", "20.2",
                     "--format", "json")
    _, out2, _ = run(capsys, "zeros", "--n", "50", "--a", "20.2",
                     "--format", "json")
    assert out1 == out2
